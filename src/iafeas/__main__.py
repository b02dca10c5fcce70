"""``python -m iafeas``: the command line front end (see ``iafeas.cli``)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
