"""Command line front end.

Four subcommands:

* ``check CONFIG.json``: full verdict pipeline on one configuration,
  report as indented JSON on stdout. Exit code 0 feasible, 1 infeasible,
  2 undetermined, 3 malformed input, 4 internal error, which includes a
  report whose soundness bit is false (the JSON is still printed).
* ``sweep``: verdicts over a grid of symmetric configurations (or a JSON
  list of ``[M, N, d]`` pair lists, bare or as ``{"pairs": [...]}``), one
  compact JSON line per configuration plus a footer with counts.
  ``--workers N`` runs the reports in a process pool of at most N workers,
  no more than the cores or the chunks of work. Exit 0 once the sweep
  ran, 3 for an empty grid, ``--workers`` below 1 or malformed input.
* ``hall CONFIG.json``: sample channels and print the alignment
  coefficient matrix in the text dump format (``--prime`` implies
  ``--field prime``); exit 3 when some pair cannot carry its streams.
* ``alloc CONFIG.json``: the pressure-transfer run behind ``check``'s
  allocation; balanced runs print the allocation map and exit 0, stuck
  runs print the witness and exit 1. It runs only the properness engine,
  so a network that another necessary check rules out (the antenna
  budget, say) can still print a balanced run with no certificate.

Seed precedence in ``check``, ``sweep`` and ``hall``: ``--seed`` flag,
then the config file's ``seed`` entry, then the ``IA_KIT_SEED``
environment variable, then 0; a negative seed exits 3. A configuration
too large to draw channels for in memory exits 3 with its size. A closed
stdout ends any command quietly, exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from contextlib import contextmanager

from .allocation import report_allocation
from .channels import sample_channels
from .config import NetworkConfig, load_config_file, read_json, system_shape
from .fields import COMPLEX, DEFAULT_PRIME, validate_field
from .jacobian import build_jacobian
from .report import FEASIBLE, INFEASIBLE, UNDETERMINED, feasibility_report

_EXIT_BY_VERDICT = {FEASIBLE: 0, INFEASIBLE: 1, UNDETERMINED: 2}


class CliError(Exception):
    """Malformed input: bad config, bad flag value, empty grid."""


def _resolve_seed(flag_seed, file_seed) -> int:
    """``--seed``, then the config file's seed, then ``IA_KIT_SEED``, then 0."""
    seed = flag_seed if flag_seed is not None else file_seed
    if seed is None:
        env = os.environ.get("IA_KIT_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise CliError(f"IA_KIT_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise CliError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _resolve_prime(flag_prime, file_field) -> int:
    """``--prime``, then the config file's prime, then ``DEFAULT_PRIME``."""
    prime = flag_prime
    if prime is None:
        prime = file_field if isinstance(file_field, int) else DEFAULT_PRIME
    return validate_field(prime)


@contextmanager
def _fits_in_memory(cfg: NetworkConfig):
    """Turn running out of memory on ``cfg`` into malformed input."""
    try:
        yield
    except MemoryError:
        c, v = system_shape(cfg)
        entries = sum(cfg.N(k) * cfg.M(j) for k, j in cfg.cross_pairs())
        raise CliError(
            f"{cfg.describe()} is too large: out of memory with {entries} "
            f"channel entries per draw and a {c} x {v} coefficient matrix"
        ) from None


def _parse_range(text: str, name: str) -> list:
    """Parse "lo:hi" (inclusive) or a single integer."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            v = int(parts[0])
            return [v]
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if hi < lo:
                raise CliError(f"--{name}: empty range {text!r}")
            return list(range(lo, hi + 1))
    except ValueError:
        pass
    raise CliError(f"--{name} expects an integer or lo:hi, got {text!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(ns) -> int:
    cfg, file_seed, field = load_config_file(ns.config)
    seed = _resolve_seed(ns.seed, file_seed)
    prime = _resolve_prime(ns.prime, field)
    with _fits_in_memory(cfg):
        rep = feasibility_report(cfg, seed=seed, mode=ns.mode, p=prime, solve=ns.solve)
    print(json.dumps(rep.to_dict(), indent=2))
    if not rep.sound:
        return 4
    return _EXIT_BY_VERDICT[rep.verdict]


def _sweep_worker(args) -> dict:
    cfg, seed, mode, prime = args
    with _fits_in_memory(cfg):
        rep = feasibility_report(cfg, seed=seed, mode=mode, p=prime)
    c, v = system_shape(cfg)
    return {
        "label": cfg.describe(),
        "pairs": [[p.M, p.N, p.d] for p in cfg.pairs],
        "verdict": rep.verdict,
        "rule": rep.rule,
        "sound": rep.sound,
        "constraints": c,
        "variables": v,
    }


def _sweep_jobs(ns) -> list:
    if ns.configs:
        data = read_json(ns.configs)
        if not isinstance(data, list):
            raise CliError("--configs file must hold a JSON list")
        jobs = []
        for entry in data:
            unknown = sorted(set(entry) - {"pairs"}) if isinstance(entry, dict) else ()
            if unknown:
                raise CliError(f'config entry has unknown keys {unknown}; it takes only "pairs"')
            pairs = entry.get("pairs") if isinstance(entry, dict) else entry
            if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 3 for p in pairs
            ):
                raise CliError(f"bad config entry {entry!r}: pairs are [M, N, d] lists")
            try:
                jobs.append(NetworkConfig.from_tuples(tuple(p) for p in pairs))
            except (TypeError, ValueError) as exc:
                raise CliError(f"bad config entry {entry!r}: {exc}") from None
        return jobs

    if ns.K is None or ns.M is None or ns.d is None:
        raise CliError("sweep needs --configs or all of --K, --M, --d")
    Ks = _parse_range(ns.K, "K")
    Ms = _parse_range(ns.M, "M")
    Ns = _parse_range(ns.N, "N") if ns.N else None
    ds = _parse_range(ns.d, "d")
    # the config types reject a K or a count below 1
    jobs = []
    for K in Ks:
        for M in Ms:
            for N in Ns if Ns is not None else [M]:
                for d in ds:
                    jobs.append(NetworkConfig.symmetric(K, M, N, d))
    return jobs


def _cmd_sweep(ns) -> int:
    if ns.workers < 1:
        raise CliError("--workers must be at least 1")
    jobs = _sweep_jobs(ns)
    if not jobs:
        raise CliError("sweep grid is empty")
    seed = _resolve_seed(ns.seed, None)
    prime = _resolve_prime(ns.prime, None)
    args = [(cfg, seed, ns.mode, prime) for cfg in jobs]
    # The pool starts every worker up front, so it gets no more of them
    # than there are cores or chunks. A report takes milliseconds, so
    # single-task round trips to the pool would cost as much as the work;
    # about four chunks per worker still balance the load.
    workers = min(ns.workers, os.cpu_count() or 1)
    chunksize = max(1, len(args) // (4 * workers))
    workers = min(workers, -(-len(args) // chunksize))
    if workers > 1:
        # imported here: a cold ``check`` does not pay for the pool's import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            lines = list(ex.map(_sweep_worker, args, chunksize=chunksize))
    else:
        lines = [_sweep_worker(a) for a in args]

    counts = {FEASIBLE: 0, INFEASIBLE: 0, UNDETERMINED: 0}
    violations = 0
    for line in lines:
        counts[line["verdict"]] += 1
        if not line["sound"]:
            violations += 1
        print(json.dumps(line, separators=(",", ":")))
    footer = {
        "footer": {
            "configs": len(lines),
            "feasible": counts[FEASIBLE],
            "infeasible": counts[INFEASIBLE],
            "undetermined": counts[UNDETERMINED],
            "soundness_violations": violations,
        }
    }
    print(json.dumps(footer, separators=(",", ":")))
    return 0


def _cmd_hall(ns) -> int:
    cfg, file_seed, field = load_config_file(ns.config)
    seed = _resolve_seed(ns.seed, file_seed)
    if ns.field == "complex" and ns.prime is not None:
        raise CliError("--prime selects the prime field, not --field complex")
    if ns.field == "prime" or ns.prime is not None:
        field = _resolve_prime(ns.prime, field)
    elif ns.field == "complex":
        field = COMPLEX
    # ns.field None: keep whatever the config file said (default complex);
    # sample_channels validates the field
    with _fits_in_memory(cfg):
        channels = sample_channels(cfg, seed=seed, field=field)
        jac = build_jacobian(channels)
    jac.dump(sys.stdout)
    return 0


def _cmd_alloc(ns) -> int:
    cfg, _, _ = load_config_file(ns.config)
    res, report, variant = report_allocation(cfg)
    if res.balanced:
        out = {
            "verdict": "balanced",
            "variant": variant,
            "transfers": res.transfers,
            "certificate": report.certificate,
            "allocation": res.alloc.to_json_dict(),
        }
        print(json.dumps(out, indent=2))
        return 0
    out = {
        "verdict": "stuck",
        "variant": variant,
        "transfers": res.transfers,
        "witness": res.witness.to_dict(),
        "tree": res.tree.to_dict(),
    }
    print(json.dumps(out, indent=2))
    return 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iafeas", description="alignment feasibility toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument(
            "--mode", choices=("gf", "numeric"), default="gf", help="rank backend"
        )
        p.add_argument("--prime", type=int, default=None, help="finite field modulus")

    p_check = sub.add_parser("check", help="verdict for one configuration")
    p_check.add_argument("config", help="configuration JSON file")
    common(p_check)
    p_check.add_argument("--solve", action="store_true", help="attach solver runs")
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="verdicts over a configuration grid")
    p_sweep.add_argument("--configs", help="JSON file with a list of configurations")
    p_sweep.add_argument("--K", help="pair count or lo:hi")
    p_sweep.add_argument("--M", help="transmit antennas or lo:hi")
    p_sweep.add_argument("--N", help="receive antennas or lo:hi (defaults to M)")
    p_sweep.add_argument("--d", help="streams or lo:hi")
    p_sweep.add_argument("--workers", type=int, default=1)
    common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_hall = sub.add_parser("hall", help="dump the alignment coefficient matrix")
    p_hall.add_argument("config", help="configuration JSON file")
    p_hall.add_argument("--seed", type=int, default=None)
    p_hall.add_argument("--field", choices=("complex", "prime"), default=None)
    p_hall.add_argument("--prime", type=int, default=None)
    p_hall.set_defaults(func=_cmd_hall)

    p_alloc = sub.add_parser("alloc", help="run the pressure-transfer allocator")
    p_alloc.add_argument("config", help="configuration JSON file")
    p_alloc.set_defaults(func=_cmd_alloc)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:
        # the reader left; send the interpreter's final flush nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
