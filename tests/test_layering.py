"""Module boundaries inside the package, read from the source with ``ast``.

A module reaches another module's code only through its public names, and
the closed forms in ``conditions`` sit below the transfer engine in
``allocation``: the engine imports the family test from them, never the
other way round. The top-level API holds only names that the demos, the
tests or the benchmark import from ``iafeas``. Only ``witnesses`` states a
witness inequality: other modules build witnesses from index data alone.
Only ``channels`` stacks links and builds alignment systems: other modules
read a channel set's stacks and its system. A channel set carries its
network, so no function takes both.
"""

import ast
from pathlib import Path

import pytest

import iafeas

PACKAGE = Path(iafeas.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
REPO = Path(__file__).parent.parent
CALLERS = sorted(
    path for folder in ("demos", "tests", "perfbench") for path in (REPO / folder).rglob("*.py")
)


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def _imports(path):
    """(module, name) for every name a file imports from the package.

    ``name`` is None where a whole module is imported.
    """
    for node in _nodes(path):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module != "iafeas" and not module.startswith("iafeas."):
                    continue
                module = module.removeprefix("iafeas").lstrip(".")
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("iafeas."):
                    yield alias.name.removeprefix("iafeas."), None


def test_every_package_module_is_read():
    names = {path.name for path in MODULES}
    assert {"allocation.py", "cli.py", "conditions.py", "report.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_name_crosses_a_module(path):
    crossing = [
        (module, name)
        for module, name in _imports(path)
        if (name or module).startswith("_")
    ]
    assert crossing == []


def test_conditions_does_not_import_allocation():
    modules = {module for module, _ in _imports(PACKAGE / "conditions.py")}
    assert "allocation" not in modules


def test_every_exported_name_is_imported_by_a_caller():
    imported = {name for path in CALLERS for name, module in _imports(path) if module is None}
    assert sorted(set(iafeas.__all__) - imported) == []


def _calls(name, owner):
    """(file, line) of every call of ``name`` outside the module ``owner``."""

    def called(node):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    return [
        (path.name, node.lineno)
        for path in MODULES
        if path.name != owner
        for node in _nodes(path)
        if isinstance(node, ast.Call) and called(node) == name
    ]


def test_only_witnesses_calls_the_witness_constructor():
    assert _calls("SubsetWitness", "witnesses.py") == []


def test_only_channels_constructs_link_batches():
    assert _calls("LinkBatch", "channels.py") == []


def test_only_channels_builds_an_alignment_system():
    assert _calls("AlignmentSystem", "channels.py") == []


def _annotated(node, name):
    return node.annotation is not None and name in ast.unparse(node.annotation)


def test_no_function_takes_a_channel_set_and_its_network():
    takes_channels, takes_both = [], []
    for path in MODULES:
        for node in _nodes(path):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            if any(_annotated(a, "ChannelSet") for a in params):
                takes_channels.append(node.name)
                if any(_annotated(a, "NetworkConfig") for a in params):
                    takes_both.append((path.name, node.name))
    assert {"build_jacobian", "gauss_newton", "_gf_rank_at"} <= set(takes_channels)
    assert takes_both == []
