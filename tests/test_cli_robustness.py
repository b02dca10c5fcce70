"""Malformed input exits 3 with a one-line message, never a traceback.

One regression test per defect found by fuzzing the command line, then a
hypothesis fuzz of ``cli.main`` over JSON shapes and flag values.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import iafeas
import iafeas.cli
import iafeas.rank
from iafeas import parse_dump
from iafeas.cli import main

PRIME = 1048583
ENV = dict(os.environ, PYTHONPATH=str(Path(iafeas.__file__).parents[1]))


def write(tmp_path, name, obj):
    if not isinstance(obj, (str, bytes)):
        obj = json.dumps(obj)
    path = tmp_path / name
    path.write_bytes(obj.encode() if isinstance(obj, str) else obj)
    return str(path)


def ring(K, M, N, d, **extra):
    return {"pairs": [{"M": M, "N": N, "d": d}] * K, **extra}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv("IA_KIT_SEED", raising=False)


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_deeply_nested_json_exits_three(tmp_path, capsys, command):
    deep = write(tmp_path, "deep.json", "[" * 100_000)
    argv = [command, deep] if command == "check" else [command, "--configs", deep]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot read config file: maximum recursion depth")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "CONFIG", "--solve", "--tol", "inf"],
        ["check", "CONFIG", "--tol", "1e-9"],
        ["check", "CONFIG", "--trials", "3"],
        ["sweep", "--K", "3", "--M", "2", "--d", "1", "--trials", "3"],
        ["alloc", "CONFIG", "--seed", "3"],
        ["alloc", "CONFIG", "--plain"],
    ],
)
def test_removed_solver_and_trial_flags_exit_three(tmp_path, capsys, argv):
    cfg = write(tmp_path, "ring.json", ring(3, 2, 2, 1))
    code, out, err = run(capsys, *[cfg if a == "CONFIG" else a for a in argv])
    assert (code, out) == (3, "")
    assert "unrecognized arguments" in err


def test_negative_seed_exits_three(tmp_path, capsys, monkeypatch):
    # (1x1,1)^3 is settled by C > V before any channel is drawn, so only the
    # command line can reject the seed
    cfg = write(tmp_path, "tiny.json", ring(3, 1, 1, 1))
    code, out, err = run(capsys, "check", cfg, "--seed", "-5")
    assert (code, out, err) == (3, "", "error: seed must be a non-negative integer, got -5\n")

    monkeypatch.setenv("IA_KIT_SEED", "-3")
    for argv in (["check", cfg], ["sweep", "--K", "3", "--M", "1", "--d", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", "error: seed must be a non-negative integer, got -3\n")


def test_hall_prime_flag_selects_the_prime_field(tmp_path, capsys):
    cfg = write(tmp_path, "ring.json", ring(3, 2, 2, 1))
    code, out, err = run(capsys, "hall", cfg, "--prime", "97")
    assert (code, out) == (3, "") and "2**20" in err

    code, out, _ = run(capsys, "hall", cfg, "--prime", str(PRIME))
    assert code == 0
    assert parse_dump(out)[2] == f"prime:{PRIME}"

    code, out, err = run(capsys, "hall", cfg, "--field", "complex", "--prime", str(PRIME))
    assert (code, out) == (3, "")
    assert err == "error: --prime selects the prime field, not --field complex\n"


def test_unknown_config_keys_exit_three(tmp_path, capsys):
    top = write(tmp_path, "top.json", ring(3, 2, 2, 1, sed=4))
    code, out, err = run(capsys, "check", top)
    assert (code, out, err) == (3, "", "error: config has unknown keys ['sed']\n")

    pair = write(tmp_path, "pair.json", {"pairs": [{"M": 2, "N": 2, "d": 1, "x": 1}] * 3})
    code, out, err = run(capsys, "check", pair)
    assert (code, out) == (3, "")
    assert "'x': 1" in err and err.count("\n") == 1


def test_sweep_entries_take_only_pair_lists(tmp_path, capsys):
    extra = write(tmp_path, "extra.json", [{"pairs": [[2, 2, 1]] * 3, "seed": 5, "bogus": 1}])
    code, out, err = run(capsys, "sweep", "--configs", extra)
    assert (code, out) == (3, "")
    assert err == (
        "error: config entry has unknown keys ['bogus', 'seed']; it takes only \"pairs\"\n"
    )

    # check's pair objects, and pairs of the wrong length
    for entry in (ring(3, 2, 2, 1), [[2, 2, 1], [2, 2]]):
        code, out, err = run(capsys, "sweep", "--configs", write(tmp_path, "list.json", [entry]))
        assert (code, out) == (3, "")
        assert err.endswith(": pairs are [M, N, d] lists\n") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "sweep", "hall"])
def test_out_of_memory_draw_exits_three(tmp_path, capsys, monkeypatch, command):
    # numpy raises MemoryError when a draw cannot be allocated; the stand-in
    # raises it without allocating anything
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 447. GiB for an array")

    monkeypatch.setattr(iafeas.rank, "sample_channels", out_of_memory)
    monkeypatch.setattr(iafeas.cli, "sample_channels", out_of_memory)
    huge = ring(3, 100_000, 100_000, 1)
    if command == "sweep":
        argv = ["sweep", "--configs", write(tmp_path, "list.json", [[[100_000, 100_000, 1]] * 3])]
    else:
        argv = [command, write(tmp_path, "huge.json", huge)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "error: (100000x100000,1)^3 is too large: out of memory with 60000000000 "
        "channel entries per draw and a 6 x 599994 coefficient matrix\n"
    )


def test_closed_stdout_is_a_quiet_exit(tmp_path):
    # the dump of (10x10,2)^8 is well over a pipe buffer, so the writer is
    # still writing when the reader goes away
    cfg = write(tmp_path, "big.json", ring(8, 10, 10, 2))
    proc = subprocess.Popen(
        [sys.executable, "-m", "iafeas", "hall", cfg],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV,
    )
    assert proc.stdout.readline().split() == [b"224", b"256", b"complex"]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


# ---------------------------------------------------------------------------
# fuzz: JSON shapes and flag values through cli.main
#
# Each input is valid more often than not, so most runs get past the
# parser. Valid counts stay at 8 or below and K at 4 or below, grids hold
# at most eight configurations and --workers stays at 2 or below. --solve
# stays out: the solvers take about a second on an infeasible network of
# this size.
# ---------------------------------------------------------------------------

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
small = st.integers(1, 8)
triple = st.tuples(small, small, st.integers(1, 3))
valid_config = st.fixed_dictionaries(
    {"pairs": st.lists(triple.map(lambda t: dict(zip("MNd", t))), min_size=1, max_size=4)},
    optional={
        "seed": st.integers(0, 2**40),
        "field": st.sampled_from(["complex", {"prime": PRIME}, {"prime": 2**31 - 1}]),
    },
)
bad_pair = st.one_of(
    junk,
    st.fixed_dictionaries({"M": small, "N": small}),
    st.fixed_dictionaries({"M": small | junk, "N": small, "d": small | junk}),
    st.fixed_dictionaries({"M": small, "N": small, "d": small, "x": junk}),
)
bad_config = st.fixed_dictionaries(
    {"pairs": st.lists(triple.map(lambda t: dict(zip("MNd", t))) | bad_pair, max_size=4) | junk},
    optional={
        "seed": st.integers(-2, 2**40) | junk,
        "field": st.sampled_from(["prime", {"prime": 97}, 2**31 - 1]) | junk,
        "extra": junk,
    },
)
valid_list = st.lists(st.lists(triple, min_size=1, max_size=4), min_size=1, max_size=3)
bad_list = st.lists(st.lists(st.lists(st.integers(0, 8), max_size=4) | junk, max_size=4)
                    | junk, max_size=3)
bad_document = st.one_of(
    bad_config.map(json.dumps),
    junk.map(json.dumps),
    st.text(max_size=12),
    st.binary(max_size=8),
    st.sampled_from([3, 300, 3000]).map(lambda n: "[" * n + "]" * n),
)


def mostly(valid, *invalid):
    """Flag choices, the valid ones (the first list) three times as likely."""
    return st.sampled_from(valid * 3 + list(invalid))


seed_flag = mostly([[], ["--seed", "17"]], ["--seed", "-1"], ["--seed", "x"])
prime_flag = mostly([[], ["--prime", str(PRIME)]], ["--prime", "97"], ["--prime", "-1"])
mode_flag = mostly([[], ["--mode", "numeric"]], ["--mode", "svd"])
removed_flag = mostly([[]], ["--tol", "inf"], ["--trials", "2"])
env_seed = mostly([None, "5"], "-2", "seven")
span = mostly(["1", "2", "3", "2:3", "3:4"], "0", "-1", "3:2", "x", "1:")
count_flag = mostly(["1", "2", "5", "8"], "0", "3:2", "y")
workers_flag = mostly([[], ["--workers", "2"]], ["--workers", "0"])


@st.composite
def invocation(draw):
    """(argv, IA_KIT_SEED or None, file text); "CONFIG" in argv names the file."""
    command = draw(st.sampled_from(["check", "alloc", "hall", "sweep"]))
    argv = [command, "CONFIG"]
    document = valid_config.map(json.dumps)
    if command == "sweep":
        document = valid_list.map(json.dumps) | bad_list.map(json.dumps)
        argv = [command, "--configs", "CONFIG"]
        if draw(st.booleans()):
            argv = [command]
            for name, values in (("K", span), ("M", count_flag), ("N", count_flag), ("d", span)):
                if name == "N" or draw(st.integers(0, 5)):
                    argv += [f"--{name}", draw(values)]
        argv += draw(workers_flag)
    if command != "alloc":
        argv += draw(seed_flag)
    if command in ("check", "sweep"):
        argv += draw(mode_flag) + draw(prime_flag) + draw(removed_flag)
    elif command == "hall":
        argv += draw(mostly([[], ["--field", "prime"], ["--field", "complex"]]))
        argv += draw(prime_flag)
    text = draw(draw(mostly([document], bad_document)))
    return argv, draw(env_seed), text


def well_formed(command, out):
    if command in ("check", "alloc"):
        json.loads(out)
    elif command == "sweep":
        for line in out.splitlines():
            json.loads(line)
    else:
        parse_dump(out)
    return True


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(invocation())
def test_fuzzed_command_lines_exit_cleanly(tmp_path, capsys, monkeypatch, call):
    argv, seed, text = call
    path = write(tmp_path, "fuzz.json", text)
    if seed is None:
        monkeypatch.delenv("IA_KIT_SEED", raising=False)
    else:
        monkeypatch.setenv("IA_KIT_SEED", seed)
    code, out, err = run(capsys, *[path if a == "CONFIG" else a for a in argv])
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    assert out == "" or well_formed(argv[0], out)
