import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iafeas
from iafeas import (
    NetworkConfig,
    allocation_from_json_dict,
    parse_dump,
    verify_allocation,
)
from iafeas.cli import main


def write_cfg(tmp_path, name, pairs, **extra):
    obj = {"pairs": [{"M": m, "N": n, "d": d} for m, n, d in pairs]}
    obj.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv("IA_KIT_SEED", raising=False)


def test_check_feasible_exit_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "ring.json", [(2, 2, 1)] * 3)
    code, out, _ = run(capsys, "check", cfg)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "FEASIBLE"
    assert rep["label"] == "(2x2,1)^3"
    assert rep["sound"] is True
    assert rep["shape"] == {"constraints": 6, "variables": 6}


def test_check_infeasible_exit_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "ring4.json", [(2, 2, 1)] * 4)
    code, out, _ = run(capsys, "check", cfg)
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] == "INFEASIBLE"
    assert rep["rule"].startswith("necessary:")
    assert rep["witness"]["lhs"] < rep["witness"]["rhs"]


def test_check_undetermined_exit_two(tmp_path, capsys):
    # every counting test passes, yet the coefficient matrix loses rank:
    # the single-antenna pair forces the other two into a square deficient
    # subsystem that no necessary condition sees
    cfg = write_cfg(tmp_path, "gap.json", [(1, 1, 1), (4, 4, 2), (4, 4, 2)])
    code, out, _ = run(capsys, "check", cfg)
    assert code == 2
    rep = json.loads(out)
    assert rep["verdict"] == "UNDETERMINED"
    assert rep["rule"] == "inconclusive"
    assert rep["necessary"]["passed"] is True
    assert rep["rank"]["full_row_rank"] is False


def test_check_square_deficient_pair_is_caught_by_link_budget(tmp_path, capsys):
    # (3x3,2)^2 is proper and square (C = V = 8) but already the single
    # link needs max(M_1, N_2) >= d_1 + d_2
    cfg = write_cfg(tmp_path, "edge.json", [(3, 3, 2)] * 2)
    code, out, _ = run(capsys, "check", cfg)
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] == "INFEASIBLE"
    assert rep["rule"] == "necessary:antenna_budget"
    assert (rep["witness"]["lhs"], rep["witness"]["rhs"]) == (3, 4)
    assert rep["rank"]["full_row_rank"] is False


def test_check_budget_violation_above_twelve_pairs(tmp_path, capsys):
    # K = 13: the budget runs at every K, so link (2,1) between the two
    # (3x3,2) pairs is caught among eleven roomy pairs
    cfg = write_cfg(tmp_path, "k13.json", [(3, 3, 2)] * 2 + [(30, 30, 1)] * 11)
    code, out, err = run(capsys, "check", cfg)
    assert err == ""
    assert code == 1
    rep = json.loads(out)
    assert rep["rule"] == "necessary:antenna_budget"
    assert rep["witness"]["links"] == [[2, 1]]


@pytest.mark.parametrize(
    "pairs",
    [
        [(1, 3, 2), (4, 4, 1)],  # C <= V: the rank test must not build a matrix
        [(1, 3, 2)],  # C = 0: no constraints, still not a full-rank certificate
    ],
)
def test_check_stream_support_failure_exits_one(tmp_path, capsys, pairs):
    cfg = write_cfg(tmp_path, "stream.json", pairs)
    code, out, err = run(capsys, "check", cfg)
    assert err == ""
    assert code == 1
    rep = json.loads(out)
    assert rep["rule"] == "necessary:stream_support"
    assert rep["sound"] is True
    assert rep["rank"]["trials"] == 0 and rep["rank"]["rank"] is None


def test_python_dash_m_runs_the_cli(tmp_path):
    cfg = write_cfg(tmp_path, "ring.json", [(2, 2, 1)] * 3)
    env = dict(os.environ, PYTHONPATH=str(Path(iafeas.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "iafeas", "check", cfg],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.stderr == ""
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "FEASIBLE"


def test_cli_import_leaves_the_process_pool_out():
    # only sweep --workers needs the pool; a cold check should not import it
    env = dict(os.environ, PYTHONPATH=str(Path(iafeas.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, iafeas.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_check_output_does_not_depend_on_hash_seed(tmp_path):
    # string hashing is salted per process; nothing in a report may follow it
    cfg = write_cfg(tmp_path, "c442.json", [(4, 4, 2)] * 3)
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(iafeas.__file__).parents[1]),
            PYTHONHASHSEED=hash_seed,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "iafeas", "check", cfg, "--seed", "5"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_check_exits_four_on_unsound_report(tmp_path, capsys, monkeypatch):
    import iafeas.report

    real = iafeas.report.generic_full_row_rank

    def claims_full_rank(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), full_row_rank=True)

    monkeypatch.setattr(iafeas.report, "generic_full_row_rank", claims_full_rank)
    cfg = write_cfg(tmp_path, "ring4.json", [(2, 2, 1)] * 4)
    code, out, _ = run(capsys, "check", cfg)
    assert code == 4
    rep = json.loads(out)
    assert rep["verdict"] == "INFEASIBLE"
    assert rep["sound"] is False


def test_check_malformed_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 3
    assert "error" in err

    code, _, _ = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 3

    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"pairs": [[2, 2, 1]]}))
    code, _, _ = run(capsys, "check", str(noise))
    assert code == 3

    code, _, _ = run(capsys, "nonsense")
    assert code == 3
    code, _, _ = run(capsys)
    assert code == 3


def test_check_solver_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "ring.json", [(2, 2, 1)] * 3)
    code, out, _ = run(capsys, "check", cfg, "--solve")
    assert code == 0
    rep = json.loads(out)
    solver = rep["solver"]
    assert solver["alt_min"]["converged"] is True
    assert solver["gauss_newton"]["converged"] is True
    assert solver["agrees"] is True


def test_check_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mixed.json", [(2, 3, 1), (4, 3, 2), (3, 2, 1)])
    code1, out1, _ = run(capsys, "check", cfg)
    code2, out2, _ = run(capsys, "check", cfg)
    assert (code1, out1) == (code2, out2)


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    plain = write_cfg(tmp_path, "plain.json", [(2, 2, 1)] * 3)
    seeded = write_cfg(tmp_path, "seeded.json", [(2, 2, 1)] * 3, seed=9)

    def dump(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return out

    ref = {s: dump("hall", plain, "--seed", str(s)) for s in (0, 5, 7, 9)}
    assert len(set(ref.values())) == 4

    # no flag, no file seed, no env: seed 0
    assert dump("hall", plain) == ref[0]
    # env var fills in when nothing else is given
    monkeypatch.setenv("IA_KIT_SEED", "7")
    assert dump("hall", plain) == ref[7]
    # the file seed beats the environment
    assert dump("hall", seeded) == ref[9]
    # the flag beats both
    assert dump("hall", seeded, "--seed", "5") == ref[5]


def test_hall_complex_dump(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mixed.json", [(2, 2, 1), (2, 2, 1), (4, 2, 2)])
    code, out, _ = run(capsys, "hall", cfg)
    assert code == 0
    C, V, token, trips = parse_dump(out)
    assert (C, V, token) == (10, 8, "complex")
    assert all(1 <= r <= C and 1 <= c <= V for r, c, _ in trips)


def test_hall_prime_dump(tmp_path, capsys):
    flagged = write_cfg(tmp_path, "ring.json", [(2, 2, 1)] * 3)
    code, out, _ = run(capsys, "hall", flagged, "--field", "prime", "--prime", "1048583")
    assert code == 0
    C, V, token, trips = parse_dump(out)
    assert (C, V, token) == (6, 6, "prime:1048583")
    assert all(isinstance(v, int) and 0 <= v < 1048583 for _, _, v in trips)

    # moduli outside [2**20, 2**31) are refused
    code, _, err = run(capsys, "hall", flagged, "--field", "prime", "--prime", "97")
    assert code == 3 and "2**20" in err

    # the config file can pin the field itself
    filed = write_cfg(
        tmp_path, "ring_gf.json", [(2, 2, 1)] * 3, field={"prime": 2147483647}
    )
    code, out, _ = run(capsys, "hall", filed)
    assert code == 0
    assert out.splitlines()[0] == "6 6 prime:2147483647"


def test_prime_precedence(tmp_path, capsys):
    """--prime, then the config file's prime, then 2**31 - 1."""
    plain = write_cfg(tmp_path, "plain.json", [(2, 2, 1)] * 3)
    filed = write_cfg(tmp_path, "filed.json", [(2, 2, 1)] * 3, field={"prime": 1048583})

    def modulus(*argv):
        code, out, _ = run(capsys, "check", *argv)
        assert code == 0
        return json.loads(out)["rank"]["modulus"]

    assert modulus(plain) == 2147483647
    assert modulus(filed) == 1048583
    assert modulus(filed, "--prime", "1048589") == 1048589

    # the prime is validated even where the numeric backend ignores it
    code, out, err = run(capsys, "check", plain, "--mode", "numeric", "--prime", "97")
    assert (code, out) == (3, "") and "2**20" in err
    code, out, err = run(capsys, "sweep", "--K", "3", "--M", "2", "--d", "1",
                         "--prime", "97")
    assert (code, out) == (3, "") and "2**20" in err

    # hall --field prime without --prime reads the file's prime
    code, out, _ = run(capsys, "hall", filed, "--field", "prime")
    assert code == 0
    assert out.splitlines()[0] == "6 6 prime:1048583"


def test_hall_inadmissible_exits_three(tmp_path, capsys):
    # pair 2 cannot carry its two streams; its free block would be 0 x 2
    cfg_file = write_cfg(tmp_path, "bad.json", [(7, 7, 1), (1, 5, 2), (6, 5, 2)])
    code, out, err = run(capsys, "hall", cfg_file, "--seed", "4")
    assert code == 3
    assert out == ""
    assert err == "error: the coefficient matrix needs a stream-admissible network\n"


def test_alloc_balanced(tmp_path, capsys):
    # (6x4,2)^3's all-receive allocation certifies it; the other network's
    # is no certificate, so the bundled run takes its place
    for pairs, variant in (
        ([(6, 4, 2)] * 3, "plain"),
        ([(3, 4, 2), (3, 4, 2), (6, 4, 2)], "bundled"),
    ):
        cfg_file = write_cfg(tmp_path, "div.json", pairs)
        code, out, _ = run(capsys, "alloc", cfg_file)
        assert code == 0
        blob = json.loads(out)
        assert blob["verdict"] == "balanced"
        assert blob["variant"] == variant
        assert blob["certificate"] is True

        cfg = NetworkConfig.from_tuples(pairs)
        alloc = allocation_from_json_dict(cfg, blob["allocation"])
        assert verify_allocation(cfg, alloc).certificate


def test_alloc_stuck(tmp_path, capsys):
    cfg_file = write_cfg(tmp_path, "ring4.json", [(2, 2, 1)] * 4)
    code, out, _ = run(capsys, "alloc", cfg_file)
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "stuck"
    assert blob["witness"]["lhs"] < blob["witness"]["rhs"]
    assert blob["tree"]["nodes"]


def test_alloc_inadmissible_exits_three(tmp_path, capsys):
    cfg_file = write_cfg(tmp_path, "bad.json", [(2, 3, 3), (4, 4, 1)])
    code, out, err = run(capsys, "alloc", cfg_file)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_alloc_takes_no_seed(tmp_path, capsys, monkeypatch):
    # nothing in the run is drawn at random, so no seed source reaches it
    pairs = [(2, 2, 1), (4, 5, 2), (3, 3, 1)]
    _, expected, _ = run(capsys, "alloc", write_cfg(tmp_path, "a.json", pairs))
    seeded = write_cfg(tmp_path, "seeded.json", pairs, seed=3)
    monkeypatch.setenv("IA_KIT_SEED", "5")
    assert run(capsys, "alloc", seeded) == (0, expected, "")


def test_alloc_outside_divisible_family_runs_plain(tmp_path, capsys, monkeypatch):
    # the variant comes from the family's domain test, not from a failed
    # bundled run
    run_engine = iafeas.allocation._run

    def refuse(cfg, bundle, assign):
        assert not bundle, "bundled run outside the divisible family"
        return run_engine(cfg, bundle, assign)

    monkeypatch.setattr(iafeas.allocation, "_run", refuse)
    cfg_file = write_cfg(tmp_path, "odd.json", [(5, 5, 2)] * 3)
    code, out, _ = run(capsys, "alloc", cfg_file)
    assert code == 0
    assert json.loads(out)["variant"] == "plain"


def test_alloc_runs_only_the_properness_engine(tmp_path, capsys):
    # alloc decides balanced or stuck, not feasibility: this network fails
    # the antenna budget, which check reports, yet its properness run
    # balances, into no certificate
    cfg_file = write_cfg(tmp_path, "budget.json", [(1, 3, 1), (3, 4, 2), (4, 4, 2)])
    code, out, _ = run(capsys, "check", cfg_file)
    assert code == 1
    assert json.loads(out)["rule"] == "necessary:antenna_budget"
    code, out, _ = run(capsys, "alloc", cfg_file)
    assert code == 0
    blob = json.loads(out)
    assert (blob["verdict"], blob["variant"], blob["certificate"]) == ("balanced", "plain", False)


def test_sweep_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--K", "3:4", "--M", "2", "--d", "1")
    assert code == 0
    lines = [json.loads(t) for t in out.splitlines()]
    body, footer = lines[:-1], lines[-1]["footer"]
    assert [b["label"] for b in body] == ["(2x2,1)^3", "(2x2,1)^4"]
    assert [b["verdict"] for b in body] == ["FEASIBLE", "INFEASIBLE"]
    assert all(b["sound"] for b in body)
    assert footer == {
        "configs": 2,
        "feasible": 1,
        "infeasible": 1,
        "undetermined": 0,
        "soundness_violations": 0,
    }


def test_sweep_configs_file_and_workers(tmp_path, capsys):
    # 19 configs, so two workers take their tasks in chunks of two
    grid = [[[m, m, 1]] * k for k in (3, 4, 5, 6) for m in (2, 3, 4, 5)]
    lst = tmp_path / "list.json"
    lst.write_text(
        json.dumps(
            [
                {"pairs": [[2, 2, 1], [2, 2, 1], [2, 2, 1]]},
                [[1, 1, 1], [4, 4, 2], [4, 4, 2]],
                [[7, 8, 3], [7, 8, 3], [7, 8, 3], [7, 8, 3]],
            ]
            + grid
        )
    )
    code1, out1, _ = run(capsys, "sweep", "--configs", str(lst))
    assert code1 == 0
    footer = json.loads(out1.splitlines()[-1])["footer"]
    assert footer["configs"] == 19
    assert footer["undetermined"] == 1
    assert footer["soundness_violations"] == 0

    code2, out2, _ = run(capsys, "sweep", "--configs", str(lst), "--workers", "2")
    assert code2 == 0
    assert out2 == out1


def test_sweep_pool_is_capped_by_cores_and_chunks(capsys, monkeypatch):
    sizes = []

    class RecordingPool:
        """Records the pool size and maps in-process; starts no processes."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # _cmd_sweep imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    grid = ("sweep", "--K", "3", "--M", "2:4", "--d", "1")  # 3 configs
    _, serial, _ = run(capsys, *grid)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    code, out, _ = run(capsys, *grid, "--workers", "8")
    assert code == 0 and out == serial
    assert sizes == [3]  # three chunks of one config

    code, _, _ = run(capsys, "sweep", "--K", "3:6", "--M", "2:4", "--d", "1",
                     "--workers", "8")
    assert code == 0 and sizes == [3, 4]  # 12 configs, four cores

    for cores in (1, None):  # one core, or a count the platform cannot tell
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        code, out, _ = run(capsys, *grid, "--workers", "8")
        assert code == 0 and out == serial
    assert sizes == [3, 4]  # serial: no pool


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_rejects_fewer_than_one_worker(capsys, workers):
    code, out, err = run(capsys, "sweep", "--K", "3", "--M", "2", "--d", "1",
                         f"--workers={workers}")
    assert code == 3
    assert out == ""
    assert "--workers" in err


def test_sweep_bad_grids(tmp_path, capsys):
    code, _, err = run(capsys, "sweep")
    assert code == 3 and "sweep needs" in err

    code, _, _ = run(capsys, "sweep", "--K", "3", "--M", "2")
    assert code == 3

    code, _, _ = run(capsys, "sweep", "--K", "5:4", "--M", "2", "--d", "1")
    assert code == 3

    code, _, _ = run(capsys, "sweep", "--K", "x", "--M", "2", "--d", "1")
    assert code == 3

    # the config types validate the grid
    code, _, err = run(capsys, "sweep", "--K", "0", "--M", "2", "--d", "1")
    assert (code, err) == (3, "error: K must be at least 1\n")
    code, _, err = run(capsys, "sweep", "--K", "2", "--M", "0:2", "--d", "1")
    assert (code, err) == (3, "error: M must be a positive integer, got 0\n")

    lst = tmp_path / "list.json"
    lst.write_text(json.dumps([{"streams": 2}]))
    code, _, _ = run(capsys, "sweep", "--configs", str(lst))
    assert code == 3

    lst.write_text("[]")
    code, _, _ = run(capsys, "sweep", "--configs", str(lst))
    assert code == 3
