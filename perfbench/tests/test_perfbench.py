"""Tests of the benchmark's own parts: inputs, checker and span arithmetic."""

import pytest

from checker import check_cold, check_report, recompute_witness
from tracing import Tracer, self_times
from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    assert WORKLOADS[name](7) == WORKLOADS[name](7)


def test_survey_inputs_follow_the_seed():
    a, b = WORKLOADS["survey"](1), WORKLOADS["survey"](2)
    assert a.configs[:108] == b.configs[:108]  # the sweep grid is fixed
    assert a.configs[108:] != b.configs[108:]
    assert len(a.configs) == 408


def test_random_configs_are_stream_admissible_and_asymmetric():
    for pairs in WORKLOADS["survey"](3).configs[108:]:
        assert 2 <= len(pairs) <= 6 and len(set(pairs)) > 1
        assert all(1 <= d <= min(m, n, 3) and max(m, n) <= 8 for m, n, d in pairs)


RING = ((2, 2, 1),) * 4
RING_WITNESS = {
    "kind": "properness", "lhs": 8, "rhs": 12,
    "links": [[k, j] for k in range(1, 5) for j in range(1, 5) if k != j],
}


def _report(verdict, witness=None, sound=True):
    return {"verdict": verdict, "sound": sound, "witness": witness}


def test_checker_accepts_a_true_witness():
    assert recompute_witness(RING, RING_WITNESS) == (8, 12)
    assert check_report(RING, _report("INFEASIBLE", RING_WITNESS)) == []


def test_checker_flags_planted_bad_witness():
    wrong_lhs = dict(RING_WITNESS, lhs=9)
    assert check_report(RING, _report("INFEASIBLE", wrong_lhs))
    unrealizable = {"kind": "antenna_budget", "lhs": 2, "rhs": 3, "tx_set": [1], "rx_set": [1]}
    assert check_report(RING, _report("INFEASIBLE", unrealizable))
    assert check_report(RING, _report("INFEASIBLE", None))


def test_checker_flags_wrong_sign_symmetric_verdict():
    # (2x2,1)^4 has margin 2 + 2 - 5 = -1, (2x2,1)^3 has margin 0.
    assert check_report(RING, _report("FEASIBLE"))
    assert check_report(((2, 2, 1),) * 3, _report("UNDETERMINED"))
    assert check_report(((2, 2, 1),) * 3, _report("FEASIBLE")) == []


def test_checker_flags_unsound_report_and_wrong_exit_code():
    assert check_report(((2, 2, 1),) * 3, _report("FEASIBLE", sound=False))
    good = _report("INFEASIBLE", RING_WITNESS)
    assert check_cold(RING, 1, good, "INFEASIBLE") == []
    assert check_cold(RING, 0, good, "INFEASIBLE")
    assert check_cold(RING, 1, good, "UNDETERMINED")
    assert check_cold(RING, 3, None, "INFEASIBLE")


def test_real_reports_pass_the_checker():
    from iafeas import NetworkConfig, feasibility_report

    for pairs in WORKLOADS["cold_check"](0).configs:
        rep = feasibility_report(NetworkConfig.from_tuples(pairs), seed=0)
        assert check_report(pairs, rep.to_dict()) == []


def test_self_time_is_span_minus_children():
    # root [0, 10] has children [1, 4] and [5, 9]; the first has a child [2, 3]
    spans = [
        ["report", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_overlapping_children_are_not_subtracted_twice():
    spans = [["p", 0.0, 10.0, -1, 0], ["x", 2.0, 6.0, 0, 0], ["y", 4.0, 12.0, 0, 0]]
    assert self_times(spans)[0] == 2.0


def test_tracer_nests_spans_and_lists_missing_sites():
    tracer = Tracer()

    def inner():
        return 1

    wrapped_inner = tracer.wrap("inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert wrapped_inner() == 1 and not tracer.spans  # untraced outside a root
    assert tracer.root("outer", 5, outer) == 2
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("outer", -1, 5), ("inner", 0, 5), ("inner", 0, 5)]
    tracer.install([("gone", "no_such_function", ("iafeas.rank",), None)])
    assert tracer.missing == ["iafeas.rank.no_such_function"]


def test_passes_are_whole_and_probes_run_between_them():
    import time

    import run

    class Runner:
        def call(self, i, r, stats):
            time.sleep(0.001)
            return 0.001

    between = []
    samples = run.run_passes(Runner(), 3, 0.02, None, between.append)
    passes = len(samples[0])
    assert passes >= 2 and all(len(s) == passes for s in samples)
    assert between == list(range(passes))
