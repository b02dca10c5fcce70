"""Feasibility verdict pipeline.

``feasibility_report`` chains every decision layer on one configuration:

1. necessary counting checks (stream support, the antenna budget decided
   by a dynamic program over the pairs, properness decided by the transfer
   engine), all run at every K and stopping at the first violation
   (:func:`necessary_verdict`);
2. closed-form families (symmetric, divisible) that settle feasibility
   exactly on their domains; on the divisible family properness decides,
   so the chain's properness run is its answer;
3. an allocation certificate: a capacity-respecting, stream-uniform
   constraint allocation, as :func:`~iafeas.allocation.report_allocation`
   picks it from the properness run and, on the divisible family, the
   bundled run;
4. the randomized rank test on the alignment system's coefficient matrix,
   which certifies generic feasibility when any trial has full row rank.

The rank test always runs, even on an already-decided configuration, so
every report carries a soundness bit: a violated necessary condition next
to a full-rank coefficient matrix (or a sufficiency certificate next to a
rank-deficient one) would expose a defect, and sweeps count such events.
Next to a counting witness the rank test is only that cross-check, so it
takes one uniform draw: were the generic rank full, that draw would be
full with probability at least 1 - C/p (Schwartz-Zippel), so further
deficient draws expose no more defects.
Numerical solvers can be attached as corroboration but never decide.
The necessary checks are named by the kinds of the witnesses they return.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allocation import (
    AllocationPolicy,
    AllocationReport,
    PttResult,
    flow_feasibility,
    report_allocation,
    verify_allocation,
)
from .conditions import (
    check_antenna_budget,
    check_stream_support,
    divisible_feasible,
    symmetric_feasible,
)
from .config import NetworkConfig, config_to_dict, system_shape
from .channels import sample_channels
from .rank import DEFAULT_PRIME, RankVerdict, generic_full_row_rank
from .solver import alt_min, gauss_newton_multistart
from .witnesses import ANTENNA_BUDGET, PROPERNESS, STREAM_SUPPORT, SubsetWitness

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
UNDETERMINED = "UNDETERMINED"

#: the necessary checks in the order they run, named by witness kind
CHAIN = (STREAM_SUPPORT, ANTENNA_BUDGET, PROPERNESS)


@dataclass(frozen=True)
class NecessaryReport:
    """Outcome of the chained necessary checks.

    ``witness`` carries the first violation (None when all pass).
    ``skipped`` lists the checks after a violation, which are not run.
    ``run`` is the properness run, when the chain got to it; it is the
    first try for the allocation certificate and stays out of
    :meth:`to_dict`.
    """

    passed: bool
    witness: SubsetWitness | None
    checks: tuple
    skipped: tuple
    run: PttResult | None = None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "checks": list(self.checks),
            "skipped": list(self.skipped),
        }


def necessary_verdict(cfg: NetworkConfig) -> NecessaryReport:
    """Run stream support, antenna budget, then properness, in that order.

    Every check runs at every K. The chain stops at the first violation
    and lists the checks after it as skipped.
    """
    # the checks are looked up at call time, where a tracer can wrap them
    run = None
    witness = check_stream_support(cfg)
    if witness is None:
        witness = check_antenna_budget(cfg)
    if witness is None:
        run = flow_feasibility(cfg)
        witness = run.witness
    ran = CHAIN if witness is None else CHAIN[: CHAIN.index(witness.kind) + 1]
    return NecessaryReport(witness is None, witness, ran, CHAIN[len(ran):], run)


@dataclass(frozen=True)
class VerdictReport:
    """Everything the pipeline concluded about one configuration.

    ``allocation`` and ``allocation_report`` are set together, exactly
    when the necessary chain passes, as ``report_allocation`` returns them.
    """

    cfg: NetworkConfig
    verdict: str
    rule: str
    necessary: NecessaryReport
    closed_forms: tuple
    allocation: AllocationPolicy | None
    allocation_report: AllocationReport | None
    rank: RankVerdict
    sound: bool
    solver: dict | None = None

    @property
    def witness(self) -> SubsetWitness | None:
        """The necessary chain's first violation, None when it passed."""
        return self.necessary.witness

    def to_dict(self) -> dict:
        c, v = system_shape(self.cfg)
        alloc = None
        if self.allocation is not None:
            alloc = {
                "certificate": self.allocation_report.certificate,
                "report": self.allocation_report.to_dict(),
                "policy": self.allocation.to_json_dict(),
            }
        return {
            "config": config_to_dict(self.cfg),
            "label": self.cfg.describe(),
            "shape": {"constraints": c, "variables": v},
            "verdict": self.verdict,
            "rule": self.rule,
            "sound": self.sound,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "necessary": self.necessary.to_dict(),
            "closed_forms": [cf.to_dict() for cf in self.closed_forms],
            "allocation": alloc,
            "rank": self.rank.to_dict(),
            "solver": self.solver,
        }


def _solver_section(cfg, seed, verdict) -> dict:
    channels = sample_channels(cfg, seed=seed, include_direct=True)
    am = alt_min(channels, seed=seed)
    gn = gauss_newton_multistart(channels, seed=seed)
    solved = am.converged or gn.converged
    if verdict == FEASIBLE:
        agrees = solved
    elif verdict == INFEASIBLE:
        agrees = not solved
    else:
        agrees = None
    alt_min_part = {
        "converged": am.converged,
        "iterations": am.iterations,
        "leakage": am.leakage,
        "margin": am.direct_rank_margin,
    }
    gn_part = {
        "converged": gn.converged,
        "iterations": gn.iterations,
        "residual_norm": gn.residual_norm,
        "margin": gn.direct_rank_margin,
    }
    # written only when non-empty, so a run without a note keeps its bytes
    for part, result in ((alt_min_part, am), (gn_part, gn)):
        if result.note:
            part["note"] = result.note
    return {"alt_min": alt_min_part, "gauss_newton": gn_part, "agrees": agrees}


def feasibility_report(
    cfg: NetworkConfig,
    seed: int = 0,
    mode: str = "gf",
    p: int = DEFAULT_PRIME,
    solve: bool = False,
) -> VerdictReport:
    """Full verdict on one configuration.

    Verdict precedence: a violated necessary condition is INFEASIBLE; an
    applicable closed form or an allocation certificate is FEASIBLE; a
    full-rank trial is FEASIBLE by the generic rank argument; otherwise
    UNDETERMINED. ``seed`` drives both the rank trials and the solvers,
    and reports contain no volatile data, so reruns are bit-identical.
    """
    necessary = necessary_verdict(cfg)

    closed: tuple = ()
    alloc = alloc_report = None
    if necessary.passed:
        # the chain's properness run, which balanced, decides the family
        closed = (symmetric_feasible(cfg), divisible_feasible(cfg, necessary.witness))
        run, alloc_report, _ = report_allocation(cfg, necessary.run, verify_allocation)
        alloc = run.alloc

    # a witness already decides: one draw cross-checks it (module docstring)
    rank = generic_full_row_rank(
        cfg, mode=mode, seed=seed, p=p, cross_check=not necessary.passed
    )

    closed_yes = next(
        (cf for cf in closed if cf.applicable and cf.feasible), None
    )
    certificate = alloc_report is not None and alloc_report.certificate

    if not necessary.passed:
        verdict = INFEASIBLE
        rule = f"necessary:{necessary.witness.kind}"
    elif closed_yes is not None:
        verdict = FEASIBLE
        rule = f"closed-form-{closed_yes.family}"
    elif certificate:
        verdict = FEASIBLE
        rule = "allocation-certificate"
    elif rank.full_row_rank:
        verdict = FEASIBLE
        rule = "rank-test"
    else:
        verdict = UNDETERMINED
        rule = "inconclusive"

    claims_feasible = verdict == FEASIBLE and rule != "rank-test"
    sound = not (
        (not necessary.passed and rank.full_row_rank)
        or (claims_feasible and not rank.full_row_rank)
    )

    solver = None
    if solve:
        # the chain runs stream support first and records its witness
        w = necessary.witness
        if w is None or w.kind != STREAM_SUPPORT:
            solver = _solver_section(cfg, seed, verdict)
        else:
            solver = {"skipped": "stream support fails; solvers need d <= min(M, N)"}

    return VerdictReport(
        cfg=cfg,
        verdict=verdict,
        rule=rule,
        necessary=necessary,
        closed_forms=closed,
        allocation=alloc,
        allocation_report=alloc_report,
        rank=rank,
        sound=sound,
        solver=solver,
    )
