"""Feasibility verdict pipeline.

``feasibility_report`` chains every decision layer on one configuration:

1. necessary counting checks (stream support, antenna budget, properness
   decided by the transfer engine), stopping at the first violation
   (:func:`necessary_verdict`);
2. closed-form families (symmetric, divisible) that settle feasibility
   exactly on their domains; on the divisible family properness decides,
   so the chain's properness run is its answer;
3. an allocation certificate: a capacity-respecting, stream-uniform
   constraint allocation, taken from the properness run;
4. the randomized rank test on the alignment system's coefficient matrix,
   which certifies generic feasibility when any trial has full row rank.

The rank test always runs, even on an already-decided configuration, so
every report carries a soundness bit: a violated necessary condition next
to a full-rank coefficient matrix (or a sufficiency certificate next to a
rank-deficient one) would expose a defect, and sweeps count such events.
Numerical solvers can be attached as corroboration but never decide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allocation import (
    AllocationPolicy,
    AllocationReport,
    flow_feasibility,
    verify_allocation,
)
from .conditions import (
    MAX_BUDGET_PAIRS,
    ClosedForm,
    _divisible_reason,
    check_antenna_budget,
    check_stream_support,
    symmetric_feasible,
)
from .config import NetworkConfig, config_to_dict, system_shape
from .channels import sample_channels
from .rank import DEFAULT_PRIME, DEFAULT_TRIALS, RankVerdict, generic_full_row_rank
from .solver import alt_min, gauss_newton_multistart
from .witnesses import SubsetWitness

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
UNDETERMINED = "UNDETERMINED"

STREAM_CHECK = "stream_support"
BUDGET_CHECK = "antenna_budget"
PROPERNESS_CHECK = "properness"


@dataclass(frozen=True)
class NecessaryReport:
    """Outcome of the chained necessary checks.

    ``witness`` carries the first violation (None when all pass).
    ``skipped`` lists checks not run: the antenna budget beyond K = 12, and
    every check after a violation. ``policy`` is the capacity-respecting
    allocation the properness run found, when all checks pass; it is a
    by-product for the allocation certificate and stays out of
    :meth:`to_dict`.
    """

    passed: bool
    witness: SubsetWitness | None
    checks: tuple
    skipped: tuple
    policy: AllocationPolicy | None = None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "checks": list(self.checks),
            "skipped": list(self.skipped),
        }


def necessary_verdict(cfg: NetworkConfig) -> NecessaryReport:
    """Run stream support, antenna budget, then properness, in that order.

    Stops at the first violation and lists the checks after it as skipped.
    The antenna budget scan is skipped above K = 12.
    """
    checks = [STREAM_CHECK]
    w = check_stream_support(cfg)
    if w is not None:
        return NecessaryReport(False, w, tuple(checks), (BUDGET_CHECK, PROPERNESS_CHECK))

    skipped = []
    if cfg.K > MAX_BUDGET_PAIRS:
        skipped.append(BUDGET_CHECK)
    else:
        checks.append(BUDGET_CHECK)
        w = check_antenna_budget(cfg)
        if w is not None:
            skipped.append(PROPERNESS_CHECK)
            return NecessaryReport(False, w, tuple(checks), tuple(skipped))

    checks.append(PROPERNESS_CHECK)
    policy, w = flow_feasibility(cfg)
    return NecessaryReport(w is None, w, tuple(checks), tuple(skipped), policy)


@dataclass(frozen=True)
class VerdictReport:
    """Everything the pipeline concluded about one configuration."""

    cfg: NetworkConfig
    verdict: str
    rule: str
    witness: SubsetWitness | None
    necessary: NecessaryReport
    closed_forms: tuple
    allocation: AllocationPolicy | None
    allocation_report: AllocationReport | None
    rank: RankVerdict
    sound: bool
    solver: dict | None = None

    def to_dict(self) -> dict:
        c, v = system_shape(self.cfg)
        alloc = None
        if self.allocation is not None or self.allocation_report is not None:
            alloc = {
                "source": "transfer",
                "certificate": (
                    None
                    if self.allocation_report is None
                    else self.allocation_report.certificate
                ),
                "report": (
                    None
                    if self.allocation_report is None
                    else self.allocation_report.to_dict()
                ),
                "policy": (
                    None if self.allocation is None else self.allocation.to_json_dict()
                ),
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


def _solver_section(cfg, seed, tol, verdict) -> dict:
    channels = sample_channels(cfg, seed=seed, include_direct=True)
    am = alt_min(cfg, channels, tol=1e-10)
    gn = gauss_newton_multistart(cfg, channels, seed=seed, tol=tol)
    solved = am.converged or gn.converged
    if verdict == FEASIBLE:
        agrees = solved
    elif verdict == INFEASIBLE:
        agrees = not solved
    else:
        agrees = None
    return {
        "alt_min": {
            "converged": am.converged,
            "iterations": am.iterations,
            "leakage": am.leakage,
            "margin": am.direct_rank_margin,
        },
        "gauss_newton": {
            "converged": gn.converged,
            "iterations": gn.iterations,
            "residual_norm": gn.residual_norm,
            "margin": gn.direct_rank_margin,
        },
        "agrees": agrees,
    }


def feasibility_report(
    cfg: NetworkConfig,
    seed: int = 0,
    mode: str = "gf",
    trials: int = DEFAULT_TRIALS,
    p: int = DEFAULT_PRIME,
    solve: bool = False,
    tol: float = 1e-9,
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
    alloc = None
    alloc_report = None
    if necessary.passed:
        # properness, which the chain has just shown, decides the family
        reason = _divisible_reason(cfg)
        if reason:
            divisible = ClosedForm("divisible", False, reason=reason)
        else:
            divisible = ClosedForm("divisible", True, feasible=True)
        closed = (symmetric_feasible(cfg), divisible)
        alloc = necessary.policy
        alloc_report = verify_allocation(cfg, alloc)

    rank = generic_full_row_rank(cfg, trials=trials, mode=mode, seed=seed, p=p)

    closed_yes = next(
        (cf for cf in closed if cf.applicable and cf.feasible), None
    )
    certificate = alloc_report is not None and alloc_report.certificate

    if not necessary.passed:
        verdict = INFEASIBLE
        rule = f"necessary:{necessary.witness.kind}"
        witness = necessary.witness
    elif closed_yes is not None:
        verdict = FEASIBLE
        rule = f"closed-form-{closed_yes.family}"
        witness = None
    elif certificate:
        verdict = FEASIBLE
        rule = "allocation-certificate"
        witness = None
    elif rank.full_row_rank:
        verdict = FEASIBLE
        rule = "rank-test"
        witness = None
    else:
        verdict = UNDETERMINED
        rule = "inconclusive"
        witness = None

    claims_feasible = verdict == FEASIBLE and rule != "rank-test"
    sound = not (
        (not necessary.passed and rank.full_row_rank)
        or (claims_feasible and not rank.full_row_rank)
    )

    solver = None
    if solve:
        if check_stream_support(cfg) is None:
            solver = _solver_section(cfg, seed, tol, verdict)
        else:
            solver = {"skipped": "stream support fails; solvers need d <= min(M, N)"}

    return VerdictReport(
        cfg=cfg,
        verdict=verdict,
        rule=rule,
        witness=witness,
        necessary=necessary,
        closed_forms=closed,
        allocation=alloc,
        allocation_report=alloc_report,
        rank=rank,
        sound=sound,
        solver=solver,
    )
