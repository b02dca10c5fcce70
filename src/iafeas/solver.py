"""Numerical alignment solvers used to corroborate feasibility verdicts.

Two independent iterations try to construct aligning transceivers for a
sampled complex channel set:

* :func:`alt_min` is the classic alternating minimization on orthonormal
  transceivers: each half-step picks the least-interference eigenvectors
  of the aggregate interference covariance, so total leakage never
  increases. It needs direct channels (for the rank margin) and finds the
  global geometry reliably but only linearly.
* :func:`gauss_newton` is a damped Gauss-Newton iteration on the reduced
  (identity-pinned) variables, driving the residual of the alignment
  equations to zero with a minimum-norm step. Quadratic near a solution
  and the sharper certificate of the two.

Neither solver ever decides feasibility on its own; a solver failure is
evidence, not proof. The verdict pipeline treats them as corroboration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .config import NetworkConfig, system_shape
from .jacobian import residual_jacobian, residuals
from .transceivers import ReducedTransceivers, TransceiverSet

DEFAULT_STARTS = 5

#: leakage below which :func:`alt_min` stops
ALT_MIN_TOL = 1e-10

#: iterations of one :func:`gauss_newton` run
GN_MAX_ITERS = 100

#: residual max modulus below which :func:`gauss_newton` stops
GN_TOL = 1e-9


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run.

    ``leakage`` is the solver's own residual energy: summed squared
    Frobenius norms of the cross terms it works with (orthonormal
    transceivers for alt_min, identity-pinned ones for gauss_newton), so
    values are comparable within a method, not across methods.
    ``direct_rank_margin`` is the smallest d_k-th singular value over the
    direct links, None when the channel set has no direct channels.
    """

    method: str
    converged: bool
    iterations: int
    leakage: float
    leakage_history: tuple
    transceivers: TransceiverSet
    direct_rank_margin: float | None = None
    residual_norm: float | None = None
    tilde: ReducedTransceivers | None = None
    note: str = ""


@dataclass(frozen=True)
class AlignmentCheck:
    """Did a transceiver set align: cross terms small, direct terms full rank."""

    aligned: bool
    max_cross: float
    rank_ok: bool | None
    min_margin: float | None

    @property
    def ok(self) -> bool:
        return self.aligned and self.rank_ok is not False


def _cross_terms(cfg: NetworkConfig, channels: ChannelSet, U, V):
    """U_k^H H_kj V_j for every link (k, j), in link order."""
    for k, j in cfg.cross_pairs():
        yield U[k - 1].conj().T @ channels.cross[(k, j)] @ V[j - 1]


def _cross_leakage(cfg: NetworkConfig, channels: ChannelSet, U, V) -> float:
    total = 0.0
    for T in _cross_terms(cfg, channels, U, V):
        total += float(np.sum(np.abs(T) ** 2))
    return total


def _direct_margin(cfg: NetworkConfig, channels: ChannelSet, U, V):
    if not channels.direct:
        return None
    margin = np.inf
    for k in range(1, cfg.K + 1):
        D = U[k - 1].conj().T @ channels.direct[k] @ V[k - 1]
        s = np.linalg.svd(D, compute_uv=False)
        margin = min(margin, float(s[cfg.d(k) - 1]))
    return margin


def verify_ia(
    cfg: NetworkConfig, channels: ChannelSet, tx: TransceiverSet, tol: float = 1e-8
) -> AlignmentCheck:
    """Check a transceiver set against the alignment conditions.

    Aligned means every cross term has Frobenius norm below ``tol``; when
    direct channels are present, the direct links must additionally keep
    their d_k-th singular value above ``tol``.
    """
    channels.require_complex()
    max_cross = 0.0
    for T in _cross_terms(cfg, channels, tx.U, tx.V):
        max_cross = max(max_cross, float(np.linalg.norm(T)))
    aligned = max_cross < tol
    if not channels.direct:
        return AlignmentCheck(aligned, max_cross, None, None)
    margin = _direct_margin(cfg, channels, tx.U, tx.V)
    return AlignmentCheck(aligned, max_cross, margin > tol, margin)


def alt_min(
    cfg: NetworkConfig,
    channels: ChannelSet,
    max_iters: int = 500,
    seed: int = 0,
) -> SolveResult:
    """Alternating leakage minimization with orthonormal transceivers.

    Receive filters are the d_k least eigenvectors of the interference
    covariance, H_kj V_j V_j^H H_kj^H summed over the links (k, j) into
    receiver k; transmit filters come from the reciprocal step with the
    roles swapped. Leakage is recorded after every half-step and never
    increases. Stops when leakage drops below ``ALT_MIN_TOL``.
    """
    channels.require_complex()
    channels.require_direct()
    K = cfg.K
    rng = np.random.default_rng(seed)

    V = []
    for j in range(1, K + 1):
        Z = rng.standard_normal((cfg.M(j), cfg.d(j))) + 1j * rng.standard_normal(
            (cfg.M(j), cfg.d(j))
        )
        Q, _ = np.linalg.qr(Z)
        V.append(Q[:, : cfg.d(j)])
    U = [np.linalg.qr(channels.direct[k] @ V[k - 1])[0][:, : cfg.d(k)] for k in range(1, K + 1)]

    # k first, then j ascending: Q_k sums over j ascending, B_j over k
    links = tuple(cfg.cross_pairs())
    history = [_cross_leakage(cfg, channels, U, V)]
    converged = history[0] < ALT_MIN_TOL
    iterations = 0
    while not converged and iterations < max_iters:
        iterations += 1
        Q = [np.zeros((cfg.N(k), cfg.N(k)), dtype=complex) for k in range(1, K + 1)]
        for k, j in links:
            X = channels.cross[(k, j)] @ V[j - 1]
            Q[k - 1] += X @ X.conj().T
        for k in range(1, K + 1):
            U[k - 1] = np.linalg.eigh(Q[k - 1])[1][:, : cfg.d(k)]
        history.append(_cross_leakage(cfg, channels, U, V))
        B = [np.zeros((cfg.M(j), cfg.M(j)), dtype=complex) for j in range(1, K + 1)]
        for k, j in links:
            X = channels.cross[(k, j)].conj().T @ U[k - 1]
            B[j - 1] += X @ X.conj().T
        for j in range(1, K + 1):
            V[j - 1] = np.linalg.eigh(B[j - 1])[1][:, : cfg.d(j)]
        history.append(_cross_leakage(cfg, channels, U, V))
        converged = history[-1] < ALT_MIN_TOL

    tx = TransceiverSet(U=tuple(U), V=tuple(V))
    return SolveResult(
        method="alt_min",
        converged=bool(converged),
        iterations=iterations,
        leakage=history[-1],
        leakage_history=tuple(history),
        transceivers=tx,
        direct_rank_margin=_direct_margin(cfg, channels, U, V),
    )


def gauss_newton(
    cfg: NetworkConfig,
    channels: ChannelSet,
    init: ReducedTransceivers | None = None,
) -> SolveResult:
    """Damped Gauss-Newton on the reduced alignment residual.

    Minimum-norm step delta = -J^H (J J^H + lam I)^{-1} F with the damping
    halved after an accepted step and doubled after a rejected one; it
    starts at 1e-3 times the mean squared row norm of the first Jacobian.
    Converged when the residual's max modulus falls below ``GN_TOL``, within
    ``GN_MAX_ITERS`` iterations.
    """
    channels.require_complex()
    if init is None:
        init = ReducedTransceivers.zeros(cfg)
    C, V_dim = system_shape(cfg)

    x = init.to_vector()
    F = residuals(cfg, channels, init)
    history = [float(np.sum(np.abs(F) ** 2))]
    note = "" if C else "no cross constraints"

    lam = None
    iterations = 0
    # with no constraints there is no residual, and any point solves
    converged = C == 0 or float(np.max(np.abs(F))) < GN_TOL
    while not converged and iterations < GN_MAX_ITERS:
        iterations += 1
        tilde = ReducedTransceivers.from_vector(cfg, x)
        J = residual_jacobian(cfg, channels, tilde)
        if lam is None:
            mean_row = float(np.mean(np.sum(np.abs(J) ** 2, axis=1)))
            lam = 1e-3 * mean_row if mean_row > 0 else 1e-3
        JJH = J @ J.conj().T
        norm_f = float(np.linalg.norm(F))
        accepted = False
        for _ in range(60):
            try:
                y = np.linalg.solve(JJH + lam * np.eye(C), F)
            except np.linalg.LinAlgError:
                lam *= 2.0
                continue
            delta = -J.conj().T @ y
            x_new = x + delta
            if not np.all(np.isfinite(x_new)):
                lam *= 2.0
                continue
            F_new = residuals(cfg, channels, ReducedTransceivers.from_vector(cfg, x_new))
            if not np.all(np.isfinite(F_new)):
                lam *= 2.0
                continue
            if float(np.linalg.norm(F_new)) < norm_f:
                x = x_new
                F = F_new
                lam *= 0.5
                accepted = True
                break
            lam *= 2.0
        history.append(float(np.sum(np.abs(F) ** 2)))
        if not accepted:
            note = "stalled: no damping level reduced the residual"
            break
        converged = float(np.max(np.abs(F))) < GN_TOL

    tilde = ReducedTransceivers.from_vector(cfg, x)
    tx = tilde.reconstruct()
    return SolveResult(
        method="gauss_newton",
        converged=bool(converged),
        iterations=iterations,
        leakage=history[-1],
        leakage_history=tuple(history),
        transceivers=tx,
        direct_rank_margin=_direct_margin(cfg, channels, tx.U, tx.V),
        residual_norm=float(np.max(np.abs(F), initial=0.0)),
        tilde=tilde,
        note=note,
    )


def gauss_newton_multistart(
    cfg: NetworkConfig,
    channels: ChannelSet,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> SolveResult:
    """Gauss-Newton from the origin plus ``starts - 1`` random inits.

    Each run takes at most ``GN_MAX_ITERS`` iterations. Returns the best
    run: converged beats not, then smaller residual. Random initial points
    are drawn from one seeded generator, so the whole sweep is
    reproducible.
    """
    rng = np.random.default_rng(seed)
    results = []
    for s in range(max(1, starts)):
        if s == 0:
            init = ReducedTransceivers.zeros(cfg)
        else:
            init = ReducedTransceivers.random(cfg, rng, scale=0.5)
        results.append(gauss_newton(cfg, channels, init=init))
        if results[-1].converged:
            break

    def order(r: SolveResult):
        return (not r.converged, r.residual_norm)

    return min(results, key=order)
