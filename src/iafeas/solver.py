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
Every function here takes a channel set alone; every Gauss-Newton start
drives its one :attr:`~iafeas.channels.ChannelSet.system`.

Both work on the channel set's :attr:`~iafeas.channels.ChannelSet.batches`,
stacks of the links of one shape (N_k, M_j, d_k, d_j): each product runs
once per batch on (B, ., .) stacks, not link by link. Every float is the
one the per-link code computed, by three rules:

* A stacked operand keeps the memory layout of the 2-d operand it
  replaces, because numpy picks the BLAS call (gemm, gemv or dot, and
  whether a side is transposed) from the strides: H^H is a ``swapaxes``
  view of a stack of conjugates, and a filter stack is gathered as whole
  eigenvector matrices and sliced, so that its columns keep their row
  stride (:func:`_stack` keeps it for filters held per pair).
* Sums run in link order: a covariance adds its links' terms one depth
  at a time, padded with an exact +0.0, and the leakage, the margins
  and the largest cross norm take their per-link values in link order.
* ``eigh`` and ``svd`` run on stacks; LAPACK still factors each matrix on
  its own, with the same routine as on a 2-d argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .config import system_shape
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


def _stack(blocks) -> np.ndarray:
    """Stack equal-shape filters, each keeping the first one's row stride.

    A product on a (B, rows, cols) stack makes, for each matrix, the BLAS
    call that the same product makes on the matrix alone, and that call
    depends on the strides: a filter sliced from an eigenvector matrix
    keeps the matrix's row stride, while a QR factor or a ``vstack`` is
    contiguous. So the values are copied into a buffer padded to the same
    row stride, and the stack keeps the bits of the 2-d products. Filters
    that are not row-major are stacked contiguous.
    """
    first = np.asarray(blocks[0])
    rows, cols = first.shape
    row_step, col_step = (step // first.itemsize for step in first.strides)
    if col_step != 1 and cols > 1:
        return np.stack(blocks)
    width = max(cols, row_step) if rows > 1 else cols
    buf = np.zeros((len(blocks), rows, width), dtype=np.result_type(*blocks))
    buf[:, :, :cols] = blocks
    return buf[:, :, :cols]


def _in_link_order(batches, values) -> list:
    """Each batch's per-link values, put back in link order, as Python floats."""
    out = np.empty(sum(b.index.size for b in batches))
    for b, value in zip(batches, values):
        out[b.index] = value
    return out.tolist()


def _link_terms(batches, U, V):
    """Per batch, the stack of U_k^H H_kj V_j over its links."""
    for b in batches:
        Uh = np.conj(_stack([U[k] for k in b.rx])).swapaxes(1, 2)
        yield Uh @ b.H @ _stack([V[j] for j in b.tx])


def _frobenius(T) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, as ``np.linalg.norm`` takes it.

    ``norm`` flattens a complex matrix and takes sqrt(re . re + im . im),
    two BLAS dot products; a (1, n) @ (n, 1) product makes the same dot
    call for every matrix of the stack.
    """
    flat = T.reshape(T.shape[0], 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).reshape(-1))


def _leakage(batches, Us, Vs) -> float:
    """Summed squared Frobenius norms of the cross terms, added in link order."""
    sums = (
        np.sum(np.abs(np.conj(Ub).swapaxes(1, 2) @ b.H @ Vb) ** 2, axis=(1, 2))
        for b, Ub, Vb in zip(batches, Us, Vs)
    )
    total = 0.0
    for value in _in_link_order(batches, sums):
        total += value
    return total


def _direct_margin(channels: ChannelSet, U, V):
    if not channels.direct:
        return None
    batches = channels.direct_batches
    values = _in_link_order(
        batches,
        (
            np.linalg.svd(D, compute_uv=False)[:, b.shape[2] - 1]
            for b, D in zip(batches, _link_terms(batches, U, V))
        ),
    )
    margin = np.inf
    for value in values:
        margin = min(margin, value)
    return margin


def verify_ia(channels: ChannelSet, tx: TransceiverSet, tol: float = 1e-8) -> AlignmentCheck:
    """Check a transceiver set against the alignment conditions.

    Aligned means every cross term has Frobenius norm below ``tol``; when
    direct channels are present, the direct links must additionally keep
    their d_k-th singular value above ``tol``.
    """
    channels.require_complex()
    batches = channels.batches
    norms = (_frobenius(T) for T in _link_terms(batches, tx.U, tx.V))
    max_cross = 0.0
    for value in _in_link_order(batches, norms):
        max_cross = max(max_cross, value)
    aligned = max_cross < tol
    if not channels.direct:
        return AlignmentCheck(aligned, max_cross, None, None)
    margin = _direct_margin(channels, tx.U, tx.V)
    return AlignmentCheck(aligned, max_cross, margin > tol, margin)


class _Covariances:
    """One side's interference covariances and filters, as stacks.

    For the receive side, Q_k sums X X^H over the links into receiver k;
    for the transmit side, B_j over the links out of transmitter j. Pairs
    whose covariances have the same size share one stack, so one ``eigh``
    call serves them all. A link's depth counts the earlier links, in
    link order, that end at the same pair; the stack adds one depth at a
    time, so each covariance sums its terms in link order, and a pair
    with fewer links adds +0.0, which is exact.
    """

    def __init__(self, sizes, d, batches, ends):
        self.sizes, self.d = sizes, d
        groups: dict = {}
        slot = []
        for pair, size in enumerate(sizes):
            members = groups.setdefault(size, [])
            slot.append(len(members))
            members.append(pair)
        self.slot = np.array(slot, dtype=np.intp)

        links = np.empty(sum(e.size for e in ends), dtype=np.intp)
        for b, e in zip(batches, ends):
            links[b.index] = e
        count = [0] * len(sizes)
        depth = np.empty_like(links)
        for i, pair in enumerate(links.tolist()):
            depth[i] = count[pair]
            count[pair] += 1
        self.ends = [
            (sizes[e[0]], self.slot[e], depth[b.index], d[e[0]]) for b, e in zip(batches, ends)
        ]
        # link positions are rewritten on every update, the padding never
        self.terms = {
            size: np.zeros(
                (len(members), max(count[p] for p in members), size, size), dtype=complex
            )
            for size, members in groups.items()
        }
        self.vectors: dict = {}

    def update(self, products) -> None:
        """Sum each pair's X X^H terms and take the eigenvectors."""
        for (size, slot, depth, _), P in zip(self.ends, products):
            self.terms[size][slot, depth] = P
        for size, terms in self.terms.items():
            total = np.zeros((terms.shape[0], size, size), dtype=complex)
            for t in range(terms.shape[1]):
                total += terms[:, t]
            self.vectors[size] = np.linalg.eigh(total)[1]

    def stacks(self) -> list:
        """Per batch, its link ends' least d eigenvectors.

        Gathered as whole eigenvector matrices and sliced afterwards, so
        that each filter keeps the row stride it has in the 2-d code.
        """
        return [self.vectors[size][slot][:, :, :d] for size, slot, _, d in self.ends]

    def filters(self) -> list:
        """Each pair's filter, a view of its eigenvector matrix."""
        return [
            self.vectors[size][self.slot[pair]][:, : self.d[pair]]
            for pair, size in enumerate(self.sizes)
        ]


def alt_min(channels: ChannelSet, max_iters: int = 500, seed: int = 0) -> SolveResult:
    """Alternating leakage minimization with orthonormal transceivers.

    Receive filters are the d_k least eigenvectors of the interference
    covariance, H_kj V_j V_j^H H_kj^H summed over the links (k, j) into
    receiver k; transmit filters come from the reciprocal step with the
    roles swapped. Leakage is recorded after every half-step and never
    increases. Stops when leakage drops below ``ALT_MIN_TOL``. ``seed``
    draws the random orthonormal precoders it starts from.
    """
    channels.require_complex()
    channels.require_direct()
    cfg = channels.cfg
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

    batches = channels.batches
    # H_kj^H as a view of the conjugates: the 2-d code's layout for H.conj().T
    Hh = [np.conj(b.H).swapaxes(1, 2) for b in batches]
    d = [pair.d for pair in cfg.pairs]
    receive = _Covariances([pair.N for pair in cfg.pairs], d, batches, [b.rx for b in batches])
    transmit = _Covariances([pair.M for pair in cfg.pairs], d, batches, [b.tx for b in batches])
    Us = [_stack([U[k] for k in b.rx]) for b in batches]
    Vs = [_stack([V[j] for j in b.tx]) for b in batches]

    history = [_leakage(batches, Us, Vs)]
    converged = history[0] < ALT_MIN_TOL
    iterations = 0
    while not converged and iterations < max_iters:
        iterations += 1
        X = [b.H @ Vb for b, Vb in zip(batches, Vs)]
        receive.update([x @ np.conj(x).swapaxes(1, 2) for x in X])
        Us = receive.stacks()
        history.append(_leakage(batches, Us, Vs))
        X = [h @ Ub for h, Ub in zip(Hh, Us)]
        transmit.update([x @ np.conj(x).swapaxes(1, 2) for x in X])
        Vs = transmit.stacks()
        history.append(_leakage(batches, Us, Vs))
        converged = history[-1] < ALT_MIN_TOL
    if iterations:
        U, V = receive.filters(), transmit.filters()

    tx = TransceiverSet(U=tuple(U), V=tuple(V))
    return SolveResult(
        method="alt_min",
        converged=bool(converged),
        iterations=iterations,
        leakage=history[-1],
        leakage_history=tuple(history),
        transceivers=tx,
        direct_rank_margin=_direct_margin(channels, U, V),
    )


def gauss_newton(channels: ChannelSet, init: ReducedTransceivers | None = None) -> SolveResult:
    """Damped Gauss-Newton on the reduced alignment residual.

    Minimum-norm step delta = -J^H (J J^H + lam I)^{-1} F with the damping
    halved after an accepted step and doubled after a rejected one; it
    starts at 1e-3 times the mean squared row norm of the first Jacobian.
    Converged when the residual's max modulus falls below ``GN_TOL``, within
    ``GN_MAX_ITERS`` iterations. The network is checked once per channel
    set, when its :attr:`~iafeas.channels.ChannelSet.system` is built.
    """
    channels.require_complex()
    cfg = channels.cfg
    if init is None:
        init = ReducedTransceivers.zeros(cfg)
    C, _ = system_shape(cfg)
    system = channels.system

    x = init.to_vector()
    F = system.residuals(x, init.row_major)
    history = [float(np.sum(np.abs(F) ** 2))]
    note = "" if C else "no cross constraints"

    eye = np.eye(C)
    lam = None
    iterations = 0
    # with no constraints there is no residual, and any point solves
    converged = C == 0 or float(np.max(np.abs(F))) < GN_TOL
    while not converged and iterations < GN_MAX_ITERS:
        iterations += 1
        J = system.jacobian(x)
        if lam is None:
            mean_row = float(np.mean(np.sum(np.abs(J) ** 2, axis=1)))
            lam = 1e-3 * mean_row if mean_row > 0 else 1e-3
        JJH = J @ J.conj().T
        norm_f = float(np.linalg.norm(F))
        accepted = False
        for _ in range(60):
            try:
                y = np.linalg.solve(JJH + lam * eye, F)
            except np.linalg.LinAlgError:
                lam *= 2.0
                continue
            delta = -J.conj().T @ y
            x_new = x + delta
            if not np.all(np.isfinite(x_new)):
                lam *= 2.0
                continue
            F_new = system.residuals(x_new)
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
        direct_rank_margin=_direct_margin(channels, tx.U, tx.V),
        residual_norm=float(np.max(np.abs(F), initial=0.0)),
        tilde=tilde,
        note=note,
    )


def gauss_newton_multistart(
    channels: ChannelSet, starts: int = DEFAULT_STARTS, seed: int = 0
) -> SolveResult:
    """Gauss-Newton from the origin plus ``starts - 1`` random inits.

    Each run takes at most ``GN_MAX_ITERS`` iterations. Returns the best
    run: converged beats not, then smaller residual. Random initial points
    are drawn from one seeded generator, so the whole sweep is
    reproducible. Every run drives the channel set's one alignment system.
    """
    cfg = channels.cfg
    rng = np.random.default_rng(seed)
    results = []
    for s in range(max(1, starts)):
        if s == 0:
            init = ReducedTransceivers.zeros(cfg)
        else:
            init = ReducedTransceivers.random(cfg, rng, scale=0.5)
        results.append(gauss_newton(channels, init=init))
        if results[-1].converged:
            break

    return min(results, key=lambda r: (not r.converged, r.residual_norm))
