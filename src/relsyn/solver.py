"""Least-squares solution of the structured model-matching program.

The objective ||T1 + T2 Q T3|| in the H2 norm is affine in the FIR
coefficients of the free parameter Q.  After eliminating the equality
constraints (structural zeros and per-component zero row sums) it is a
linear least-squares problem min ||A x - b|| over infinitely many rows,
whose every column is one input of a basis system delayed by a whole
number of taps: a difference of two responses is folded into the
basis's input matrix.  One kernel serves both solve paths: A'A, A'b and
||b||^2 are lags of the joint system [basis | target], read exactly off
its observability Gramian (one Stein solve, no truncation), G is
gathered from them in one indexing step, and the Gram system is solved
by Cholesky, falling back to QR with column pivoting when G is singular
to working precision.  The general path takes as basis the pair
responses T2 e_i e_j' T3 of every entry of Q, with Kronecker identities
sized by the inputs of T2 and T3; the circulant path handles
the ring-consensus family by reducing the matrix-valued problem to the
first column of Q, whose lift onto the free parameters is a delay per
column rather than states of the basis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, StructureViolationError
from .lti import (
    FirSystem,
    Plant,
    StateSpace,
    fir_lft,
    fir_sub,
    lft,
    markov,
    series,
)
from .measurement import (
    MeasurementStructure,
    chain_transform,
    recover_controller,
    validate_c2,
)
from .structure import (
    InfoStructure,
    membership,
    qi_certificate,
    transfer_pattern,
)
from .youla import YoulaData, build_tilde_plant, laplacian_rnom, make_t_systems, r_from_q

DEFAULT_Q_HORIZON = 32

#: Entries this small may be snapped to exact zeros during cleanup.
_SNAP_TOL = 1e-9


# ---------------------------------------------------------------------------
# problem and result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthesisProblem:
    """A structured model-matching instance.

    `horizon_q` is the FIR horizon of the free parameter; the objective
    itself is the exact infinite-horizon H2 norm.  Construction is
    rejected unless the structure is quadratically invariant with respect
    to the control-to-state pattern, which is what lets the structure
    constraint transfer onto the free parameter.
    """

    yd: YoulaData
    structure: InfoStructure
    ms: MeasurementStructure
    horizon_q: int

    @property
    def horizon_obj(self) -> int:
        """Taps the objective expands: horizon_q, which bounds every
        column delay.

        The objective is not truncated; its lags are taken up to the
        largest column delay.  Read-only.  The traced benchmark
        (``perfbench``) reads it for its ``solver.horizon_obj`` counter
        until ROADMAP item 1 moves that counter onto the solve record.
        """
        return self.horizon_q

    def __post_init__(self):
        yd = self.yd
        n = yd.plant.n_states
        l = yd.plant.n_ctrl
        if (self.structure.rows, self.structure.cols) != (l, n):
            raise DimensionError(
                f"structure is {self.structure.rows}x{self.structure.cols}, "
                f"free parameter is {l}x{n}"
            )
        if self.ms.n_states != n:
            raise DimensionError("measurement structure does not match the plant")
        if self.horizon_q < 0:
            raise DomainError("horizon_q must be nonnegative")
        pattern = transfer_pattern(yd.plant.pxu())
        cert = qi_certificate(self.structure, pattern)
        if cert is not None:
            raise StructureViolationError(
                "structure is not quadratically invariant with respect to the "
                f"control-to-state pattern; violating quadruple {cert}",
                certificate=cert,
            )


@dataclass(frozen=True)
class SynthesisResult:
    """Solution bundle of one synthesis run.

    `objective` is the H2 value of the matched map, `residual_gradient`
    the optimality measure ||A'(Ax - b)|| of the solved least-squares
    system, and `constraint_violation` the largest indicator row sum over
    all taps of `q_opt`.  `r_opt` is the state-feedback map
    ``r_from_q(yd, q_opt)``, built on first access and then kept.
    `k_opt` is R's impulse response truncated to ``horizon_q + 2n`` taps
    (n states), recovered tap by tap: k_opt C2 = r_opt holds on those
    taps only, not beyond them.
    """

    q_opt: FirSystem
    objective: float
    residual_gradient: float
    constraint_violation: float
    k_opt: FirSystem
    rank_deficient: bool
    yd: YoulaData = field(repr=False)

    @cached_property
    def r_opt(self) -> StateSpace:
        """State-space realization of R = Rnom - F(F(Rnom, Pxu), q_opt)."""
        return r_from_q(self.yd, self.q_opt)


@dataclass(frozen=True)
class LstsqResult:
    x: np.ndarray
    residual: float
    gradient_norm: float
    rank: int
    rank_deficient: bool


def least_squares(A, b) -> LstsqResult:
    """Minimize ||A x - b|| by QR with column pivoting.

    Returns the minimal-norm solution on rank deficiency (flagged), with
    the residual norm and the gradient norm ||A'(A x - b)|| for
    optimality certification.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise DimensionError(f"incompatible least-squares shapes {A.shape}, {b.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise DomainError("least-squares input contains non-finite entries")
    if A.shape[1] == 0:
        return LstsqResult(
            x=np.zeros(0),
            residual=float(np.linalg.norm(b)),
            gradient_norm=0.0,
            rank=0,
            rank_deficient=False,
        )
    x, _, rank, _ = scipy.linalg.lstsq(A, b, lapack_driver="gelsy")
    resid_vec = A @ x - b
    return LstsqResult(
        x=x,
        residual=float(np.linalg.norm(resid_vec)),
        gradient_norm=float(np.linalg.norm(A.T @ resid_vec)),
        rank=int(rank),
        rank_deficient=int(rank) < A.shape[1],
    )


# ---------------------------------------------------------------------------
# constraint elimination
# ---------------------------------------------------------------------------


def _free_columns(structure: InfoStructure, indicators, horizon: int) -> tuple:
    """Free coefficients of Q left after substituting the equality rows.

    For each row i and component, the column with the smallest
    min_delay[i, .] is the dependent entry of the zero-sum group at every
    tap.  It is live whenever any other column of the group is, so it
    absorbs minus the sum of the free entries, and the forced zeros never
    enter.  Returns (pairs, inputs, delays): row p of `pairs` is a free
    pair (i, j, dep), and column a of the least-squares system is the
    coefficient of pair inputs[a] at tap delays[a], for every tap from
    min_delay[i, j] to `horizon`.
    """
    md = structure.min_delay
    others = np.arange(md.shape[1])
    pairs = [np.zeros((0, 3), dtype=int)]
    for ind in np.atleast_2d(indicators) != 0:
        dep = np.argmin(np.where(ind, md, np.inf), axis=1)
        i, j = np.nonzero(ind & (md <= horizon) & (others != dep[:, None]))
        pairs.append(np.column_stack([i, j, dep[i]]))
    pairs = np.concatenate(pairs)
    start = md[pairs[:, 0], pairs[:, 1]]
    delays, inputs = np.nonzero(np.arange(horizon + 1)[:, None] >= start)
    return pairs, inputs, delays


def _assemble_q(pairs, inputs, delays, x, horizon: int, rows: int, cols: int) -> FirSystem:
    taps = np.zeros((horizon + 1, rows, cols))
    i, j, dep = pairs[inputs].T
    np.add.at(taps, (delays, i, j), x)
    np.add.at(taps, (delays, i, dep), -x)
    return FirSystem(taps)


# ---------------------------------------------------------------------------
# the Gram kernel shared by both paths
# ---------------------------------------------------------------------------


def _gram_solve(basis: StateSpace, target: StateSpace, inputs, delays) -> LstsqResult:
    """Minimize ||A x + target|| over columns of delayed basis responses.

    `basis` has one input per basis response and `target` a single
    input; both share the outputs.  Column a of A is basis response
    inputs[a] delayed by delays[a] taps, over the whole infinite horizon;
    the solve paths fold any difference of responses into the basis's
    input matrix.  A is never formed: A'A, A'b and ||b||^2 (b = -target)
    are entries of the lag table of :func:`_lags`, gathered by
    :func:`_gram_system`, and the Gram system is solved by
    :func:`_solve_gram`.  The result carries ||A x - b|| as `residual`
    and ||A'(A x - b)|| = ||G x - A'b|| as `gradient_norm`.
    """
    K = int(delays.max()) if delays.size else 0
    L = _lags(basis, target, K)
    G, c = _gram_system(L, inputs, delays)
    sol = _solve_gram(G, c)
    x = sol.x
    tgt = L.shape[1] - 1
    resid_sq = float(L[0, tgt, tgt]) - 2.0 * float(c @ x) + float(x @ (G @ x))
    return LstsqResult(
        x=x,
        residual=math.sqrt(max(resid_sq, 0.0)),
        gradient_norm=sol.residual,
        rank=sol.rank,
        rank_deficient=sol.rank_deficient,
    )


def _gram_system(L: np.ndarray, inputs, delays):
    """G = A'A and A'b of :func:`_gram_solve` from the lag table L.

    Entry (a, b) of G is the inner product of response e_a delayed by k_a
    taps with e_b delayed by k_b: L(k_b - k_a)[e_a, e_b], with
    L(-d) = L(d)'.  Stacking S = [L(K)' ... L(1)' L(0) ... L(K)] makes it
    one gather, S[K + k_b - k_a, e_a, e_b].
    """
    K = L.shape[0] - 1
    m = tgt = L.shape[1] - 1
    S = np.concatenate([L[:0:-1, :m, :m].transpose(0, 2, 1), L[:, :m, :m]]).reshape(-1)
    rows = ((K - delays) * m + inputs) * m
    cols = delays * m * m + inputs
    return S[rows[:, None] + cols], -L[delays, tgt, inputs]


def _solve_gram(G: np.ndarray, c: np.ndarray) -> LstsqResult:
    """Solve the symmetric Gram system G x = c by Cholesky.

    The factorization is trusted only when LAPACK's estimate of the
    reciprocal condition number is at least cols * eps; when it fails or
    the estimate is smaller, G is singular to working precision and
    :func:`least_squares` solves it instead, which keeps the rank flag and
    the minimal-norm choice.  `residual` is ||G x - c||.
    """
    cols = c.size
    if cols == 0:  # dpocon rejects an empty factor
        return least_squares(G, c)
    try:
        factor = scipy.linalg.cho_factor(G, check_finite=False)
    except np.linalg.LinAlgError:
        return least_squares(G, c)
    rcond, _ = scipy.linalg.lapack.dpocon(
        factor[0], np.abs(G).sum(axis=0).max(), uplo="L" if factor[1] else "U"
    )
    # written so that a NaN estimate (non-finite G) also falls back
    if not rcond >= cols * np.finfo(float).eps:
        return least_squares(G, c)
    x = scipy.linalg.cho_solve(factor, c, check_finite=False)
    resid_vec = G @ x - c
    return LstsqResult(
        x=x,
        residual=float(np.linalg.norm(resid_vec)),
        gradient_norm=float(np.linalg.norm(G @ resid_vec)),
        rank=cols,
        rank_deficient=False,
    )


def _lags(basis: StateSpace, target: StateSpace, K: int) -> np.ndarray:
    """Lags L(d) = sum over u >= 0 of H(u + d)' H(u), for d = 0..K.

    H is the impulse response of the joint system [basis | target]:
    block-diagonal A and B, the shared output C, so H(0) = D and
    H(t) = C A^(t-1) B.  The observability Gramian W = A' W A + C'C sums
    the infinite tail exactly, L(0) = D'D + B'WB and
    L(d) = H(d)'D + B'(A')^d W B, so no horizon truncates the objective.
    """
    A = scipy.linalg.block_diag(basis.A, target.A)
    B = scipy.linalg.block_diag(basis.B, target.B)
    C = np.hstack([basis.C, target.C])
    D = np.hstack([basis.D, target.D])
    W = scipy.linalg.solve_discrete_lyapunov(A.T, C.T @ C)
    W = 0.5 * (W + W.T)
    out = np.empty((K + 1, D.shape[1], D.shape[1]))
    out[0] = D.T @ D + B.T @ W @ B
    AdB, AtdWB = B, W @ B  # A^(d-1) B and (A')^d W B
    for d in range(1, K + 1):
        AtdWB = A.T @ AtdWB
        out[d] = (C @ AdB).T @ D + B.T @ AtdWB
        AdB = A @ AdB
    return out


# ---------------------------------------------------------------------------
# general path
# ---------------------------------------------------------------------------


def solve(prob: SynthesisProblem) -> SynthesisResult:
    """Minimize the H2 norm of T1 + T2 Q T3 over structured FIR Q.

    Each Markov parameter of the matched map is an affine function of the
    free coefficients that remain after constraint elimination.  A free
    coefficient at tap k of entry (i, j), paired with the dependent entry
    (i, dep) of its zero-sum group, moves the objective along the pair
    response of (i, j) minus that of (i, dep), delayed by k taps; the sum
    of squared entries over all taps is minimized through the Gram
    kernel, and the output-feedback controller is recovered from the
    optimal state-feedback map.
    """
    yd = prob.yd
    T_Q = prob.horizon_q
    l = yd.plant.n_ctrl
    n = yd.plant.n_states

    pairs, inputs, delays = _free_columns(prob.structure, prob.ms.indicators, T_Q)
    # input p of the basis: pair response (i, j) minus pair response (i, dep)
    E = np.zeros((n * l, len(pairs)))
    E[pairs[:, 1] * l + pairs[:, 0], np.arange(len(pairs))] = 1.0
    E[pairs[:, 2] * l + pairs[:, 0], np.arange(len(pairs))] = -1.0
    t1 = yd.t1_stable
    eye_w = np.eye(t1.n_inputs)
    # vec(T1) = (I (x) T1) vec(I): one input feeding every column of T1
    target = StateSpace(
        np.kron(eye_w, t1.A),
        t1.B.T.reshape(-1, 1),
        np.kron(eye_w, t1.C),
        t1.D.T.reshape(-1, 1),
    )
    basis = _fold_inputs(_pair_responses(yd), E)
    lsres = _gram_solve(basis, target, inputs, delays)

    q_opt = _assemble_q(pairs, inputs, delays, lsres.x, T_Q, l, n)
    return _finalize(prob, q_opt, lsres, objective=lsres.residual)


def _pair_responses(yd: YoulaData) -> StateSpace:
    """T2 e_i e_j' T3 for every entry (i, j) of Q, as one system.

    vec(T2 Q T3) = (I (x) T2) (T3' (x) I) vec(Q), realized as that series
    connection: output w * nz + z, input j * l + i is entry (z, w) of
    T2 e_i e_j' T3.  The Kronecker identities are sized by the inputs of
    T2 (l) and T3 (nw), not by T2's nz outputs and T3's n outputs, so the
    system has l times T3's states plus nw times T2's.
    """
    t2, t3 = yd.t2_stable, yd.t3_projected
    eye_l = np.eye(t2.n_inputs)
    eye_w = np.eye(t3.n_inputs)
    first = StateSpace(*(np.kron(M.T, eye_l) for M in (t3.A, t3.C, t3.B, t3.D)))
    then = StateSpace(*(np.kron(eye_w, M) for M in (t2.A, t2.B, t2.C, t2.D)))
    return series(then, first)


def _fold_inputs(sys: StateSpace, E: np.ndarray) -> StateSpace:
    """sys(z) E: the inputs of `sys` driven through the static map E."""
    return StateSpace(sys.A, sys.B @ E, sys.C, sys.D @ E)


# ---------------------------------------------------------------------------
# ring consensus family and the circulant fast path
# ---------------------------------------------------------------------------


def ring_adjacency(n: int) -> np.ndarray:
    """Cycle graph adjacency: nodes i and j adjacent iff |i-j| = 1 mod n."""
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = 1.0
        A[(i + 1) % n, i] = 1.0
    return A


def ring_measurement(n: int) -> MeasurementStructure:
    """Consecutive-difference sensing y_i = x_i - x_{i+1}, i = 0..n-2.

    These n-1 independent rows connect all nodes (one component) while
    satisfying the one-plus/one-minus and no-redundancy requirements; the
    full cycle of n difference sensors would repeat information.
    """
    return validate_c2(_ring_c2(n))


def _ring_c2(n: int) -> np.ndarray:
    C2 = np.zeros((n - 1, n))
    for i in range(n - 1):
        C2[i, i] = 1.0
        C2[i, i + 1] = -1.0
    return C2


def ring_plant(n: int, gamma: float) -> Plant:
    """First-order consensus plant on a ring.

    Dynamics x[t+1] = x + u + w with performance output stacking the
    deviation-from-average (1 - gamma) (I - (1/n) 1 1') x over the control
    effort gamma u.
    """
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0, 1], got {gamma}")
    if n < 2:
        raise DomainError("ring needs at least 2 nodes")
    deviation = np.eye(n) - np.ones((n, n)) / n
    C1 = np.vstack([(1.0 - gamma) * deviation, np.zeros((n, n))])
    D12 = np.vstack([np.zeros((n, n)), gamma * np.eye(n)])
    return Plant(
        A=np.eye(n),
        B1=np.eye(n),
        B2=np.eye(n),
        C1=C1,
        D12=D12,
        C2=_ring_c2(n),
    )


def build_ring_problem(
    n: int, gamma: float, horizon_q: int = DEFAULT_Q_HORIZON
) -> SynthesisProblem:
    """Ring plant + Laplacian nominal + ring delay structure, ready to solve."""
    from .structure import ring_delay_structure

    plant = ring_plant(n, gamma)
    ms = ring_measurement(n)
    yd = make_t_systems(
        build_tilde_plant(plant), laplacian_rnom(ring_adjacency(n)), ms
    )
    return SynthesisProblem(
        yd=yd, structure=ring_delay_structure(n), ms=ms, horizon_q=horizon_q
    )


def eliminate_q0(n: int) -> FirSystem:
    """Column-lift map from the free circulant entries to the first column.

    The relative constraint ties the diagonal entry to the off-diagonal
    ones, so the first column of Q equals M q with q the n-1 free scalar
    FIRs: row 0 of M collects -z^(-l_j) over every parameter and row n-j
    holds +z^(-l_j) for parameter j, where l_j is the ring distance of
    circulant offset j.  Column sums vanish, so Q 1 = 0 holds by
    construction.
    """
    if n < 2:
        raise DomainError("ring needs at least 2 nodes")
    dist = [min(j, n - j) for j in range(n)]
    horizon = max(dist[1:])
    taps = np.zeros((horizon + 1, n, n - 1))
    for j in range(1, n):
        taps[dist[j], 0, j - 1] = -1.0
        taps[dist[j], n - j, j - 1] = 1.0
    return FirSystem(taps)


def _is_circulant(M: np.ndarray) -> bool:
    n = M.shape[0]
    if M.shape != (n, n):
        return False
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return bool(np.array_equal(M, M[:, 0][idx]))


@dataclass(frozen=True)
class CirculantReduction:
    """Single-column form of a circulant synthesis problem.

    The objective satisfies ||T1 + T2 Q T3||^2 = scale * ||target +
    sum over j, b of q_j[b] z^-(param_delays[j] + b) basis_j||^2 exactly.
    `target` is the first column of T1, and input j of `basis` is the
    response T2 T3 (e_(n-1-j) - e_0) of the free circulant parameter for
    offset j + 1, whose lift column (see :func:`eliminate_q0`) is that
    direction delayed by its ring distance `param_delays[j]`.  The lift
    thus lives in the column delays, not in the basis's states.
    Parameter j has taps 0..`param_horizons[j]`.  Both systems are state
    space, so the H2 norm is taken over the whole infinite horizon.
    """

    n: int
    scale: float
    target: StateSpace
    basis: StateSpace
    param_delays: tuple
    param_horizons: tuple


def circulant_reduce(prob: SynthesisProblem) -> CirculantReduction:
    """Rewrite a circulant problem over the first column of Q.

    Circulant transfer matrices commute and are determined by one column,
    so T2 Q T3 e1 = T2 T3 (Q e1) and only Q e1 enters the objective.
    Rejects non-circulant plants, nominal controllers or structures.
    """
    yd = prob.yd
    plant = yd.plant
    n = plant.n_states
    blocks = [plant.A, plant.B1, plant.B2]
    if plant.n_perf % n == 0:
        for r in range(plant.n_perf // n):
            blocks.append(plant.C1[r * n : (r + 1) * n])
            blocks.append(plant.D12[r * n : (r + 1) * n])
    else:
        raise StructureViolationError("performance blocks are not n x n stacks")
    if yd.r_nom.n_states != 0:
        raise StructureViolationError("circulant path needs a static nominal gain")
    blocks.append(yd.r_nom.D)
    if not all(_is_circulant(M) for M in blocks):
        raise StructureViolationError("plant or nominal controller is not circulant")
    if not _is_circulant(prob.structure.min_delay):
        raise StructureViolationError("structure is not circulant")

    offsets = np.arange(1, n)
    directions = np.zeros((n, n - 1))
    directions[n - offsets, offsets - 1] = 1.0
    directions[0] = -1.0
    dist = np.minimum(offsets, n - offsets)
    first = StateSpace.static_gain(np.eye(plant.n_dist)[:, :1])
    return CirculantReduction(
        n=n,
        scale=float(n),
        target=series(yd.t1_stable, first),
        basis=_fold_inputs(series(yd.t2_stable, yd.t3_projected), directions),
        param_delays=tuple(int(d) for d in dist),
        # -1: the parameter's ring distance exceeds horizon_q, so it has no taps
        param_horizons=tuple(int(h) for h in np.maximum(prob.horizon_q - dist, -1)),
    )


def solve_ring_circulant(
    n: int, gamma: float, horizon_q: int = DEFAULT_Q_HORIZON
) -> SynthesisResult:
    """Solve the ring-consensus instance through the circulant reduction.

    Builds the ring problem, reduces the objective to the first column of
    the circulant parameter, solves the unconstrained least squares over
    the n-1 scalar FIR parameters through the Gram kernel (column (j, b)
    is basis response j delayed by its ring distance plus b taps), and
    expands the optimal column back to the full parameter before
    recovering the output-feedback controller.
    """
    prob = build_ring_problem(n, gamma, horizon_q)
    red = circulant_reduce(prob)
    dist = np.array(red.param_delays)
    delays, inputs = np.nonzero(np.arange(horizon_q + 1)[:, None] >= dist)
    lsres = _gram_solve(red.basis, red.target, inputs, delays)

    params = np.zeros((n - 1, horizon_q + 1))
    params[inputs, delays - dist[inputs]] = lsres.x
    params = [p[: h + 1] for p, h in zip(params, red.param_horizons)]
    q_opt = _expand_circulant(red, params, horizon_q)
    objective = math.sqrt(red.scale) * lsres.residual
    return _finalize(prob, q_opt, lsres, objective=objective)


def _expand_circulant(
    red: CirculantReduction, params: list, horizon_q: int
) -> FirSystem:
    """First column from the lift's directions and delays, then the full
    circulant parameter."""
    n = red.n
    column = np.zeros((horizon_q + 1, n))
    for j, (pj, d) in enumerate(zip(params, red.param_delays), start=1):
        hi = min(len(pj), horizon_q + 1 - d)
        column[d : d + hi, 0] -= pj[:hi]
        column[d : d + hi, n - j] += pj[:hi]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    taps = column[:, idx]
    return FirSystem(taps)


# ---------------------------------------------------------------------------
# shared finalization: cleanup, recovery, declared structures
# ---------------------------------------------------------------------------


def combined_r_structure(structure: InfoStructure, yd: YoulaData) -> InfoStructure:
    """Minimum-delay bound on the recovered state-feedback map.

    R = Rnom - F(F(Rnom, Pxu), Q) inherits the structure of Q wherever the
    nominal gain vanishes, and delay 0 on the nominal's support.
    """
    nominal = transfer_pattern(yd.r_nom, numerical=True)
    return InfoStructure(np.minimum(structure.min_delay, nominal.min_delay))


def recovered_structure(r_structure: InfoStructure, ms: MeasurementStructure) -> InfoStructure:
    """Minimum-delay bound induced on the recovered K by the chain recovery.

    Column j of the chain gains is a cumulative sum over an ordering
    prefix, and each measurement column of K combines the gains selected
    by the chain transform, so the bound is the min of the contributing
    entries' delays.
    """
    l = r_structure.rows
    out = np.full((l, ms.n_measurements), np.inf)
    for ci, comp in enumerate(ms.components):
        if len(comp) == 1:
            continue
        T, ordering = chain_transform(ms, comp)
        rows = list(ms.component_rows(ci))
        c = len(comp)
        gain_delay = np.empty((l, c - 1))
        for jj in range(c - 1):
            cols = [ordering[t] for t in range(jj + 1)]
            gain_delay[:, jj] = r_structure.min_delay[:, cols].min(axis=1)
        for pos, ell in enumerate(rows):
            contributing = np.flatnonzero(T[: c - 1, pos])
            if contributing.size:
                out[:, ell] = gain_delay[:, contributing].min(axis=1)
    return InfoStructure(out)


def _clean_r_fir(
    r_fir: FirSystem, bound: InfoStructure, ms: MeasurementStructure
) -> FirSystem:
    """Snap sub-tolerance entries to the structural zeros and project the
    per-component row sums to exact zeros, so that recovery is exact.

    For every tap, row and component, the sum is spread evenly over the
    entries that are allowed or still nonzero, and a second pass moves
    the roundoff of the first onto the first such entry.
    """
    taps = np.array(r_fir.taps)
    ks = np.arange(taps.shape[0])[:, None, None]
    snap = (ks < bound.min_delay[None, :, :]) & (np.abs(taps) <= _SNAP_TOL)
    taps[snap] = 0.0
    for comp in ms.components:
        cols = list(comp)
        block = taps[:, :, cols]
        allowed = (ks >= bound.min_delay[None, :, cols]) | (block != 0.0)
        # a row with no allowed entry was snapped whole: its sum is zero,
        # and both passes leave it as it is
        count = np.maximum(allowed.sum(axis=2, keepdims=True), 1)
        block -= np.where(allowed, block.sum(axis=2, keepdims=True) / count, 0.0)
        lead = np.argmax(allowed, axis=2)[:, :, None]
        residue = block.sum(axis=2, keepdims=True)
        np.put_along_axis(
            block, lead, np.take_along_axis(block, lead, axis=2) - residue, axis=2
        )
        taps[:, :, cols] = block
    return FirSystem(taps)


def recovered_r_fir(yd: YoulaData, q: FirSystem, horizon: int) -> FirSystem:
    """Taps of R = Rnom - F(F(Rnom, Pxu), Q) through the tap recursion.

    The state-space realization of R may carry unstable hidden modes, so
    its Markov parameters are ill conditioned at long horizons; the tap
    recursion works on impulse responses only and stays accurate.  `q`
    needs no padding: its taps past its own horizon are zeros.
    """
    M = markov(lft(yd.r_nom, yd.plant.pxu()), horizon)
    rnom_fir = markov(yd.r_nom, horizon)
    return fir_sub(rnom_fir, fir_lft(M, q, horizon))


def _finalize(
    prob: SynthesisProblem,
    q_opt: FirSystem,
    lsres: LstsqResult,
    objective: float,
) -> SynthesisResult:
    yd = prob.yd
    ms = prob.ms
    violation = _constraint_violation(q_opt, ms)
    if violation > 1e-10:
        raise DomainError(
            f"synthesized parameter violates the indicator constraints ({violation:.2e})"
        )
    if not membership(q_opt, prob.structure):
        raise DomainError("synthesized parameter violates its structure")
    horizon_k = _controller_horizon(prob)
    r_fir = recovered_r_fir(yd, q_opt, horizon_k)
    r_fir = _clean_r_fir(r_fir, combined_r_structure(prob.structure, yd), ms)
    k_opt = recover_controller(r_fir, ms)
    return SynthesisResult(
        q_opt=q_opt,
        objective=float(objective),
        residual_gradient=lsres.gradient_norm,
        constraint_violation=violation,
        k_opt=k_opt,
        rank_deficient=lsres.rank_deficient,
        yd=yd,
    )


def _controller_horizon(prob: SynthesisProblem) -> int:
    # The optimal R may be an unstable transfer function (only the closed
    # loop is guaranteed stable), so its long-horizon taps grow; the
    # recovered FIR controller keeps a short structural window on which
    # the tap match k_opt C2 = r_opt is well conditioned.
    return prob.horizon_q + 2 * prob.yd.plant.n_states


def _constraint_violation(q: FirSystem, ms: MeasurementStructure) -> float:
    worst = 0.0
    for comp in ms.components:
        sums = q.taps[:, :, list(comp)].sum(axis=2)
        worst = max(worst, float(np.abs(sums).max()))
    return worst
