"""Least-squares solution of the structured model-matching program.

The objective ||T1 + T2 Q T3|| in the H2 norm is affine in the FIR
coefficients of the free parameter Q.  Every solve is a column map
(dirs, inputs, delays): column a of the least-squares system moves Q
along the l x n direction dirs[inputs[a]], delayed by delays[a] taps.
The free directions are e_i (e_j - e_dep)', one per free entry of Q
left after eliminating the equality constraints (structural zeros and
per-component zero row sums).  When a group of node permutations leaves
the plant, the nominal, the structure and the components unchanged, some
optimal Q is invariant under it, and the orbit column map keeps only the
averages of the free directions over the group, one per independent
direction: `solve` searches for the group, and the ring-consensus family
passes its dihedral group (shift and reflection), which leaves the
floor(n/2) symmetric circulant directions.  One kernel serves every
column map: A'A, A'b and ||b||^2 are lags of the joint system
[direction responses | vec T1], exact over the infinite horizon, G is
gathered from them in one indexing step, and the Gram system is solved
by Cholesky, falling back to QR with column pivoting when G is singular
to working precision.  When the plant is diagonal in the eigenbasis V of
a symmetric static nominal (consensus plants on any graph, the ring
among them), the table comes from batched 3-state Stein solves over the
mode pairs (p, q) that some direction V' dirs V or the target touches,
and K + 1 matrix products; any other plant takes one Stein solve on the
O(n^2)-state joint system of the pair responses T2 e_i e_j' T3."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, StructureViolationError
from .lti import (
    STABILITY_TOL,
    FirSystem,
    Plant,
    StateSpace,
    fir_lft,
    fir_sub,
    lft,
    markov,
    series,
)
from .measurement import MeasurementStructure, recover_controller, validate_c2
from .structure import (
    InfoStructure,
    membership,
    qi_certificate,
    transfer_pattern,
)
from .youla import YoulaData, build_tilde_plant, laplacian_rnom, make_t_systems, r_from_q

DEFAULT_Q_HORIZON = 32

#: Entries of K this small below its structural bound are snapped to zero.
_SNAP_TOL = 1e-9

#: Tolerance of the eigenbasis route (:func:`_modal_lags`): relative in its
#: gate, and absolute on V' dirs V, whose directions have nonzero entries
#: of magnitude between 1/n and n.
_MODAL_TOL = 1e-12


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
    `k_opt` is K = Knom - F(C2 N, Q~) with N = F(Rnom, Pxu) and
    Q~ C2 = q_opt, truncated to ``horizon_q + 2n`` taps (n states):
    k_opt C2 = r_opt holds on those taps only, not beyond them.
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
    enter.  Returns the column map (dirs, inputs, delays): dirs[p] is
    e_i (e_j - e_dep)' for free pair p = (i, j), and column a of the
    least-squares system moves Q along dirs[inputs[a]] at tap delays[a],
    for every tap from min_delay[i, j] to `horizon`.
    """
    i, j, dep = _free_pairs(structure, indicators, horizon)
    p = np.arange(len(i))
    dirs = np.zeros((len(i), *structure.min_delay.shape))
    dirs[p, i, j] = 1.0
    dirs[p, i, dep] = -1.0
    return (dirs, *_taps_from(structure.min_delay[i, j], horizon))


def _free_pairs(structure: InfoStructure, indicators, horizon: int) -> tuple:
    """(i, j, dep) of :func:`_free_columns`' directions, one per free pair."""
    md = structure.min_delay
    n = md.shape[1]
    others = np.arange(n)
    pairs = [np.zeros((0, 3), dtype=int)]
    for ind in np.atleast_2d(indicators) != 0:
        dep = np.argmin(np.where(ind, md, np.inf), axis=1)
        i, j = np.nonzero(ind & (md <= horizon) & (others != dep[:, None]))
        pairs.append(np.column_stack([i, j, dep[i]]))
    return np.concatenate(pairs).T


def _taps_from(first, horizon: int) -> tuple:
    """(inputs, delays) of a column map whose direction a has every tap
    from first[a] to `horizon`, ordered by tap, then by direction."""
    delays, inputs = np.nonzero(np.arange(horizon + 1)[:, None] >= np.asarray(first))
    return inputs, delays


# ---------------------------------------------------------------------------
# node symmetries and the orbit column map
# ---------------------------------------------------------------------------


def _symmetry_blocks(prob: SynthesisProblem):
    """The n x n matrices that a node symmetry of `prob` must fix, stacked,
    or None outside the shape gate of :func:`_modal_lags`.

    They are A, B1, B2, the static nominal gain, the structure's
    min_delay, the same-component relation (a permutation that keeps it
    maps the component indicators onto themselves) and each n-row block
    of C1 and D12.  A permutation g that fixes all of them, entry (i, j)
    equal to entry (g i, g j), fixes T1, T2 and T3p up to permuting their
    outputs and inputs, and maps the constraint set of Q onto itself, so
    the objective takes the same value at Q and at P Q P'.
    """
    yd = prob.yd
    if not _node_shaped(yd):
        return None
    plant = yd.plant
    n = plant.n_states
    comp = np.argmax(prob.ms.indicators, axis=0)
    square = [plant.A, plant.B1, plant.B2, yd.r_nom.D, prob.structure.min_delay]
    blocks = [np.stack(square + [comp[:, None] == comp]), plant.C1.reshape(-1, n, n)]
    return np.concatenate(blocks + [plant.D12.reshape(-1, n, n)])


def _node_shaped(yd: YoulaData) -> bool:
    """A static nominal and n x n blocks: n controls, n disturbances and
    performance outputs in blocks of n, as node symmetries and the
    eigenbasis route need."""
    plant = yd.plant
    n = plant.n_states
    return not (
        yd.r_nom.n_states or plant.n_ctrl != n or plant.n_dist != n or plant.n_perf % n
    )


#: Search nodes (node images tried) that :func:`_automorphisms` may spend;
#: past it the generators found so far are kept.
_SYMMETRY_BUDGET = 5000


def _automorphisms(prob: SynthesisProblem) -> tuple:
    """Generators of the node permutations that leave `prob` unchanged.

    Returns index arrays g (node i goes to g[i]) with entry (g i, g j)
    equal to entry (i, j) for every matrix of :func:`_symmetry_blocks`;
    an empty tuple stands for the identity group, which is also the answer
    outside the shape gate.  Each entry (i, j) gets one colour per
    distinct tuple of its values; each node starts from the colour of its
    diagonal entry, refined by the multisets of (entry colour, node
    colour) along its row and its column until no class splits.  A
    symmetry keeps both kinds of colour.  The search runs
    down the stabilizer chain of the base 0, 1, ..., n - 1 from the
    deepest level: at level k, for each image c of node k outside the
    orbit of k under the generators found so far (all of which fix nodes
    0..k-1), a backtracking search over the images of nodes k + 1, ...
    pruned by node colours and by the colours of the entries to the
    nodes already placed looks for one symmetry that fixes 0..k-1 and
    sends k to c.  So the search finds one symmetry per coset it needs,
    at most n - 1 per level, and never enumerates the group.  When the
    search spends `_SYMMETRY_BUDGET` node images it stops and keeps the
    generators it has: they span a subgroup, which still gives a correct
    column map.
    """
    X = _symmetry_blocks(prob)
    if X is None:
        return ()
    b, n, _ = X.shape
    C = _row_classes(X.reshape(b, n * n).T).reshape(n, n)
    colour = _row_classes(np.diag(C)[:, None])
    while True:
        out = C * (colour.max() + 1) + colour
        inn = C.T * (colour.max() + 1) + colour
        refined = _row_classes(np.column_stack([colour, np.sort(out, 1), np.sort(inn, 1)]))
        if refined.max() == colour.max():
            break
        colour = refined
    img = np.arange(n)
    used = np.zeros(n, dtype=bool)
    spent = 0

    def images(t):
        # nodes that may take node t's place, given the images of 0..t-1
        placed = img[:t]
        ok = (colour == colour[t]) & ~used
        ok &= (C[:, placed] == C[t, :t]).all(axis=1)
        ok &= (C[placed, :] == C[:t, t : t + 1]).all(axis=0)
        return np.flatnonzero(ok)

    def extend(t):
        # place nodes t..n-1; False also when the budget runs out
        nonlocal spent
        if t == n:
            return True
        for w in images(t):
            if spent >= _SYMMETRY_BUDGET:
                return False
            spent += 1
            img[t], used[w] = w, True
            if extend(t + 1):
                return True
            used[w] = False
        return False

    # level k has work only if a later node shares node k's colour
    last = np.empty(colour.max() + 1, dtype=int)
    last[colour] = np.arange(n)
    gens = []
    for k in np.flatnonzero(last[colour] > np.arange(n))[::-1]:
        # nodes 0..k-1 stay in place
        img[:k] = np.arange(k)
        used[:k], used[k:] = True, False
        orbit = _orbits(gens, n)
        for c in images(k):
            if orbit[c] == orbit[k]:
                continue
            if spent >= _SYMMETRY_BUDGET:
                return tuple(gens)
            spent += 1
            used[k:] = False
            img[k], used[c] = c, True
            if extend(k + 1):
                gens.append(img.copy())
                orbit = _orbits(gens, n)
    return tuple(gens)


def _entry_orbits(generators, n: int) -> np.ndarray:
    """Orbit labels 0, 1, ... of the entries (i, j) of an n x n matrix
    under (i, j) -> (g i, g j), numbered by their first entry in row-major
    order."""
    moves = [(g[:, None] * n + g).reshape(-1) for g in generators]
    return np.unique(_orbits(moves, n * n), return_inverse=True)[1].reshape(n, n)


def _orbits(perms, size: int) -> np.ndarray:
    """The smallest element of each element's orbit under the
    permutations `perms` of 0..size-1.

    Each element holds the smallest element known to share its orbit; a
    round lowers it to the smallest over its images and preimages, then
    to that element's own label (pointer jumping), until no label moves.
    """
    label = np.arange(size)
    while True:
        low = label.copy()
        for m in perms:
            np.minimum(low, low[m], out=low)
            low[m] = np.minimum(low[m], low)
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def _row_classes(M: np.ndarray) -> np.ndarray:
    """Integer labels of the rows of M, equal exactly when the rows are."""
    order = np.lexsort(M.T[::-1])
    ranked = M[order]
    labels = np.empty(len(M), dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum((ranked[1:] != ranked[:-1]).any(axis=1))])
    return labels


def _orbit_columns(prob: SynthesisProblem, generators) -> tuple:
    """Column map of the Q that the node permutations `generators` fix.

    The group G they span acts on Q by Q -> P Q P'.  When G fixes the
    problem (:func:`_automorphisms`), the objective and the constraints
    are G-invariant and convex, so the Reynolds average (1/|G|) sum over
    G of P Q P' of an optimal Q is optimal and G-invariant: the solve
    need only range over the invariant Q.  The average of Q is the mean
    of its entries over each orbit of entries (i, j) -> (g i, g j)
    (:func:`_entry_orbits`).  It maps the direction e_i (e_j - e_dep)' of
    :func:`_free_columns` to 1_O1 / |O1| - 1_O2 / |O2|, O1 and O2 the
    orbits of (i, j) and (i, dep); this map scales it by |O1|, so its
    entries are 1 on O1.  In the integer coordinates of orbit sums that
    direction is the edge e_O1 - e_O2 of a graph on the orbits, so a set
    of directions is independent exactly when its edges form a forest.
    Taking the edges in order of min_delay and keeping each one that
    joins two trees (union-find) gives, for every tap k, a basis of the
    averaged directions live at k, nested in k.  A trivial group returns
    :func:`_free_columns` unchanged.
    """
    structure, horizon = prob.structure, prob.horizon_q
    if not generators:
        return _free_columns(structure, prob.ms.indicators, horizon)
    md = structure.min_delay
    n = md.shape[1]
    orbit = _entry_orbits(generators, n)
    size = np.bincount(orbit.reshape(-1))

    i, j, dep = _free_pairs(structure, prob.ms.indicators, horizon)
    # one edge per distinct (O1, O2), in order of min_delay
    r = size.size
    edges, first = np.unique(orbit[i, j] * r + orbit[i, dep], return_index=True)
    delay = md[i[first], j[first]]
    root = list(range(r))

    def find(a):
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    keep = []
    for e in np.lexsort((first, delay)):
        a, b = find(edges[e] // r), find(edges[e] % r)
        if a != b:
            root[a] = b
            keep.append(e)
    plus, minus = np.divmod(edges[keep], r)
    ratio = (size[plus] / size[minus])[:, None, None]
    dirs = (orbit == plus[:, None, None]) - ratio * (orbit == minus[:, None, None])
    return (dirs, *_taps_from(delay[keep], horizon))


# ---------------------------------------------------------------------------
# the Gram kernel shared by every column map
# ---------------------------------------------------------------------------


def _gram_solve(L: np.ndarray, inputs, delays) -> LstsqResult:
    """Minimize ||A x + target|| over columns of delayed basis responses.

    `L` is the lag table of the joint system [basis | target] up to the
    largest delay (see :func:`_lags`): the basis has one input per basis
    response, the target a single input, and both share the outputs.
    Column a of A is basis response inputs[a] delayed by delays[a] taps,
    over the whole infinite horizon; basis response p is the response of
    the column map's direction p.  A is never formed: A'A,
    A'b and ||b||^2 (b = -target) are entries of L, gathered by
    :func:`_gram_system`, and the Gram system is solved by
    :func:`_solve_gram`.  The result carries ||A x - b|| as `residual`
    and ||A'(A x - b)|| = ||G x - A'b|| as `gradient_norm`.
    """
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
# the solve shared by every column map
# ---------------------------------------------------------------------------


def solve(prob: SynthesisProblem) -> SynthesisResult:
    """Minimize the H2 norm of T1 + T2 Q T3 over structured FIR Q.

    Each Markov parameter of the matched map is an affine function of the
    free coefficients that remain after constraint elimination.  A free
    coefficient at tap k of entry (i, j), paired with the dependent entry
    (i, dep) of its zero-sum group, moves Q along e_i (e_j - e_dep)',
    delayed by k taps (:func:`_free_columns`).  The node permutations
    that leave the problem unchanged (:func:`_automorphisms`) leave some
    optimal Q unchanged, so the solve ranges over those Q alone: the
    orbit column map (:func:`_orbit_columns`) averages the free
    directions over the group, and a problem without symmetry keeps them
    as they are.  :func:`_solve_columns` minimizes over that column map
    and recovers the output-feedback controller from the optimal
    state-feedback map.
    """
    return _solve_columns(prob, *_orbit_columns(prob, _automorphisms(prob)))


def _solve_columns(prob: SynthesisProblem, dirs, inputs, delays) -> SynthesisResult:
    """Minimize the H2 norm over the column map (dirs, inputs, delays).

    Column a moves Q along the l x n direction dirs[inputs[a]], delayed
    by delays[a] taps.  The lag table of [direction responses | vec T1]
    comes from :func:`_modal_lags` when the plant and a symmetric static
    nominal share one eigenbasis (consensus plants on any graph): batched
    3-state Stein solves, then K + 1 matrix products, K the largest
    column delay.  Otherwise :func:`_stein_lags` solves one Stein equation
    on the O(n^2)-state joint system.  Each (delay, input) pair names at
    most one column, so Q's taps are the coefficients of each tap times
    the stacked directions.
    """
    K = int(delays.max(initial=0))
    L = _modal_lags(prob.yd, dirs, K)
    if L is None:
        L = _stein_lags(prob.yd, dirs, K)
    lsres = _gram_solve(L, inputs, delays)
    coef = np.zeros((prob.horizon_q + 1, len(dirs)))
    coef[delays, inputs] = lsres.x
    return _finalize(prob, FirSystem(np.tensordot(coef, dirs, axes=1)), lsres)


def _stein_lags(yd: YoulaData, dirs, K: int) -> np.ndarray:
    """Lag table of [direction responses | vec T1] by :func:`_lags`.

    Input p of the basis is T2 dirs[p] T3, the pair responses weighted by
    the entries of dirs[p].
    """
    m, l, n = dirs.shape
    # input j * l + i of the pair responses is entry (i, j) of Q
    E = dirs.transpose(0, 2, 1).reshape(m, n * l).T
    t1 = yd.t1_stable
    eye_w = np.eye(t1.n_inputs)
    # vec(T1) = (I (x) T1) vec(I): one input feeding every column of T1
    target = StateSpace(
        np.kron(eye_w, t1.A),
        t1.B.T.reshape(-1, 1),
        np.kron(eye_w, t1.C),
        t1.D.T.reshape(-1, 1),
    )
    pairs = _pair_responses(yd)
    basis = StateSpace(pairs.A, pairs.B @ E, pairs.C, pairs.D @ E)
    return _lags(basis, target, K)


def _modal_lags(yd: YoulaData, dirs, K: int):
    """The table of :func:`_stein_lags` from the eigenbasis of the
    nominal, or None when the plant is not diagonal in it.

    With a symmetric static nominal D and V = eigh(D), suppose V'XV is
    diagonal for A + B2 D, B1, B2, each n-row block of C1 + D12 D and of
    D12, and the disagreement projector.  Then T1, T2 and T3p act on
    mode p as scalar filters tau1_p, tau2_p and tau3_p (one per output
    block for T1 and T2).  The response of direction X is the sum over
    mode pairs (p, q) of (V'XV)_pq tau2_p tau3_q along an output direction
    that is orthogonal to those of the other mode pairs, and vec T1 is
    the sum over p of tau1_p along the direction of (p, p).  So with
    M[(p, q), a] = (V' dirs[a] V)_pq, L_basis(d) = M' diag(h00(d)) M,
    where h(d) is the lag table of mode pair (p, q): three states, the
    basis input tau3_q then tau2_p and, when p = q, the target input
    tau1_p.  Only the pairs with p = q or an entry of M above
    `_MODAL_TOL` are built: a circulant direction on the ring touches
    only the pairs inside the nominal's eigenspaces.  A mode on or
    outside the unit circle (marginal agreement modes) must carry no
    state in any of the three maps; it then gets pole 0.
    """
    plant = yd.plant
    n = plant.n_states
    D = yd.r_nom.D
    if not _node_shaped(yd) or np.abs(D - D.T).max() > _MODAL_TOL * np.linalg.norm(D):
        return None
    V = np.linalg.eigh(D)[1]
    P = yd.disagreement_basis @ yd.disagreement_basis.T
    X = np.concatenate(
        [
            np.stack([plant.A + plant.B2 @ D, plant.B1, plant.B2, P]),
            (plant.C1 + plant.D12 @ D).reshape(-1, n, n),
            plant.D12.reshape(-1, n, n),
        ]
    )
    Y = V.T @ X @ V
    diag = np.diagonal(Y, axis1=1, axis2=2)
    off = np.abs(Y - diag[:, :, None] * np.eye(n)).max(axis=(1, 2))
    if np.any(off > _MODAL_TOL * np.linalg.norm(X, axis=(1, 2))):
        return None
    a, b1, b2, pi = diag[:4]
    c, e = np.split(diag[4:], 2)  # (blocks, n): C1 + D12 D and D12
    cb1, cb2, pb1 = c * b1, c * b2, pi * b1
    marginal = np.abs(a) >= 1.0 - STABILITY_TOL
    for prod in (cb1, cb2, pb1):
        if np.abs(prod[..., marginal]).max(initial=0.0) > _MODAL_TOL * np.linalg.norm(prod):
            return None
        prod[..., marginal] = 0.0
    a = np.where(marginal, 0.0, a)

    # mode pair (p, q): M's row (V' dirs V)_pq; states (x3, x2, x1): x3
    # is tau3_q on the basis input, x2 is tau2_p driven by x3's output
    # pb1_q x3, and x1 is tau1_p on the target input
    m = len(dirs)
    p, q = np.divmod(np.arange(n * n), n)
    M = (V.T @ dirs @ V).reshape(m, n * n).T
    keep = (p == q) | (np.abs(M) > _MODAL_TOL).any(axis=1)
    p, q, M = p[keep], q[keep], M[keep]
    N = len(p)
    A = np.zeros((N, 3, 3))
    A[:, 0, 0] = a[q]
    A[:, 1, 0] = pb1[q]
    A[:, 1, 1] = A[:, 2, 2] = a[p]
    B = np.zeros((N, 3, 2))
    B[:, 0, 0] = 1.0
    B[:, 2, 1] = p == q
    C = np.zeros((N, len(c), 3))
    C[:, :, 0] = -(e[:, p] * pb1[q]).T
    C[:, :, 1] = -cb2[:, p].T
    C[:, :, 2] = cb1[:, p].T
    # W = A'WA + C'C by one 9 x 9 Kronecker solve per mode pair; both
    # inputs have D = 0, so h(d) = B'(A')^d W B as in _lags
    At = A.transpose(0, 2, 1)
    kron = np.einsum("kij,kab->kiajb", At, At).reshape(N, 9, 9)
    W = np.linalg.solve(np.eye(9) - kron, (C.transpose(0, 2, 1) @ C).reshape(N, 9, 1))
    W = W.reshape(N, 3, 3)
    W = 0.5 * (W + W.transpose(0, 2, 1))
    h = np.empty((K + 1, N, 2, 2))
    AtdWB = W @ B
    for d in range(K + 1):
        h[d] = B.transpose(0, 2, 1) @ AtdWB
        AtdWB = At @ AtdWB

    out = np.empty((K + 1, m + 1, m + 1))
    out[:, :m, :m] = (M.T * h[:, None, :, 0, 0]) @ M
    out[:, :m, m] = h[:, :, 0, 1] @ M
    out[:, m, :m] = h[:, :, 1, 0] @ M
    out[:, m, m] = h[:, :, 1, 1].sum(axis=1)
    return out


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


# ---------------------------------------------------------------------------
# ring consensus family and its circulant column map
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


def circulant_reduce(prob: SynthesisProblem) -> tuple:
    """Dihedral column map of a ring-symmetric problem.

    The ring's shift i -> i + 1 and reflection i -> -i (mod n) generate
    its dihedral group of 2n node permutations.  When both leave the
    problem unchanged (:func:`_symmetry_blocks`: plant blocks, nominal
    gain, structure and components), some optimal Q is a symmetric
    circulant, so the solve may range over those Q alone: the orbit
    column map (:func:`_orbit_columns`) of the two generators has one
    direction per ring distance d from 1 to floor(n/2), the circulant
    with ones at offsets d and n - d minus the diagonal that makes its
    rows sum to zero, with taps from d (the structure's delay) up to
    horizon_q.  Returns the column map (dirs, inputs, delays) of
    :func:`_solve_columns`.  Rejects a problem outside the shape gate or
    not fixed by the shift and the reflection.
    """
    X = _symmetry_blocks(prob)
    if X is None:
        raise StructureViolationError(
            "ring reduction needs a static nominal gain and n x n plant blocks"
        )
    n = X.shape[1]
    shift, reflection = (np.arange(n) + 1) % n, -np.arange(n) % n
    if not all(np.array_equal(X[:, g][:, :, g], X) for g in (shift, reflection)):
        raise StructureViolationError(
            "plant, nominal gain or structure is not invariant under the ring's "
            "shift and reflection"
        )
    return _orbit_columns(prob, (shift, reflection))


def solve_ring_circulant(
    n: int, gamma: float, horizon_q: int = DEFAULT_Q_HORIZON
) -> SynthesisResult:
    """Solve the ring-consensus instance over symmetric circulant Q.

    Builds the ring problem and hands its dihedral column map
    (:func:`circulant_reduce`) to the solve that :func:`solve` uses: the
    floor(n/2) symmetric circulant directions replace the n(n - 1) free
    entries of Q, the ring passes the eigenbasis gate, and a circulant
    direction touches only mode pairs inside the Laplacian's eigenspaces,
    at most 2n - 1 of the n^2, so the lag table costs O(n) 3-state Stein
    solves.
    """
    prob = build_ring_problem(n, gamma, horizon_q)
    return _solve_columns(prob, *circulant_reduce(prob))


# ---------------------------------------------------------------------------
# shared finalization: recovery of K, declared structures
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
        T, ordering = ms.chain_transforms[ci]
        rows = list(ms.component_rows(ci))
        gain_delay = np.minimum.accumulate(r_structure.min_delay[:, list(ordering[:-1])], axis=1)
        contributing = T[: len(comp) - 1] != 0
        out[:, rows] = np.where(contributing, gain_delay[:, :, None], np.inf).min(axis=1)
    return InfoStructure(out)


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


def _finalize(prob: SynthesisProblem, q_opt: FirSystem, lsres: LstsqResult) -> SynthesisResult:
    ms = prob.ms
    violation = _constraint_violation(q_opt, ms)
    if violation > 1e-10:
        raise DomainError(
            f"synthesized parameter violates the indicator constraints ({violation:.2e})"
        )
    if not membership(q_opt, prob.structure):
        raise DomainError("synthesized parameter violates its structure")
    return SynthesisResult(
        q_opt=q_opt,
        objective=lsres.residual,
        residual_gradient=lsres.gradient_norm,
        constraint_violation=violation,
        k_opt=_controller(prob, q_opt),
        rank_deficient=lsres.rank_deficient,
        yd=prob.yd,
    )


def _controller_horizon(prob: SynthesisProblem) -> int:
    # The optimal R may be an unstable transfer function (only the closed
    # loop is guaranteed stable), so its long-horizon taps grow; the
    # recovered FIR controller keeps a short structural window on which
    # the tap match k_opt C2 = r_opt is well conditioned.
    return prob.horizon_q + 2 * prob.yd.plant.n_states


def _controller(prob: SynthesisProblem, q: FirSystem) -> FirSystem:
    """Taps of K = Knom - F(C2 N, Q~) on the controller window.

    With Q~ C2 = Q and N = F(Rnom, Pxu), F(N, Q~ C2) = F(C2 N, Q~) C2, so
    K C2 = R: K is recovered once, from the exactly relative Q and the
    nominal, never from R's taps.  Roundoff below K's structural bound is
    snapped to the exact zeros that membership tests.
    """
    yd, ms = prob.yd, prob.ms
    horizon = _controller_horizon(prob)
    # recovery works tap by tap, so Knom's taps and Q's share one call
    stacked = np.concatenate([markov(yd.r_nom, horizon).taps, q.taps])
    both = recover_controller(FirSystem(stacked), ms).taps
    k_nom, q_tilde = FirSystem(both[: horizon + 1]), FirSystem(both[horizon + 1 :])
    c2n = FirSystem(ms.c2 @ markov(lft(yd.r_nom, yd.plant.pxu()), horizon).taps)
    taps = np.array(fir_sub(k_nom, fir_lft(c2n, q_tilde, horizon)).taps)
    bound = recovered_structure(combined_r_structure(prob.structure, yd), ms)
    ks = np.arange(horizon + 1)[:, None, None]
    taps[(ks < bound.min_delay[None, :, :]) & (np.abs(taps) <= _SNAP_TOL)] = 0.0
    return FirSystem(taps)


def _constraint_violation(q: FirSystem, ms: MeasurementStructure) -> float:
    worst = 0.0
    for comp in ms.components:
        sums = q.taps[:, :, list(comp)].sum(axis=2)
        worst = max(worst, float(np.abs(sums).max()))
    return worst
