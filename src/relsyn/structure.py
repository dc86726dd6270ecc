"""Network control structures: sparsity/delay subspaces and their algebra.

An :class:`InfoStructure` stores, per matrix entry, the smallest tap index
at which that entry of an FIR transfer matrix may be nonzero (infinity for
an entry that must vanish identically).  Pure sparsity patterns are the
special case with entries in {0, inf}.  The same type covers membership
tests, the delay/sparsity form of quadratic invariance, and compilation of
the structural and component-indicator constraints into a linear equality
system on FIR coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .lti import FirSystem, Matrix, StateSpace, _freeze

INF = np.inf


@dataclass(frozen=True)
class InfoStructure:
    """Per-entry minimum-delay exponents of an FIR transfer matrix.

    ``min_delay[i, j]`` is the smallest tap index at which entry (i, j) may
    be nonzero; ``inf`` freezes the entry at zero.
    """

    min_delay: Matrix

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.min_delay, dtype=np.float64))
        # NaN and -inf fail the sign test; +inf passes both
        if not np.all((d >= 0) & (d == np.round(d))):
            raise DomainError("min_delay entries must be nonnegative integers or inf")
        object.__setattr__(self, "min_delay", _freeze(d))

    @property
    def rows(self) -> int:
        return self.min_delay.shape[0]

    @property
    def cols(self) -> int:
        return self.min_delay.shape[1]

    @staticmethod
    def from_sparsity(mask) -> "InfoStructure":
        """Sparsity-only structure: delay 0 where mask is nonzero, inf elsewhere."""
        mask = np.atleast_2d(np.asarray(mask))
        d = np.where(mask != 0, 0.0, INF)
        return InfoStructure(d)

    @staticmethod
    def unrestricted(rows: int, cols: int) -> "InfoStructure":
        return InfoStructure(np.zeros((rows, cols)))


def ring_delay_structure(n: int) -> InfoStructure:
    """Delay structure of a ring network: entry (i, j) acts after the
    ring distance min(|i-j|, n-|i-j|) steps."""
    if n < 2:
        raise DomainError("ring needs at least 2 nodes")
    idx = np.arange(n)
    diff = np.abs(idx[:, None] - idx[None, :])
    return InfoStructure(np.minimum(diff, n - diff).astype(float))


def delay_structure_from_adjacency(adjacency) -> InfoStructure:
    """Delay structure with entry (i, j) = graph distance on `adjacency`.

    Every nonzero entry is an edge.  Distances come from Seidel's
    recursion (JCSS 51(3), 1995) on the squared graphs of
    :func:`_squarings`, from the last one down.  In the last, every
    component is a clique, so its distances are 0 on the diagonal and 1
    on its edges.  The distances T of G_{l+1} give those of G_l as
    D = 2 T - [T G_l < T deg], deg the column sums of G_l: (i, j) is at
    odd distance in G_l exactly when the mean of T[i, k] over the
    neighbours k of j falls below T[i, j].  Entries across components
    are 0 in every T and end at inf.  That is ceil(log2 d) + 1 levels
    for the largest distance d within a component, each one or two
    n x n matrix products: O(n^omega log d) in all (omega <= 3 for the
    BLAS product), with no loop over vertices.  Every count in them is
    an integer of at most n (n - 1), so the products are exact in
    :func:`_count_dtype`.
    """
    A = np.atleast_2d(np.asarray(adjacency, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or np.any(A != A.T) or np.any(np.diag(A) != 0):
        raise DomainError("adjacency must be symmetric with zero diagonal")
    levels = _squarings(A)
    T = levels[-1].copy()
    for G in reversed(levels[:-1]):
        odd = T @ G < T * G.sum(axis=0)
        T += T
        T -= odd
    same = levels[-1] != 0
    np.fill_diagonal(same, True)
    return InfoStructure(np.where(same, T.astype(float), INF))


def _count_dtype(n: int):
    """float32 while every integer up to n (n - 1) is exact in it
    (below 2^24, so n <= 4096), float64 above.  A correctness bound:
    sums of nonnegative integers below it are exact in any order."""
    return np.float32 if n * (n - 1) < 1 << 24 else np.float64


def _squarings(A: np.ndarray) -> list:
    """Graphs G_0, G_1, ... as 0/1 matrices in :func:`_count_dtype`:
    G_0 has the edges of the nonzero entries of A, and G_{l+1} joins
    the pairs at most two hops apart in G_l, from one product G_l G_l.
    The list ends at the first G_l in which every component is a
    clique, where squaring adds no edge; it holds ceil(log2 d) + 1
    matrices of n^2 entries each."""
    G = (A != 0).astype(_count_dtype(A.shape[0]))
    levels, edges = [G], np.count_nonzero(G)
    while True:
        nxt = G @ G
        nxt += G
        np.minimum(nxt, 1, out=nxt)
        np.fill_diagonal(nxt, 0)
        count = np.count_nonzero(nxt)
        if count == edges:
            return levels
        levels.append(nxt)
        G, edges = nxt, count


def membership(Q: FirSystem, s: InfoStructure) -> bool:
    """True iff every coefficient forbidden by the structure is exactly zero."""
    if (Q.n_outputs, Q.n_inputs) != (s.rows, s.cols):
        raise DimensionError(
            f"system is {Q.n_outputs}x{Q.n_inputs}, structure is {s.rows}x{s.cols}"
        )
    ks = np.arange(Q.horizon + 1)[:, None, None]
    forbidden = ks < s.min_delay[None, :, :]
    return bool(np.all(Q.taps[forbidden] == 0.0))


def transfer_pattern(sys: StateSpace) -> InfoStructure:
    """Minimum-delay pattern of a state-space block.

    Works on the binary patterns of (A, B, C, D) so that generic
    parameter values cannot mask coupling: entry (i, j) gets the smallest
    tap index with a structurally nonzero Markov entry, which occurs
    within n_states + 1 taps if it occurs at all.  The search stops early
    once every entry is set or the reachable pattern A^k B stops
    changing.
    """
    p, m = sys.n_outputs, sys.n_inputs
    delay = np.full((p, m), INF)
    # 0/1 float products run on BLAS; binarised after each step, every
    # entry is an exact count below 2^53
    Ab = (sys.A != 0).astype(float)
    Cb = (sys.C != 0).astype(float)
    delay[sys.D != 0] = 0.0
    reach = (sys.B != 0).astype(float)
    for k in range(1, sys.n_states + 2):
        unset = ~np.isfinite(delay)
        if not unset.any():
            break
        delay[(Cb @ reach > 0) & unset] = k
        nxt = (Ab @ reach > 0).astype(float)
        if np.array_equal(nxt, reach):
            # a fixed point: every later step hits the same entries
            break
        reach = nxt
    return InfoStructure(delay)


#: Entries in one temporary of the QI kernels, unless a single row of the
#: temporary is larger; about 0.5 MB of float64.
_BLOCK = 1 << 16


def is_qi(s: InfoStructure, g: InfoStructure) -> bool:
    """Quadratic invariance of the structure s with respect to the plant
    pattern g, in delay/sparsity form.

    True iff every composition K G K of structure members lands back in the
    structure: for all (i, j, k, m) with the left side finite,
    ``s(i,j) + g(j,k) + s(k,m) >= s(i,m)``.
    """
    return not _violating_rows(s, g).any()


def qi_certificate(s: InfoStructure, g: InfoStructure):
    """None when quadratically invariant, else the lexically first
    violating index quadruple (i, j, k, m).

    The verdict is :func:`is_qi`'s: row i violates iff (s g s)(i, m) <
    s(i, m) for some m, from two min-plus products.  The witness is then
    searched in the first violating row i alone, over the j with
    s(i, j) finite, since an inf entry makes every sum through it inf.
    Those j are taken a block at a time in increasing order, each block
    as one (j, k, m) array of sums s(i,j) + g(j,k) + s(k,m); the first
    hit in C order of the first block that has one is the lexically
    first (j, k, m), because no earlier j has a hit.  With l x p
    structures, every temporary holds at most max(``_BLOCK``, l p)
    entries, so memory is O(l p) where the full search takes l^2 p^2.
    """
    violating = np.flatnonzero(_violating_rows(s, g))
    if violating.size == 0:
        return None
    ds, dg = s.min_delay, g.min_delay
    i = int(violating[0])
    finite = np.flatnonzero(np.isfinite(ds[i]))
    step = max(1, _BLOCK // max(1, dg.size))
    for j0 in range(0, finite.size, step):
        js = finite[j0 : j0 + step]
        hit = ds[i, js, None, None] + dg[js, :, None] + ds[None] < ds[i]
        if hit.any():
            j, k, m = np.unravel_index(int(np.argmax(hit)), hit.shape)
            return i, int(js[j]), int(k), int(m)
    raise AssertionError("a violating row has a violating quadruple")


def _violating_rows(s: InfoStructure, g: InfoStructure) -> np.ndarray:
    """Boolean per row i of s: some (j, k, m) violates QI, read off the
    min-plus product s g s."""
    if s.cols != g.rows or g.cols != s.rows:
        raise DimensionError(
            f"need s: {s.rows}x{s.cols} against g: {s.cols}x{s.rows}, "
            f"got g: {g.rows}x{g.cols}"
        )
    ds = s.min_delay
    return (_min_plus(_min_plus(ds, g.min_delay), ds) < ds).any(axis=1)


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus product: out[i, k] = min over j of a[i, j] + b[j, k].

    Rows of a are taken a block at a time, so the (rows, j, k) sums hold
    at most max(``_BLOCK``, b.size) entries.
    """
    out = np.empty((a.shape[0], b.shape[1]))
    step = max(1, _BLOCK // max(1, b.size))
    for r0 in range(0, a.shape[0], step):
        np.min(a[r0 : r0 + step, :, None] + b[None], axis=1, initial=INF, out=out[r0 : r0 + step])
    return out


@dataclass(frozen=True)
class ConstraintSystem:
    """Homogeneous linear equality constraints on flattened FIR coefficients.

    Variables enumerate the full coefficient grid (tap, row, col) in C
    order up to the compiled horizon; each constraint row is a tuple of
    (variable index, coefficient) pairs with zero right-hand side.  The
    zero coefficient vector always satisfies the system.
    """

    horizon: int
    rows: int
    cols: int
    constraints: tuple

    def var_index(self, tap: int, row: int, col: int) -> int:
        if not (0 <= tap <= self.horizon and 0 <= row < self.rows and 0 <= col < self.cols):
            raise DimensionError(f"variable ({tap}, {row}, {col}) out of range")
        return (tap * self.rows + row) * self.cols + col

    def satisfied_by(self, Q: FirSystem, tol: float = 0.0) -> bool:
        flat = Q.padded(self.horizon).taps[: self.horizon + 1].reshape(-1)
        for row in self.constraints:
            val = sum(coeff * flat[idx] for idx, coeff in row)
            if abs(val) > tol:
                return False
        return True


def compile_constraints(
    s: InfoStructure, indicators, horizon: int
) -> ConstraintSystem:
    """Compile a structure plus component indicators into equality rows.

    Emits (a) one single-variable row per structurally forbidden
    coefficient, freezing it at zero, and (b) for each tap, output row and
    indicator, a zero-sum row over that indicator's columns.
    """
    indicators = np.atleast_2d(np.asarray(indicators, dtype=float))
    if indicators.size and indicators.shape[1] != s.cols:
        raise DimensionError("indicator length must equal the structure column count")
    cs_rows = []
    stub = ConstraintSystem(horizon=horizon, rows=s.rows, cols=s.cols, constraints=())
    for k in range(horizon + 1):
        for i in range(s.rows):
            for j in range(s.cols):
                if k < s.min_delay[i, j]:
                    cs_rows.append(((stub.var_index(k, i, j), 1.0),))
    for k in range(horizon + 1):
        for i in range(s.rows):
            for ind in indicators:
                row = tuple(
                    (stub.var_index(k, i, j), 1.0)
                    for j in np.flatnonzero(ind)
                )
                if row:
                    cs_rows.append(row)
    return ConstraintSystem(
        horizon=horizon, rows=s.rows, cols=s.cols, constraints=tuple(cs_rows)
    )
