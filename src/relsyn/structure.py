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
        finite = d[np.isfinite(d)]
        if finite.size and (np.any(finite < 0) or np.any(finite != np.round(finite))):
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

    One breadth-first search per source over neighbour lists built once,
    so O(n E) for n vertices and E edges (O(n^2) to read the matrix);
    unreachable pairs stay at inf.
    """
    A = np.atleast_2d(np.asarray(adjacency, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or np.any(A != A.T) or np.any(np.diag(A) != 0):
        raise DomainError("adjacency must be symmetric with zero diagonal")
    nbrs = [np.flatnonzero(row).tolist() for row in A]
    dist = np.empty((n, n))
    for s in range(n):
        row = [INF] * n
        row[s] = 0.0
        frontier = [s]
        d = 0.0
        while frontier:
            d += 1.0
            nxt = []
            for v in frontier:
                for w in nbrs[v]:
                    if row[w] == INF:
                        row[w] = d
                        nxt.append(w)
            frontier = nxt
        dist[s] = row
    return InfoStructure(dist)


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


def is_qi(s: InfoStructure, g: InfoStructure) -> bool:
    """Quadratic invariance of the structure s with respect to the plant
    pattern g, in delay/sparsity form.

    True iff every composition K G K of structure members lands back in the
    structure: for all (i, j, k, m) with the left side finite,
    ``s(i,j) + g(j,k) + s(k,m) >= s(i,m)``.
    """
    return qi_certificate(s, g) is None


def qi_certificate(s: InfoStructure, g: InfoStructure):
    """None when quadratically invariant, else the lexically first
    violating index quadruple (i, j, k, m).

    The verdict comes from two min-plus products, (s g) over j and then
    (s g s) over k, which need only l x l and l x p arrays; the witness
    is searched in the first violating row i alone, on a (p, l, p) slice.
    """
    if s.cols != g.rows or g.cols != s.rows:
        raise DimensionError(
            f"need s: {s.rows}x{s.cols} against g: {s.cols}x{s.rows}, "
            f"got g: {g.rows}x{g.cols}"
        )
    ds, dg = s.min_delay, g.min_delay
    sgs = _min_plus(_min_plus(ds, dg), ds)
    rows = np.flatnonzero((sgs < ds).any(axis=1))
    if rows.size == 0:
        return None
    i = int(rows[0])
    # composite[j, k, m] = ds(i,j) + dg(j,k) + ds(k,m)
    composite = ds[i][:, None, None] + dg[:, :, None] + ds[None, :, :]
    j, k, m = np.unravel_index(int(np.argmax(composite < ds[i])), composite.shape)
    return i, int(j), int(k), int(m)


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus product: out[i, k] = min over j of a[i, j] + b[j, k]."""
    out = np.full((a.shape[0], b.shape[1]), INF)
    for j in range(a.shape[1]):
        np.minimum(out, a[:, j, None] + b[None, j, :], out=out)
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
