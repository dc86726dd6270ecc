"""Relative measurement structures and controller recovery.

A sensing matrix whose rows each contain exactly one +1 and one -1 induces
a graph on the states: vertices are states, edges are measured differences.
This module validates such matrices, derives the graph (components and 0/1
indicator vectors), tests relative maps, and constructively recovers an
output-feedback gain K from a state-feedback map R satisfying K C2 = R.
Such a K exists exactly when R annihilates every component's indicator,
which :func:`check_relative` alone tests in relsyn.  Recovery is then one
linear map, K = R Z, with Z the n x p recovery map of the structure.  On
the rows of a spanning tree of each component C2 has full row rank, so K
is unique there: the gain on tree row (v, parent v) is the sum of R's
columns over the subtree of v.  Every other row gets zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DecompositionError, DimensionError, MeasurementMatrixError
from .lti import FirSystem, Matrix, StateSpace, _as_matrix, _freeze, markov
from .structure import InfoStructure

#: Largest |row sum| of a relative map on any component at any tap: the
#: one tolerance of the indicator constraint, the bound recovery needs.
RELATIVE_TOL = 1e-12


@dataclass(frozen=True)
class MeasurementStructure:
    """A validated sensing matrix together with its derived graph data.

    Attributes
    ----------
    c2 : (p, n) matrix
        The relative sensing matrix (one +1 and one -1 per row).
    adjacency : (n, n) matrix
        Symmetric 0/1 matrix with an edge wherever a difference is measured.
    components : tuple of tuples
        Connected components as sorted 0-based vertex tuples, ordered by
        smallest vertex.
    indicators : (N, n) matrix
        Row i is the 0/1 indicator vector of component i.
    recovery_map : (n, p) matrix
        Z with K = R Z for every relative R, built on first access and
        then kept: the signed subtree incidence matrix of the breadth-first
        spanning forest, one tree per component from its smallest vertex
        (neighbours ascending).  The column of tree row (v, parent v) is
        +-1 on the subtree of v, signed so that the row reads
        x_v - x_parent; every other column is zero.
    """

    c2: Matrix
    adjacency: Matrix
    components: tuple
    indicators: Matrix

    @property
    def n_states(self) -> int:
        return self.c2.shape[1]

    @property
    def n_measurements(self) -> int:
        return self.c2.shape[0]

    @property
    def n_components(self) -> int:
        return len(self.components)

    @cached_property
    def recovery_map(self) -> Matrix:
        trees, parent = _bfs_forest(self.adjacency)
        plus = np.argmax(self.c2 == 1.0, axis=1).tolist()
        minus = np.argmax(self.c2 == -1.0, axis=1).tolist()
        row_of = {}
        for ell, (i, j) in enumerate(zip(plus, minus)):
            row_of[i, j] = row_of[j, i] = ell
        # column of v's tree row becomes the subtree of v: children come
        # after their parent in breadth-first order, so leaves go first
        subtree = np.eye(self.n_states)
        Z = np.zeros((self.n_states, self.n_measurements))
        for v in reversed([v for tree in trees for v in tree[1:]]):
            ell = row_of[v, parent[v]]
            Z[:, ell] = self.c2[ell, v] * subtree[:, v]
            subtree[:, parent[v]] += subtree[:, v]
        # read-only: every recovery from this structure shares it
        return _freeze(Z)

    def disagreement_basis(self) -> Matrix:
        """Orthonormal basis of the complement of span of the indicators.

        Deterministic Helmert-style construction per component; columns are
        exactly orthogonal across components.
        """
        n = self.n_states
        cols = []
        for comp in self.components:
            c = len(comp)
            for k in range(1, c):
                v = np.zeros(n)
                v[list(comp[:k])] = 1.0 / np.sqrt(k * (k + 1))
                v[comp[k]] = -k / np.sqrt(k * (k + 1))
                cols.append(v)
        if not cols:
            return np.zeros((n, 0))
        return np.column_stack(cols)


def validate_c2(C2) -> MeasurementStructure:
    """Check the sensing-matrix form and derive the measurement graph.

    Each row must contain exactly one +1 and one -1 (all other entries 0),
    and no two rows may measure the same state pair: a repeated pair is a
    redundant sensor and is rejected.  Components are found by
    breadth-first search with vertices visited in ascending index order.
    """
    C2 = _as_matrix(C2, "C2")
    p, n = C2.shape
    pos = C2 == 1.0
    neg = C2 == -1.0
    other = ~(pos | neg | (C2 == 0.0))
    bad = other.any(axis=1) | (pos.sum(axis=1) != 1) | (neg.sum(axis=1) != 1)
    # the first failing row in row order names the error: a redundant
    # pair above the first malformed row wins, one below it is not reached
    stop = int(np.argmax(bad)) if bad.any() else p
    i = np.nonzero(pos[:stop])[1]
    j = np.nonzero(neg[:stop])[1]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    _, first, inverse = np.unique(lo * n + hi, return_index=True, return_inverse=True)
    dup = np.flatnonzero(first[inverse] != np.arange(stop))
    if dup.size:
        ell = int(dup[0])
        raise MeasurementMatrixError(
            f"rows {int(first[inverse[ell]])} and {ell} both measure states "
            f"{int(lo[ell])} and {int(hi[ell])} (redundant measurement)"
        )
    if stop < p:
        if other[stop].any():
            raise MeasurementMatrixError(
                f"row {stop} has entries outside {{0, +1, -1}}"
            )
        raise MeasurementMatrixError(
            f"row {stop} must have exactly one +1 and one -1"
        )

    adjacency = np.zeros((n, n))
    adjacency[i, j] = adjacency[j, i] = 1.0

    components = [tuple(sorted(tree)) for tree in _bfs_forest(adjacency)[0]]
    indicators = np.zeros((len(components), n))
    for ci, comp in enumerate(components):
        indicators[ci, list(comp)] = 1.0
    return MeasurementStructure(
        c2=_freeze(C2),
        adjacency=_freeze(adjacency),
        components=tuple(components),
        indicators=_freeze(indicators),
    )


def _bfs_forest(adjacency: Matrix) -> tuple:
    """Breadth-first spanning forest: one search per unvisited root, roots
    in ascending order, neighbours ascending, over neighbour lists built
    once.  Returns each tree's vertices in visiting order (so ordered by
    smallest vertex) and each vertex's parent (-1 at a root)."""
    nbrs = [np.flatnonzero(row).tolist() for row in adjacency]
    seen = [False] * len(nbrs)
    parent = [-1] * len(nbrs)
    trees = []
    for root in range(len(nbrs)):
        if seen[root]:
            continue
        seen[root] = True
        tree = [root]
        for v in tree:
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    tree.append(w)
        trees.append(tree)
    return trees, parent


# ---------------------------------------------------------------------------
# the relative-map contract and recovery
# ---------------------------------------------------------------------------


def check_relative(taps, indicators) -> float:
    """Check that a map annihilates every component indicator, tap by tap.

    `taps` has shape (taps, rows, n) and `indicators` holds the 0/1
    indicator rows.  The residual is each component's row sums of every
    tap, ``taps @ indicators.T``; the map is relative when no entry exceeds
    RELATIVE_TOL in magnitude.  Nominal validation, the solver's check of
    Q and recovery all call this one check, so a nominal or a Q that it
    accepts is never rejected by recovery.  Returns the largest |row sum|;
    raises :class:`DecompositionError` naming the first bad component and
    its first bad tap.
    """
    E = np.atleast_2d(np.asarray(indicators, dtype=float))
    taps = np.asarray(taps, dtype=float)
    if taps.shape[-1] != E.shape[1]:
        raise DimensionError(
            f"map has {taps.shape[-1]} columns, indicators have {E.shape[1]} entries"
        )
    sums = np.abs(taps @ E.T).max(axis=1, initial=0.0)
    bad = sums > RELATIVE_TOL
    if bad.any():
        ci = int(np.argmax(bad.any(axis=0)))
        k = int(np.argmax(bad[:, ci]))
        comp = tuple(np.flatnonzero(E[ci]).tolist())
        raise DecompositionError(
            f"component {ci} (states {comp}) has a non-relative block at tap {k}",
            component=ci,
            tap=k,
        )
    return float(sums.max(initial=0.0))


def relative_taps(R, indicators) -> np.ndarray:
    """The taps of R that decide whether it is relative, once
    :func:`check_relative` has accepted them.

    They are every tap of a FIR map, a static matrix as one tap, and the
    Markov parameters 0..2 n_states of a state-space map, which decide the
    question by Cayley-Hamilton.  Nominal validation
    (:func:`~relsyn.youla.nominal_verdicts`) and :func:`recover_controller`
    both read R through this one helper.
    """
    if isinstance(R, StateSpace):
        taps = markov(R, 2 * R.n_states).taps
    elif isinstance(R, FirSystem):
        taps = R.taps
    else:
        taps = _as_matrix(R, "R")[np.newaxis]
    check_relative(taps, indicators)
    return taps


def recover_controller(R, ms: MeasurementStructure):
    """Recover K with K C2 = R, in the same representation as R.

    Once :func:`check_relative` accepts R, K is R times the recovery map
    Z: ``taps @ Z`` for a FIR map (matching Markov parameters suffices)
    and for a static matrix, its one tap.  The gain on tree row
    (v, parent v) is then the sum of R's columns over the subtree of v,
    and the rows outside the spanning forest receive zeros.  A
    state-space map is accepted exactly when its Markov taps are relative
    (:func:`relative_taps`).  Its B then loses its part along the
    indicators, B - B E' diag(1/|comp|) E, which the relative taps
    C A^k B E' = 0 leave unobservable, so the transfer function stays R;
    K keeps A and C, and gets B Z and D Z.
    Raises :class:`DecompositionError` when R is not relative.
    """
    taps = relative_taps(R, ms.indicators)
    Z = ms.recovery_map
    if isinstance(R, StateSpace):
        E = ms.indicators
        B = R.B - (R.B @ E.T) @ (E / E.sum(axis=1, keepdims=True))
        return StateSpace(R.A, B @ Z, R.C, R.D @ Z)
    K = taps @ Z
    return FirSystem(K) if isinstance(R, FirSystem) else K[0]


def recovered_structure(r_structure: InfoStructure, ms: MeasurementStructure) -> InfoStructure:
    """Minimum-delay bound on K = :func:`recover_controller` (R) for R in
    `r_structure`.

    For a relative R the gain on tree row (v, parent v) is both the sum of
    R's columns over the subtree of v and minus their sum over the rest of
    the component, so it vanishes below the larger of the two minimum
    delays.  An off-tree row's subtree is empty, so its bound is inf.
    Subtrees and their components are read off the recovery map.
    """
    if r_structure.cols != ms.n_states:
        raise DimensionError(
            f"R structure is {r_structure.rows}x{r_structure.cols}, "
            f"C2 is {ms.n_measurements}x{ms.n_states}"
        )
    out = np.full((r_structure.rows, ms.n_measurements), np.inf)
    subtree = ms.recovery_map != 0
    tree = np.flatnonzero(subtree.any(axis=0))
    # a tree row's component is that of any vertex of its subtree
    tree_comp = np.argmax(ms.indicators, axis=0)[np.argmax(subtree[:, tree], axis=0)]
    for ci, comp in enumerate(ms.components):
        rows = tree[tree_comp == ci]
        delay = r_structure.min_delay[:, list(comp), None]
        inside_mask = subtree[np.ix_(comp, rows)]
        inside = np.where(inside_mask, delay, np.inf).min(axis=1)
        outside = np.where(inside_mask, np.inf, delay).min(axis=1)
        out[:, rows] = np.maximum(inside, outside)
    return InfoStructure(out)
