"""Relative measurement structures and controller recovery.

A sensing matrix whose rows each contain exactly one +1 and one -1 induces
a graph on the states: vertices are states, edges are measured differences.
This module validates such matrices, derives the graph (components and 0/1
indicator vectors), tests and decomposes relative maps, and constructively
recovers an output-feedback gain K from a state-feedback map R satisfying
K C2 = R via chain coordinates on a spanning tree of each component.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DecompositionError, DimensionError, DomainError, MeasurementMatrixError
from .lti import FirSystem, Matrix, StateSpace, _as_matrix, _freeze

#: Per-row absolute-sum tolerance below which a map counts as relative.
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
    chain_transforms : tuple
        :func:`chain_transform` of each component (None for a single
        vertex), built on first access and then kept.
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
    def chain_transforms(self) -> tuple:
        out = []
        for comp in self.components:
            if len(comp) == 1:
                out.append(None)
                continue
            T, ordering = chain_transform(self, comp)
            # read-only: every recovery from this structure shares it
            out.append((_freeze(T), ordering))
        return tuple(out)

    def component_rows(self, ci: int) -> tuple:
        """Indices of the measurement rows supported on component ci."""
        members = set(self.components[ci])
        rows = []
        for ell in range(self.n_measurements):
            support = np.flatnonzero(self.c2[ell])
            if set(support.tolist()) <= members:
                rows.append(ell)
        return tuple(rows)

    def agreement_directions(self) -> list:
        """The indicator vectors as a list of n-vectors."""
        return [self.indicators[i].copy() for i in range(self.n_components)]

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

    components = _bfs_components(adjacency)
    indicators = np.zeros((len(components), n))
    for ci, comp in enumerate(components):
        indicators[ci, list(comp)] = 1.0
    return MeasurementStructure(
        c2=_freeze(C2),
        adjacency=_freeze(adjacency),
        components=tuple(components),
        indicators=_freeze(indicators),
    )


def _bfs_components(adjacency: Matrix) -> list:
    """Connected components as sorted tuples, ordered by smallest vertex:
    one breadth-first search per unvisited root, roots in ascending order,
    over neighbour lists built once."""
    nbrs = [np.flatnonzero(row).tolist() for row in adjacency]
    seen = [False] * len(nbrs)
    components = []
    for root in range(len(nbrs)):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for v in comp:
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        components.append(tuple(sorted(comp)))
    return components


def is_relative_map(F, tol: float = RELATIVE_TOL) -> bool:
    """True iff every row of F sums to zero (within `tol` per row)."""
    F = _as_matrix(F, "F")
    return bool(np.all(np.abs(F.sum(axis=1)) <= tol))


# ---------------------------------------------------------------------------
# chain coordinates
# ---------------------------------------------------------------------------


def chain_matrix(c: int) -> Matrix:
    """The (c-1) x c first-difference matrix with rows x_k - x_{k+1}."""
    M = np.zeros((c - 1, c))
    for k in range(c - 1):
        M[k, k] = 1.0
        M[k, k + 1] = -1.0
    return M


def chain_transform(ms: MeasurementStructure, component) -> tuple:
    """Invertible T mapping the component's measurements to chain form.

    Returns (T, ordering) where `ordering` is a vertex sequence
    v_1, ..., v_c of the component and T is a square integer matrix over
    the component's measurement rows such that the first c-1 rows of
    T @ C2[rows][:, ordering] equal the chain matrix producing
    x_{v_k} - x_{v_{k+1}}.  Construction: breadth-first spanning tree from
    the smallest vertex (neighbors in ascending order), depth-first
    preorder chain ordering, and each chain difference written as the
    signed tree-path sum of measured differences.  Surplus measurement
    rows (off-tree or duplicate-role) are passed through unchanged, which
    makes T invertible.
    """
    comp = tuple(sorted(component))
    ci = _component_index(ms, comp)
    rows = ms.component_rows(ci)
    c = len(comp)
    p_c = len(rows)
    row_pos = {ell: k for k, ell in enumerate(rows)}

    if c == 1:
        return np.zeros((0, 0)), comp

    # local adjacency restricted to the component, with representative rows
    edge_row = {}
    for ell in rows:
        i = int(np.flatnonzero(ms.c2[ell] == 1.0)[0])
        j = int(np.flatnonzero(ms.c2[ell] == -1.0)[0])
        key = (min(i, j), max(i, j))
        if key not in edge_row or ell < edge_row[key]:
            edge_row[key] = ell

    # BFS spanning tree from the smallest vertex, neighbors ascending
    root = comp[0]
    parent = {root: None}
    order = deque([root])
    children = {v: [] for v in comp}
    while order:
        v = order.popleft()
        for w in comp:
            if w not in parent and (min(v, w), max(v, w)) in edge_row:
                parent[w] = v
                children[v].append(w)
                order.append(w)
    if len(parent) != c:
        raise DomainError("component is not connected in the measurement graph")

    # depth-first preorder gives the chain ordering
    ordering = []
    stack = [root]
    while stack:
        v = stack.pop()
        ordering.append(v)
        for w in reversed(sorted(children[v])):
            stack.append(w)
    ordering = tuple(ordering)

    depth = {root: 0}
    for v in ordering[1:]:
        depth[v] = depth[parent[v]] + 1

    def edge_coeff(child):
        """Signed row expressing x_child - x_parent(child)."""
        par = parent[child]
        ell = edge_row[(min(child, par), max(child, par))]
        sign = 1.0 if ms.c2[ell, child] == 1.0 else -1.0
        return ell, sign

    T = np.zeros((p_c, p_c))
    tree_rows = set()
    for k in range(c - 1):
        u, v = ordering[k], ordering[k + 1]
        # walk u and v up to their common ancestor, accumulating x_u - x_v
        coeffs = {}
        a, b = u, v
        while a != b:
            if depth[a] >= depth[b]:
                ell, sign = edge_coeff(a)
                coeffs[ell] = coeffs.get(ell, 0.0) + sign
                a = parent[a]
            else:
                ell, sign = edge_coeff(b)
                coeffs[ell] = coeffs.get(ell, 0.0) - sign
                b = parent[b]
        for ell, val in coeffs.items():
            T[k, row_pos[ell]] = val
            tree_rows.add(ell)

    # every tree edge lies on some consecutive-pair path, so exactly the
    # off-tree rows remain; identity rows on them keep T invertible
    surplus = [ell for ell in rows if ell not in tree_rows]
    for k, ell in enumerate(surplus):
        T[c - 1 + k, row_pos[ell]] = 1.0
    return T, ordering


def _component_index(ms: MeasurementStructure, comp: tuple) -> int:
    for ci, known in enumerate(ms.components):
        if known == comp:
            return ci
    raise DomainError(f"{comp} is not a component of the measurement graph")


def solve_chain(F, tol: float = RELATIVE_TOL) -> Matrix:
    """Solve G @ chain_matrix = F for a relative matrix F.

    Column i of G is the cumulative sum of the first i columns of F; the
    construction telescopes exactly, and the missing n-th cumulative sum
    vanishes because the rows of F sum to zero.
    """
    F = _as_matrix(F, "F")
    if not is_relative_map(F, tol):
        raise DomainError("F is not a relative map (nonzero row sums)")
    return np.cumsum(F, axis=1)[:, :-1]


# ---------------------------------------------------------------------------
# decomposition and recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelativeDecomposition:
    """Per-component relative blocks of a map, with chain coefficients.

    `blocks[i]` acts on the i-th component's state sub-vector (columns in
    sorted component order); `chain_gains[i]` are the chain coefficients of
    the block under `orderings[i]`: column k of `chain_gains[i]`
    multiplies the difference of vertices `orderings[i][k]` and
    `orderings[i][k + 1]`.
    """

    structure: MeasurementStructure
    blocks: tuple
    orderings: tuple
    chain_gains: tuple

    def reassemble(self) -> FirSystem:
        """Place the blocks back onto full state coordinates."""
        ms = self.structure
        horizon = max(b.horizon for b in self.blocks)
        l = self.blocks[0].n_outputs
        taps = np.zeros((horizon + 1, l, ms.n_states))
        for comp, block in zip(ms.components, self.blocks):
            for k in range(block.horizon + 1):
                taps[k][:, list(comp)] += block.taps[k]
        return FirSystem(taps)


def _as_fir(R) -> FirSystem:
    if isinstance(R, FirSystem):
        return R
    return FirSystem(np.asarray(R, dtype=float)[np.newaxis])


def decompose(R, ms: MeasurementStructure, tol: float = RELATIVE_TOL) -> RelativeDecomposition:
    """Split R into per-component blocks, each of which must be relative.

    Accepts a FIR system or a static matrix.  Fails with a
    :class:`DecompositionError` naming the offending component and tap when
    some block has a nonzero row sum; a single-vertex component forces an
    identically zero block.
    """
    fir = _as_fir(R)
    if fir.n_inputs != ms.n_states:
        raise DimensionError(
            f"map has {fir.n_inputs} columns, structure has {ms.n_states} states"
        )
    blocks = []
    for ci, comp in enumerate(ms.components):
        block = fir.taps[:, :, list(comp)]
        sums = block.sum(axis=2)
        bad = np.flatnonzero(np.abs(sums).max(axis=1, initial=0.0) > tol)
        if bad.size:
            raise DecompositionError(
                f"component {ci} (states {comp}) has a non-relative block at "
                f"tap {int(bad[0])}",
                component=ci,
                tap=int(bad[0]),
            )
        blocks.append(FirSystem(block.copy()))

    orderings = []
    gains = []
    for ci, comp in enumerate(ms.components):
        if len(comp) == 1:
            orderings.append((comp[0],))
            gains.append(FirSystem.zero(fir.n_outputs, 0, fir.horizon))
            continue
        ordering = ms.chain_transforms[ci][1]
        perm = [comp.index(v) for v in ordering]
        # solve_chain on every tap at once; the relative check is above
        G = np.cumsum(blocks[ci].taps[:, :, perm], axis=2)[:, :, :-1]
        orderings.append(ordering)
        gains.append(FirSystem(G))
    return RelativeDecomposition(
        structure=ms,
        blocks=tuple(blocks),
        orderings=tuple(orderings),
        chain_gains=tuple(gains),
    )


def recover_controller(R, ms: MeasurementStructure, tol: float = RELATIVE_TOL):
    """Recover K with K C2 = R, in the same representation as R.

    For a FIR map every tap is recovered independently (matching Markov
    parameters suffices), and a static matrix is the FIR map of one tap.
    For a state-space map the realization itself must be relative -- its
    B and D matrices are recovered, leaving A and C untouched -- so that
    K C2 = R holds exactly at the realization level.  Measurement rows
    outside each component's spanning tree receive zeros.  Raises
    :class:`DecompositionError` when R does not decompose.
    """
    if isinstance(R, StateSpace):
        Bk = recover_controller(R.B, ms, tol)
        Dk = recover_controller(R.D, ms, tol)
        return StateSpace(R.A, Bk, R.C, Dk)
    fir = _as_fir(R)
    dec = decompose(fir, ms, tol)
    K = np.zeros((fir.horizon + 1, fir.n_outputs, ms.n_measurements))
    for ci, (comp, chain) in enumerate(zip(ms.components, ms.chain_transforms)):
        if chain is None:
            continue
        rows = list(ms.component_rows(ci))
        K[:, :, rows] += dec.chain_gains[ci].taps @ chain[0][: len(comp) - 1]
    out = FirSystem(K)
    return out if isinstance(R, FirSystem) else out.taps[0]
