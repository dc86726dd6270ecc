"""Node symmetries of a problem and the orbit column map.

`_automorphisms` is checked against brute force over every node
permutation on graphs of up to seven nodes, and the reduced solve against
the unreduced one: the group only selects which optimal Q is returned,
never a different J.
"""

import itertools
import math

import numpy as np
import pytest

from relsyn import (
    InfoStructure,
    Plant,
    SynthesisProblem,
    build_ring_problem,
    build_tilde_plant,
    circulant_reduce,
    delay_structure_from_adjacency,
    laplacian_rnom,
    make_t_systems,
    solve,
    validate_c2,
)
from relsyn import solver
from relsyn.solver import (
    _automorphisms,
    _entry_orbits,
    _free_columns,
    _orbit_columns,
    _solve_columns,
    _symmetry_blocks,
)

from conftest import actuator_gains, consensus_problem, rand_connected_c2


def edge_c2(edges, n):
    C2 = np.zeros((len(edges), n))
    for row, (i, j) in enumerate(edges):
        C2[row, i], C2[row, j] = 1.0, -1.0
    return C2


def path_c2(n):
    return edge_c2([(i, i + 1) for i in range(n - 1)], n)


def grid_c2(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return edge_c2(edges, rows * cols)


def relabeled(C2, rng):
    """The same network with its nodes relabeled and sensors re-oriented."""
    perm = rng.permutation(C2.shape[1])
    signs = np.where(rng.random(C2.shape[0]) < 0.5, 1.0, -1.0)
    return signs[:, None] * C2[:, perm]


def group_order(generators, n):
    """Order of the group the permutations span, by closing under them."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(int(g[v]) for v in p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)


def brute_force_order(prob):
    """Number of node permutations g with X[g][:, g] = X for every matrix
    of the problem: the oracle for the search."""
    return blocks_order(_symmetry_blocks(prob))


def blocks_order(X):
    """Number of node permutations g with X[g][:, g] = X for every
    matrix X of the stack."""
    n = X.shape[1]
    perms = np.array(list(itertools.permutations(range(n))))
    moved = X[:, perms[:, :, None], perms[:, None, :]]
    return int((moved == X[:, None]).all(axis=(0, 2, 3)).sum())


def assert_search_on_blocks(X, monkeypatch):
    """The search on stubbed blocks X returns permutations that fix X and
    span every permutation that does."""
    monkeypatch.setattr(solver, "_symmetry_blocks", lambda prob: X)
    gens = _automorphisms(None)
    n = X.shape[1]
    for g in gens:
        assert sorted(g.tolist()) == list(range(n))
        assert np.array_equal(X[:, g][:, :, g], X)
    assert group_order(gens, n) == blocks_order(X)


def chain_order(generators, n):
    """Product over k of the orbit of node k under the generators that fix
    nodes 0..k-1: a lower bound on the order of the group they span."""
    order = 1
    for k in range(n):
        fixing = [g for g in generators if np.array_equal(g[:k], np.arange(k))]
        orbit, frontier = {k}, [k]
        while frontier:
            v = frontier.pop()
            for g in fixing:
                if int(g[v]) not in orbit:
                    orbit.add(int(g[v]))
                    frontier.append(int(g[v]))
        order *= len(orbit)
    return order


def split_problem(C2, gamma, horizon_q):
    """Consensus within each component of the sensing graph: the output
    is the deviation from the component's own average, so a sensing
    graph with several components keeps J finite."""
    ms = validate_c2(C2)
    n = C2.shape[1]
    ind = ms.indicators
    deviation = np.eye(n) - ind.T @ (ind / ind.sum(axis=1, keepdims=True))
    zero = np.zeros((n, n))
    plant = Plant(
        A=np.eye(n),
        B1=np.eye(n),
        B2=np.eye(n),
        C1=np.vstack([(1.0 - gamma) * deviation, zero]),
        D12=np.vstack([zero, gamma * np.eye(n)]),
        C2=C2,
    )
    yd = make_t_systems(build_tilde_plant(plant), laplacian_rnom(ms.adjacency), ms)
    return SynthesisProblem(
        yd=yd,
        structure=delay_structure_from_adjacency(ms.adjacency),
        ms=ms,
        horizon_q=horizon_q,
    )


def unreduced(prob):
    return _solve_columns(prob, *_free_columns(prob.structure, prob.ms.indicators, prob.horizon_q))


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "name, C2, order",
        [("path6", path_c2(6), 2), ("grid2x3", grid_c2(2, 3), 4)],
    )
    def test_group_orders(self, rng, name, C2, order):
        prob = consensus_problem(relabeled(C2, rng), 0.2, 8)
        gens = _automorphisms(prob)
        assert group_order(gens, 6) == order == brute_force_order(prob)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 12])
    def test_ring_is_dihedral(self, n):
        gens = _automorphisms(build_ring_problem(n, 0.4, 8))
        assert group_order(gens, n) == 2 * n

    def test_generators_fix_the_problem(self, rng):
        for _ in range(5):
            prob = consensus_problem(rand_connected_c2(rng, 7, extra_edges=2), 0.3, 6)
            X = _symmetry_blocks(prob)
            gens = _automorphisms(prob)
            for g in gens:
                assert np.array_equal(X[:, g][:, :, g], X)
            assert group_order(gens, 7) == brute_force_order(prob)

    def test_random7_has_only_the_identity(self):
        # a random 7-node graph without symmetry, checked by brute force
        C2 = rand_connected_c2(np.random.default_rng(0), 7, extra_edges=3)
        prob = consensus_problem(C2, 0.2, 8)
        assert brute_force_order(prob) == 1
        assert _automorphisms(prob) == ()

    def test_distinct_actuator_gains_break_the_symmetry(self):
        prob = consensus_problem(path_c2(6), 0.2, 8, b2=actuator_gains(6))
        assert _automorphisms(prob) == ()

    def test_outside_the_shape_gate_is_the_identity(self):
        from relsyn import StateSpace
        from relsyn.bench import triangular_plant

        plant = triangular_plant(4)
        ms = validate_c2(plant.C2)
        nominal = StateSpace(0.5 * np.eye(1), np.zeros((1, 4)), np.zeros((4, 1)), np.zeros((4, 4)))
        yd = make_t_systems(build_tilde_plant(plant), nominal, ms)
        prob = SynthesisProblem(
            yd=yd, structure=InfoStructure.unrestricted(4, 4), ms=ms, horizon_q=2
        )
        assert _symmetry_blocks(prob) is None
        assert _automorphisms(prob) == ()

    def test_complete_graph_within_the_budget(self):
        # K_9 has all 9! permutations; the search finds one symmetry per
        # level and never enumerates them
        n = 9
        C2 = edge_c2([(i, j) for i in range(n) for j in range(i + 1, n)], n)
        prob = consensus_problem(C2, 0.4, 4)
        gens = _automorphisms(prob)
        assert len(gens) <= n - 1
        assert chain_order(gens, n) == math.factorial(n)
        assert _entry_orbits(gens, n).max() + 1 == 2

    def test_random_blocks_against_brute_force(self, rng, monkeypatch):
        # 0/1 blocks with few colours, on which the map read off a level
        # is often no symmetry
        for _ in range(200):
            n = int(rng.integers(3, 7))
            X = rng.integers(0, 2, size=(int(rng.integers(1, 3)), n, n)).astype(float)
            if rng.random() < 0.5:
                X = np.maximum(X, X.transpose(0, 2, 1))
            assert_search_on_blocks(X, monkeypatch)

    @pytest.mark.parametrize(
        "rows",
        [
            # nodes 3 and 4 are twins: the map read off the first level
            # sends both to node 0 and passes the colour comparison alone
            ["01011", "10111", "01011", "11100", "11100"],
            # the map read off a level is a permutation, but it moves an
            # entry colour
            ["011011", "111011", "110101", "001011", "110100", "111101"],
        ],
    )
    def test_maps_read_off_a_level_are_checked(self, rows, monkeypatch):
        X = np.array([[[float(c) for c in row] for row in rows]])
        assert_search_on_blocks(X, monkeypatch)

    @pytest.mark.parametrize("n", [120, 200])
    def test_large_complete_graphs_one_image_per_level(self, n, monkeypatch):
        # the map read off each level (fixed points first) is the
        # transposition of k and c, so no level branches and a budget of
        # n - 1 images finds the whole group
        X = np.stack([np.eye(n), np.ones((n, n)) - np.eye(n)])
        monkeypatch.setattr(solver, "_symmetry_blocks", lambda prob: X)
        monkeypatch.setattr(solver, "_SYMMETRY_BUDGET", n - 1)
        gens = _automorphisms(None)
        assert len(gens) == n - 1
        assert np.unique(solver._orbits(gens, n)).size == 1
        assert _entry_orbits(gens, n).max() + 1 == 2
        for g in gens:
            assert np.array_equal(X[:, g][:, :, g], X)

    def test_search_memory_is_quadratic(self, monkeypatch):
        # the ring's distance, Laplacian and deviation blocks at n = 300:
        # one n x n x n boolean array alone would take 27 MB
        import tracemalloc

        n = 300
        i = np.arange(n)
        dist = np.abs(i[:, None] - i)
        dist = np.minimum(dist, n - dist).astype(float)
        X = np.stack([np.eye(n), (dist == 1) - 2.0 * np.eye(n), dist, np.eye(n) - 1.0 / n])
        monkeypatch.setattr(solver, "_symmetry_blocks", lambda prob: X)
        tracemalloc.start()
        try:
            gens = _automorphisms(None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(gens) == 2
        assert peak < n**3 / 2

    def test_exhausted_budget_keeps_valid_generators(self, monkeypatch):
        prob = build_ring_problem(8, 0.4, 8)
        X = _symmetry_blocks(prob)
        full = _automorphisms(prob)
        monkeypatch.setattr(solver, "_SYMMETRY_BUDGET", 2)
        partial = _automorphisms(prob)
        assert 1 <= group_order(partial, 8) < group_order(full, 8)
        for g in partial:
            assert np.array_equal(X[:, g][:, :, g], X)


class TestOrbitColumns:
    def test_trivial_group_keeps_the_free_columns(self, rng):
        prob = consensus_problem(rand_connected_c2(rng, 6, extra_edges=2), 0.4, 6)
        free = _free_columns(prob.structure, prob.ms.indicators, prob.horizon_q)
        for got, want in zip(_orbit_columns(prob, ()), free):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "C2, free_cols, cols", [(path_c2(6), 440, 220), (grid_c2(2, 3), 460, 123)]
    )
    def test_column_counts(self, C2, free_cols, cols):
        prob = consensus_problem(C2, 0.2, 16)
        free = _free_columns(prob.structure, prob.ms.indicators, 16)
        dirs, inputs, delays = _orbit_columns(prob, _automorphisms(prob))
        assert (len(free[1]), len(inputs)) == (free_cols, cols)
        # every direction is relative and invariant, and starts at its delay
        assert np.abs(dirs.sum(axis=2)).max() <= 1e-15
        md = prob.structure.min_delay
        for a, direction in enumerate(dirs):
            assert delays[inputs == a].min() == md[direction != 0].max()

    @pytest.mark.parametrize(
        "C2",
        [
            path_c2(6),
            grid_c2(2, 3),
            # components that the group swaps, and one it does not
            edge_c2([(0, 1), (2, 3)], 4),
            edge_c2([(0, 1), (1, 2), (3, 4)], 5),
        ],
    )
    def test_q_opt_is_invariant_and_optimal(self, C2):
        prob = split_problem(C2, 0.3, 8)
        gens = _automorphisms(prob)
        assert gens
        res, full = solve(prob), unreduced(prob)
        q = res.q_opt.taps
        for g in gens:
            assert np.array_equal(q[:, g][:, :, g], q)
        assert res.objective == pytest.approx(full.objective, rel=1e-12)
        assert np.abs(q - full.q_opt.taps).max() <= 1e-8 * np.abs(q).max()

    @pytest.mark.parametrize("n", list(range(2, 17)) + [32, 64])
    def test_ring_search_gives_the_dihedral_map(self, n):
        prob = build_ring_problem(n, 0.4, 32)
        got = _orbit_columns(prob, _automorphisms(prob))
        for g, want in zip(got, circulant_reduce(prob)):
            assert np.array_equal(g, want)

    def test_ring_q_opt_is_exactly_symmetric(self):
        from relsyn import solve_ring_circulant

        q = solve_ring_circulant(8, 0.4, 16).q_opt.taps
        shift = (np.arange(8) + 1) % 8
        assert np.array_equal(q, q.transpose(0, 2, 1))
        assert np.array_equal(q[:, shift][:, :, shift], q)
