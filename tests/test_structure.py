"""Information structures, quadratic invariance and constraint compilation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relsyn import (
    DomainError,
    FirSystem,
    InfoStructure,
    StateSpace,
    compile_constraints,
    delay_structure_from_adjacency,
    fir_compose,
    is_qi,
    membership,
    qi_certificate,
    ring_adjacency,
    ring_delay_structure,
    transfer_pattern,
)
from relsyn import structure
from relsyn.bench import local_sensor_structure, triangular_plant


def distances_loop(adjacency):
    """Breadth-first distances with one `flatnonzero` per visited vertex:
    the element-wise form the kernel replaced, kept as its oracle."""
    A = np.asarray(adjacency, dtype=float)
    n = A.shape[0]
    dist = np.full((n, n), np.inf)
    for s in range(n):
        dist[s, s] = 0.0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in np.flatnonzero(A[v]):
                    w = int(w)
                    if dist[s, w] == np.inf:
                        dist[s, w] = d
                        nxt.append(w)
            frontier = nxt
    return dist


def pattern_loop(sys):
    """Structural minimum delays by n + 1 boolean products, no early exit:
    the form the kernel replaced, kept as its oracle."""
    delay = np.full((sys.n_outputs, sys.n_inputs), np.inf)
    Ab, Cb = sys.A != 0, sys.C != 0
    delay[sys.D != 0] = 0.0
    reach = sys.B != 0
    for k in range(1, sys.n_states + 2):
        hit = (Cb @ reach) & ~np.isfinite(delay)
        delay[hit] = k
        reach = Ab @ reach
    return delay


def min_plus_loop(a, b):
    """Min-plus product by one pass per inner index: the column loop the
    blocked kernel replaced, kept as its oracle."""
    out = np.full((a.shape[0], b.shape[1]), np.inf)
    for j in range(a.shape[1]):
        np.minimum(out, a[:, j, None] + b[None, j, :], out=out)
    return out


def brute_force_certificate(ds, dg):
    """Lexically first violating (i, j, k, m) of the full 4-d evaluation."""
    composite = ds[:, :, None, None] + dg[None, :, :, None] + ds[None, None, :, :]
    violation = composite < ds[:, None, None, :]
    if not violation.any():
        return None
    return tuple(int(v) for v in np.unravel_index(int(np.argmax(violation)), violation.shape))


def draw_delays(data, rows, cols):
    """A rows x cols delay matrix whose rows are each mixed, all inf or
    all finite."""
    delay = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf])
    kinds = {
        "mixed": delay,
        "inf": st.just(np.inf),
        "finite": st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    }
    out = np.empty((rows, cols))
    for r in range(rows):
        kind = kinds[data.draw(st.sampled_from(sorted(kinds)))]
        out[r] = data.draw(st.lists(kind, min_size=cols, max_size=cols))
    return out


def tree_with_chords(rng, n, chords):
    A = np.zeros((n, n))
    order = rng.permutation(n)
    for idx in range(1, n):
        a, b = int(order[idx]), int(order[rng.integers(0, idx)])
        A[a, b] = A[b, a] = 1.0
    free = np.argwhere(np.triu(A == 0, 1))
    for i, j in free[rng.choice(len(free), chords, replace=False)]:
        A[i, j] = A[j, i] = 1.0
    return A


def path_adjacency(n):
    A = np.zeros((n, n))
    idx = np.arange(n - 1)
    A[idx, idx + 1] = A[idx + 1, idx] = 1.0
    return A


class TestInfoStructure:
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -1.0, 0.5])
    def test_bad_delay_rejected(self, bad):
        with pytest.raises(DomainError):
            InfoStructure([[bad, 0.0], [0.0, 0.0]])

    def test_nan_structure_never_reaches_qi(self):
        with pytest.raises(DomainError):
            is_qi(InfoStructure([[np.nan, 0.0], [0.0, 0.0]]), InfoStructure(np.zeros((2, 2))))


class TestRingDelayStructure:
    def test_n3_matrix(self):
        # diagonal acts instantly, every off-diagonal entry after one step
        expected = [[0.0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert ring_delay_structure(3).min_delay.tolist() == expected

    def test_n5_distances(self):
        s = ring_delay_structure(5)
        assert s.min_delay[0, 2] == 2.0
        assert s.min_delay[0, 3] == 2.0
        assert s.min_delay[0, 4] == 1.0

    def test_n2(self):
        assert ring_delay_structure(2).min_delay.tolist() == [[0.0, 1], [1, 0]]

    def test_matches_bfs_construction(self):
        for n in (2, 3, 4, 7, 9):
            lhs = ring_delay_structure(n).min_delay
            rhs = delay_structure_from_adjacency(ring_adjacency(n)).min_delay
            assert np.array_equal(lhs, rhs)

    def test_too_small_rejected(self):
        with pytest.raises(DomainError):
            ring_delay_structure(1)


class TestAdjacencyKernel:
    def test_ring_64(self):
        A = ring_adjacency(64)
        assert np.array_equal(delay_structure_from_adjacency(A).min_delay, distances_loop(A))

    def test_path_300(self):
        A = path_adjacency(300)
        got = delay_structure_from_adjacency(A).min_delay
        assert np.array_equal(got, distances_loop(A))
        assert got[0, 299] == 299.0

    def test_random_connected_200_with_chords(self, rng):
        A = tree_with_chords(rng, 200, 40)
        assert np.array_equal(delay_structure_from_adjacency(A).min_delay, distances_loop(A))

    def test_isolated_vertex_stays_at_inf(self, rng):
        A = np.zeros((9, 9))
        A[np.ix_([0, 1, 2, 4, 5, 6, 7, 8], [0, 1, 2, 4, 5, 6, 7, 8])] = tree_with_chords(rng, 8, 3)
        got = delay_structure_from_adjacency(A).min_delay
        assert np.array_equal(got, distances_loop(A))
        assert np.isinf(np.delete(got[3], 3)).all() and got[3, 3] == 0.0

    def test_weighted_entries_count_as_edges(self):
        A = 2.5 * path_adjacency(5)
        assert np.array_equal(delay_structure_from_adjacency(A).min_delay, distances_loop(A))

    def test_one_flatnonzero_per_vertex(self, rng, monkeypatch):
        # neighbour lists are built once: n calls, not one per visit
        calls = []
        real = np.flatnonzero

        def spy(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(np, "flatnonzero", spy)
        delay_structure_from_adjacency(tree_with_chords(rng, 50, 20))
        assert len(calls) <= 50


class TestPatternKernel:
    @pytest.mark.parametrize("block", ["pyu", "pxu"])
    def test_triangular_20(self, block):
        sys = getattr(triangular_plant(20), block)()
        assert np.array_equal(transfer_pattern(sys).min_delay, pattern_loop(sys))

    def test_ring_64_integrator(self):
        eye = np.eye(64)
        sys = StateSpace(eye, eye, eye, np.zeros((64, 64)))
        assert np.array_equal(transfer_pattern(sys).min_delay, pattern_loop(sys))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sparse_with_unreachable_entries(self, seed):
        rng = np.random.default_rng(seed)
        n, m, p = 12, 3, 4

        def sparse(shape, density):
            return np.where(rng.random(shape) < density, rng.normal(size=shape), 0.0)

        B, D = sparse((n, m), 0.2), sparse((p, m), 0.1)
        B[:, 0] = D[0, 0] = 0.0  # entry (0, 0) is unreachable
        sys = StateSpace(sparse((n, n), 0.12), B, sparse((p, n), 0.2), D)
        want = pattern_loop(sys)
        assert np.array_equal(transfer_pattern(sys).min_delay, want)
        assert np.isinf(want[0, 0])

    def test_nilpotent_chain_and_static_gain(self):
        shift = np.eye(6, k=1)
        sys = StateSpace(shift, np.eye(6)[:, [5]], np.eye(6)[[0]], np.zeros((1, 1)))
        assert transfer_pattern(sys).min_delay.tolist() == [[6.0]]
        static = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2))
        assert np.array_equal(transfer_pattern(static).min_delay, pattern_loop(static))


class TestMembership:
    def test_zero_everywhere(self):
        for s in (ring_delay_structure(4), InfoStructure.from_sparsity(np.eye(3))):
            assert membership(FirSystem(np.zeros((4, s.rows, s.cols))), s)

    def test_ring_form_member(self):
        taps = np.zeros((2, 3, 3))
        taps[0] = 0.7 * np.eye(3)
        taps[1] = np.array([[0.3, 1, 2], [2, 0.3, 1], [1, 2, 0.3]])
        assert membership(FirSystem(taps), ring_delay_structure(3))

    def test_instant_offdiagonal_rejected(self):
        taps = np.zeros((2, 3, 3))
        taps[0, 0, 1] = 1e-300
        assert not membership(FirSystem(taps), ring_delay_structure(3))

    def test_monotone_under_loosening(self, rng):
        s = ring_delay_structure(5)
        for _ in range(50):
            taps = rng.normal(size=(4, 5, 5))
            ks = np.arange(4)[:, None, None]
            taps[ks < s.min_delay[None]] = 0.0
            Q = FirSystem(taps)
            assert membership(Q, s)
            loose = np.array(s.min_delay)
            i, j = rng.integers(0, 5, size=2)
            loose[i, j] = max(0.0, loose[i, j] - 1)
            assert membership(Q, InfoStructure(loose))


class TestTransferPattern:
    def test_structural_triangular(self):
        plant = triangular_plant(4)
        g = transfer_pattern(plant.pxu())
        assert np.all(np.diag(g.min_delay) == 1.0)
        assert np.all(g.min_delay[np.triu_indices(4, 1)] == 2.0)
        assert np.all(~np.isfinite(g.min_delay[np.tril_indices(4, -1)]))

    def test_decoupled_entries_stay_infinite(self):
        # a diagonal A never couples the two channels; each one acts
        # through its own state one step later
        A = np.array([[0.5, 0.0], [0.0, 0.5]])
        sys = StateSpace(A, np.eye(2), np.eye(2), np.zeros((2, 2)))
        g = transfer_pattern(sys)
        assert g.min_delay[0, 1] == np.inf
        assert g.min_delay[0, 0] == 1.0


class TestQuadraticInvariance:
    def test_sensor_structure_not_qi_for_output_map(self):
        plant = triangular_plant(4)
        S = local_sensor_structure(4)
        g = transfer_pattern(plant.pyu())
        cert = qi_certificate(S, g)
        assert cert is not None
        assert not is_qi(S, g)
        i, j, k, m = cert
        ds = S.min_delay
        dg = g.min_delay
        assert ds[i, j] + dg[j, k] + ds[k, m] < ds[i, m]

    @settings(
        max_examples=400,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def test_certificate_matches_brute_force(self, monkeypatch, data):
        # the lexically first violating quadruple of the full 4-d
        # evaluation, on random small structures with inf entries, with
        # blocks of one j (or one row), of a prime number of entries and
        # the default; zero sizes included
        monkeypatch.setattr(structure, "_BLOCK", data.draw(st.sampled_from([1, 7, 1 << 16])))
        l = data.draw(st.integers(0, 8))
        p = data.draw(st.integers(0, 8))
        ds, dg = draw_delays(data, l, p), draw_delays(data, p, l)
        expected = brute_force_certificate(ds, dg)
        s, g = InfoStructure(ds), InfoStructure(dg)
        assert qi_certificate(s, g) == expected
        assert is_qi(s, g) == (expected is None)

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_min_plus_matches_column_loop(self, block, monkeypatch, rng):
        monkeypatch.setattr(structure, "_BLOCK", block)
        shapes = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (1, 1, 1), (9, 5, 13), (20, 190, 20)]
        for rows, inner, cols in shapes:
            a = rng.integers(0, 5, (rows, inner)).astype(float)
            b = rng.integers(0, 5, (inner, cols)).astype(float)
            a[rng.random(a.shape) < 0.4] = np.inf
            b[rng.random(b.shape) < 0.4] = np.inf
            if rows > 1:
                a[1] = np.inf
            np.testing.assert_array_equal(structure._min_plus(a, b), min_plus_loop(a, b))

    def test_triangular_20_certificate_in_bounded_memory(self):
        # the full (p, l, p) slice of the first row alone is 722k entries
        s = local_sensor_structure(20)
        g = transfer_pattern(triangular_plant(20).pyu())
        tracemalloc.start()
        try:
            cert = qi_certificate(s, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert == (0, 0, 1, 19)
        assert peak < 2 * 2**20

    def test_triangular_structure_qi_for_state_map(self):
        plant = triangular_plant(4)
        uptri = InfoStructure.from_sparsity(np.triu(np.ones((4, 4))))
        assert is_qi(uptri, transfer_pattern(plant.pxu()))

    def test_ring_structure_qi_for_integrator(self):
        for n in (2, 3, 5, 8, 12):
            pxu = StateSpace(np.eye(n), np.eye(n), np.eye(n), np.zeros((n, n)))
            assert is_qi(ring_delay_structure(n), transfer_pattern(pxu))

    def test_sampled_composition_property(self, rng):
        # membership of K G K for members K is implied by the verdict
        n = 4
        s = ring_delay_structure(n)
        pxu = StateSpace(np.eye(n), np.eye(n), np.eye(n), np.zeros((n, n)))
        g = transfer_pattern(pxu)
        assert is_qi(s, g)
        g_taps = np.zeros((3, n, n))
        for k in range(3):
            mask = k >= g.min_delay
            g_taps[k][mask] = rng.normal(size=int(mask.sum()))
        G = FirSystem(g_taps)

        def member_draw():
            q_taps = np.zeros((3, n, n))
            for k in range(3):
                mask = k >= s.min_delay
                q_taps[k][mask] = rng.normal(size=int(mask.sum()))
            return FirSystem(q_taps)

        for _ in range(100):
            Q1, Q2 = member_draw(), member_draw()
            comp = fir_compose(fir_compose(Q1, G), Q2)
            assert membership(comp, s)


class TestCompileConstraints:
    def test_ring3_single_tap_counts(self):
        cs = compile_constraints(ring_delay_structure(3), np.ones((1, 3)), 1)
        singles = [r for r in cs.constraints if len(r) == 1]
        sums = [r for r in cs.constraints if len(r) > 1]
        assert len(singles) == 6  # six off-diagonal coefficients at tap 0
        assert len(sums) == 6  # one zero-sum row per tap and output row

    def test_sparsity_only(self):
        s = InfoStructure.from_sparsity(np.triu(np.ones((3, 3))))
        cs = compile_constraints(s, np.zeros((0, 3)), 2)
        assert all(len(r) == 1 for r in cs.constraints)
        assert len(cs.constraints) == 3 * 3  # three forbidden entries per tap

    def test_full_structure_single_component_counts(self):
        s = InfoStructure.unrestricted(2, 4)
        cs = compile_constraints(s, np.ones((1, 4)), 3)
        assert all(len(r) == 4 for r in cs.constraints)
        assert len(cs.constraints) == 2 * 4  # l rows times (T+1) taps

    def test_zero_satisfies(self):
        cs = compile_constraints(ring_delay_structure(3), np.ones((1, 3)), 2)
        assert cs.satisfied_by(FirSystem(np.zeros((3, 3, 3))))

    def test_violated_by_nonmember(self):
        cs = compile_constraints(ring_delay_structure(3), np.ones((1, 3)), 1)
        taps = np.zeros((2, 3, 3))
        taps[0, 0, 1] = 1.0  # structural zero violated
        assert not cs.satisfied_by(FirSystem(taps))
        taps2 = np.zeros((2, 3, 3))
        taps2[1, 0, 1] = 1.0  # row sum violated
        assert not cs.satisfied_by(FirSystem(taps2))
