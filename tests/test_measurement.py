"""Measurement graphs, relative maps and controller recovery."""

from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsyn import (
    DecompositionError,
    DimensionError,
    FirSystem,
    InfoStructure,
    MeasurementMatrixError,
    MeasurementStructure,
    StateSpace,
    build_ring_problem,
    check_relative,
    combined_r_structure,
    fir_compose,
    markov,
    membership,
    recover_controller,
    recovered_structure,
    solve,
    validate_c2,
)
from relsyn.measurement import relative_taps
from conftest import rand_connected_c2, rand_relative_fir, rand_relative_fir_exact

TWO_PAIRS = np.array([[1.0, -1, 0, 0], [0, 0, 1, -1]])
ALL_PAIRS_4 = np.array(
    [
        [1.0, -1, 0, 0],
        [1, 0, -1, 0],
        [1, 0, 0, -1],
        [0, 1, -1, 0],
        [0, 1, 0, -1],
        [0, 0, 1, -1],
    ]
)
FIVE_STATE = np.array([[1.0, 0, -1, 0, 0], [0, -1, 0, 1, 0]])


def components_loop(adjacency):
    """Components by a breadth-first search with one `flatnonzero` per
    visited vertex: the form the kernel replaced, kept as its oracle."""
    n = adjacency.shape[0]
    unvisited = set(range(n))
    components = []
    while unvisited:
        root = min(unvisited)
        comp, queue = [], [root]
        unvisited.discard(root)
        while queue:
            v = queue.pop(0)
            comp.append(v)
            for w in np.flatnonzero(adjacency[v]):
                if int(w) in unvisited:
                    unvisited.discard(int(w))
                    queue.append(int(w))
        components.append(tuple(sorted(comp)))
    return sorted(components, key=lambda c: c[0])


def chain_c2(c):
    """Chain sensing: row k reads x_k - x_{k+1}."""
    return np.eye(c - 1, c) - np.eye(c - 1, c, k=1)


def bfs_tree_rows(C2, comp):
    """Rows of the breadth-first spanning tree of `comp` from its smallest
    vertex, neighbours in ascending order."""
    row_of = {}
    for ell, row in enumerate(np.asarray(C2)):
        i, j = np.flatnonzero(row).tolist()
        row_of[i, j] = row_of[j, i] = ell
    seen, queue, rows = {comp[0]}, [comp[0]], []
    for v in queue:
        for w in comp:
            if w not in seen and (v, w) in row_of:
                seen.add(w)
                queue.append(w)
                rows.append(row_of[v, w])
    return sorted(rows)


def disconnected_c2(rng, sizes):
    """Random connected sensing on each block of `sizes` states, the
    blocks' states interleaved by a random relabelling."""
    n = sum(sizes)
    perm = rng.permutation(n)
    rows, start = [], 0
    for size in sizes:
        if size > 1:
            block = rand_connected_c2(rng, size, extra_edges=size // 3)
            full = np.zeros((block.shape[0], n))
            full[:, perm[start : start + size]] = block
            rows.append(full)
        start += size
    C2 = np.vstack(rows)
    rng.shuffle(C2)
    return C2


def accepts(fn, *args) -> bool:
    """Whether `fn(*args)` returns rather than raising DecompositionError."""
    try:
        fn(*args)
    except DecompositionError:
        return False
    return True


class TestValidateC2:
    def test_two_disjoint_pairs(self):
        ms = validate_c2(TWO_PAIRS)
        assert ms.components == ((0, 1), (2, 3))
        assert ms.indicators.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1]]

    def test_all_pairs_single_component(self):
        ms = validate_c2(ALL_PAIRS_4)
        assert ms.components == ((0, 1, 2, 3),)
        assert ms.indicators.tolist() == [[1, 1, 1, 1]]

    def test_five_state_three_components(self):
        ms = validate_c2(FIVE_STATE)
        assert ms.components == ((0, 2), (1, 3), (4,))

    def test_adjacency_symmetric_zero_diagonal(self):
        ms = validate_c2(ALL_PAIRS_4)
        assert np.array_equal(ms.adjacency, ms.adjacency.T)
        assert np.all(np.diag(ms.adjacency) == 0)
        support = ALL_PAIRS_4 != 0
        expected = ((support.T @ support) > 0).astype(float)
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(ms.adjacency, expected)

    def test_bad_row_support(self):
        with pytest.raises(MeasurementMatrixError):
            validate_c2([[1.0, -1, 1]])
        with pytest.raises(MeasurementMatrixError):
            validate_c2([[1.0, 0, 0]])

    def test_duplicate_pair_rejected(self):
        with pytest.raises(MeasurementMatrixError):
            validate_c2([[1.0, -1, 0], [-1, 1, 0]])

    def test_entries_outside_unit_rejected(self):
        with pytest.raises(MeasurementMatrixError):
            validate_c2([[2.0, -2, 0]])

    @pytest.mark.parametrize(
        "C2, message",
        [
            (
                [[1, -1, 0], [1, -1, 0], [2, 0, 0]],
                "rows 0 and 1 both measure states 0 and 1 (redundant measurement)",
            ),
            ([[1, -1, 0], [2, 0, 0], [-1, 1, 0]], "row 1 has entries outside {0, +1, -1}"),
            ([[0, 1, -1], [1, 1, -1], [-1, 0, 1]], "row 1 must have exactly one +1 and one -1"),
            (
                [[1, -1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1], [1, 1, 0, 0]],
                "rows 1 and 2 both measure states 2 and 3 (redundant measurement)",
            ),
            ([[1, 0, -1], [0, 0, 0]], "row 1 must have exactly one +1 and one -1"),
            (
                [[1, -1, 0], [0, 1, -1], [-1, 1, 0], [3, 0, 0]],
                "rows 0 and 2 both measure states 0 and 1 (redundant measurement)",
            ),
        ],
    )
    def test_first_failing_row_decides(self, C2, message):
        with pytest.raises(MeasurementMatrixError) as err:
            validate_c2(np.array(C2, dtype=float))
        assert str(err.value) == message

    def test_components_match_the_loop_on_disconnected_sensing(self, rng):
        for sizes in ([1, 4, 1, 6], [3, 3, 3], [9, 1, 1, 2, 5], [30, 1, 20]):
            ms = validate_c2(disconnected_c2(rng, sizes))
            assert ms.components == tuple(components_loop(ms.adjacency))
            assert sorted(len(c) for c in ms.components) == sorted(sizes)


class TestRelativeMap:
    def test_paper_row(self):
        assert check_relative(np.array([[[3.0, -1.0, -2.0]]]), np.ones((1, 3))) == 0.0

    def test_nonzero_sum(self):
        with pytest.raises(DecompositionError):
            check_relative(np.array([[[1.0, 0.0]]]), np.ones((1, 2)))

    def test_zero_map(self):
        assert check_relative(np.zeros((1, 3, 4)), np.ones((1, 4))) == 0.0

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_validation_accepts_exactly_what_recovery_accepts(self, data):
        # one row sum moved to 1e-13 (below the tolerance) or 1e-11 (above)
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        sizes.append(data.draw(st.integers(2, 5)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ms = validate_c2(disconnected_c2(rng, sizes))
        l, horizon = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
        taps = np.array(rand_relative_fir_exact(rng, ms, l, horizon).taps)
        delta = data.draw(st.sampled_from([0.0, 1e-13, 1e-11]))
        k = data.draw(st.integers(0, horizon))
        taps[k, data.draw(st.integers(0, l - 1)), data.draw(st.integers(0, ms.n_states - 1))] += delta
        want = delta < 1e-12
        for R in (FirSystem(taps), taps[k], StateSpace.static_gain(taps[k])):
            assert accepts(relative_taps, R, ms.indicators) is want
            assert accepts(recover_controller, R, ms) is want


class TestSolveChain:
    """Recovery on chain sensing, rows x_k - x_{k+1}: the gains are the
    cumulative sums of R's columns."""

    def test_paper_example(self):
        # 3 x1 - x2 - 2 x3 = 3 (x1 - x2) + 2 (x2 - x3)
        K = recover_controller([[3.0, -1.0, -2.0]], validate_c2(chain_c2(3)))
        assert K.tolist() == [[3.0, 2.0]]

    def test_zero(self):
        K = recover_controller(np.zeros((2, 4)), validate_c2(chain_c2(4)))
        assert np.array_equal(K, np.zeros((2, 3)))

    def test_multiply_back(self, rng):
        F = rng.normal(size=(4, 6))
        F -= F.mean(axis=1, keepdims=True)
        G = recover_controller(F, validate_c2(chain_c2(6)))
        assert np.abs(G @ chain_c2(6) - F).max() <= 1e-12
        assert np.abs(G - np.cumsum(F, axis=1)[:, :-1]).max() <= 1e-12

    def test_non_relative_rejected(self):
        with pytest.raises(DecompositionError):
            recover_controller([[1.0, 0.0]], validate_c2(chain_c2(2)))


class TestRecovery:
    def test_five_state_block_recovery(self):
        # blocks [3, -3] on {x1, x3} and [-1, 1] on {x2, x4}: the sensors
        # read x1 - x3 and x4 - x2, so K = [3, 1]
        ms = validate_c2(FIVE_STATE)
        R = np.array([[3.0, -1.0, -3.0, 1.0, 0.0]])
        K = recover_controller(R, ms)
        assert K.tolist() == [[3.0, 1.0]]
        assert np.array_equal(K @ FIVE_STATE, R)

    def test_zero_map(self):
        ms = validate_c2(FIVE_STATE)
        K = recover_controller(FirSystem(np.zeros((4, 2, 5))), ms)
        assert np.abs(K.taps).max() == 0.0

    def test_random_roundtrip(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            ms = validate_c2(rand_connected_c2(rng, n, extra_edges=int(rng.integers(0, 3))))
            l = int(rng.integers(1, 4))
            horizon = int(rng.integers(0, 11))
            R = rand_relative_fir(rng, ms, l, horizon)
            K = recover_controller(R, ms)
            err = 0.0
            for k in range(horizon + 1):
                err = max(err, np.abs(K.taps[k] @ ms.c2 - R.taps[k]).max())
            assert err <= 1e-9

    def test_statespace_recovery(self, rng):
        ms = validate_c2(TWO_PAIRS)
        B = rng.normal(size=(3, 4))
        D = rng.normal(size=(2, 4))
        for M in (B, D):
            for comp in ms.components:
                M[:, list(comp)] -= M[:, list(comp)].mean(axis=1, keepdims=True)
        A = 0.5 * np.eye(3)
        C = rng.normal(size=(2, 3))
        R = StateSpace(A, B, C, D)
        K = recover_controller(R, ms)
        lhs = markov(K, 12)
        kc2 = fir_compose(lhs, FirSystem(ms.c2[np.newaxis]), horizon=12)
        rhs = markov(R, 12)
        assert np.abs(kc2.taps - rhs.taps).max() <= 1e-12

    def test_statespace_nonrelative_rejected(self, rng):
        ms = validate_c2(TWO_PAIRS)
        R = StateSpace(0.5 * np.eye(2), rng.normal(size=(2, 4)), np.eye(2), np.zeros((2, 4)))
        with pytest.raises(DecompositionError):
            recover_controller(R, ms)

    def test_static_nonrelative_block_names_component_and_tap(self):
        # the {x2, x4} block [-1, 2] has row sum 1
        ms = validate_c2(FIVE_STATE)
        R = np.array([[3.0, -1.0, -3.0, 2.0, 0.0]])
        with pytest.raises(DecompositionError) as err:
            recover_controller(R, ms)
        assert err.value.component == 1
        assert err.value.tap == 0
        assert "non-relative block at tap 0" in str(err.value)

    def test_statespace_nonrelative_b_rejected(self):
        # relative D, but B's row on {x1, x2} sums to 1 and C sees it: the
        # first Markov tap that sees B, C B, is tap 1
        ms = validate_c2(TWO_PAIRS)
        B = np.array([[1.0, 0.0, 1.0, -1.0]])
        R = StateSpace([[0.5]], B, [[1.0]], np.zeros((1, 4)))
        with pytest.raises(DecompositionError) as err:
            recover_controller(R, ms)
        assert (err.value.component, err.value.tap) == (0, 1)

    def test_statespace_accepted_exactly_when_validation_accepts(self):
        # B E' != 0 but the indicator direction is unobservable: validation
        # accepts the system, and so does recovery, with the same taps
        ms = validate_c2(np.array([[1.0, -1.0]]))
        A = np.array([[0.5, 0.0], [0.0, 0.4]])
        B = np.array([[1.0, 1.0], [0.0, 0.0]])
        R = StateSpace(A, B, np.array([[0.0, 1.0]]), np.zeros((1, 2)))
        assert accepts(relative_taps, R, ms.indicators)
        K = recover_controller(R, ms)
        assert np.array_equal(markov(K, 20).taps, np.zeros((21, 1, 1)))

    def test_statespace_recovery_with_unobservable_agreement_input(self, rng):
        # B E' has an unobservable part; K C2 = R holds on every Markov tap
        ms = validate_c2(TWO_PAIRS)
        A = np.diag([0.5, -0.3, 0.2])
        C = np.hstack([rng.normal(size=(2, 2)), np.zeros((2, 1))])
        B = rng.normal(size=(3, 4))
        for comp in ms.components:
            B[:2, list(comp)] -= B[:2, list(comp)].mean(axis=1, keepdims=True)
        R = StateSpace(A, B, C, np.zeros((2, 4)))
        K = recover_controller(R, ms)
        kc2 = fir_compose(markov(K, 12), FirSystem(ms.c2[np.newaxis]), horizon=12)
        assert np.abs(kc2.taps - markov(R, 12).taps).max() <= 1e-12

    def test_static_statespace_recovery(self):
        # no states: B is empty and D carries the whole gain
        ms = validate_c2(FIVE_STATE)
        R = StateSpace.static_gain([[3.0, -1.0, -3.0, 1.0, 0.0]])
        K = recover_controller(R, ms)
        assert K.n_states == 0
        assert K.D.tolist() == [[3.0, 1.0]]


class TestDecompose:
    """R is relative on every component, or recovery names the first
    component and tap where it is not."""

    def test_singleton_component_must_vanish(self, rng):
        ms = validate_c2(FIVE_STATE)
        R = rand_relative_fir(rng, ms, 1, 2)
        taps = np.array(R.taps)
        taps[1, 0, 4] = 0.3
        with pytest.raises(DecompositionError) as err:
            recover_controller(FirSystem(taps), ms)
        assert err.value.component == 2
        assert err.value.tap == 1


class TestBatchedRecovery:
    STRUCTURES = {"two_pairs": TWO_PAIRS, "five_state": FIVE_STATE, "all_pairs": ALL_PAIRS_4}

    @pytest.mark.parametrize(
        "name, bad, expected",
        [
            ("two_pairs", [(1, 3)], (1, 3)),
            ("two_pairs", [(1, 1), (0, 4)], (0, 4)),
            ("five_state", [(1, 2), (1, 5)], (1, 2)),
            ("five_state", [(2, 0)], (2, 0)),
            ("all_pairs", [(0, 6), (0, 9)], (0, 6)),
        ],
    )
    def test_non_relative_tap_named(self, rng, name, bad, expected):
        # the first bad component, and its first bad tap, is reported
        ms = validate_c2(self.STRUCTURES[name])
        taps = np.array(rand_relative_fir(rng, ms, 2, 10).taps)
        for ci, k in bad:
            taps[k, 1, ms.components[ci][0]] += 1e-6
        with pytest.raises(DecompositionError) as err:
            recover_controller(FirSystem(taps), ms)
        assert (err.value.component, err.value.tap) == expected


#: recovered_structure of chain-coordinate recovery (prefix sums along a
#: depth-first ordering) on the structures of TestRecoveryMap.
CHAIN_BOUNDS = {
    "two_pairs": [[0, 1], [np.inf, 0]],
    "five_state": [[0, 2], [2, 1]],
    "all_pairs": [[0, 0, 0, np.inf, np.inf, np.inf], [1, 0, 0, np.inf, np.inf, np.inf]],
    "ring5": [[0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0], [2, 2, 0, 0], [0, 0, 0, 0]],
}


def relative_fir_in(rng, ms, r, horizon):
    """Random integer-valued FIR in the delay structure `r` whose rows sum
    to exactly zero on each component at every tap."""
    l, n = r.shape
    taps = np.zeros((horizon + 1, l, n))
    for comp in ms.components:
        for k in range(horizon + 1):
            for i in range(l):
                live = [j for j in comp if k >= r[i, j]]
                if len(live) > 1:
                    vals = rng.integers(-1000, 1001, size=len(live) - 1)
                    taps[k, i, live] = np.append(vals, -vals.sum())
    return FirSystem(taps)


def draw_sensing(data):
    """A random generator and multi-component sensing with surplus rows
    (chords), isolated vertices, random orientation and row order."""
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    sizes.append(data.draw(st.integers(2, 6)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    perm = rng.permutation(n)
    blocks, start = [], 0
    for size in sizes:
        if size > 1:
            chords = data.draw(st.integers(0, size * (size - 1) // 2 - (size - 1)))
            block = rand_connected_c2(rng, size, extra_edges=chords)
            full = np.zeros((block.shape[0], n))
            full[:, perm[start : start + size]] = block
            blocks.append(full)
        start += size
    C2 = np.vstack(blocks)
    rng.shuffle(C2)
    return rng, C2


class TestRecoveryMap:
    STATIC = {"two_pairs": TWO_PAIRS, "five_state": FIVE_STATE, "all_pairs": ALL_PAIRS_4}
    DELAYS = {
        4: np.array([[0, 2, 1, 3], [np.inf, 1, 0, 2]]),
        5: np.array([[0, 2, 1, 3, np.inf], [2, 1, 0, np.inf, 1]]),
    }

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_k_is_the_unique_solution_on_the_bfs_tree(self, data):
        rng, C2 = draw_sensing(data)
        ms = validate_c2(C2)
        R = rand_relative_fir(rng, ms, data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3)))
        K = recover_controller(R, ms).taps
        tree = []
        for comp in ms.components:
            if len(comp) == 1:
                continue
            rows = bfs_tree_rows(C2, comp)
            tree += rows
            for k in range(R.horizon + 1):
                want = np.linalg.lstsq(C2[rows][:, comp].T, R.taps[k][:, comp].T, rcond=None)[0]
                assert np.abs(K[k][:, rows] - want.T).max() <= 1e-12 * (1.0 + np.abs(R.taps).max())
        off = np.setdiff1d(np.arange(ms.n_measurements), tree)
        assert np.all(K[:, :, off] == 0.0)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_recovery_map_inverts_c2_on_relative_maps(self, data):
        rng, C2 = draw_sensing(data)
        ms = validate_c2(C2)
        Z = ms.recovery_map
        assert Z.shape == (ms.n_states, ms.n_measurements)
        # V' Z C2 = V' on the disagreement basis, so R Z C2 = R for every
        # relative R
        V = ms.disagreement_basis()
        assert np.abs(V.T @ Z @ C2 - V.T).max() <= 1e-12
        # each column lies inside its row's component; off-tree columns are 0
        for comp in ms.components:
            rows = np.flatnonzero(C2[:, list(comp)].any(axis=1))
            outside = np.setdiff1d(np.arange(ms.n_states), comp)
            assert np.all(Z[np.ix_(outside, rows)] == 0.0)
        tree = [ell for comp in ms.components if len(comp) > 1 for ell in bfs_tree_rows(C2, comp)]
        off = np.setdiff1d(np.arange(ms.n_measurements), tree)
        assert np.all(Z[:, off] == 0.0)
        R = rand_relative_fir(rng, ms, data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3)))
        assert np.array_equal(recover_controller(R, ms).taps, R.taps @ Z)

    @pytest.mark.parametrize("seed", range(10))
    def test_bound_holds_and_is_attained(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(s) for s in rng.integers(1, 6, size=3)] + [int(rng.integers(2, 6))]
        ms = validate_c2(disconnected_c2(rng, sizes))
        r = rng.choice([0.0, 1.0, 2.0, 3.0, np.inf], size=(3, ms.n_states))
        bound = recovered_structure(InfoStructure(r), ms).min_delay
        R = relative_fir_in(rng, ms, r, horizon=5)
        assert membership(R, InfoStructure(r))
        K = recover_controller(R, ms)
        assert membership(K, InfoStructure(bound))
        # a generic R reaches every finite bound
        for i, row in np.argwhere(np.isfinite(bound)):
            assert K.taps[int(bound[i, row]), i, row] != 0.0

    @pytest.mark.parametrize("name", sorted(CHAIN_BOUNDS))
    def test_bound_at_least_the_chain_bound(self, name):
        if name == "ring5":
            prob = build_ring_problem(5, 0.4, 8)
            ms, r = prob.ms, combined_r_structure(prob.structure, prob.yd)
        else:
            ms = validate_c2(self.STATIC[name])
            r = InfoStructure(self.DELAYS[ms.n_states])
        bound = recovered_structure(r, ms).min_delay
        assert np.all(bound >= np.array(CHAIN_BOUNDS[name]))

    @pytest.mark.parametrize("shape", [(1, 2), (1, 4)])
    def test_recovered_structure_checks_its_shape(self, shape):
        # one column short or one too many: no bound off a partial match
        ms = validate_c2(chain_c2(3))
        with pytest.raises(DimensionError) as err:
            recovered_structure(InfoStructure(np.zeros(shape)), ms)
        assert str(err.value) == f"R structure is {shape[0]}x{shape[1]}, C2 is 2x3"

    @pytest.mark.parametrize("shape", [(4, 3), (1, 4)])
    def test_combined_structure_checks_its_shape(self, shape):
        # a structure unlike the nominal neither fails in numpy nor broadcasts
        yd = build_ring_problem(4, 0.4, 4).yd
        with pytest.raises(DimensionError) as err:
            combined_r_structure(InfoStructure(np.zeros(shape)), yd)
        assert str(err.value) == f"structure is {shape[0]}x{shape[1]}, nominal Rnom is 4x4"

    def test_recovery_map_built_once_per_structure(self, rng, monkeypatch):
        # recover_controller and recovered_structure share one map per
        # structure, built on first use and never by validate_c2
        built = []
        original = MeasurementStructure.__dict__["recovery_map"].func

        def spy(ms):
            built.append(ms)
            return original(ms)

        prop = cached_property(spy)
        prop.__set_name__(MeasurementStructure, "recovery_map")
        monkeypatch.setattr(MeasurementStructure, "recovery_map", prop)
        ms = validate_c2(FIVE_STATE)
        assert built == []
        for _ in range(2):
            recover_controller(rand_relative_fir(rng, ms, 2, 4), ms)
        recovered_structure(InfoStructure(self.DELAYS[5]), ms)
        assert len(built) == 1 and built[0] is ms
        for n in (4, 6):
            built.clear()
            prob = build_ring_problem(n, 0.4, 6)
            solve(prob)
            assert len(built) == 1 and built[0] is prob.ms


class TestStructuralInvariants:
    def test_indicator_partition(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            ms = validate_c2(rand_connected_c2(rng, n, extra_edges=int(rng.integers(0, 3))))
            assert np.array_equal(ms.indicators.sum(axis=0), np.ones(n))
            gram = ms.indicators @ ms.indicators.T
            assert np.array_equal(gram, np.diag(np.diag(gram)))

    def test_every_kc2_decomposes(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 7))
            ms = validate_c2(rand_connected_c2(rng, n, extra_edges=1))
            K = FirSystem(rng.normal(size=(4, 2, ms.n_measurements)))
            R = fir_compose(K, FirSystem(ms.c2[np.newaxis]))
            check_relative(R.taps, ms.indicators)  # must not raise
            # round trip: only the product K C2 is invariant, not K itself
            K2 = recover_controller(R, ms)
            R2 = fir_compose(K2, FirSystem(ms.c2[np.newaxis]))
            assert np.abs(R2.taps - R.taps).max() <= 1e-9

    def test_decompose_iff_indicator_annihilation(self, rng):
        ms = validate_c2(FIVE_STATE)
        R = rand_relative_fir(rng, ms, 2, 3)
        for ind in ms.indicators:
            assert np.abs(R.taps @ ind).max() <= 1e-12
        taps = np.array(R.taps)
        taps[0, 0, 0] += 1e-6  # breaks component {0, 2}
        bad = FirSystem(taps)
        assert np.abs(bad.taps @ ms.indicators[0]).max() > 1e-12
        with pytest.raises(DecompositionError):
            recover_controller(bad, ms)

    def test_disagreement_basis_orthonormal(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            ms = validate_c2(rand_connected_c2(rng, n))
            V = ms.disagreement_basis()
            assert V.shape == (n, n - ms.n_components)
            assert np.abs(V.T @ V - np.eye(V.shape[1])).max() < 1e-12
            assert np.abs(ms.indicators @ V).max() < 1e-12
