"""Measurement graphs, relative decomposition and controller recovery."""

import numpy as np
import pytest

from relsyn import (
    DecompositionError,
    DomainError,
    FirSystem,
    MeasurementMatrixError,
    StateSpace,
    chain_matrix,
    chain_transform,
    decompose,
    fir_compose,
    is_relative_map,
    markov,
    recover_controller,
    recover_matrix,
    solve_chain,
    validate_c2,
)
from conftest import rand_connected_c2, rand_relative_fir

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


class TestRelativeMap:
    def test_paper_row(self):
        assert is_relative_map([[3.0, -1.0, -2.0]])

    def test_nonzero_sum(self):
        assert not is_relative_map([[1.0, 0.0]])

    def test_zero_map(self):
        assert is_relative_map(np.zeros((3, 4)))


class TestChain:
    def test_single_edge(self):
        ms = validate_c2([[1.0, -1]])
        T, ordering = chain_transform(ms, (0, 1))
        assert T.tolist() == [[1.0]]
        assert ordering == (0, 1)
        assert (T @ ms.c2[:, list(ordering)]).tolist() == [[1.0, -1.0]]

    def test_three_state_star(self):
        ms = validate_c2([[1.0, 0, -1], [0, 1, -1]])
        T, ordering = chain_transform(ms, (0, 1, 2))
        rows = ms.component_rows(0)
        prod = T @ ms.c2[list(rows)][:, list(ordering)]
        assert np.array_equal(prod[:2], chain_matrix(3))
        assert abs(np.linalg.det(T)) >= 1.0 - 1e-12

    def test_all_pairs_surplus_rows(self):
        ms = validate_c2(ALL_PAIRS_4)
        T, ordering = chain_transform(ms, (0, 1, 2, 3))
        assert T.shape == (6, 6)
        assert abs(np.linalg.det(T)) > 1e-9  # invertible
        prod = T @ ms.c2[:, list(ordering)]
        assert np.array_equal(prod[:3], chain_matrix(4))

    def test_chain_product_is_exact_integers(self, rng):
        for trial in range(20):
            n = int(rng.integers(2, 7))
            ms = validate_c2(rand_connected_c2(rng, n, extra_edges=int(rng.integers(0, 3))))
            for comp in ms.components:
                T, ordering = chain_transform(ms, comp)
                rows = ms.component_rows(ms.components.index(comp))
                prod = T @ ms.c2[list(rows)][:, list(ordering)]
                assert np.array_equal(prod[: len(comp) - 1], chain_matrix(len(comp)))
                assert np.array_equal(T, np.round(T))


class TestSolveChain:
    def test_paper_example(self):
        # 3 x1 - x2 - 2 x3 = 3 (x1 - x2) + 2 (x2 - x3)
        assert solve_chain([[3.0, -1.0, -2.0]]).tolist() == [[3.0, 2.0]]

    def test_zero(self):
        assert np.array_equal(solve_chain(np.zeros((2, 4))), np.zeros((2, 3)))

    def test_multiply_back(self, rng):
        F = rng.normal(size=(4, 6))
        F -= F.mean(axis=1, keepdims=True)
        G = solve_chain(F)
        assert np.abs(G @ chain_matrix(6) - F).max() <= 1e-12

    def test_non_relative_rejected(self):
        with pytest.raises(DomainError):
            solve_chain([[1.0, 0.0]])


class TestRecovery:
    def test_five_state_block_recovery(self):
        # blocks [3, -3] on {x1, x3} and [-1, 1] on {x2, x4}: the sensors
        # read x1 - x3 and x4 - x2, so K = [3, 1]
        ms = validate_c2(FIVE_STATE)
        R = np.array([[3.0, -1.0, -3.0, 1.0, 0.0]])
        K = recover_matrix(R, ms)
        assert K.tolist() == [[3.0, 1.0]]
        assert np.array_equal(K @ FIVE_STATE, R)

    def test_zero_map(self):
        ms = validate_c2(FIVE_STATE)
        K = recover_controller(FirSystem.zero(2, 5, 3), ms)
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


class TestDecompose:
    def test_single_component_identity_block(self, rng):
        ms = validate_c2(ALL_PAIRS_4)
        R = rand_relative_fir(rng, ms, 2, 4)
        dec = decompose(R, ms)
        assert len(dec.blocks) == 1
        assert np.array_equal(dec.blocks[0].taps, R.taps)

    def test_singleton_component_must_vanish(self, rng):
        ms = validate_c2(FIVE_STATE)
        R = rand_relative_fir(rng, ms, 1, 2)
        taps = np.array(R.taps)
        taps[1, 0, 4] = 0.3
        with pytest.raises(DecompositionError) as err:
            decompose(FirSystem(taps), ms)
        assert err.value.component == 2
        assert err.value.tap == 1

    def test_blocks_recovered_exactly(self, rng):
        ms = validate_c2(FIVE_STATE)
        R = rand_relative_fir(rng, ms, 2, 3)
        dec = decompose(R, ms)
        assert np.abs(dec.reassemble().taps - R.taps).max() == 0.0
        # chain gains reproduce each block through the chain matrix
        for ci, comp in enumerate(ms.components):
            if len(comp) == 1:
                continue
            perm = [comp.index(v) for v in dec.orderings[ci]]
            for k in range(R.horizon + 1):
                lhs = dec.chain_gains[ci].taps[k] @ chain_matrix(len(comp))
                assert np.abs(lhs - dec.blocks[ci].taps[k][:, perm]).max() <= 1e-12

    def test_witness_materialization(self, rng):
        ms = validate_c2(FIVE_STATE)
        R = rand_relative_fir(rng, ms, 1, 2)
        dec = decompose(R, ms, materialize_witnesses=True)
        assert dec.witnesses is not None
        pair_sets = [set(w.keys()) for w in dec.witnesses]
        assert pair_sets[0] == {(0, 2)}
        assert pair_sets[1] == {(1, 3)}
        assert pair_sets[2] == set()


def _recover_loops(R, ms):
    """Chain gains and K tap by tap with solve_chain: the reference for
    the batched decompose/recover_controller."""
    gains = {}
    K = np.zeros((R.horizon + 1, R.n_outputs, ms.n_measurements))
    for ci, comp in enumerate(ms.components):
        if len(comp) == 1:
            continue
        T, ordering = chain_transform(ms, comp)
        perm = [comp.index(v) for v in ordering]
        rows = list(ms.component_rows(ci))
        block = R.taps[:, :, list(comp)][:, :, perm]
        gains[ci] = np.stack([solve_chain(block[k]) for k in range(R.horizon + 1)])
        for k in range(R.horizon + 1):
            K[k][:, rows] += gains[ci][k] @ T[: len(comp) - 1]
    return gains, K


class TestBatchedRecovery:
    STRUCTURES = {"two_pairs": TWO_PAIRS, "five_state": FIVE_STATE, "all_pairs": ALL_PAIRS_4}

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_matches_per_tap_chain_solves(self, rng, name):
        ms = validate_c2(self.STRUCTURES[name])
        for l, horizon in ((1, 0), (2, 5), (3, 12)):
            R = rand_relative_fir(rng, ms, l, horizon)
            gains, K_ref = _recover_loops(R, ms)
            dec = decompose(R, ms)
            for ci, G in gains.items():
                # the same cumulative sums in the same order
                assert np.array_equal(dec.chain_gains[ci].taps, G)
            K = recover_controller(R, ms).taps
            # one matrix product per tap, batched or not: roundoff only
            tol = 64 * np.finfo(float).eps * max(np.abs(K_ref).max(), 1.0)
            assert np.abs(K - K_ref).max() <= tol

    def test_chain_transform_built_once_per_component(self, rng, monkeypatch):
        import relsyn.measurement as measurement

        ms = validate_c2(FIVE_STATE)
        calls = []
        original = measurement.chain_transform

        def spy(ms_, comp):
            calls.append(comp)
            return original(ms_, comp)

        monkeypatch.setattr(measurement, "chain_transform", spy)
        recover_controller(rand_relative_fir(rng, ms, 2, 4), ms)
        assert sorted(calls) == sorted(c for c in ms.components if len(c) > 1)

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
        for fn in (decompose, recover_controller):
            with pytest.raises(DecompositionError) as err:
                fn(FirSystem(taps), ms)
            assert (err.value.component, err.value.tap) == expected


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
            dec = decompose(R, ms)  # must not raise
            assert dec is not None
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
            decompose(bad, ms)

    def test_disagreement_basis_orthonormal(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            ms = validate_c2(rand_connected_c2(rng, n))
            V = ms.disagreement_basis()
            assert V.shape == (n, n - ms.n_components)
            assert np.abs(V.T @ V - np.eye(V.shape[1])).max() < 1e-12
            assert np.abs(ms.indicators @ V).max() < 1e-12
