"""Information structures, quadratic invariance and constraint compilation."""

import numpy as np
import pytest
from hypothesis import given, settings
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
from relsyn.bench import local_sensor_structure, triangular_plant


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


class TestMembership:
    def test_zero_everywhere(self):
        for s in (ring_delay_structure(4), InfoStructure.from_sparsity(np.eye(3))):
            assert membership(FirSystem.zero(s.rows, s.cols, 3), s)

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

    def test_numerical_flag_sees_values(self):
        # a structural coupling masked by a zero value disappears only in
        # numerical mode
        A = np.array([[0.5, 0.0], [0.0, 0.5]])
        sys = StateSpace(A, np.eye(2), np.eye(2), np.zeros((2, 2)))
        structural = transfer_pattern(sys)
        numerical = transfer_pattern(sys, numerical=True)
        assert structural.min_delay[0, 1] == np.inf
        assert numerical.min_delay[0, 1] == np.inf
        assert numerical.min_delay[0, 0] == 1.0


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

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_certificate_matches_brute_force(self, data):
        # the lexically first violating quadruple of the full 4-d
        # evaluation, on random small structures with inf entries
        delay = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf])
        l = data.draw(st.integers(1, 4))
        p = data.draw(st.integers(1, 4))
        ds = np.array(data.draw(st.lists(delay, min_size=l * p, max_size=l * p)))
        dg = np.array(data.draw(st.lists(delay, min_size=l * p, max_size=l * p)))
        ds, dg = ds.reshape(l, p), dg.reshape(p, l)
        composite = ds[:, :, None, None] + dg[None, :, :, None] + ds[None, None, :, :]
        violation = composite < ds[:, None, None, :]
        expected = None
        if violation.any():
            flat = int(np.argmax(violation))
            expected = tuple(int(v) for v in np.unravel_index(flat, violation.shape))
        assert qi_certificate(InfoStructure(ds), InfoStructure(dg)) == expected

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
        assert cs.satisfied_by(FirSystem.zero(3, 3, 2))

    def test_violated_by_nonmember(self):
        cs = compile_constraints(ring_delay_structure(3), np.ones((1, 3)), 1)
        taps = np.zeros((2, 3, 3))
        taps[0, 0, 1] = 1.0  # structural zero violated
        assert not cs.satisfied_by(FirSystem(taps))
        taps2 = np.zeros((2, 3, 3))
        taps2[1, 0, 1] = 1.0  # row sum violated
        assert not cs.satisfied_by(FirSystem(taps2))
