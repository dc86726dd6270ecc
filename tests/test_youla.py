"""The affine closed-loop parameterization and its indicator transfer."""

import numpy as np
import pytest

from relsyn import (
    DecompositionError,
    DomainError,
    FirSystem,
    NominalNotRelativeError,
    NominalNotStabilizingError,
    NominalUnstableError,
    StateSpace,
    build_tilde_plant,
    check_relative,
    close_loop,
    fir_add,
    fir_compose,
    h2_norm_fir,
    laplacian_rnom,
    lft,
    make_t_systems,
    markov,
    nominal_verdicts,
    q_from_r,
    r_from_q,
    ring_adjacency,
    ring_plant,
    validate_c2,
)
from relsyn.bench import triangular_plant
from relsyn.measurement import relative_taps
from conftest import rand_relative_fir


def ring_setup(n=3, gamma=0.5):
    plant = ring_plant(n, gamma)
    tilde = build_tilde_plant(plant)
    ms = validate_c2(plant.C2)
    rnom = laplacian_rnom(ring_adjacency(n))
    return plant, tilde, ms, make_t_systems(tilde, rnom, ms)


def schur_setup():
    plant = triangular_plant(4)
    tilde = build_tilde_plant(plant)
    ms = validate_c2(plant.C2)
    rnom = StateSpace.static_gain(np.zeros((4, 4)))
    return plant, tilde, ms, make_t_systems(tilde, rnom, ms)


class TestTildePlant:
    def test_measured_output_is_state(self):
        plant = ring_plant(3, 0.5)
        tilde = build_tilde_plant(plant)
        assert np.array_equal(tilde.C2, np.eye(3))

    def test_ring_state_maps(self):
        tilde = build_tilde_plant(ring_plant(3, 0.5))
        # Pxu = Pxw = (zI - I)^(-1): taps 0, I, I, ...
        for block in (tilde.pxu(), tilde.pxw()):
            taps = markov(block, 3).taps
            assert np.abs(taps[0]).max() == 0.0
            for k in (1, 2, 3):
                assert np.array_equal(taps[k], np.eye(3))

    def test_triangular_state_map(self):
        plant = triangular_plant(4)
        tilde = build_tilde_plant(plant)
        taps = markov(tilde.pxu(), 3).taps
        assert np.array_equal(taps[1], np.eye(4))
        assert np.array_equal(taps[2], plant.A)


class TestLaplacianNominal:
    def test_ring3(self):
        got = laplacian_rnom(ring_adjacency(3)).D
        want = -np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]]) / 3.0
        assert np.abs(got - want).max() < 1e-15

    def test_path2(self):
        got = laplacian_rnom(np.array([[0.0, 1], [1, 0]])).D
        assert np.abs(got - (-np.array([[1.0, -1], [-1, 1]]) / 2.0)).max() < 1e-15

    def test_row_sums_vanish(self, rng):
        n = 6
        A = (rng.random((n, n)) < 0.4).astype(float)
        A = np.triu(A, 1)
        A = A + A.T
        got = laplacian_rnom(A).D
        assert np.abs(got @ np.ones(n)).max() < 1e-15


class TestMakeTSystems:
    def test_zero_nominal_specializes(self):
        plant, tilde, ms, yd = schur_setup()
        for got, want in (
            (yd.t1, tilde.pzw()),
            (yd.t3, tilde.pxw()),
        ):
            assert np.abs(markov(got, 20).taps - markov(want, 20).taps).max() < 1e-12
        t2 = markov(yd.t2, 20).taps
        pzu = markov(tilde.pzu(), 20).taps
        assert np.abs(t2 + pzu).max() < 1e-12

    def test_ring_projected_realizations_schur(self):
        _, _, _, yd = ring_setup()
        assert not yd.t1.is_schur()
        assert yd.t1_stable.is_schur()
        assert yd.t2_stable.is_schur()
        assert yd.t3_projected.is_schur()

    def test_t1_matches_nominal_closed_loop(self):
        _, tilde, _, yd = ring_setup()
        cl = close_loop(tilde, yd.r_nom)
        assert np.abs(markov(yd.t1, 25).taps - markov(cl, 25).taps).max() == 0.0

    def test_validation_errors_distinct(self):
        plant, tilde, ms, _ = ring_setup()
        unstable = StateSpace([[1.5]], np.zeros((1, 3)), np.zeros((3, 1)), np.zeros((3, 3)))
        with pytest.raises(NominalUnstableError):
            make_t_systems(tilde, unstable, ms)
        with pytest.raises(NominalNotRelativeError):
            make_t_systems(tilde, StateSpace.static_gain(-np.eye(3)), ms)
        with pytest.raises(NominalNotStabilizingError):
            make_t_systems(tilde, StateSpace.static_gain(np.zeros((3, 3))), ms)

    def test_nominal_that_recovery_rejects_is_rejected_up_front(self):
        # 5e-11 on one entry of the Laplacian nominal is a row sum that
        # recovery rejects, so validation rejects it before the solve
        plant = ring_plant(5, 0.4)
        tilde, ms = build_tilde_plant(plant), validate_c2(plant.C2)
        gain = np.array(laplacian_rnom(ring_adjacency(5)).D)
        gain[0, 0] += 5e-11
        rnom = StateSpace.static_gain(gain)
        assert nominal_verdicts(tilde, rnom, ms)[:3] == (True, False, True)
        with pytest.raises(NominalNotRelativeError):
            make_t_systems(tilde, rnom, ms)

    def test_nominal_loop_is_the_inner_transform(self):
        for _, tilde, _, yd in (ring_setup(), schur_setup()):
            want = markov(lft(yd.r_nom, tilde.pxu()), 25).taps
            assert np.abs(markov(yd.nominal_loop, 25).taps - want).max() <= 1e-12
            assert yd.nominal_loop is yd.nominal_loop

    def test_verdicts_fail_where_make_t_systems_raises(self):
        _, tilde, ms, yd = ring_setup()
        unstable = StateSpace([[1.5]], np.zeros((1, 3)), np.zeros((3, 1)), np.zeros((3, 3)))
        assert nominal_verdicts(tilde, unstable, ms)[0] is False
        assert nominal_verdicts(tilde, StateSpace.static_gain(-np.eye(3)), ms)[:2] == (
            True,
            False,
        )
        zero = StateSpace.static_gain(np.zeros((3, 3)))
        assert nominal_verdicts(tilde, zero, ms)[:3] == (True, True, False)
        *verdicts, cl = nominal_verdicts(tilde, yd.r_nom, ms)
        assert verdicts == [True, True, True]
        assert np.array_equal(cl.A, yd.t1.A)


class TestParameterMaps:
    def test_zero_parameter_returns_nominal(self):
        _, _, _, yd = ring_setup()
        R = r_from_q(yd, FirSystem(np.zeros((3, 3))))
        assert np.abs(markov(R, 10).taps - markov(yd.r_nom, 10).taps).max() < 1e-14

    def test_relative_parameter_gives_relative_map(self, rng):
        _, _, ms, yd = ring_setup()
        for _ in range(5):
            Q = rand_relative_fir(rng, ms, 3, 10)
            R = r_from_q(yd, Q)
            taps = markov(R, 10).taps
            assert np.abs(taps @ np.ones(3)).max() <= 1e-9

    def test_schur_plant_neumann_form(self, rng):
        # with a zero nominal the map is -Q (I - Pxu Q)^(-1)
        plant, tilde, ms, yd = schur_setup()
        Q = FirSystem(rng.normal(size=(6, 4, 4)) * 0.2)
        R = r_from_q(yd, Q)
        horizon = 15
        pxu = markov(tilde.pxu(), horizon)
        series_sum = Q.truncated(horizon)
        term = Q.truncated(horizon)
        for _ in range(horizon + 2):
            term = fir_compose(
                fir_compose(term, pxu, horizon=horizon), Q.padded(horizon), horizon=horizon
            )
            series_sum = fir_add(series_sum, term)
        assert np.abs(markov(R, horizon).taps + series_sum.taps).max() <= 1e-9

    def test_nominal_recovers_zero_parameter(self):
        _, _, _, yd = ring_setup()
        Q = q_from_r(yd, yd.r_nom)
        assert np.abs(markov(Q, 20).taps).max() < 1e-12

    def test_roundtrip_closed_loop(self, rng):
        _, tilde, ms, yd = ring_setup()
        for _ in range(5):
            Q = rand_relative_fir(rng, ms, 3, 8)
            R = r_from_q(yd, Q)
            Q2 = q_from_r(yd, R)
            R2 = r_from_q(yd, Q2)
            lhs = markov(close_loop(tilde, R), 30).taps
            rhs = markov(close_loop(tilde, R2), 30).taps
            assert np.abs(lhs - rhs).max() <= 1e-8

    def test_indicator_transfer_r_to_q(self, rng):
        _, _, ms, yd = ring_setup()
        for _ in range(5):
            Q = rand_relative_fir(rng, ms, 3, 8)
            R = r_from_q(yd, Q)
            Q2 = q_from_r(yd, R)
            assert np.abs(markov(Q2, 10).taps @ np.ones(3)).max() <= 1e-9

    def test_nonstabilizing_r_rejected(self):
        _, _, _, yd = ring_setup()
        with pytest.raises(DomainError):
            q_from_r(yd, StateSpace.static_gain(np.zeros((3, 3))))


class TestECheck:
    def test_single_component_row_sums(self, rng):
        taps = rng.normal(size=(4, 3, 3))
        taps -= taps.mean(axis=2, keepdims=True)
        assert check_relative(taps, np.ones((1, 3))) <= 1e-12

    def test_laplacian_nominal_passes(self):
        _, tilde, ms, _ = ring_setup(4)
        rnom = laplacian_rnom(ring_adjacency(4))
        assert nominal_verdicts(tilde, rnom, ms)[1] is True

    def test_random_fir_fails(self, rng):
        with pytest.raises(DecompositionError):
            check_relative(rng.normal(size=(3, 2, 4)), np.ones((1, 4)))

    def test_statespace_markov_fallback(self, rng):
        # B E != 0 but the indicator direction is unobservable: the
        # Cayley-Hamilton tap test must still accept the system
        A = np.array([[0.5, 0.0], [0.0, 0.4]])
        B = np.array([[1.0, 1.0], [0.0, 0.0]])  # B @ 1 != 0
        C = np.array([[0.0, 1.0]])
        sys = StateSpace(A, B, C, np.zeros((1, 2)))
        relative_taps(sys, np.ones((1, 2)))  # must not raise


class TestObjectiveEquivalence:
    def test_ring_objective_matches_closed_loop(self, rng):
        _, tilde, ms, yd = ring_setup()
        horizon = 300
        f1 = markov(yd.t1_stable, horizon)
        f2 = markov(yd.t2_stable, horizon)
        f3 = markov(yd.t3_projected, horizon)
        for _ in range(3):
            Q = rand_relative_fir(rng, ms, 3, 10)
            matched = fir_add(
                f1, fir_compose(fir_compose(f2, Q.padded(horizon), horizon=horizon), f3, horizon=horizon)
            )
            cl = close_loop(tilde, r_from_q(yd, Q))
            assert abs(h2_norm_fir(matched) - h2_norm_fir(markov(cl, horizon))) <= 1e-7

    def test_schur_plant_zero_nominal_form(self, rng):
        # with Schur A and zero nominal: T1 + T2 Q T3 = Pzw - Pzu Q Pxw
        plant, tilde, ms, yd = schur_setup()
        Q = FirSystem(rng.normal(size=(5, 4, 4)) * 0.3)
        horizon = 40
        lhs = fir_add(
            markov(yd.t1_stable, horizon),
            fir_compose(
                fir_compose(markov(yd.t2_stable, horizon), Q.padded(horizon), horizon=horizon),
                markov(yd.t3_projected, horizon),
                horizon=horizon,
            ),
        )
        # the projected factor only agrees with raw Pxw after Q kills the
        # indicator directions, so build the raw form with a relative Q
        Qrel = rand_relative_fir(rng, ms, 4, 5)
        lhs_rel = fir_add(
            markov(yd.t1_stable, horizon),
            fir_compose(
                fir_compose(markov(yd.t2_stable, horizon), Qrel.padded(horizon), horizon=horizon),
                markov(yd.t3_projected, horizon),
                horizon=horizon,
            ),
        )
        rhs_rel = fir_add(
            markov(tilde.pzw(), horizon),
            -fir_compose(
                fir_compose(markov(tilde.pzu(), horizon), Qrel.padded(horizon), horizon=horizon),
                markov(tilde.pxw(), horizon),
                horizon=horizon,
            ),
        )
        assert np.abs(lhs_rel.taps - rhs_rel.taps).max() <= 1e-9
        assert lhs.taps.shape == lhs_rel.taps.shape
