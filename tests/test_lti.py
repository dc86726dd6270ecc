"""State-space and FIR algebra: examples and cross-operation invariants."""

import numpy as np
import pytest

from relsyn import (
    DomainError,
    FirSystem,
    Plant,
    StateSpace,
    WellPosednessError,
    close_loop,
    fir_add,
    fir_compose,
    fir_lft,
    h2_norm_fir,
    h2_norm_lyap,
    is_internally_stable,
    lft,
    markov,
    ring_plant,
    series,
    subtract,
)
from conftest import rand_schur


def neumann_series(g: FirSystem, h: FirSystem, horizon: int) -> FirSystem:
    """Independent oracle for the loop transform: iterate the fixed point
    s <- h + h g s until the taps stop changing."""
    s = h.truncated(horizon)
    for _ in range(4 * (horizon + 2)):
        nxt = fir_add(
            h.truncated(horizon),
            fir_compose(fir_compose(h, g, horizon=horizon), s, horizon=horizon),
        )
        if np.abs(nxt.taps - s.taps).max() < 1e-15:
            return nxt
        s = nxt
    return s


def loop_compose(g: FirSystem, h: FirSystem, horizon: int) -> np.ndarray:
    """Cauchy product tap by tap, over every pair of taps."""
    out = np.zeros((horizon + 1, g.n_outputs, h.n_inputs))
    for a in range(g.horizon + 1):
        for b in range(h.horizon + 1):
            if a + b <= horizon:
                out[a + b] += g.taps[a] @ h.taps[b]
    return out


def loop_lft(g: FirSystem, h: FirSystem, horizon: int) -> np.ndarray:
    """S = h + h g S tap by tap: S_k = (I - h_0 g_0)^(-1) (h_k + sum over
    1 <= m <= k of (h g)_m S_(k-m)), one product per (k, m) pair."""
    hg = loop_compose(h, g, horizon)
    phi = np.linalg.inv(np.eye(h.n_outputs) - h.tap(0) @ g.tap(0))
    S = np.zeros((horizon + 1, h.n_outputs, h.n_inputs))
    for k in range(horizon + 1):
        acc = h.tap(k).copy()
        for m in range(1, k + 1):
            acc += hg[m] @ S[k - m]
        S[k] = phi @ acc
    return S


def contractive_pair(rng):
    """Random G (strictly proper) and H whose feedback loop has spectral
    radius below 0.9, as the Neumann-comparison invariant requires."""
    G = rand_schur(rng, 3, 2, 2, rho=0.4, d_scale=0.0)
    H = rand_schur(rng, 2, 2, 2, rho=0.4, d_scale=0.3)
    for _ in range(60):
        if lft(G, H).spectral_radius() < 0.9:
            return G, H
        H = StateSpace(H.A, H.B, 0.5 * H.C, 0.5 * H.D)
    raise AssertionError("could not contract the loop")


class TestMarkov:
    def test_one_step_delay(self):
        sys = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        assert markov(sys, 2).taps.ravel().tolist() == [0.0, 1.0, 0.0]

    def test_ring_integrator_taps(self):
        n = 3
        sys = StateSpace(np.eye(n), np.eye(n), np.eye(n), np.zeros((n, n)))
        f = markov(sys, 3)
        assert np.array_equal(f.taps[0], np.zeros((n, n)))
        for k in (1, 2, 3):
            assert np.array_equal(f.taps[k], np.eye(n))

    def test_geometric_decay_matches_eigen_oracle(self, rng):
        sys = rand_schur(rng, 4, 2, 3, rho=0.7)
        f = markov(sys, 50)
        lam, V = np.linalg.eig(sys.A)
        Vinv = np.linalg.inv(V)
        lead = np.linalg.norm(sys.C @ V) * np.linalg.norm(Vinv @ sys.B)
        for k in range(1, 51):
            oracle = (sys.C @ V) @ np.diag(lam ** (k - 1)) @ (Vinv @ sys.B)
            assert np.abs(f.taps[k] - oracle.real).max() < 1e-10
            assert np.linalg.norm(f.taps[k]) <= lead * 0.7 ** (k - 1) + 1e-12

    def test_negative_horizon_rejected(self):
        sys = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(DomainError):
            markov(sys, -1)

    def test_static_gain_has_only_tap_zero(self, rng):
        D = rng.normal(size=(3, 2))
        f = markov(StateSpace.static_gain(D), 6)
        ref = np.zeros((7, 3, 2))
        ref[0] = D
        assert np.array_equal(f.taps, ref)


class TestFirCompose:
    def test_delay_composition(self):
        d1 = FirSystem(np.array([[[0.0]], [[1.0]]]))
        out = fir_compose(d1, d1)
        assert out.taps.ravel().tolist() == [0.0, 0.0, 1.0]

    def test_identity_neutral(self, rng):
        h = FirSystem(rng.normal(size=(5, 3, 2)))
        out = fir_compose(FirSystem.identity(3), h)
        assert np.array_equal(out.taps, h.taps)

    def test_matches_series_realization(self, rng):
        G = rand_schur(rng, 3, 3, 2, rho=0.5)
        H = rand_schur(rng, 2, 2, 3, rho=0.5)
        lhs = fir_compose(markov(G, 8), markov(H, 8), horizon=8)
        rhs = markov(series(G, H), 8)
        assert np.abs(lhs.taps - rhs.taps).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            fir_compose(FirSystem.identity(2), FirSystem.identity(3))

    @pytest.mark.parametrize(
        "g_horizon, h_horizon, horizon",
        [(9, 3, None), (3, 9, None), (9, 7, 5)],
        ids=["h-shorter", "g-shorter", "horizon-cut"],
    )
    def test_matches_loop_reference(self, rng, g_horizon, h_horizon, horizon):
        g = FirSystem(rng.normal(size=(g_horizon + 1, 3, 4)))
        h = FirSystem(rng.normal(size=(h_horizon + 1, 4, 2)))
        out = fir_compose(g, h, horizon=horizon)
        want = loop_compose(g, h, g_horizon + h_horizon if horizon is None else horizon)
        assert out.taps.shape == want.shape
        assert np.abs(out.taps - want).max() <= 1e-13 * np.abs(want).max()


class TestLft:
    def test_zero_loop_returns_h(self, rng):
        H = rand_schur(rng, 2, 2, 2, rho=0.5)
        G = StateSpace.static_gain(np.zeros((2, 2)))
        assert np.abs(markov(lft(G, H), 10).taps - markov(H, 10).taps).max() < 1e-12

    def test_scalar_static_closed_form(self):
        out = lft(StateSpace.static_gain([[0.3]]), StateSpace.static_gain([[2.0]]))
        assert out.n_states == 0
        assert out.D[0, 0] == pytest.approx(2.0 / (1.0 - 0.6), abs=1e-14)

    def test_matches_neumann_oracle(self, rng):
        # strictly proper G keeps the static loop trivially well posed
        G, H = contractive_pair(rng)
        got = markov(lft(G, H), 20)
        want = neumann_series(markov(G, 20), markov(H, 20), 20)
        assert np.abs(got.taps - want.taps).max() < 1e-9

    def test_ill_posed_rejected(self):
        with pytest.raises(WellPosednessError):
            lft(StateSpace.static_gain([[1.0]]), StateSpace.static_gain([[1.0]]))

    @pytest.mark.parametrize(
        "g_horizon, h_horizon, horizon",
        [(12, 12, 12), (12, 4, 12), (3, 12, 10)],
        ids=["equal", "h-shorter-than-horizon", "g-short-horizon-cut"],
    )
    def test_fir_lft_matches_loop_reference(self, rng, g_horizon, h_horizon, horizon):
        g = FirSystem(0.3 * rng.normal(size=(g_horizon + 1, 2, 3)))
        h = FirSystem(0.3 * rng.normal(size=(h_horizon + 1, 3, 2)))
        out = fir_lft(g, h, horizon)
        want = loop_lft(g, h, horizon)
        assert out.taps.shape == want.shape
        assert np.abs(out.taps - want).max() <= 1e-12 * np.abs(want).max()

    def test_fir_lft_matches_state_space(self, rng):
        G, H = contractive_pair(rng)
        lhs = fir_lft(markov(G, 15), markov(H, 15), 15)
        rhs = markov(lft(G, H), 15)
        assert np.abs(lhs.taps - rhs.taps).max() < 1e-12


def upper_triangular_test_plant():
    from relsyn.bench import triangular_plant

    return triangular_plant(4)


class TestCloseLoop:
    def test_open_loop_limit(self, rng):
        plant = ring_plant(3, 0.5)
        R = StateSpace.static_gain(np.zeros((3, 3)))
        cl = close_loop(plant, R)
        assert np.abs(markov(cl, 10).taps - markov(plant.pzw(), 10).taps).max() == 0.0

    def test_ring_laplacian_eigenvalues(self):
        # closed-loop state map I - (1/3)L has spectrum {1, 0, 0}:
        # the ring Laplacian spectrum is {0, 3, 3} and eigenvalues map to
        # 1 - lambda/3
        plant = ring_plant(3, 0.5)
        L = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        cl = close_loop(plant, StateSpace.static_gain(-L / 3.0))
        assert np.abs(cl.A[: 3, : 3] - (np.eye(3) - L / 3.0)).max() == 0.0
        eig = np.sort(np.abs(np.linalg.eigvals(cl.A)))
        assert np.allclose(eig, [0.0, 0.0, 1.0], atol=1e-12)

    def test_triangular_plant_stabilized(self):
        plant = upper_triangular_test_plant()
        R = StateSpace.static_gain(-0.3 * np.eye(4))
        cl = close_loop(plant, R)
        assert np.all(np.abs(np.linalg.eigvals(cl.A)) < 1.0)

    def test_open_loop_matches_pzw_markov(self):
        plant = upper_triangular_test_plant()
        cl = close_loop(plant, StateSpace.static_gain(np.zeros((4, 4))))
        assert (
            np.abs(markov(cl, 15).taps - markov(plant.pzw(), 15).taps).max() == 0.0
        )


class TestInternalStability:
    def test_scalar_stable(self):
        sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert is_internally_stable(sys)

    def test_ring_modulo_agreement(self):
        plant = ring_plant(3, 0.5)
        L = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        cl = close_loop(plant, StateSpace.static_gain(-L / 3.0))
        assert is_internally_stable(cl, [np.ones(3)])
        assert not is_internally_stable(cl)

    def test_scalar_unstable(self):
        sys = StateSpace([[1.01]], [[1.0]], [[1.0]], [[0.0]])
        assert not is_internally_stable(sys)


class TestH2Norms:
    def test_scalar_two_taps(self):
        sys = StateSpace([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert h2_norm_lyap(sys) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_static_gain_frobenius(self, rng):
        D = rng.normal(size=(3, 2))
        sys = StateSpace.static_gain(D)
        assert h2_norm_lyap(sys) == pytest.approx(np.linalg.norm(D), abs=1e-14)

    def test_lyap_matches_truncated_sum(self, rng):
        sys = rand_schur(rng, 5, 2, 3, rho=0.8)
        lyap = h2_norm_lyap(sys)
        fir = h2_norm_fir(markov(sys, 500))
        assert abs(lyap - fir) < 1e-8

    def test_lyap_large_state_iterative_path(self, rng):
        # a 45-state Gramian, well past the size where scipy's Stein solver
        # leaves its Kronecker method for the bilinear transform
        sys = rand_schur(rng, 45, 2, 2, rho=0.85)
        lyap = h2_norm_lyap(sys)
        fir = h2_norm_fir(markov(sys, 600))
        assert abs(lyap - fir) < 1e-8 * (1.0 + lyap)

    def test_unstable_rejected(self):
        sys = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(DomainError):
            h2_norm_lyap(sys)

    def test_fir_norm_values(self):
        assert h2_norm_fir(FirSystem.zero(2, 2)) == 0.0
        assert h2_norm_fir(FirSystem(np.ones((2, 1, 1)))) == pytest.approx(
            np.sqrt(2.0)
        )


class TestInvariants:
    def test_series_markov_consistency(self, rng):
        for _ in range(10):
            n1, n2 = rng.integers(1, 6), rng.integers(1, 6)
            m, k, p = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 4)
            G = rand_schur(rng, int(n1), int(k), int(p), rho=0.7)
            H = rand_schur(rng, int(n2), int(m), int(k), rho=0.7)
            T = int(rng.integers(5, 31))
            lhs = markov(series(G, H), T)
            rhs = fir_compose(markov(G, T), markov(H, T), horizon=T)
            assert np.abs(lhs.taps - rhs.taps).max() <= 1e-10

    def test_lft_neumann_consistency(self, rng):
        for _ in range(5):
            G, H = contractive_pair(rng)
            assert lft(G, H).spectral_radius() < 0.9
            got = markov(lft(G, H), 20)
            want = neumann_series(markov(G, 20), markov(H, 20), 20)
            assert np.abs(got.taps - want.taps).max() <= 1e-9

    def test_h2_gap_shrinks_geometrically(self, rng):
        sys = rand_schur(rng, 4, 2, 2, rho=0.8)
        lyap = h2_norm_lyap(sys)
        gaps = []
        for T in (20, 40, 80, 160):
            trunc = h2_norm_fir(markov(sys, T))
            assert lyap >= trunc - 1e-12
            gaps.append(lyap - trunc)
        for a, b in zip(gaps, gaps[1:]):
            assert b <= 0.5 * a + 1e-12

    def test_parallel_subtract(self, rng):
        G = rand_schur(rng, 3, 2, 2, rho=0.5)
        diff = subtract(G, G)
        assert np.abs(markov(diff, 20).taps).max() < 1e-12
