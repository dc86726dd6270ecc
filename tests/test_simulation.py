"""The block-lifted closed-loop simulation against the per-step loop.

`reference_simulation` is the step-by-step recursion the lifted version
regroups: same noise stream, same outputs, same overflow guard.  The
lifted sums are reassociated, and the modal route rotates them into a
basis that diagonalizes the loop, so agreement is asked within 1e-10 of
the largest reference entry rather than bit for bit.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from relsyn import DomainError, FirSystem, ring_plant, solve, solve_ring_circulant, validate_c2
from relsyn import bench
from relsyn.bench import OVERFLOW_GUARD, TrajectoryRecord, simulate_closed_loop

from conftest import address_space, consensus_plant, consensus_problem, rand_connected_c2

RTOL = 1e-10


def reference_simulation(plant, K, ms, steps, seed):
    """One step at a time: y history, u from the FIR taps, z, then x."""
    rng = np.random.default_rng(seed)
    n, q = plant.n_states, plant.n_dist
    T = K.horizon
    x = np.zeros((steps + 1, n))
    u = np.zeros((steps, plant.n_ctrl))
    z = np.zeros((steps, plant.n_perf))
    y_hist = np.zeros((T + 1, plant.n_meas))  # y_hist[k] = y[t-k]
    diverged = False
    t_done = 0
    for t in range(steps):
        y_hist[1:] = y_hist[:-1]
        y_hist[0] = plant.C2 @ x[t]
        u[t] = np.einsum("kij,kj->i", K.taps, y_hist)
        z[t] = plant.C1 @ x[t] + plant.D12 @ u[t]
        w = rng.standard_normal(q)
        x[t + 1] = plant.A @ x[t] + plant.B1 @ w + plant.B2 @ u[t]
        t_done = t + 1
        if np.abs(x[t + 1]).max() > OVERFLOW_GUARD:
            diverged = True
            break
    return TrajectoryRecord(
        x=x[: t_done + 1],
        u=u[:t_done],
        z=z[:t_done],
        diverged=diverged,
        steps_completed=t_done,
    )


def assert_agrees(plant, K, steps, seed):
    ms = validate_c2(plant.C2)
    got = simulate_closed_loop(plant, K, ms, steps, seed)
    ref = reference_simulation(plant, K, ms, steps, seed)
    assert got.diverged == ref.diverged
    assert got.steps_completed == ref.steps_completed
    for name in ("x", "u", "z"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape, name
        assert np.abs(a - b).max() <= RTOL * np.abs(b).max(), name
    return got


def scaled_disturbance(plant, scale):
    """The plant with B1 scaled: a zero scale turns the disturbance off."""
    return dataclasses.replace(plant, B1=scale * plant.B1)


@pytest.fixture(scope="module")
def ring8():
    """The n = 8, gamma = 0.5 ring loop (horizon_q 32, 49 taps)."""
    res = solve_ring_circulant(8, 0.5, horizon_q=32)
    return ring_plant(8, 0.5), res.k_opt


@pytest.fixture
def lifts(monkeypatch):
    """The shapes (modes, B s, L s) of every lift P built while the test
    runs: n scalar modes (s = 1) or one block of n states (s = n)."""
    shapes = []
    lift = bench._lift

    def spy(*args):
        P, gamma = lift(*args)
        shapes.append(P.shape)
        return P, gamma

    monkeypatch.setattr(bench, "_lift", spy)
    return shapes


class TestOracle:
    @pytest.mark.parametrize("steps", [1, 48, 777, 9000])
    def test_ring_loop(self, ring8, lifts, steps):
        # 777 ends inside a block; 9000 crosses two chunks of noise draws
        plant, K = ring8
        assert K.horizon == 48
        rec = assert_agrees(plant, K, steps, seed=11)
        assert not rec.diverged
        assert lifts == [(8, 49, 49)]

    def test_general_graph_loop(self, lifts):
        # no basis diagonalizes this K C2: one block of 6 states
        C2 = rand_connected_c2(np.random.default_rng(3), 6, extra_edges=2)
        res = solve(consensus_problem(C2, 0.4, 8))
        rec = assert_agrees(consensus_plant(C2, 0.4), res.k_opt, 2000, seed=5)
        assert not rec.diverged
        L = res.k_opt.horizon + 1
        assert lifts == [(1, 6 * L, 6 * L)]

    def test_modes_with_non_unit_plant_diagonals(self, ring8, lifts):
        # A, B1 and B2 scale the modes differently, none by one
        plant, K = ring8
        eye = np.eye(8)
        lap = 2.0 * eye - np.roll(eye, 1, axis=0) - np.roll(eye, -1, axis=0)
        plant = dataclasses.replace(
            plant, A=eye - 0.1 * lap, B1=0.5 * eye + 0.1 * lap, B2=2.0 * eye
        )
        rec = assert_agrees(plant, K, 3000, seed=2)
        assert not rec.diverged
        assert lifts == [(8, 49, 49)]

    def test_asymmetric_controller_runs_as_one_block(self, ring8, lifts):
        # one entry off by 1e-6 of the largest breaks K C2's symmetry
        plant, K = ring8
        taps = np.array(K.taps)
        taps[3, 0, 1] += 1e-6 * np.abs(taps).max()
        K = FirSystem(taps)
        assert bench._modes(plant, K.taps @ plant.C2) is None
        assert_agrees(plant, K, 777, seed=3)
        assert lifts == [(1, 8 * 49, 8 * 49)]

    def test_horizon_zero_controller(self):
        plant = ring_plant(5, 0.3)
        K = FirSystem((-0.2 * plant.C2.T)[np.newaxis])
        assert K.horizon == 0
        assert_agrees(plant, K, 5000, seed=2)

    @pytest.mark.parametrize("block", [1, 5])
    def test_blocks_shorter_than_the_taps(self, ring8, lifts, monkeypatch, block):
        # a lift over `block` steps: what a loop too large for the
        # lift's entry budget gets; the ring loop runs as n modes of one
        # state and one noise input, L (1 + 1) entries per mode and step
        plant, K = ring8
        width = (K.horizon + 1) * plant.n_states * 2
        monkeypatch.setattr(bench, "_LIFT_DOUBLES", block * width)
        assert_agrees(plant, K, 777, seed=4)
        assert lifts == [(8, block, 49)]

    def test_zero_disturbance_gives_exact_zeros(self, ring8):
        plant, K = ring8
        rec = assert_agrees(scaled_disturbance(plant, 0.0), K, 777, seed=1)
        for arr in (rec.x, rec.u, rec.z):
            assert np.abs(arr).max() == 0.0


class TestDivergence:
    def test_positive_feedback(self):
        plant = ring_plant(3, 0.5)
        K = FirSystem((5.0 * plant.C2.T)[np.newaxis])
        rec = assert_agrees(plant, K, 2000, seed=0)
        assert rec.diverged and rec.steps_completed == 9

    @pytest.mark.parametrize("scale", [0.0, 1.0])
    def test_explosive_loop(self, scale):
        # growth near 3e7 per step overflows the lift's later rows; with
        # no disturbance the state stays exactly zero all the same
        plant = ring_plant(3, 0.5)
        taps = np.zeros((49,) + plant.C2.T.shape)
        taps[0] = 1e7 * plant.C2.T
        K = FirSystem(taps)
        rec = assert_agrees(scaled_disturbance(plant, scale), K, 500, seed=1)
        assert rec.diverged == (scale > 0)

    def test_truncated_k_opt_loop(self, lifts):
        # the loop closed by the truncated k_opt at (12, 0.4) is unstable
        res = solve_ring_circulant(12, 0.4, horizon_q=32)
        rec = assert_agrees(ring_plant(12, 0.4), res.k_opt, 100000, seed=7)
        assert rec.diverged and rec.steps_completed == 1125
        assert lifts[0][0] == 12


@pytest.mark.parametrize("gamma", [0.2, 0.4, 0.5])
def test_readme_grid_loops_pass_the_mode_gate(gamma):
    # the basis only: every ring loop of the README sweep runs as modes
    for n in range(3, 13):
        plant = ring_plant(n, gamma)
        K = solve_ring_circulant(n, gamma, horizon_q=32).k_opt
        V = bench._modes(plant, K.taps @ plant.C2)
        assert V is not None, n
        assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-14


class TestInputs:
    def test_controller_output_count(self):
        # numpy would stop at the first product with a matmul ValueError
        plant = ring_plant(4, 0.4)
        K = FirSystem(np.zeros((3, 2, 3)))
        with pytest.raises(DomainError, match="drives 2 inputs, plant has 4"):
            simulate_closed_loop(plant, K, validate_c2(plant.C2), 10, 0)

    def test_trajectories_past_memory(self):
        # 1e12 steps need 29 TiB of states; 512 MiB of address space
        # makes that first array fail on any host
        res = solve_ring_circulant(4, 0.4, horizon_q=8)
        plant = ring_plant(4, 0.4)
        ms = validate_c2(plant.C2)
        with pytest.raises(DomainError) as err, address_space(512 << 20):
            simulate_closed_loop(plant, res.k_opt, ms, 10**12, 1)
        assert isinstance(err.value.__cause__, MemoryError)
        assert "Unable to allocate" in str(err.value)
        assert "lower steps (now 1000000000000)" in str(err.value)


def test_allocation_is_bounded_by_the_returned_arrays(ring8):
    # returned arrays, the lifted matrices and one chunk of noise and
    # output products: 25.6 MB returned, about 28.9 MB allocated at peak
    plant, K = ring8
    ms = validate_c2(plant.C2)
    tracemalloc.start()
    try:
        rec = simulate_closed_loop(plant, K, ms, steps=100000, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.steps_completed == 100000
    returned = rec.x.nbytes + rec.u.nbytes + rec.z.nbytes
    assert peak <= 1.25 * returned


def test_large_loop_lift_stays_within_its_budget():
    # 97 taps on 32 states: a full-length lift would hold 154 MB
    plant = ring_plant(32, 0.5)
    taps = 1e-3 * np.random.default_rng(0).normal(size=(97, 32, plant.n_meas))
    K = FirSystem(taps)
    tracemalloc.start()
    try:
        rec = assert_agrees(plant, K, 300, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rec.diverged
    assert peak <= 8 * bench._LIFT_DOUBLES * 1.25
