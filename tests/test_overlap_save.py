"""The simulation's FIR stage, overlap-save against the direct tap sum,
and its overflow guard."""

import numpy as np
import pytest

from relsyn import FirSystem, Plant, validate_c2
from relsyn.bench import OVERFLOW_GUARD, _overlap_save, simulate_closed_loop

from test_simulation import reference_simulation


def direct_sum(F, x):
    """y[s] = sum_k F[k] x[s + L - 1 - k], one product per tap."""
    L = F.shape[0]
    steps = max(0, x.shape[0] - L + 1)
    y = np.zeros((steps, F.shape[1]))
    for k in range(L):
        y += x[L - 1 - k : L - 1 - k + steps] @ F[k].T
    return y


@pytest.mark.parametrize("horizon", [0, 8, 48, 96])
def test_matches_the_direct_sum(rng, horizon):
    F = rng.normal(size=(horizon + 1, 5, 7))
    x = rng.normal(size=(horizon + 1000, 7))
    got = _overlap_save(F, x)
    want = direct_sum(F, x)
    assert got.shape == want.shape == (1000, 5)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("horizon", [0, 48])
def test_scalar_taps_act_on_each_channel(rng, horizon):
    # taps of shape (L, n) are the diagonal matrix taps of shape (L, n, n)
    f = rng.normal(size=(horizon + 1, 6))
    x = rng.normal(size=(horizon + 700, 6))
    got = _overlap_save(f, x)
    want = direct_sum(f[:, :, None] * np.eye(6), x)
    assert got.shape == want.shape == (700, 6)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_chunk_not_a_whole_number_of_segments(rng):
    # 49 taps: FFT size 256, 208 outputs per segment; 500 = 2 * 208 + 84
    F = rng.normal(size=(49, 3, 4))
    x = rng.normal(size=(48 + 500, 4))
    got = _overlap_save(F, x)
    assert got.shape == (500, 3)
    assert np.abs(got - direct_sum(F, x)).max() <= 1e-12 * np.abs(got).max()


@pytest.mark.parametrize("rows", [0, 10, 48])
def test_empty_chunk(rng, rows):
    # fewer than L rows of history leave no full window
    F = rng.normal(size=(49, 3, 4))
    got = _overlap_save(F, rng.normal(size=(rows, 4)))
    assert got.shape == (0, 3)


def test_single_output(rng):
    F = rng.normal(size=(20, 2, 3))
    x = rng.normal(size=(20, 3))
    got = _overlap_save(F, x)
    assert np.abs(got - direct_sum(F, x)).max() <= 1e-12 * np.abs(got).max()


def test_guard_sees_divergence_of_either_sign():
    # an unstable plant drives both states the same way; negating the
    # noise input flips the sign, so one of the two runs holds only
    # states below -OVERFLOW_GUARD when it stops
    C2 = np.array([[1.0, -1.0]])
    K = FirSystem(np.zeros((12, 2, 1)))
    ms = validate_c2(C2)
    last = []
    for sign in (1.0, -1.0):
        plant = Plant(
            A=2.0 * np.eye(2), B1=sign * np.ones((2, 1)), B2=np.eye(2), C1=np.eye(2),
            D12=np.zeros((2, 2)), C2=C2,
        )
        got = simulate_closed_loop(plant, K, ms, steps=200, seed=3)
        ref = reference_simulation(plant, K, ms, steps=200, seed=3)
        assert got.diverged and ref.diverged
        assert got.steps_completed == ref.steps_completed
        assert np.abs(got.x - ref.x).max() <= 1e-10 * np.abs(ref.x).max()
        last.append(got.x[-1])
    assert min(x.max() for x in last) < -OVERFLOW_GUARD
