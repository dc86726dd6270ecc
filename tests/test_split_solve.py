"""The split Gram solve of the eigenbasis route against the dense Gram path.

When the directions of a consensus problem map one to one onto the mode
pairs they touch, `_split_solve` eliminates the taps at which every
direction is live, one Toeplitz Schur complement per mode pair, and
factors only the head Gram.  The oracle is the dense Gram system of the
same column map, `_solve_gram(*_gram_system(_modal_table(*_modal_factors(...))))`; the
problems the split must decline (repeated Laplacian eigenvalues, the
Stein route, a horizon below the largest delay) are pinned by spying on
the dense assembly.
"""

import math

import numpy as np
import pytest

from relsyn import build_ring_problem, solve
from relsyn import solver
from relsyn.solver import (
    _automorphisms,
    _gram_system,
    _modal_factors,
    _modal_table,
    _orbit_columns,
    _solve_gram,
)

from conftest import actuator_gains, consensus_problem, rand_connected_c2
from test_symmetry import grid_c2, path_c2


def dense_reference(prob):
    """(J, Q, G, x) of the dense Gram system on the column map `solve` uses."""
    dirs, inputs, delays = _orbit_columns(prob, _automorphisms(prob))
    L = _modal_table(*_modal_factors(prob.yd, dirs, int(delays.max(initial=0))))
    G, c = _gram_system(L, inputs, delays)
    x, _ = _solve_gram(G, c)
    J = math.sqrt(max(L[0, -1, -1] - 2.0 * (c @ x) + x @ G @ x, 0.0))
    coef = np.zeros((prob.horizon_q + 1, len(dirs)))
    coef[delays, inputs] = x
    return J, np.tensordot(coef, dirs, axes=1), G, x


def dense_gram_calls(monkeypatch):
    calls = []
    original = solver._gram_system

    def spy(L, inputs, delays):
        calls.append(len(inputs))
        return original(L, inputs, delays)

    monkeypatch.setattr(solver, "_gram_system", spy)
    return calls


def dense_solve(monkeypatch, prob):
    """`solve` with the split declined, as when one of its gates fails."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_split_solve", lambda *args: None)
        return solve(prob)


@pytest.mark.parametrize("n", range(4, 11))
@pytest.mark.parametrize("gamma", [0.2, 0.5])
def test_split_matches_dense_gram(monkeypatch, rng, n, gamma):
    # some of these graphs have node symmetries, so orbit maps are split too
    C2 = rand_connected_c2(rng, n, extra_edges=n // 3)
    D = int(consensus_problem(C2, gamma, 0).structure.min_delay.max())  # the diameter
    calls = dense_gram_calls(monkeypatch)
    for horizon_q in sorted({D - 1, D, D + 1, 16}):
        prob = consensus_problem(C2, gamma, horizon_q)
        calls.clear()
        res = solve(prob)
        assert len(calls) == (horizon_q < D)  # below D, directions are cut off
        J, Q, G, x = dense_reference(prob)
        assert abs(res.objective - J) <= 1e-12 * J
        assert np.abs(res.q_opt.taps - Q).max() <= 1e-9 * np.abs(Q).max()
        assert res.residual_gradient <= 1e-9 * np.abs(G).max() * max(np.abs(x).max(), 1.0)
        assert not res.rank_deficient


@pytest.mark.parametrize("graph", ["path6", "random7"])
def test_path_and_random_graphs_take_the_split(monkeypatch, graph):
    C2 = path_c2(6) if graph == "path6" else rand_connected_c2(np.random.default_rng(0), 7, 3)
    calls = dense_gram_calls(monkeypatch)
    solve(consensus_problem(C2, 0.2, 16))
    assert calls == []


@pytest.mark.parametrize("case", ["ring8", "grid2x3", "actuator_gains", "horizon_below_D"])
def test_other_problems_take_the_dense_gram(monkeypatch, case):
    if case == "ring8":
        prob = build_ring_problem(8, 0.4, 16)
    elif case == "grid2x3":
        prob = consensus_problem(grid_c2(2, 3), 0.4, 16)
    elif case == "actuator_gains":
        prob = consensus_problem(path_c2(6), 0.4, 16, b2=actuator_gains(6))
    else:
        prob = consensus_problem(path_c2(6), 0.4, 4)  # the path's diameter is 5
    calls = dense_gram_calls(monkeypatch)
    solve(prob)
    assert len(calls) == 1


def test_failed_head_gate_gives_the_dense_result(monkeypatch):
    # the head Gram reported rank deficient: the solve must be the dense
    # path's, bit for bit
    prob = consensus_problem(rand_connected_c2(np.random.default_rng(3), 8, 3), 0.4, 12)
    want = dense_solve(monkeypatch, prob)
    original = solver._solve_gram
    sizes = []

    def head_fails(G, c):
        x, rank = original(G, c)
        sizes.append(c.size)
        return x, rank - 1 if len(sizes) == 1 else rank

    monkeypatch.setattr(solver, "_solve_gram", head_fails)
    got = solve(prob)
    assert len(sizes) == 2 and sizes[0] < sizes[1]
    assert got.objective == want.objective
    assert got.residual_gradient == want.residual_gradient
    assert got.rank_deficient == want.rank_deficient
    assert np.array_equal(got.q_opt.taps, want.q_opt.taps)
    assert np.array_equal(got.k_opt.taps, want.k_opt.taps)


def test_head_gram_is_the_only_factored_system(monkeypatch):
    # n = 14 with diameter 5: the head has 429 columns of the 2313 that
    # the dense Gram would factor at horizon_q = 16
    prob = consensus_problem(rand_connected_c2(np.random.default_rng(0), 14, 7), 0.4, 16)
    shapes = []
    original = solver._solve_gram

    def spy(G, c):
        shapes.append(G.shape)
        return original(G, c)

    monkeypatch.setattr(solver, "_solve_gram", spy)
    res = solve(prob)
    assert shapes == [(429, 429)]
    assert not res.rank_deficient
