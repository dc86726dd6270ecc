"""The Gram kernel against dense QR on the materialized least-squares matrix.

Both solve paths build the normal equations from the exact Gramian lags
of the basis and target systems and never form A.  The oracle here forms
A column by column, as plain shifted FIR responses truncated at
ORACLE_HORIZON taps, and solves it by QR with column pivoting;
cond(G) = cond(A)^2, so this is the check that squaring lost nothing.
"""

import math

import numpy as np
import pytest

from relsyn import (
    FirSystem,
    build_ring_problem,
    circulant_reduce,
    fir_compose,
    least_squares,
    markov,
    solve,
    solve_ring_circulant,
)
from relsyn.solver import _assemble_q, _expand_circulant, _lags, _reduce_constraints

from conftest import ORACLE_HORIZON, consensus_problem, rand_connected_c2, rand_schur


def dense_general(prob):
    """(J, Q) from the materialized A of the general path."""
    yd = prob.yd
    T_Q, T_J = prob.horizon_q, ORACLE_HORIZON
    l, n = yd.plant.n_ctrl, yd.plant.n_states
    F2 = markov(yd.t2_stable, T_J)
    F3 = markov(yd.t3_projected, T_J)
    basis = _reduce_constraints(prob.structure, prob.ms.indicators, T_Q)
    pair = {}
    for i in range(l):
        for j in range(n):
            unit = np.zeros((1, l, n))
            unit[0, i, j] = 1.0
            resp = fir_compose(fir_compose(F2, FirSystem(unit), horizon=T_J), F3, horizon=T_J)
            pair[i, j] = resp.taps.reshape(-1)
    # column (k, i, j): the pair response minus its dependent's, k taps late
    block = F2.n_outputs * F3.n_inputs
    cols = []
    for (k, i, j), dep in basis.free:
        col = np.zeros_like(pair[i, j])
        col[k * block :] = (pair[i, j] - pair[i, dep])[: col.size - k * block]
        cols.append(col)
    A = np.column_stack(cols)
    lsres = least_squares(A, -markov(yd.t1_stable, T_J).taps.reshape(-1))
    return lsres.residual, _assemble_q(basis, lsres.x, T_Q, l, n).taps


def dense_circulant(n, gamma, horizon_q):
    """(J, Q) from the materialized A of the circulant path."""
    prob = build_ring_problem(n, gamma, horizon_q)
    red = circulant_reduce(prob)
    yd, T_J = prob.yd, ORACLE_HORIZON
    F2 = markov(yd.t2_stable, T_J)
    F3 = markov(yd.t3_projected, T_J)
    cols, index = [], []
    for j, hj in enumerate(red.param_horizons):
        col = FirSystem(red.lift.taps[:, :, j : j + 1])
        resp = fir_compose(F2, fir_compose(F3, col, horizon=T_J), horizon=T_J)
        flat = resp.taps.reshape(T_J + 1, -1)
        for b in range(hj + 1):
            shifted = np.zeros_like(flat)
            shifted[b:] = flat[: T_J + 1 - b]
            cols.append(shifted.reshape(-1))
            index.append((j, b))
    A = np.column_stack(cols)
    target = markov(yd.t1_stable, T_J).taps[:, :, 0]
    lsres = least_squares(A, -target.reshape(-1))
    params = [np.zeros(h + 1) for h in red.param_horizons]
    for (j, b), val in zip(index, lsres.x):
        params[j][b] = val
    q = _expand_circulant(red, params, horizon_q)
    return math.sqrt(n) * lsres.residual, q.taps


def _assert_agrees(res, J, Q):
    assert abs(res.objective - J) <= 1e-10 * J
    assert np.abs(res.q_opt.taps - Q).max() <= 1e-8 * np.abs(Q).max()


@pytest.mark.parametrize("gamma", [0.2, 0.5])
def test_general_path_matches_dense_qr(rng, gamma):
    C2 = rand_connected_c2(rng, 5, extra_edges=2)
    prob = consensus_problem(C2, gamma, 8)
    _assert_agrees(solve(prob), *dense_general(prob))


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("gamma", [0.2, 0.5])
def test_circulant_path_matches_dense_qr(n, gamma):
    res = solve_ring_circulant(n, gamma, 32)
    _assert_agrees(res, *dense_circulant(n, gamma, 32))


def test_lags_match_impulse_response_sums(rng):
    # random systems with feedthrough, so every term of the lag formula
    # counts (the T systems of a plant have none)
    basis = rand_schur(rng, 4, 3, 2, rho=0.5)
    target = rand_schur(rng, 3, 1, 2, rho=0.5)
    H = np.concatenate([markov(basis, 200).taps, markov(target, 200).taps], axis=2)
    L = _lags(basis, target, 5)
    for d in range(6):
        ref = np.tensordot(H[d:], H[: H.shape[0] - d], axes=([0, 1], [0, 1]))
        assert np.abs(L[d] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_gram_system_is_square(monkeypatch):
    # the system handed to least_squares is the cols x cols Gram matrix
    import relsyn.solver as solver

    shapes = []
    original = solver.least_squares

    def spy(A, b):
        shapes.append(np.shape(A))
        return original(A, b)

    monkeypatch.setattr(solver, "least_squares", spy)
    solve_ring_circulant(6, 0.4, 16)
    solve(build_ring_problem(4, 0.4, horizon_q=6))
    assert len(shapes) == 2
    assert all(rows == cols for rows, cols in shapes)
