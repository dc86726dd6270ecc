"""The Gram kernel against dense QR on the materialized least-squares matrix.

Both column maps, general and circulant, build the normal equations from
the exact Gramian lags of the basis and target systems and never form A.  The oracle here forms
A column by column, as plain shifted FIR responses truncated at
ORACLE_HORIZON taps, and solves it by QR with column pivoting;
cond(G) = cond(A)^2, so this is the check that squaring lost nothing.
`reference_gram` keeps the entry-by-entry assembly of G and A'b from the
lag table, which sees a transposed or shifted block directly rather than
only through x.
"""

import math

import numpy as np
import pytest

from relsyn import (
    FirSystem,
    build_ring_problem,
    compile_constraints,
    fir_compose,
    least_squares,
    markov,
    solve,
    solve_ring_circulant,
)
from relsyn.solver import (
    _free_columns,
    _lags,
    _pair_responses,
    _solve_gram,
)

from conftest import (
    ORACLE_HORIZON,
    actuator_gains,
    consensus_problem,
    eliminate_q0,
    rand_connected_c2,
    rand_schur,
)


def dense_general(prob):
    """(J, Q) from the materialized A of the general path."""
    yd = prob.yd
    T_Q, T_J = prob.horizon_q, ORACLE_HORIZON
    l, n = yd.plant.n_ctrl, yd.plant.n_states
    F2 = markov(yd.t2_stable, T_J)
    F3 = markov(yd.t3_projected, T_J)
    dirs, inputs, delays = _free_columns(prob.structure, prob.ms.indicators, T_Q)
    pair = {}
    for i in range(l):
        for j in range(n):
            unit = np.zeros((1, l, n))
            unit[0, i, j] = 1.0
            resp = fir_compose(fir_compose(F2, FirSystem(unit), horizon=T_J), F3, horizon=T_J)
            pair[i, j] = resp.taps.reshape(-1)
    # column (k, a): the pair responses weighted by direction a, k taps late
    block = F2.n_outputs * F3.n_inputs
    cols = []
    for k, a in zip(delays, inputs):
        resp = sum(dirs[a][i, j] * pair[i, j] for i, j in zip(*np.nonzero(dirs[a])))
        col = np.zeros_like(resp)
        col[k * block :] = resp[: col.size - k * block]
        cols.append(col)
    A = np.column_stack(cols)
    lsres = least_squares(A, -markov(yd.t1_stable, T_J).taps.reshape(-1))
    Q = np.zeros((T_Q + 1, l, n))
    for k, a, x in zip(delays, inputs, lsres.x):
        Q[k] += x * dirs[a]
    return lsres.residual, Q


def dense_circulant(n, gamma, horizon_q):
    """(J, Q) from the materialized A of the first column of circulant Q.

    Only Q e_0 enters the objective of a circulant problem, and J^2 is n
    times its first-column value.  Parameter j (offset j + 1, ring
    distance l_j) has taps 0..horizon_q - l_j, and the first column is
    its FIR map through the lift `eliminate_q0`.
    """
    prob = build_ring_problem(n, gamma, horizon_q)
    yd, T_J = prob.yd, ORACLE_HORIZON
    F2 = markov(yd.t2_stable, T_J)
    F3 = markov(yd.t3_projected, T_J)
    lift = eliminate_q0(n)  # the lift as an FIR map, not as column delays
    horizons = [horizon_q - min(j, n - j) for j in range(1, n)]
    cols, index = [], []
    for j, hj in enumerate(horizons):
        col = FirSystem(lift.taps[:, :, j : j + 1])
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
    params = np.zeros((horizon_q + 1, n - 1, 1))
    for (j, b), val in zip(index, lsres.x):
        params[b, j, 0] = val
    column = fir_compose(lift, FirSystem(params), horizon=horizon_q).taps[:, :, 0]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return math.sqrt(n) * lsres.residual, column[:, idx]


def _assert_agrees(res, J, Q):
    assert abs(res.objective - J) <= 1e-10 * J
    assert np.abs(res.q_opt.taps - Q).max() <= 1e-8 * np.abs(Q).max()


@pytest.mark.parametrize("gamma", [0.2, 0.5])
def test_general_path_matches_dense_qr(rng, gamma):
    # the consensus plant takes the eigenbasis lag table and the plant
    # with distinct actuator gains the Stein solve on the joint system
    C2 = rand_connected_c2(rng, 5, extra_edges=2)
    for b2 in (None, actuator_gains(5)):
        prob = consensus_problem(C2, gamma, 8, b2=b2)
        _assert_agrees(solve(prob), *dense_general(prob))


def test_symmetric_stein_route_matches_unreduced_and_dense_qr():
    # reflection-symmetric but unequal actuator gains on the path: outside
    # the eigenbasis gate, yet the reflection still fixes the problem
    from relsyn.solver import _automorphisms, _modal_lags, _solve_columns

    C2 = np.zeros((5, 6))
    for i in range(5):
        C2[i, i], C2[i, i + 1] = 1.0, -1.0
    prob = consensus_problem(C2, 0.3, 8, b2=np.array([0.6, 0.9, 1.2, 1.2, 0.9, 0.6]))
    free = _free_columns(prob.structure, prob.ms.indicators, prob.horizon_q)
    assert _modal_lags(prob.yd, free[0], 1) is None
    assert [g.tolist() for g in _automorphisms(prob)] == [[5, 4, 3, 2, 1, 0]]
    res = solve(prob)
    assert res.objective == pytest.approx(_solve_columns(prob, *free).objective, rel=1e-12)
    _assert_agrees(res, *dense_general(prob))


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
    # the system handed to the Gram solve is the cols x cols Gram matrix
    import relsyn.solver as solver

    shapes = []
    original = solver._solve_gram

    def spy(G, c):
        shapes.append(np.shape(G))
        return original(G, c)

    monkeypatch.setattr(solver, "_solve_gram", spy)
    solve_ring_circulant(6, 0.4, 16)
    solve(build_ring_problem(4, 0.4, horizon_q=6))
    assert len(shapes) == 2
    assert all(rows == cols for rows, cols in shapes)


def reference_gram(L, inputs, delays):
    """G = A'A and A'b entry by entry: columns a, b with delays
    k_a <= k_b read L(k_b - k_a)[e_a, e_b]."""
    tgt = L.shape[1] - 1
    ka, kb = delays[:, None], delays[None, :]
    ea, eb = inputs[:, None], inputs[None, :]
    a_first = ka <= kb
    e1 = np.where(a_first, ea, eb)
    e2 = np.where(a_first, eb, ea)
    return L[np.abs(ka - kb), e1, e2], -L[delays, tgt, inputs]


def _gram_calls(monkeypatch, run):
    """(L, inputs, delays, G, c) of every Gram assembly in run()."""
    import relsyn.solver as solver

    calls = []
    original = solver._gram_system

    def spy(L, inputs, delays):
        G, c = original(L, inputs, delays)
        calls.append((L, inputs, delays, G, c))
        return G, c

    monkeypatch.setattr(solver, "_gram_system", spy)
    run()
    return calls


@pytest.mark.parametrize("case", ["general", "ring5", "ring8"])
def test_gram_assembly_matches_reference(monkeypatch, rng, case):
    if case == "general":
        prob = consensus_problem(rand_connected_c2(rng, 5, extra_edges=2), 0.2, 8)
        calls = _gram_calls(monkeypatch, lambda: solve(prob))
    else:
        n = int(case[4:])
        calls = _gram_calls(monkeypatch, lambda: solve_ring_circulant(n, 0.4, 32))
    assert len(calls) == 1
    L, inputs, delays, G, c = calls[0]
    assert len(set(delays.tolist())) > 1  # off-diagonal blocks are exercised
    G_ref, c_ref = reference_gram(L, inputs, delays)
    assert np.abs(G - G_ref).max() <= 1e-13 * np.abs(G_ref).max()
    assert np.abs(c - c_ref).max() <= 1e-13 * np.abs(c_ref).max()


def test_pair_responses_match_fir_composition(rng):
    prob = consensus_problem(rand_connected_c2(rng, 4, extra_edges=1), 0.3, 4)
    yd, T = prob.yd, 12
    l, n = yd.plant.n_ctrl, yd.plant.n_states
    F2, F3 = markov(yd.t2_stable, T), markov(yd.t3_projected, T)
    H = markov(_pair_responses(yd), T).taps
    nz, nw = F2.n_outputs, F3.n_inputs
    for i in range(l):
        for j in range(n):
            unit = np.zeros((1, l, n))
            unit[0, i, j] = 1.0
            ref = fir_compose(fir_compose(F2, FirSystem(unit), horizon=T), F3, horizon=T)
            # output w * nz + z is entry (z, w): vec in column-major order
            got = H[:, :, j * l + i].reshape(T + 1, nw, nz).transpose(0, 2, 1)
            assert np.abs(got - ref.taps).max() <= 1e-12 * max(np.abs(ref.taps).max(), 1.0)


def test_general_solution_satisfies_compiled_constraints(rng):
    # the public compiler is an oracle independent of the solver's masks
    prob = consensus_problem(rand_connected_c2(rng, 6, extra_edges=2), 0.4, 6)
    res = solve(prob)
    cs = compile_constraints(prob.structure, prob.ms.indicators, prob.horizon_q)
    assert cs.satisfied_by(res.q_opt, tol=1e-10)
    assert np.abs(res.q_opt.taps).max() > 0.0


def test_stein_system_keeps_its_size(monkeypatch, rng):
    # the general basis realizes (I (x) T2)(T3' (x) I): the 3n(n-1) order
    # does not enter the solve; a consensus problem and the ring take the
    # eigenbasis route and no Stein solve
    import relsyn.solver as solver

    sizes = []
    original = solver._lags

    def spy(basis, target, K):
        sizes.append(basis.n_states)
        return original(basis, target, K)

    monkeypatch.setattr(solver, "_lags", spy)
    C2 = rand_connected_c2(rng, 5, extra_edges=2)
    solve(consensus_problem(C2, 0.2, 8))
    assert sizes == []
    prob = consensus_problem(C2, 0.2, 8, b2=actuator_gains(5))
    solve(prob)
    solve_ring_circulant(12, 0.4, 32)
    t2, t3 = prob.yd.t2_stable, prob.yd.t3_projected
    assert sizes == [t3.n_states * t2.n_inputs + t3.n_inputs * t2.n_states]


class TestSolveGram:
    def test_well_conditioned_system_takes_cholesky(self, rng, monkeypatch):
        import relsyn.solver as solver

        def no_fallback(A, b):
            raise AssertionError("fell back to least_squares")

        monkeypatch.setattr(solver, "least_squares", no_fallback)
        M = rng.normal(size=(6, 6))
        G, c = M.T @ M + np.eye(6), rng.normal(size=6)
        sol = _solve_gram(G, c)
        assert np.abs(sol.x - np.linalg.solve(G, c)).max() <= 1e-12
        assert (sol.rank, sol.rank_deficient) == (6, False)
        assert sol.residual == pytest.approx(np.linalg.norm(G @ sol.x - c))

    def test_tiny_pivot_falls_back_to_least_squares(self):
        # Cholesky succeeds here with a pivot of 7.5e-9, but the condition
        # estimate (4.6e-17) is far below cols * eps
        G, c = np.array([[0.3, 0.3], [0.3, 0.3]]), np.array([1.0, 2.0])
        got, want = _solve_gram(G, c), least_squares(G, c)
        assert got.rank_deficient
        assert np.array_equal(got.x, want.x)
        assert (got.residual, got.gradient_norm, got.rank, got.rank_deficient) == (
            want.residual,
            want.gradient_norm,
            want.rank,
            want.rank_deficient,
        )

    def test_zero_gram_gives_minimal_norm_zero(self):
        sol = _solve_gram(np.zeros((3, 3)), np.ones(3))
        assert np.array_equal(sol.x, np.zeros(3))
        assert (sol.rank, sol.rank_deficient) == (0, True)

    def test_empty_system(self):
        sol = _solve_gram(np.zeros((0, 0)), np.zeros(0))
        assert sol.x.shape == (0,)
        assert not sol.rank_deficient
