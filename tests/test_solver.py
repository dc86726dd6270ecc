"""Least-squares synthesis: oracles, fast path and optimality certificates."""

import math

import numpy as np
import pytest
import scipy.linalg

from relsyn import (
    DomainError,
    FirSystem,
    InfoStructure,
    Plant,
    StateSpace,
    StructureViolationError,
    SynthesisProblem,
    build_ring_problem,
    build_tilde_plant,
    circulant_reduce,
    close_loop,
    fir_add,
    fir_compose,
    h2_norm_fir,
    h2_norm_lyap,
    least_squares,
    make_t_systems,
    markov,
    membership,
    r_from_q,
    recovered_r_fir,
    ring_plant,
    series,
    solve,
    solve_ring_circulant,
    validate_c2,
)
from relsyn.solver import _free_columns

from conftest import ORACLE_HORIZON, brute_force_objective, eliminate_q0


def objective_value(prob, Q: FirSystem) -> float:
    """Independent objective evaluator: H2 norm of the matched map
    assembled by plain FIR composition over ORACLE_HORIZON taps."""
    T_J = ORACLE_HORIZON
    yd = prob.yd
    matched = fir_add(
        markov(yd.t1_stable, T_J),
        fir_compose(
            fir_compose(markov(yd.t2_stable, T_J), Q, horizon=T_J),
            markov(yd.t3_projected, T_J),
            horizon=T_J,
        ),
    )
    return h2_norm_fir(matched)


class TestLeastSquares:
    def test_identity(self, rng):
        b = rng.normal(size=5)
        res = least_squares(np.eye(5), b)
        assert np.abs(res.x - b).max() < 1e-14
        assert res.residual < 1e-14

    def test_consistent_overdetermined(self, rng):
        A = rng.normal(size=(20, 5))
        x_true = rng.normal(size=5)
        res = least_squares(A, A @ x_true)
        assert res.residual <= 1e-12
        assert not res.rank_deficient

    def test_gradient_norm_small(self, rng):
        A = rng.normal(size=(200, 50))
        b = rng.normal(size=200)
        res = least_squares(A, b)
        assert res.gradient_norm <= 1e-9 * np.linalg.norm(A) * np.linalg.norm(b)

    def test_rank_deficient_minimal_norm(self, rng):
        A = np.zeros((4, 2))
        A[:, 0] = 1.0
        b = np.ones(4)
        res = least_squares(A, b)
        assert res.rank_deficient
        assert abs(res.x[1]) < 1e-12  # minimal-norm choice zeroes the null direction
        assert res.x[0] == pytest.approx(1.0)


class TestEliminateQ0:
    def test_n3_display(self):
        M = eliminate_q0(3)
        assert M.horizon == 1
        assert np.abs(M.taps[0]).max() == 0.0
        assert M.taps[1].tolist() == [[-1.0, -1.0], [0.0, 1.0], [1.0, 0.0]]

    def test_n2(self):
        M = eliminate_q0(2)
        assert M.taps[1].tolist() == [[-1.0], [1.0]]
        assert np.abs(M.taps[0]).max() == 0.0

    def test_column_sums_vanish(self):
        for n in (2, 3, 4, 5, 8):
            M = eliminate_q0(n)
            assert np.abs(M.taps.sum(axis=1)).max() == 0.0

    def test_delays_follow_ring_distance(self):
        M = eliminate_q0(5)
        # parameter for offset 2 acts through z^-2
        assert M.taps[2, 0, 1] == -1.0
        assert M.taps[2, 3, 1] == 1.0
        assert M.taps[1, 0, 1] == 0.0


class TestCirculantReduce:
    """The dihedral map: one symmetric circulant direction per ring
    distance d = 1..floor(n/2), with taps from d up to horizon_q."""

    def test_first_column_arrangement_n3(self):
        # n = 3 has one ring distance: ones off the diagonal, -2 on it
        dirs, inputs, delays = circulant_reduce(build_ring_problem(3, 0.5, horizon_q=4))
        assert dirs.shape == (1, 3, 3)
        assert delays.tolist() == [1, 2, 3, 4]
        assert inputs.tolist() == [0, 0, 0, 0]
        assert dirs[0][:, 0].tolist() == [-2.0, 1.0, 1.0]
        assert dirs[0][:, 0].sum() == 0.0

    def test_first_column_arrangement_n2(self):
        dirs, inputs, delays = circulant_reduce(build_ring_problem(2, 0.5, horizon_q=4))
        assert dirs.shape == (1, 2, 2)
        assert delays.tolist() == [1, 2, 3, 4]
        assert dirs[0][:, 0].tolist() == [-1.0, 1.0]

    def test_offsets_past_the_horizon_have_no_direction(self):
        # n = 8 has ring distances 1..4; only 1 and 2 are within horizon 2
        dirs, inputs, delays = circulant_reduce(build_ring_problem(8, 0.3, horizon_q=2))
        assert len(dirs) == 2
        assert [delays[inputs == a].tolist() for a in range(2)] == [[1, 2], [2]]
        for d, direction in zip((1, 2), dirs):
            assert np.array_equal(direction, direction.T)
            assert direction[:, 0].tolist() == [-2.0] + [
                1.0 if min(i, 8 - i) == d else 0.0 for i in range(1, 8)
            ]

    def test_non_circulant_rejected(self):
        from relsyn.bench import triangular_plant
        from relsyn.youla import make_t_systems, build_tilde_plant

        plant = triangular_plant(4)
        ms = validate_c2(plant.C2)
        yd = make_t_systems(build_tilde_plant(plant), StateSpace.static_gain(np.zeros((4, 4))), ms)
        prob = SynthesisProblem(
            yd=yd,
            structure=InfoStructure.from_sparsity(np.triu(np.ones((4, 4)))),
            ms=ms,
            horizon_q=4,
        )
        with pytest.raises(StructureViolationError):
            circulant_reduce(prob)


class TestSolve:
    def test_t2_zero_selects_minimal_norm(self):
        plant = Plant(
            A=0.5 * np.eye(2),
            B1=np.eye(2),
            B2=np.zeros((2, 1)),
            C1=np.array([[1.0, -1.0]]),
            D12=np.zeros((1, 1)),
            C2=np.array([[1.0, -1.0]]),
        )
        ms = validate_c2(plant.C2)
        yd = make_t_systems(
            build_tilde_plant(plant), StateSpace.static_gain(np.zeros((1, 2))), ms
        )
        prob = SynthesisProblem(
            yd=yd, structure=InfoStructure.unrestricted(1, 2), ms=ms, horizon_q=4
        )
        res = solve(prob)
        assert np.abs(res.q_opt.taps).max() == 0.0
        assert res.rank_deficient
        assert res.objective == pytest.approx(h2_norm_lyap(yd.t1_stable), abs=1e-12)

    def test_matches_brute_force_quadratic_program(self):
        prob = build_ring_problem(3, 0.5, horizon_q=8)
        res = solve(prob)
        assert abs(brute_force_objective(prob) - res.objective) <= 1e-8

    def test_matches_circulant_path(self):
        res_full = solve(build_ring_problem(3, 0.5, horizon_q=8))
        res_circ = solve_ring_circulant(3, 0.5, horizon_q=8)
        assert abs(res_full.objective - res_circ.objective) <= 1e-6

    def test_qi_precondition_enforced(self):
        from relsyn.bench import local_sensor_structure, triangular_plant

        plant = triangular_plant(4)
        ms = validate_c2(plant.C2)
        yd = make_t_systems(
            build_tilde_plant(plant), StateSpace.static_gain(np.zeros((4, 4))), ms
        )
        lower = InfoStructure.from_sparsity(np.tril(np.ones((4, 4)), -1) + np.eye(4))
        with pytest.raises(StructureViolationError):
            SynthesisProblem(yd=yd, structure=lower, ms=ms, horizon_q=4)

    def test_measurement_structure_must_be_the_t_systems_own(self):
        # T systems on two pairs {x0, x1}, {x2, x3}; a connected chain
        # passed as ms would constrain Q and recover K (4 x 3, against 2
        # sensors) for the wrong components, and the loop that its Q gives
        # is not stable
        from relsyn import laplacian_rnom

        C2 = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        ms = validate_c2(C2)
        V = ms.disagreement_basis()
        plant = Plant(
            A=np.eye(4),
            B1=np.eye(4),
            B2=np.eye(4),
            C1=np.vstack([0.6 * V @ V.T, np.zeros((4, 4))]),
            D12=np.vstack([np.zeros((4, 4)), 0.4 * np.eye(4)]),
            C2=C2,
        )
        yd = make_t_systems(build_tilde_plant(plant), laplacian_rnom(ms.adjacency), ms)
        chain = validate_c2(np.eye(3, 4) - np.eye(3, 4, 1))
        structure = InfoStructure.unrestricted(4, 4)
        with pytest.raises(DomainError, match="measurement structure differs"):
            SynthesisProblem(yd=yd, structure=structure, ms=chain, horizon_q=8)
        res = solve(SynthesisProblem(yd=yd, structure=structure, ms=ms, horizon_q=8))
        assert res.k_opt.n_inputs == 2


class TestRingCirculant:
    def test_gamma_one_pure_effort(self):
        # the nominal is deadbeat on disagreement for n = 3 and no delayed
        # correction can reach the only nonzero tap, so q = 0 and the cost
        # is the nominal effort sqrt(2) (= gamma ||L/3||_F)
        res = solve_ring_circulant(3, 1.0, horizon_q=8)
        assert np.abs(res.q_opt.taps).max() <= 1e-12
        assert res.objective == pytest.approx(np.sqrt(2.0), abs=1e-12)
        full = solve(build_ring_problem(3, 1.0, horizon_q=8))
        assert abs(full.objective - res.objective) <= 1e-9

    def test_gamma_zero_free_control(self):
        res = solve_ring_circulant(3, 0.0, horizon_q=8)
        full = solve(build_ring_problem(3, 0.0, horizon_q=8))
        assert abs(full.objective - res.objective) <= 1e-9

    def test_no_free_column_returns_the_nominal(self):
        # horizon_q = 0 is shorter than every ring distance: both column
        # maps are empty, Q = 0 and J is the nominal's ||T1||
        ring = solve_ring_circulant(5, 0.4, 0)
        prob = build_ring_problem(5, 0.4, 0)
        full = solve(prob)
        nominal = h2_norm_lyap(prob.yd.t1_stable)
        for res in (ring, full):
            assert np.abs(res.q_opt.taps).max() == 0.0
            assert res.objective == pytest.approx(nominal, rel=1e-12)
        assert ring.objective == pytest.approx(full.objective, rel=1e-14)

    def test_horizon_convergence(self):
        j16 = solve_ring_circulant(3, 0.5, horizon_q=16).objective
        j32 = solve_ring_circulant(3, 0.5, horizon_q=32).objective
        assert abs(j16 - j32) <= 1e-6

    def test_gamma_out_of_range(self):
        with pytest.raises(DomainError):
            solve_ring_circulant(3, 1.5, 8)

    def test_slow_tail_needs_no_objective_horizon(self):
        # the n = 45 tail would need 32055 taps to fall below 1e-12 of J;
        # the exact objective truncates nothing, so the problem just builds
        prob = build_ring_problem(45, 0.5, 32)
        assert prob.horizon_obj == 32

    def test_recovered_controller_consistency(self):
        res = solve_ring_circulant(4, 0.3, horizon_q=8)
        ms = validate_c2(ring_plant(4, 0.3).C2)
        kc2 = fir_compose(res.k_opt, FirSystem(ms.c2[np.newaxis]))
        r_taps = recovered_r_fir(res.yd, res.q_opt, kc2.horizon).taps
        assert np.abs(kc2.taps - r_taps).max() <= 1e-8


class TestOneRingRoute:
    """The ring reaches the kernel through `solve` alone: its symmetry
    search finds the dihedral group, and the result is the hand-built
    dihedral map's, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 8, 12])
    @pytest.mark.parametrize("gamma", [0.2, 0.5])
    def test_bitwise_equal_to_the_dihedral_map(self, n, gamma):
        from relsyn.solver import _solve_columns

        prob = build_ring_problem(n, gamma, 32)
        want = _solve_columns(prob, *circulant_reduce(prob))
        got = solve_ring_circulant(n, gamma, 32)
        assert got.objective == want.objective
        assert np.array_equal(got.q_opt.taps, want.q_opt.taps)
        assert np.array_equal(got.k_opt.taps, want.k_opt.taps)

    def test_never_calls_circulant_reduce(self, monkeypatch):
        # the traced benchmark counts horizon_obj on both solve and
        # circulant_reduce; a ring solve must pass only the first
        from relsyn import solver

        def forbidden(prob):
            raise AssertionError("circulant_reduce called on a solve path")

        calls = []
        real = solver.solve
        monkeypatch.setattr(solver, "circulant_reduce", forbidden)
        monkeypatch.setattr(solver, "solve", lambda prob: calls.append(1) or real(prob))
        solve_ring_circulant(6, 0.4, 8)
        assert calls == [1]


class TestStableMapsStayLazy:
    """The eigenbasis route never reads the stable T systems, so a solve
    on it never strips the agreement modes."""

    @staticmethod
    def _count_drops(monkeypatch):
        from relsyn import youla

        calls = []
        real = youla.drop_invariant_subspace
        monkeypatch.setattr(
            youla, "drop_invariant_subspace", lambda *a: calls.append(1) or real(*a)
        )
        return calls

    def test_built_once_on_first_access(self, monkeypatch):
        calls = self._count_drops(monkeypatch)
        yd = build_ring_problem(4, 0.4, 8).yd
        assert calls == []
        assert yd.t1_stable is yd.t1_stable
        assert calls == [1]

    def test_ring_and_path_solves_drop_nothing(self, monkeypatch):
        from conftest import consensus_problem

        calls = self._count_drops(monkeypatch)
        solve_ring_circulant(8, 0.4, 16)
        path = np.zeros((5, 6))
        path[np.arange(5), np.arange(5)], path[np.arange(5), np.arange(1, 6)] = 1.0, -1.0
        solve(consensus_problem(path, 0.3, 8))
        assert calls == []

    def test_observed_agreement_mode_rejected_by_the_solve(self):
        # the performance output 0.6 x sees the agreement mode, which the
        # Stein route cannot drop; make_t_systems accepts the plant
        from relsyn import laplacian_rnom, ring_adjacency, ring_delay_structure

        ring = ring_plant(6, 0.4)
        C1 = np.vstack([0.6 * np.eye(6), np.zeros((6, 6))])
        plant = Plant(A=ring.A, B1=ring.B1, B2=ring.B2, C1=C1, D12=ring.D12, C2=ring.C2)
        ms = validate_c2(plant.C2)
        yd = make_t_systems(build_tilde_plant(plant), laplacian_rnom(ring_adjacency(6)), ms)
        prob = SynthesisProblem(yd=yd, structure=ring_delay_structure(6), ms=ms, horizon_q=8)
        with pytest.raises(DomainError) as err:
            solve(prob)
        assert type(err.value) is DomainError
        assert str(err.value) == "invariant subspace is observable; cannot be dropped"


class TestFinalize:
    def test_r_taps_match_r_from_q(self):
        # the one route to R's taps agrees with r_from_q's realization
        ring = solve_ring_circulant(6, 0.4, 8)
        general = solve(build_ring_problem(4, 0.3, horizon_q=6))
        for res in (ring, general):
            horizon = res.k_opt.horizon
            R = recovered_r_fir(res.yd, res.q_opt, horizon)
            ref = markov(r_from_q(res.yd, res.q_opt), horizon)
            assert np.abs(R.taps - ref.taps).max() <= 1e-8

    @pytest.mark.parametrize("n, gamma, horizon_q", [(5, 0.4, 8), (8, 0.2, 32)])
    def test_recovered_r_fir_needs_no_padding(self, n, gamma, horizon_q):
        prob = build_ring_problem(n, gamma, horizon_q)
        res = solve_ring_circulant(n, gamma, horizon_q)
        q, horizon = res.q_opt, res.k_opt.horizon
        padded = recovered_r_fir(prob.yd, q.padded(horizon), horizon)
        assert np.array_equal(recovered_r_fir(prob.yd, q, horizon).taps, padded.taps)


class TestInvariants:
    def test_optimality_certificate(self):
        # perturbing any single free coefficient never lowers the exactly
        # recomputed objective (convexity + stationarity)
        prob = build_ring_problem(3, 0.4, horizon_q=6)
        res = solve(prob)
        J0 = objective_value(prob, res.q_opt)
        dirs, inputs, delays = _free_columns(prob.structure, prob.ms.indicators, 6)
        for k, a in zip(delays, inputs):
            for sign in (+1.0, -1.0):
                taps = np.array(res.q_opt.taps)
                taps[k] += sign * 1e-4 * dirs[a]
                assert objective_value(prob, FirSystem(taps)) >= J0 - 1e-9

    def test_constraint_fidelity(self):
        for n, gamma in ((3, 0.4), (5, 0.2)):
            res = solve_ring_circulant(n, gamma, horizon_q=8)
            prob = build_ring_problem(n, gamma, horizon_q=8)
            assert res.constraint_violation <= 1e-12
            assert membership(res.q_opt, prob.structure)
            ks = np.arange(res.q_opt.horizon + 1)[:, None, None]
            forbidden = ks < prob.structure.min_delay[None]
            assert np.all(res.q_opt.taps[forbidden] == 0.0)

    def test_equivalence_chain(self):
        # matched-map norm equals the closed loop on the original
        # output-feedback plant under the recovered controller
        res = solve_ring_circulant(3, 0.5, horizon_q=8)
        plant = ring_plant(3, 0.5)
        ms = validate_c2(plant.C2)
        R_equiv = series(res.k_opt.to_statespace(), StateSpace.static_gain(ms.c2))
        cl = close_loop(plant, R_equiv)
        assert abs(res.objective - h2_norm_fir(markov(cl, 300))) <= 1e-6

    def test_circulant_consistency_small_rings(self):
        for n in (2, 3, 4, 5, 6):
            circ = solve_ring_circulant(n, 0.4, horizon_q=8).objective
            full = solve(build_ring_problem(n, 0.4, horizon_q=8)).objective
            assert abs(circ - full) <= 1e-6

    def test_objective_monotone_in_horizon(self):
        values = [
            solve_ring_circulant(5, 0.3, horizon_q=tq).objective
            for tq in (4, 8, 16, 32)
        ]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9

    def test_objective_matches_lyapunov_norm(self):
        # exact cross-check with no FIR truncation: the H2 norm of the
        # matched map T1 + T2 Q T3, split at Q's last tap; on the three
        # small cases the split norm matches the Gramian norm of one
        # state-space realization of the whole map
        from relsyn import parallel

        # (32, 0.4, 32) pins the digits J keeps on a large ring, where the
        # Gram system is the worst conditioned
        for n, gamma, horizon_q in ((4, 0.3, 8), (6, 0.5, 8), (20, 0.2, 8), (32, 0.4, 32)):
            prob = build_ring_problem(n, gamma, horizon_q=horizon_q)
            res = solve_ring_circulant(n, gamma, horizon_q=horizon_q)
            yd = prob.yd
            norm = h2_norm_split(yd.t1_stable, yd.t2_stable, res.q_opt, yd.t3_projected)
            if n < 32:
                qss = res.q_opt.to_statespace()
                matched = parallel(
                    yd.t1_stable, series(series(yd.t2_stable, qss), yd.t3_projected)
                )
                assert norm == pytest.approx(h2_norm_lyap(matched), rel=1e-10)
            assert res.objective == pytest.approx(norm, abs=1e-8)


def h2_norm_split(t1: StateSpace, t2: StateSpace, q: FirSystem, t3: StateSpace) -> float:
    """Exact H2 norm of T1 + T2 Q T3 without realizing Q's delay line.

    The impulse-response energy is summed directly up to Q's last tap h.
    From tap h + 1 on, every tap of Q reads T3's output after the
    impulse, so Q's delay line is a function of T3's state h taps
    earlier: the map's state is (x1, x2, x3 delayed by h), which
    evolves with T1's, T2's and T3's states only, and the tail is the
    observability Gramian of that system at the flushed state.
    """
    h = q.horizon
    QT3 = fir_compose(q, markov(t3, h), horizon=h)
    head = fir_add(markov(t1, h), fir_compose(markov(t2, h), QT3, horizon=h))
    # for t > h, Q's output at t is q_read @ x3(t - h)
    q_read = sum(
        q.taps[k] @ t3.C @ np.linalg.matrix_power(t3.A, h - k) for k in range(h + 1)
    )
    x2 = np.zeros((t2.n_states, t3.n_inputs))
    for t in range(h + 1):
        x2 = t2.A @ x2 + t2.B @ QT3.taps[t]
    n1, n2 = t1.n_states, t2.n_states
    A = scipy.linalg.block_diag(t1.A, t2.A, t3.A)
    A[n1 : n1 + n2, n1 + n2 :] = t2.B @ q_read
    C = np.hstack([t1.C, t2.C, t2.D @ q_read])
    W = scipy.linalg.solve_discrete_lyapunov(A.T, C.T @ C)
    S = np.vstack([np.linalg.matrix_power(t1.A, h) @ t1.B, x2, t3.B])
    return math.sqrt(float(np.sum(head.taps**2)) + float(np.trace(S.T @ W @ S)))


def _clean_r_fir_loops(r_fir, bound, ms, snap_tol=1e-9):
    """Tap-by-tap, row-by-row cleanup of R's taps: snap sub-tolerance
    entries below the bound to zero, then project each component's row
    sums to zero, so that R is exactly relative and K can be recovered
    from it.  The reference route to K."""
    taps = np.array(r_fir.taps)
    ks = np.arange(taps.shape[0])[:, None, None]
    snap = (ks < bound.min_delay[None, :, :]) & (np.abs(taps) <= snap_tol)
    taps[snap] = 0.0
    for k in range(taps.shape[0]):
        for i in range(taps.shape[1]):
            for comp in ms.components:
                allowed = [
                    j for j in comp if k >= bound.min_delay[i, j] or taps[k, i, j] != 0.0
                ]
                if not allowed:
                    continue
                s = taps[k, i, list(comp)].sum()
                taps[k, i, allowed] -= s / len(allowed)
                s = taps[k, i, list(comp)].sum()
                taps[k, i, allowed[0]] -= s
    return FirSystem(taps)


class TestRecoveryOracle:
    """K recovered once from Q matches K recovered from R's taps after
    the tap-by-tap cleanup of `_clean_r_fir_loops`."""

    @staticmethod
    def _gap(prob, res):
        from relsyn.measurement import recover_controller
        from relsyn.solver import combined_r_structure

        r_fir = recovered_r_fir(prob.yd, res.q_opt, res.k_opt.horizon)
        bound = combined_r_structure(prob.structure, prob.yd)
        oracle = recover_controller(_clean_r_fir_loops(r_fir, bound, prob.ms), prob.ms).taps
        return np.abs(res.k_opt.taps - oracle).max() / max(np.abs(res.k_opt.taps).max(), 1.0)

    def test_k_matches_cleaned_r_route_on_ring_grid(self):
        for n in range(3, 13):
            for gamma in (0.2, 0.4, 0.5):
                prob = build_ring_problem(n, gamma, 32)
                assert self._gap(prob, solve_ring_circulant(n, gamma, 32)) <= 1e-12

    def test_k_matches_cleaned_r_route_on_general_graph(self, rng):
        from conftest import consensus_problem, rand_connected_c2

        # two chords: the sensing graph has surplus sensors beyond a tree
        prob = consensus_problem(rand_connected_c2(rng, 6, extra_edges=2), 0.4, 8)
        assert prob.ms.n_measurements > prob.ms.n_states - 1
        assert self._gap(prob, solve(prob)) <= 1e-12


class TestLargeRings:
    """Rings whose R taps outgrow an absolute relative-ness tolerance:
    K comes from Q, so these return."""

    @pytest.mark.parametrize("n, gamma", [(32, 0.2), (48, 0.4)])
    def test_k_recovers_and_matches_r(self, n, gamma):
        from relsyn.bench import verify_synthesis

        prob = build_ring_problem(n, gamma, 32)
        res = solve_ring_circulant(n, gamma, 32)
        assert verify_synthesis(prob, res)["k_member"]
        r_fir = recovered_r_fir(prob.yd, res.q_opt, res.k_opt.horizon)
        kc2 = fir_compose(res.k_opt, FirSystem(prob.ms.c2[np.newaxis]))
        scale = max(np.abs(r_fir.taps).max(), 1.0)
        assert np.abs(kc2.taps - r_fir.padded(kc2.horizon).taps).max() <= 1e-12 * scale
