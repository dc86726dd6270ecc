"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is fixed, not calibrated.
"""

import time

import numpy as np
import pytest

from relsyn import (
    DecompositionError,
    FirSystem,
    StateSpace,
    build_ring_problem,
    build_tilde_plant,
    close_loop,
    fir_add,
    fir_compose,
    h2_norm_fir,
    h2_norm_lyap,
    laplacian_rnom,
    make_t_systems,
    markov,
    membership,
    q_from_r,
    r_from_q,
    recover_controller,
    ring_adjacency,
    ring_plant,
    series,
    solve,
    solve_ring_circulant,
    validate_c2,
)
from relsyn.bench import (
    run_motivating_example,
    simulate_closed_loop,
    verify_synthesis,
)
from relsyn.solver import _free_columns
from conftest import (
    ORACLE_HORIZON,
    rand_connected_c2,
    rand_relative_fir,
    rand_relative_fir_exact,
    rand_schur,
)


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_qi_verdicts():
    t0 = time.perf_counter()
    rep = run_motivating_example()
    rep2 = run_motivating_example()
    elapsed = time.perf_counter() - t0
    ok = (
        rep.qi_output_feedback is False
        and rep.qi_certificate is not None
        and rep.qi_state_feedback is True
        and rep.qi_certificate == rep2.qi_certificate
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"QI verdicts (False with quadruple {rep.qi_certificate}, True), "
        f"deterministic, {elapsed:.3f}s < 1s",
    )


def test_criterion_2_recovery_roundtrip():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        ms = validate_c2(rand_connected_c2(rng, n, extra_edges=int(rng.integers(0, 3))))
        l = int(rng.integers(1, 4))
        horizon = int(rng.integers(0, 11))
        R = rand_relative_fir(rng, ms, l, horizon)
        K = recover_controller(R, ms)
        prod = fir_compose(K, FirSystem(ms.c2[np.newaxis]), horizon=horizon)
        worst = max(worst, float(np.abs(prod.taps - R.taps).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(
        2,
        ok,
        f"200 recovery round trips, max |K C2 - R| = {worst:.2e} <= 1e-9, "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_3_decomposition_gate():
    rng = np.random.default_rng(3)
    ms = validate_c2(
        np.array([[1.0, 0, -1, 0, 0], [0, -1, 0, 1, 0]])
    )
    R = rng.normal(size=(1, 5))
    for comp in ms.components[:2]:
        cols = list(comp)
        R[:, cols] -= R[:, cols].mean(axis=1, keepdims=True)
    assert R[0, 4] != 0.0
    rejected = False
    try:
        recover_controller(R, ms)
    except DecompositionError as exc:
        rejected = exc.component == 2
    fixed = R.copy()
    fixed[0, 4] = 0.0
    K = recover_controller(fixed, ms)
    err = float(np.abs(K @ ms.c2 - fixed).max())
    ok = rejected and err <= 1e-12
    _report(
        3,
        ok,
        f"nonzero isolated column rejected naming component 3; after "
        f"zeroing it with relative blocks, recovery error {err:.2e}",
    )


def test_criterion_4_parameter_equivalence():
    rng = np.random.default_rng(4)
    plant = ring_plant(3, 0.5)
    tilde = build_tilde_plant(plant)
    ms = validate_c2(plant.C2)
    yd = make_t_systems(tilde, laplacian_rnom(ring_adjacency(3)), ms)
    ones = np.ones(3)
    worst_fwd = worst_bwd = 0.0
    t0 = time.perf_counter()
    # the parameterized map may be an unstable system, which amplifies any
    # floating row-sum defect of Q; the hypothesis of the equivalence is
    # Q 1 = 0 exactly, so the draws satisfy it exactly in floating point
    for _ in range(100):
        Q = rand_relative_fir_exact(rng, ms, 3, int(rng.integers(0, 9)))
        R = r_from_q(yd, Q)
        worst_fwd = max(worst_fwd, float(np.abs(markov(R, 12).taps @ ones).max()))
        Q2 = q_from_r(yd, R)
        worst_bwd = max(worst_bwd, float(np.abs(markov(Q2, 12).taps @ ones).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_fwd <= 1e-9 and worst_bwd <= 1e-9
    _report(
        4,
        ok,
        f"100 ring trials: forward indicator residual {worst_fwd:.2e}, "
        f"inverse {worst_bwd:.2e}, both <= 1e-9 ({elapsed:.2f}s)",
    )


def test_criterion_5_h2_agreement():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        sys = rand_schur(rng, n, m, p, rho=float(rng.uniform(0.2, 0.9)))
        lyap = h2_norm_lyap(sys)
        fir = h2_norm_fir(markov(sys, 500))
        worst = max(worst, abs(lyap - fir) / (1.0 + lyap))
    ok = worst <= 1e-8
    _report(
        5,
        ok,
        f"100 random Schur systems, max scaled |lyap - fir(500)| = "
        f"{worst:.2e} <= 1e-8",
    )


def test_criterion_6_solver_oracle():
    t0 = time.perf_counter()
    prob = build_ring_problem(3, 0.5, horizon_q=8)
    res = solve(prob)

    # brute-force dense quadratic program: enumerate the free coefficients,
    # assemble the normal equations from explicit FIR composition, solve
    yd = prob.yd
    T_J = ORACLE_HORIZON
    F1 = markov(yd.t1_stable, T_J)
    F2 = markov(yd.t2_stable, T_J)
    F3 = markov(yd.t3_projected, T_J)
    pairs, inputs, delays = _free_columns(prob.structure, prob.ms.indicators, 8)
    cols = []
    for k, (i, j, dep) in zip(delays, pairs[inputs]):
        d = np.zeros((9, 3, 3))
        d[k, i, j] = 1.0
        d[k, i, dep] = -1.0
        contrib = fir_compose(fir_compose(F2, FirSystem(d), horizon=T_J), F3, horizon=T_J)
        cols.append(contrib.taps.reshape(-1))
    G = np.column_stack(cols)
    t = -F1.taps.reshape(-1)
    x_qp = np.linalg.solve(G.T @ G, G.T @ t)
    J_qp = float(np.linalg.norm(G @ x_qp - t))

    res_circ = solve_ring_circulant(3, 0.5, horizon_q=8)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(J_qp - res.objective) <= 1e-8
        and abs(res_circ.objective - res.objective) <= 1e-6
        and elapsed < 5.0
    )
    _report(
        6,
        ok,
        f"J = {res.objective:.9f}; |J - QP oracle| = "
        f"{abs(J_qp - res.objective):.2e} <= 1e-8; |J - circulant| = "
        f"{abs(res_circ.objective - res.objective):.2e} <= 1e-6; "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_7_end_to_end_equivalence():
    prob = build_ring_problem(3, 0.5, horizon_q=8)
    res = solve(prob)
    yd = prob.yd
    horizon = 300
    matched = fir_add(
        markov(yd.t1_stable, horizon),
        fir_compose(
            fir_compose(markov(yd.t2_stable, horizon), res.q_opt.padded(horizon), horizon=horizon),
            markov(yd.t3_projected, horizon),
            horizon=horizon,
        ),
    )
    plant = ring_plant(3, 0.5)
    ms = validate_c2(plant.C2)
    R_equiv = series(res.k_opt.to_statespace(), StateSpace.static_gain(ms.c2))
    cl = close_loop(plant, R_equiv)
    lhs = h2_norm_fir(matched)
    rhs = h2_norm_fir(markov(cl, horizon))
    ok = abs(lhs - rhs) <= 1e-6
    _report(
        7,
        ok,
        f"|H2(T1 + T2 Q T3) - H2(closed loop under K)| = {abs(lhs - rhs):.2e} "
        f"<= 1e-6 at horizon {horizon}",
    )


def test_criterion_8_constraint_fidelity():
    worst_violation = 0.0
    all_member = True
    for n, gamma in ((3, 0.5), (4, 0.4), (5, 0.2), (6, 0.3)):
        prob = build_ring_problem(n, gamma, horizon_q=8)
        res = solve_ring_circulant(n, gamma, horizon_q=8)
        checks = verify_synthesis(prob, res)
        all_member = all_member and checks["q_member"] and checks["k_member"]
        worst_violation = max(worst_violation, checks["constraint_violation"])
        ks = np.arange(res.q_opt.horizon + 1)[:, None, None]
        forbidden = ks < prob.structure.min_delay[None]
        all_member = all_member and bool(np.all(res.q_opt.taps[forbidden] == 0.0))
    rep = run_motivating_example()
    all_member = all_member and rep.controller_in_structure
    ok = all_member and worst_violation <= 1e-12
    _report(
        8,
        ok,
        f"all synthesized Q, K pass membership exactly; max indicator tap "
        f"sum {worst_violation:.2e} <= 1e-12",
    )


def test_criterion_9_sweep_trend():
    t0 = time.perf_counter()
    monotone = True
    detail = []
    for gamma in (0.2, 0.4, 0.5):
        prev = None
        for n in range(3, 13):
            J = solve_ring_circulant(n, gamma, horizon_q=32).objective
            Jn = J / n
            if prev is not None and Jn > prev + 1e-9:
                monotone = False
                detail.append(f"gamma={gamma} n={n} rose to {Jn:.9f}")
            prev = Jn
    doubling = [
        solve_ring_circulant(3, 0.5, horizon_q=tq).objective for tq in (16, 32, 64)
    ]
    doubling_ok = all(b <= a + 1e-9 for a, b in zip(doubling, doubling[1:]))
    elapsed = time.perf_counter() - t0
    ok = monotone and doubling_ok and elapsed < 60.0
    _report(
        9,
        ok,
        f"J/n non-increasing over n in 3..12 for gamma in {{0.2, 0.4, 0.5}}; "
        f"J({16},{32},{64}) = {[round(j, 9) for j in doubling]} non-increasing; "
        f"{elapsed:.1f}s < 60s" + ("; ".join(detail) if detail else ""),
    )


def test_criterion_10_monte_carlo():
    t0 = time.perf_counter()
    res = solve_ring_circulant(3, 0.5, horizon_q=8)
    plant = ring_plant(3, 0.5)
    ms = validate_c2(plant.C2)
    steps = 100_000
    rec = simulate_closed_loop(plant, res.k_opt, ms, steps=steps, seed=10)
    energies = (rec.z**2).sum(axis=1)
    emp = float(energies.mean())
    # 99% confidence interval via batch means (the energy sequence is
    # autocorrelated, so batches of 1000 stand in for independent draws)
    batches = energies.reshape(100, -1).mean(axis=1)
    half_width = 2.5758 * batches.std(ddof=1) / np.sqrt(len(batches))
    elapsed = time.perf_counter() - t0
    ok = (
        not rec.diverged
        and abs(emp - res.objective**2) <= half_width
        and elapsed < 30.0
    )
    _report(
        10,
        ok,
        f"empirical E||z||^2 = {emp:.6f} vs J^2 = {res.objective**2:.6f} "
        f"(99% half-width {half_width:.6f}); {elapsed:.1f}s < 30s",
    )
