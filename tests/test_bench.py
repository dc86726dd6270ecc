"""Experiment runners: worked examples, simulation, sweep and CSV."""

import importlib.util
import math
import os

import numpy as np
import pytest

from relsyn import (
    FirSystem,
    fir_compose,
    membership,
    ring_plant,
    solve_ring_circulant,
    validate_c2,
)
from relsyn import bench
from relsyn.bench import (
    SweepConfig,
    SweepRow,
    emit_csv,
    parse_csv,
    run_example_1,
    run_motivating_example,
    run_ring_sweep,
    simulate_closed_loop,
    verify_synthesis,
)
from relsyn.solver import build_ring_problem


class TestMotivatingExample:
    def test_qi_verdicts(self):
        rep = run_motivating_example()
        assert rep.qi_output_feedback is False
        assert rep.qi_certificate is not None
        assert rep.qi_state_feedback is True

    def test_controller_respects_sensor_access(self):
        rep = run_motivating_example()
        assert rep.controller_in_structure
        assert rep.controller_matches_r <= 1e-9
        assert rep.objective > 0.0

    def test_deterministic(self):
        a = run_motivating_example()
        b = run_motivating_example()
        assert a.text == b.text
        assert np.array_equal(a.controller.taps, b.controller.taps)


class TestExample1:
    def test_components_and_rejection(self):
        rep = run_example_1()
        assert rep.components == ((0, 2), (1, 3), (4,))
        assert rep.infeasible_component == 2
        assert rep.feasible_error <= 1e-12
        assert "{1,3}, {2,4}, {5}" in rep.text


class TestSimulation:
    def test_zero_disturbance_zero_trajectories(self):
        res = solve_ring_circulant(3, 0.5, horizon_q=8)
        plant = ring_plant(3, 0.5)
        ms = validate_c2(plant.C2)
        rec = simulate_closed_loop(
            plant, res.k_opt, ms, steps=50, seed=1, disturbance_scale=0.0
        )
        assert not rec.diverged
        assert np.abs(rec.x).max() == 0.0
        assert np.abs(rec.z).max() == 0.0

    def test_positive_feedback_diverges(self):
        # feeding the measured differences back with a positive sign makes
        # the difference dynamics expand by I + 5 C2' C2 each step
        plant = ring_plant(3, 0.5)
        ms = validate_c2(plant.C2)
        K = FirSystem((5.0 * plant.C2.T)[np.newaxis])
        rec = simulate_closed_loop(plant, K, ms, steps=2000, seed=0)
        assert rec.diverged
        assert rec.steps_completed < 2000

    def test_monte_carlo_tracks_analytic_norm(self):
        # n = 6 spot check: the analytic squared norm sits inside the 99%
        # batch-means confidence interval of the empirical energy rate
        res = solve_ring_circulant(6, 0.4, horizon_q=8)
        plant = ring_plant(6, 0.4)
        ms = validate_c2(plant.C2)
        rec = simulate_closed_loop(plant, res.k_opt, ms, steps=100000, seed=7)
        energies = (rec.z**2).sum(axis=1)
        emp = float(energies.mean())
        batches = energies.reshape(100, -1).mean(axis=1)
        half_width = 2.5758 * batches.std(ddof=1) / np.sqrt(len(batches))
        assert abs(emp - res.objective**2) <= half_width

    def test_determinism(self):
        plant = ring_plant(3, 0.5)
        ms = validate_c2(plant.C2)
        K = FirSystem(np.zeros((1, 3, 2)))
        a = simulate_closed_loop(plant, K, ms, steps=100, seed=3)
        b = simulate_closed_loop(plant, K, ms, steps=100, seed=3)
        assert np.array_equal(a.x, b.x)


class TestCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == "n,gamma,J,J_per_node,solve_ms,residual\n"

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(
            [SweepRow(n=3, gamma=0.5, J=1.25, J_per_node=1.25 / 3, solve_ms=4.2, residual=1e-12)],
            path,
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("3,0.5,1.25,")

    def test_roundtrip_12_digits(self, tmp_path, rng):
        rows = [
            SweepRow(
                n=int(n),
                gamma=float(g),
                J=float(j),
                J_per_node=float(j / n),
                solve_ms=float(t),
                residual=float(r),
            )
            for n, g, j, t, r in zip(
                rng.integers(2, 12, 5),
                rng.random(5),
                rng.random(5) * 10,
                rng.random(5) * 100,
                rng.random(5) * 1e-9,
            )
        ]
        path = tmp_path / "rt.csv"
        emit_csv(rows, path)
        back = parse_csv(path)
        for a, b in zip(rows, back):
            assert a.n == b.n
            for field in ("gamma", "J", "J_per_node", "solve_ms", "residual"):
                x, y = getattr(a, field), getattr(b, field)
                assert y == pytest.approx(x, rel=1e-11)

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv([SweepRow(3, 0.5, 1.0, 1 / 3, 1.0, 0.0)], path)
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestSweep:
    def test_rows_and_outputs(self, tmp_path):
        cfg = SweepConfig(
            n_values=(3, 4),
            gamma_values=(0.5,),
            horizon_q=8,
            output_path=str(tmp_path / "sweep.csv"),
        )
        rows, csv_path, script_path, png_path = run_ring_sweep(cfg)
        assert [(r.n, r.gamma) for r in rows] == [(3, 0.5), (4, 0.5)]
        assert os.path.exists(csv_path)
        assert os.path.exists(script_path)
        # matplotlib is an optional extra: the PNG is rendered only when it
        # can be imported, and otherwise none is written.
        expected_png = os.path.splitext(csv_path)[0] + ".png"
        if importlib.util.find_spec("matplotlib") is not None:
            assert png_path == expected_png
            assert os.path.exists(png_path)
        else:
            assert png_path is None
            assert not os.path.exists(expected_png)
        assert not any(r.failed for r in rows)

    def test_determinism_modulo_timing(self, tmp_path):
        def run(name):
            cfg = SweepConfig(
                n_values=(3, 4),
                gamma_values=(0.2, 0.5),
                horizon_q=8,
                output_path=str(tmp_path / name),
            )
            run_ring_sweep(cfg, render=False)
            out = []
            for line in (tmp_path / name).read_text().splitlines():
                cells = line.split(",")
                out.append(",".join(cells[:4] + cells[5:]))  # drop solve_ms
            return "\n".join(out)

        assert run("a.csv") == run("b.csv")

    def test_sweep_row_matches_direct_call(self, tmp_path):
        cfg = SweepConfig(
            n_values=(3,),
            gamma_values=(0.5,),
            horizon_q=8,
            output_path=str(tmp_path / "c.csv"),
        )
        rows, *_ = run_ring_sweep(cfg, render=False)
        direct = solve_ring_circulant(3, 0.5, horizon_q=8)
        assert rows[0].J == direct.objective

    def test_synthesized_controllers_verify(self):
        for n, gamma in ((3, 0.5), (5, 0.2)):
            prob = build_ring_problem(n, gamma, horizon_q=8)
            res = solve_ring_circulant(n, gamma, horizon_q=8)
            checks = verify_synthesis(prob, res)
            assert checks["q_member"]
            assert checks["k_member"]
            assert checks["kc2_relative"]
            assert checks["constraint_violation"] <= 1e-12


class TestSweepConfigValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(Exception):
            SweepConfig(n_values=(), gamma_values=(0.5,))

    def test_bad_gamma_rejected(self):
        with pytest.raises(Exception):
            SweepConfig(n_values=(3,), gamma_values=(1.5,))

    def test_small_ring_rejected(self):
        with pytest.raises(Exception):
            SweepConfig(n_values=(1,), gamma_values=(0.5,))
