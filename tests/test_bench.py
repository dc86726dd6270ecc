"""Experiment runners: worked examples, simulation, sweep and CSV."""

import dataclasses
import importlib.util
import math
import os
import runpy
import sys

import numpy as np
import pytest

from relsyn import (
    DomainError,
    FirSystem,
    fir_compose,
    membership,
    ring_plant,
    solve_ring_circulant,
    validate_c2,
)
from relsyn import bench
from relsyn.bench import (
    CSV_HEADER,
    SweepConfig,
    SweepRow,
    _csv_text,
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
        plant = dataclasses.replace(plant, B1=np.zeros_like(plant.B1))
        ms = validate_c2(plant.C2)
        rec = simulate_closed_loop(plant, res.k_opt, ms, steps=50, seed=1)
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
    def test_empty_rows_header_only(self):
        assert _csv_text([]) == "n,gamma,J,J_per_node,solve_ms,residual\n"

    def test_single_row(self):
        text = _csv_text(
            [SweepRow(n=3, gamma=0.5, J=1.25, J_per_node=1.25 / 3, solve_ms=4.2, residual=1e-12)]
        )
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("3,0.5,1.25,")

    def test_roundtrip_12_digits(self, rng):
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
        header, *lines = _csv_text(rows).splitlines()
        assert header == CSV_HEADER and len(lines) == len(rows)
        fields = ("gamma", "J", "J_per_node", "solve_ms", "residual")
        for a, line in zip(rows, lines):
            n, *values = line.split(",")
            assert a.n == int(n)
            for field, y in zip(fields, values):
                assert float(y) == pytest.approx(getattr(a, field), rel=1e-11)

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        cfg = SweepConfig(n_values=(3,), gamma_values=(0.5,), horizon_q=4, output_path=str(path))
        run_ring_sweep(cfg, render=False)
        raw = path.read_bytes()
        assert raw.count(b"\n") == 2
        assert b"\r" not in raw


class TestSweep:
    def test_rows_and_outputs(self, tmp_path):
        cfg = SweepConfig(
            n_values=(3, 4),
            gamma_values=(0.5,),
            horizon_q=8,
            output_path=str(tmp_path / "sweep.csv"),
        )
        rows, csv_path, script_path, png_path = run_ring_sweep(cfg, render=True)
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
            assert checks["kc2_matches_r"]
            assert checks["constraint_violation"] <= 1e-12

    def test_kc2_match_tolerance_scales_with_r(self, monkeypatch):
        # at (20, 0.2) R's taps reach about 1e6 and K C2 - R keeps only
        # roundoff of that scale, which passes; one entry of K C2 off by
        # 1e-8 of the scale still fails
        prob = build_ring_problem(20, 0.2, horizon_q=32)
        res = solve_ring_circulant(20, 0.2, horizon_q=32)
        assert verify_synthesis(prob, res)["kc2_matches_r"]
        compose = bench.fir_compose

        def perturbed(G, H, horizon=None):
            taps = np.array(compose(G, H, horizon).taps)
            taps[5, 3, 0] += 1e-8 * np.abs(taps).max()
            return FirSystem(taps)

        monkeypatch.setattr(bench, "fir_compose", perturbed)
        assert not verify_synthesis(prob, res)["kc2_matches_r"]

    @pytest.mark.parametrize("n, gamma", [(5, 0.4), (8, 0.2)])
    def test_kc2_match_catches_a_wrong_k(self, n, gamma):
        # K C2 annihilates the indicators for any K, so only the match
        # with R sees a flipped column of K
        prob = build_ring_problem(n, gamma, horizon_q=8)
        res = solve_ring_circulant(n, gamma, horizon_q=8)
        taps = np.array(res.k_opt.taps)
        taps[:, :, 1] *= -1.0
        wrong = dataclasses.replace(res, k_opt=FirSystem(taps))
        assert verify_synthesis(prob, res)["kc2_matches_r"]
        assert not verify_synthesis(prob, wrong)["kc2_matches_r"]


STUB_PYPLOT = """\
calls = []


class _Axes:
    def plot(self, x, y, **kwargs):
        calls.append((kwargs.get("label"), list(x), list(y)))

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


class _Figure:
    def tight_layout(self):
        pass

    def savefig(self, path, **kwargs):
        with open(path, "wb") as fh:
            fh.write(b"stub")


def subplots(*args, **kwargs):
    return _Figure(), _Axes()


def close(fig=None):
    pass
"""


@pytest.fixture
def stub_matplotlib(tmp_path, monkeypatch):
    """A stand-in matplotlib on sys.path whose pyplot records plot calls.

    It leaves sys.modules as it found it, so the tests that take the
    no-matplotlib branch are unaffected."""
    pkg = tmp_path / "stub" / "matplotlib"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("def use(backend):\n    pass\n")
    (pkg / "pyplot.py").write_text(STUB_PYPLOT)
    for name in ("matplotlib", "matplotlib.pyplot"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.syspath_prepend(str(tmp_path / "stub"))
    yield
    for name in ("matplotlib", "matplotlib.pyplot"):
        sys.modules.pop(name, None)


class TestSweepFigure:
    def test_script_draws_next_to_the_csv_from_any_directory(
        self, tmp_path, monkeypatch, capsys, stub_matplotlib
    ):
        real = bench.solve_ring_circulant

        def failing_at_4_half(n, gamma, horizon_q):
            if (n, gamma) == (4, 0.5):
                raise DomainError("injected failure")
            return real(n, gamma, horizon_q=horizon_q)

        monkeypatch.setattr(bench, "solve_ring_circulant", failing_at_4_half)
        (tmp_path / "out").mkdir()
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path)
        cfg = SweepConfig(
            n_values=(3, 4), gamma_values=(0.2, 0.5), horizon_q=8, output_path="out/s.csv"
        )
        rows, csv_path, script_path, png_path = run_ring_sweep(cfg, render=True)
        assert [r.failed for r in rows] == [False, False, False, True]
        assert png_path == os.path.join("out", "s.png")
        assert (tmp_path / "out" / "s.png").exists()
        calls = sys.modules["matplotlib.pyplot"].calls
        # one series per gamma; the failed (4, 0.5) row is skipped
        assert [(label, x) for label, x, _ in calls] == [
            ("gamma = 0.2", [3, 4]),
            ("gamma = 0.5", [3]),
        ]
        assert not any(math.isnan(v) for _, _, y in calls for v in y)

        (tmp_path / "out" / "s.png").unlink()
        calls.clear()
        monkeypatch.chdir(tmp_path / "elsewhere")
        runpy.run_path(str(tmp_path / script_path))
        assert (tmp_path / "out" / "s.png").exists()
        assert not (tmp_path / "elsewhere" / "s.png").exists()
        assert len(calls) == 2
        assert capsys.readouterr().out == ""


class TestSweepConfigValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            SweepConfig(n_values=(), gamma_values=(0.5,), horizon_q=8, output_path="s.csv")

    def test_bad_gamma_rejected(self):
        with pytest.raises(DomainError):
            SweepConfig(n_values=(3,), gamma_values=(1.5,), horizon_q=8, output_path="s.csv")

    def test_small_ring_rejected(self):
        with pytest.raises(DomainError):
            SweepConfig(n_values=(1,), gamma_values=(0.5,), horizon_q=8, output_path="s.csv")
