"""Command-line surface: every subcommand through its main entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relsyn import (
    InfoStructure,
    Plant,
    laplacian_rnom,
    ring_adjacency,
    ring_delay_structure,
    ring_plant,
    solve_ring_circulant,
)
from relsyn import cli, fileio
from relsyn.bench import all_pairs_sensing, triangular_plant
from relsyn.cli import main


def plant_bundle(tmp_path, plant, keys):
    """p.bundle over p.plant and the ring delay structure s.struct,
    followed by the lines `keys`."""
    fileio.write_plant(tmp_path / "p.plant", plant)
    fileio.write_structure(tmp_path / "s.struct", ring_delay_structure(plant.n_states))
    bundle = tmp_path / "p.bundle"
    bundle.write_text("plant = p.plant\nstructure = s.struct\n" + keys)
    return bundle


def test_graph_json(tmp_path, capsys):
    c2 = tmp_path / "c2.mat"
    fileio.write_matrix(c2, np.array([[1.0, 0, -1, 0, 0], [0, -1, 0, 1, 0]]))
    assert main(["graph", str(c2)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["components"] == [[1, 3], [2, 4], [5]]
    assert doc["indexing"] == "1-based"
    assert len(doc["indicators"]) == 3


def test_qi_yu_and_xu(tmp_path, capsys):
    plant = triangular_plant(4)
    plant_path = tmp_path / "plant.plant"
    fileio.write_plant(plant_path, plant)

    from relsyn.bench import local_sensor_structure

    s_path = tmp_path / "s.struct"
    fileio.write_structure(s_path, local_sensor_structure(4))
    assert main(["qi", str(s_path), str(plant_path)]) == 0
    out = capsys.readouterr().out
    assert "no" in out
    assert "violating quadruple" in out

    uptri = tmp_path / "uptri.struct"
    fileio.write_structure(uptri, InfoStructure.from_sparsity(np.triu(np.ones((4, 4)))))
    assert main(["qi", str(uptri), str(plant_path), "--map", "xu"]) == 0
    assert "yes" in capsys.readouterr().out


def test_solve_ring_bundle(tmp_path, capsys):
    bundle = tmp_path / "ring.bundle"
    bundle.write_text("ring = 3\ngamma = 0.5\nhorizon_q = 8\n")
    assert main(["solve", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert "n=3 gamma=0.5 J=1 " in out
    q = fileio.read_fir(tmp_path / "ring_q_opt.fir")
    k = fileio.read_fir(tmp_path / "ring_k_opt.fir")
    assert q.n_outputs == 3 and q.n_inputs == 3
    assert k.n_outputs == 3 and k.n_inputs == 2


def test_solve_large_ring_bundle(tmp_path, capsys):
    # R's taps on this ring reach 8.5e9, past any absolute tolerance on
    # their row sums; K is recovered from Q and written all the same
    bundle = tmp_path / "big.bundle"
    bundle.write_text("ring = 32\ngamma = 0.2\n")
    assert main(["solve", str(bundle)]) == 0
    assert "n=32 gamma=0.2 " in capsys.readouterr().out
    k = fileio.read_fir(tmp_path / "big_k_opt.fir")
    assert k.n_outputs == 32 and k.n_inputs == 31


def test_solve_general_bundle(tmp_path, capsys):
    plant = ring_plant(3, 0.5)
    fileio.write_plant(tmp_path / "p.plant", plant)
    fileio.write_matrix(tmp_path / "c2.mat", plant.C2)
    from relsyn import ring_delay_structure

    fileio.write_structure(tmp_path / "s.struct", ring_delay_structure(3))
    bundle = tmp_path / "gen.bundle"
    bundle.write_text(
        "plant = p.plant\nc2 = c2.mat\nstructure = s.struct\n"
        "laplacian = true\ngamma = 0.5\nhorizon_q = 8\n"
    )
    assert main(["solve", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert "J=1 " in out or "J=0.99999" in out


def test_ring_sweep_cli(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert (
        main(
            [
                "ring-sweep",
                "--n",
                "3..4",
                "--gamma",
                "0.5",
                "--horizon-q",
                "8",
                "--out",
                str(out_csv),
                "--no-plot",
            ]
        )
        == 0
    )
    assert out_csv.exists()
    assert (tmp_path / "sweep_plot.py").exists()
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,gamma,J,J_per_node,solve_ms,residual"
    assert len(lines) == 3


def test_negative_sweep_horizon_is_a_typed_error(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    argv = ["ring-sweep", "--n", "3", "--horizon-q", "-1", "--out", str(out_csv)]
    assert main(argv + ["--no-plot"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "horizon_q" in err
    assert not out_csv.exists()


def test_simulate_cli(tmp_path, capsys):
    bundle = tmp_path / "ring.bundle"
    bundle.write_text("ring = 3\ngamma = 0.5\nhorizon_q = 8\n")
    assert main(["simulate", str(bundle), "--steps", "5000", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "empirical_E_z2=" in out
    assert "analytic_J2=" in out


def test_negative_simulate_seed_is_a_typed_error(tmp_path, capsys):
    # numpy's generator rejects a negative seed with a bare ValueError
    bundle = tmp_path / "ring.bundle"
    bundle.write_text("ring = 3\ngamma = 0.5\nhorizon_q = 8\n")
    assert main(["simulate", str(bundle), "--steps", "10", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "seed" in err


def test_example_subcommands(capsys):
    assert main(["example", "motivating"]) == 0
    out = capsys.readouterr().out
    assert "QI w.r.t. measured-output map: False" in out
    assert "QI w.r.t. state map: True" in out
    assert main(["example", "example1"]) == 0
    assert "{1,3}, {2,4}, {5}" in capsys.readouterr().out


def test_youla_check(tmp_path, capsys):
    bundle = plant_bundle(tmp_path, ring_plant(3, 0.5), "laplacian = true\n")
    assert main(["youla", "check", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 3

    fileio.write_matrix(tmp_path / "zero.mat", np.zeros((3, 3)))
    bundle.write_text("plant = p.plant\nstructure = s.struct\nrnom = zero.mat\n")
    assert main(["youla", "check", str(bundle)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out  # zero gain does not stabilize the ring

    # no nominal controller to check: a typed error, exit code 1
    bundle.write_text("plant = p.plant\nstructure = s.struct\n")
    assert main(["youla", "check", str(bundle)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {bundle}: name the nominal exactly once, "
        f"by 'rnom = <file>' or 'laplacian = true'\n"
    )


def test_youla_check_fails_a_nominal_that_recovery_rejects(tmp_path, capsys):
    # a row sum of 5e-11 on the Laplacian nominal
    gain = np.array(laplacian_rnom(ring_adjacency(5)).D)
    gain[0, 0] += 5e-11
    fileio.write_matrix(tmp_path / "rnom.mat", gain)
    bundle = plant_bundle(tmp_path, ring_plant(5, 0.4), "rnom = rnom.mat\n")
    assert main(["youla", "check", str(bundle)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("annihilates every component indicator:")
    assert out[1].endswith("FAIL")
    assert [line.endswith("ok") for line in (out[0], out[2])] == [True, True]


def test_youla_check_and_solve_reject_the_same_nominal(tmp_path, capsys):
    # B2 = 2I on ring 4: -(1/4)L of the ring (the delay-1 graph of the
    # structure) puts a closed-loop pole at -1; the path graph of the
    # sensing would have stabilized it
    ring = ring_plant(4, 0.4)
    plant = Plant(A=ring.A, B1=ring.B1, B2=2 * np.eye(4), C1=ring.C1, D12=ring.D12, C2=ring.C2)
    bundle = plant_bundle(tmp_path, plant, "laplacian = true\n")
    assert main(["youla", "check", str(bundle)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2].startswith("stabilizes extended plant modulo agreement:")
    assert out[2].endswith("FAIL")
    assert main(["solve", str(bundle)]) == 1
    assert_one_error_line(capsys, "does not internally stabilize")


@pytest.mark.parametrize("n, gamma", [(3, 0.5), (8, 0.2)])
def test_ring_bundle_is_the_ring_problem(tmp_path, n, gamma):
    bundle = tmp_path / "ring.bundle"
    bundle.write_text(f"ring = {n}\ngamma = {gamma}\nhorizon_q = 32\n")
    res, _, _ = cli._solve_bundle(str(bundle))
    ref = solve_ring_circulant(n, gamma, 32)
    assert res.objective == ref.objective
    assert np.array_equal(res.q_opt.taps, ref.q_opt.taps)
    assert np.array_equal(res.k_opt.taps, ref.k_opt.taps)


@pytest.mark.parametrize(
    "keys, fragments",
    [
        # never opens missing.mat: the keys are rejected first
        (
            "ring = 3\nrnom = missing.mat\nlaplacian = maybe\n",
            ["ring bundle", "plant, structure, rnom, laplacian"],
        ),
        ("laplacian = on\n", ["laplacian", "'on'"]),
        ("rnom = rnom.mat\nlaplacian = true\n", ["exactly once"]),
    ],
    ids=["ring-with-plant-keys", "laplacian-on", "nominal-twice"],
)
def test_malformed_bundle_is_a_typed_error(tmp_path, capsys, keys, fragments):
    fileio.write_matrix(tmp_path / "rnom.mat", laplacian_rnom(ring_adjacency(3)).D)
    bundle = plant_bundle(tmp_path, ring_plant(3, 0.5), keys)
    assert main(["solve", str(bundle)]) == 1
    assert_one_error_line(capsys, *fragments)
    assert not (tmp_path / "p_q_opt.fir").exists()


def test_simulate_with_zero_cost_prints_nan_ratio(tmp_path, capsys):
    ring = ring_plant(3, 0.5)
    plant = Plant(A=ring.A, B1=ring.B1, B2=ring.B2, C1=0 * ring.C1, D12=0 * ring.D12, C2=ring.C2)
    keys = "laplacian = true\nhorizon_q = 8\n"
    bundle = plant_bundle(tmp_path, plant, keys)
    assert main(["simulate", str(bundle), "--steps", "100", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "analytic_J2=0 " in out
    assert out.rstrip().endswith("ratio=nan")


def test_error_reporting(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("1 3\n2.0 -2.0 0.0\n")
    assert main(["graph", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_ring_range_is_a_typed_error(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    argv = ["ring-sweep", "--n", "3..x", "--out", str(out_csv), "--no-plot"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "3..x" in err
    assert not out_csv.exists()


def test_truncated_plant_file_is_a_typed_error(tmp_path, capsys):
    plant_path = tmp_path / "short.plant"
    plant_path.write_text("A 2\n")
    s_path = tmp_path / "s.struct"
    fileio.write_structure(s_path, InfoStructure.unrestricted(2, 2))
    assert main(["qi", str(s_path), str(plant_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_numeric_plant_entry_is_a_typed_error(tmp_path, capsys):
    plant_path = tmp_path / "bad.plant"
    plant_path.write_text("A\n1 1\nx\n")
    s_path = tmp_path / "s.struct"
    fileio.write_structure(s_path, InfoStructure.unrestricted(1, 1))
    assert main(["qi", str(s_path), str(plant_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'x'" in err


@pytest.mark.parametrize(
    "bundle_text, token",
    [
        ("ring = x\n", "'x'"),
        ("ring = 3\ngamma = abc\n", "'abc'"),
        ("ring = 3\nhorizon_q = 2.5\n", "'2.5'"),
    ],
    ids=["ring", "gamma", "horizon_q"],
)
def test_non_numeric_bundle_value_is_a_typed_error(tmp_path, capsys, bundle_text, token):
    bundle = tmp_path / "bad.bundle"
    bundle.write_text(bundle_text)
    assert main(["solve", str(bundle)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert token in err


def test_non_numeric_sweep_gamma_is_a_typed_error(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    argv = ["ring-sweep", "--n", "3..4", "--gamma", "0.2,x", "--out", str(out_csv), "--no-plot"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'x'" in err
    assert not out_csv.exists()


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    for fragment in fragments:
        assert fragment in err[0]


def test_misspelled_bundle_key_is_a_typed_error(tmp_path, capsys):
    # a silently ignored 'gama' would solve at the default gamma
    bundle = tmp_path / "b.bundle"
    bundle.write_text("ring = 4\ngama = 0.3\nhorizon_q = 4\n")
    assert main(["solve", str(bundle)]) == 1
    assert_one_error_line(capsys, f"{bundle}:2:", "'gama'", "gamma")
    assert not (tmp_path / "b_q_opt.fir").exists()


@pytest.mark.parametrize(
    "command, content",
    [("graph", b"2 2\n1 0\n0 \xff\n"), ("solve", b"\xffring = 3\n")],
)
def test_non_utf8_input_is_a_typed_error(tmp_path, capsys, command, content):
    path = tmp_path / "bad.in"
    path.write_bytes(content)
    assert main([command, str(path)]) == 1
    assert_one_error_line(capsys, f"cannot read {path}:", "'utf-8' codec")


def test_repeated_bundle_key_is_a_typed_error(tmp_path, capsys):
    # solving at the second gamma would drop the first without a word
    bundle = tmp_path / "b.bundle"
    bundle.write_text("ring = 4\ngamma = 0.2\ngamma = 0.4\nhorizon_q = 4\n")
    assert main(["solve", str(bundle)]) == 1
    assert_one_error_line(capsys, f"{bundle}:3:", "repeated key 'gamma'")
    assert not (tmp_path / "b_q_opt.fir").exists()


def test_out_dir_that_is_a_file_is_a_typed_error(tmp_path, capsys):
    bundle = tmp_path / "b.bundle"
    bundle.write_text("ring = 3\nhorizon_q = 4\n")
    out_dir = tmp_path / "F"
    out_dir.write_text("")
    assert main(["solve", str(bundle), "--out-dir", str(out_dir)]) == 1
    assert_one_error_line(capsys, str(out_dir))


def test_fir_path_that_is_a_directory_is_a_typed_error(tmp_path, capsys):
    bundle = tmp_path / "b.bundle"
    bundle.write_text("ring = 3\nhorizon_q = 4\n")
    (tmp_path / "out" / "b_q_opt.fir").mkdir(parents=True)
    assert main(["solve", str(bundle), "--out-dir", str(tmp_path / "out")]) == 1
    assert_one_error_line(capsys, str(tmp_path / "out" / "b_q_opt.fir"))


def test_second_fir_path_that_is_a_directory_leaves_no_first_file(tmp_path, capsys):
    bundle = tmp_path / "c.bundle"
    bundle.write_text("ring = 3\nhorizon_q = 4\n")
    (tmp_path / "out" / "c_k_opt.fir").mkdir(parents=True)
    assert main(["solve", str(bundle), "--out-dir", str(tmp_path / "out")]) == 1
    assert_one_error_line(capsys, str(tmp_path / "out" / "c_k_opt.fir"))
    assert not (tmp_path / "out" / "c_q_opt.fir").exists()


def test_plot_script_path_that_is_a_directory_is_a_typed_error(tmp_path, capsys):
    (tmp_path / "d" / "x_plot.py").mkdir(parents=True)
    out_csv = tmp_path / "d" / "x.csv"
    argv = ["ring-sweep", "--n", "3", "--gamma", "0.5", "--horizon-q", "4"]
    assert main(argv + ["--out", str(out_csv), "--no-plot"]) == 1
    assert_one_error_line(capsys, str(tmp_path / "d" / "x_plot.py"))
    assert not out_csv.exists()


@pytest.mark.parametrize("n, horizon_q", [(4, 100_000_000), (6, 20_000)])
def test_oversized_horizon_is_a_typed_error(tmp_path, capsys, n, horizon_q):
    # numpy would fail to allocate 11.9 GiB of lag factors, or the 26.8 GiB
    # index gather of the Gram matrix, with a traceback; 512 MiB of
    # address space makes the first array past it fail on any host
    from conftest import address_space

    bundle = tmp_path / "big.bundle"
    bundle.write_text(f"ring = {n}\ngamma = 0.3\nhorizon_q = {horizon_q}\n")
    with address_space(512 << 20):
        code = main(["solve", str(bundle)])
    assert code == 1
    assert_one_error_line(capsys, "Unable to allocate", "lower horizon_q")


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "relsyn", "qi", "--help"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: relsyn qi")
