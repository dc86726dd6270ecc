"""Command-line surface: every subcommand through its main entry point."""

import json
import os

import numpy as np
import pytest

from relsyn import InfoStructure, ring_plant
from relsyn import fileio
from relsyn.bench import all_pairs_sensing, triangular_plant
from relsyn.cli import main


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


def test_ring_sweep_config_file(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    out_csv = tmp_path / "cfg_sweep.csv"
    cfgfile.write_text(
        f"n_values = 3,4\ngamma_values = 0.5\nhorizon_q = 8\n"
        f"output_path = {out_csv}\n"
    )
    assert main(["ring-sweep", "--config", str(cfgfile), "--no-plot"]) == 0
    assert out_csv.exists()


def test_simulate_cli(tmp_path, capsys):
    bundle = tmp_path / "ring.bundle"
    bundle.write_text("ring = 3\ngamma = 0.5\nhorizon_q = 8\n")
    assert main(["simulate", str(bundle), "--steps", "5000", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "empirical_E_z2=" in out
    assert "analytic_J2=" in out


def test_example_subcommands(capsys):
    assert main(["example", "motivating"]) == 0
    out = capsys.readouterr().out
    assert "QI w.r.t. measured-output map: False" in out
    assert "QI w.r.t. state map: True" in out
    assert main(["example", "example1"]) == 0
    assert "{1,3}, {2,4}, {5}" in capsys.readouterr().out


def test_youla_check(tmp_path, capsys):
    plant = ring_plant(3, 0.5)
    plant_path = tmp_path / "p.plant"
    fileio.write_plant(plant_path, plant)
    assert main(["youla", "check", str(plant_path), "--laplacian"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 3

    zero = tmp_path / "zero.mat"
    fileio.write_matrix(zero, np.zeros((3, 3)))
    assert main(["youla", "check", str(plant_path), str(zero)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out  # zero gain does not stabilize the ring


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
