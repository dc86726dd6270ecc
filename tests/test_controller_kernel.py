"""K's taps from the internal-model loop against the FIR loop transform.

`fir_route` is the controller route that the loop replaced, built from
public functions only: K = Knom - F(C2 N, Q~) with Q~ = Q Z and
Knom = Rnom Z, the loop transform taken tap by tap by `fir_lft` on the
Markov taps of N = F(Rnom, Pxu).  The loop instead runs u = Q v,
v = e + N u on N's realization, driven by every node's impulse, and
returns K = R Z.  The two agree to roundoff relative to max|K|, and the
structural zeros of K are exact on both.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from relsyn import (
    DimensionError,
    FirSystem,
    build_ring_problem,
    combined_r_structure,
    fir_add,
    fir_lft,
    markov,
    recover_controller,
    solve,
)
from relsyn import solver
from relsyn.measurement import recovered_structure

from conftest import consensus_problem, rand_connected_c2

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Largest gap between the two routes, relative to max|K|.
K_RTOL = 1e-13


def fir_route(prob, q):
    """K on the controller window by the FIR loop transform, snapped
    below its structural bound as the solve snaps it."""
    yd, ms = prob.yd, prob.ms
    horizon = prob.horizon_q + 2 * yd.plant.n_states
    k_nom = recover_controller(markov(yd.r_nom, horizon), ms)
    q_tilde = recover_controller(q, ms)
    c2n = FirSystem(ms.c2 @ markov(yd.nominal_loop, horizon).taps)
    taps = np.array(fir_add(k_nom, -fir_lft(c2n, q_tilde, horizon)).taps)
    bound = recovered_structure(combined_r_structure(prob.structure, yd), ms)
    ks = np.arange(horizon + 1)[:, None, None]
    taps[(ks < bound.min_delay[None, :, :]) & (np.abs(taps) <= solver._SNAP_TOL)] = 0.0
    return taps, ks < bound.min_delay[None, :, :]


def assert_matches_fir_route(prob):
    res = solve(prob)
    want, below = fir_route(prob, res.q_opt)
    got = res.k_opt.taps
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= K_RTOL * np.abs(want).max()
    assert not got[below].any() and not want[below].any()
    return res


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, which imports its sibling `checks`."""
    added = [name for name in ("perfbench_workloads", "checks") if name not in sys.modules]
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in added:
            sys.modules.pop(name, None)


def general_graph_problems(workloads, seed):
    """(label, problem) of the benchmark's general_graph operations."""
    problems = []
    for op in workloads.general_graph(seed):
        plant, adj = op.run.args
        # the problem that workloads.solve_general builds and solves
        gamma = float(op.label.split("=")[-1])
        prob = consensus_problem(plant.C2, gamma, workloads.GENERAL_HORIZON_Q)
        assert np.array_equal(prob.ms.adjacency != 0, adj != 0)
        problems.append((op.label, prob))
    return problems


class TestMatchesFirRoute:
    @pytest.mark.parametrize("gamma", [0.2, 0.4, 0.5])
    def test_readme_ring_grid(self, gamma):
        for n in range(3, 13):
            assert_matches_fir_route(build_ring_problem(n, gamma, 32))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_general_graph_solves(self, workloads, seed):
        labels = []
        for label, prob in general_graph_problems(workloads, seed):
            assert_matches_fir_route(prob)
            labels.append(label.split()[0])
        assert sorted(set(labels)) == ["grid2x3", "path6", "random7"]

    def test_reflection_symmetric_stein_route(self):
        C2 = np.eye(5, 6) - np.eye(5, 6, 1)
        prob = consensus_problem(C2, 0.3, 8, b2=np.array([0.6, 0.9, 1.2, 1.2, 0.9, 0.6]))
        assert solver._modal_factors(prob.yd, np.zeros((1, 6, 6)), 1) is None
        assert len(solver._automorphisms(prob)) == 1
        assert_matches_fir_route(prob)

    def test_surplus_sensors(self, rng):
        prob = consensus_problem(rand_connected_c2(rng, 6, extra_edges=2), 0.4, 8)
        assert prob.ms.n_measurements > prob.ms.n_states - 1
        assert_matches_fir_route(prob)

    @pytest.mark.parametrize("n, gamma", [(32, 0.2), (64, 0.4)])
    def test_large_rings(self, n, gamma):
        # max|K| reaches 8.5e9 and 6.8e10 here
        assert_matches_fir_route(build_ring_problem(n, gamma, 32))


def test_recovered_r_fir_rejects_a_misshaped_q():
    yd = build_ring_problem(4, 0.4, 4).yd
    with pytest.raises(DimensionError):
        solver.recovered_r_fir(yd, FirSystem(np.zeros((3, 4, 3))), 8)
