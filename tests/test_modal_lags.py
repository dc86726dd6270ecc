"""The eigenbasis lag table against the Stein solve.

For a consensus plant the solve builds the table of [direction responses
| vec T1] from three-state mode pairs instead of one Stein solve on the
O(n^2)-state joint system, over the general column map and over the
ring's circulant one.  Wherever its gate accepts, the table must be the
one `_stein_lags` computes; where the plant is not diagonal in one
eigenbasis, the gate must decline.
"""

import numpy as np
import pytest

from relsyn import (
    Plant,
    StateSpace,
    build_ring_problem,
    build_tilde_plant,
    circulant_reduce,
    delay_structure_from_adjacency,
    h2_norm_lyap,
    laplacian_rnom,
    make_t_systems,
    solve_ring_circulant,
    validate_c2,
)
from relsyn.solver import _free_columns, _modal_factors, _modal_table, _stein_lags

from conftest import actuator_gains, consensus_plant, consensus_problem, rand_connected_c2

HORIZON_Q = 6


def edge_c2(n, edges):
    """One difference sensor x_i - x_j per edge (i, j)."""
    C2 = np.zeros((len(edges), n))
    for row, (i, j) in enumerate(edges):
        C2[row, i], C2[row, j] = 1.0, -1.0
    return C2


def _named_graphs():
    grid = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    complete = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    return {
        "path6": edge_c2(6, [(i, i + 1) for i in range(5)]),
        "grid2x3": edge_c2(6, grid),
        "star6": edge_c2(6, [(0, j) for j in range(1, 6)]),
        "complete5": edge_c2(5, complete),
        "random7": rand_connected_c2(np.random.default_rng(0), 7, 3),
    }


def _tables(yd, structure, ms, horizon_q=HORIZON_Q):
    return _map_tables(yd, *_free_columns(structure, ms.indicators, horizon_q))


def _map_tables(yd, dirs, inputs, delays):
    """The modal factors (None off the eigenbasis) and the Stein table."""
    K = int(delays.max(initial=0))
    return _modal_factors(yd, dirs, K), _stein_lags(yd, dirs, K)


def _assert_same_table(factors, stein):
    assert factors is not None
    modal = _modal_table(*factors)
    assert modal.shape == stein.shape
    assert np.abs(modal - stein).max() <= 1e-12 * np.abs(stein).max()


@pytest.mark.parametrize("graph", ["path6", "grid2x3", "star6", "complete5", "random7"])
@pytest.mark.parametrize("gamma", [0.2, 0.7])
def test_named_graphs_match_stein(graph, gamma):
    # the star and K5 have repeated Laplacian eigenvalues, so eigh's basis
    # of those eigenspaces is arbitrary
    prob = consensus_problem(_named_graphs()[graph], gamma, HORIZON_Q)
    _assert_same_table(*_tables(prob.yd, prob.structure, prob.ms))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_random_graphs_match_stein(rng, n):
    for extra in (0, 2):
        prob = consensus_problem(rand_connected_c2(rng, n, extra), 0.4, HORIZON_Q)
        _assert_same_table(*_tables(prob.yd, prob.structure, prob.ms))


def test_short_horizon_and_gamma_one_match_stein():
    # K = 0 (no delayed column) and a plant with no state weight
    C2 = _named_graphs()["path6"]
    for gamma, horizon_q in ((0.4, 0), (1.0, 3)):
        prob = consensus_problem(C2, gamma, horizon_q)
        _assert_same_table(*_tables(prob.yd, prob.structure, prob.ms, horizon_q))


@pytest.mark.parametrize("n, horizon_q", [(2, 32), (5, 32), (8, 32), (8, 2)])
def test_circulant_map_matches_stein(n, horizon_q):
    # horizon_q = 2 is shorter than the n = 8 ring's radius of 4
    prob = build_ring_problem(n, 0.4, horizon_q)
    _assert_same_table(*_map_tables(prob.yd, *circulant_reduce(prob)))


def test_empty_column_maps_give_the_nominal():
    # no free column: both routes return the 1 x 1 table ||T1||^2
    C2 = _named_graphs()["path6"]
    general = consensus_problem(C2, 0.4, 0)
    ring = build_ring_problem(5, 0.4, 0)
    for yd, colmap in (
        (general.yd, _free_columns(general.structure, general.ms.indicators, 0)),
        (ring.yd, circulant_reduce(ring)),
    ):
        assert len(colmap[0]) == 0
        factors, stein = _map_tables(yd, *colmap)
        _assert_same_table(factors, stein)
        assert stein.shape == (1, 1, 1)
        assert stein[0, 0, 0] == pytest.approx(h2_norm_lyap(yd.t1_stable) ** 2, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 12, 32, 64, 96])
def test_ring_never_takes_the_stein_route(monkeypatch, n):
    # a silent fallback would put the ring on an O(n^2)-state Stein solve;
    # each symmetric circulant direction pairs every mode with itself
    # only, so the factors hold n mode pairs, also at n = 96, where the
    # nominal's two eigenvalues nearest -4/n are 4.5e-5 apart
    import relsyn.solver as solver

    def no_stein(*args):
        raise AssertionError("the ring fell back to _stein_lags")

    pairs = []
    modal_factors = solver._modal_factors

    def spy(*args):
        M, h = modal_factors(*args)
        pairs.append(len(M))
        return M, h

    monkeypatch.setattr(solver, "_stein_lags", no_stein)
    monkeypatch.setattr(solver, "_modal_factors", spy)
    solve_ring_circulant(n, 0.4, 32)
    assert pairs == [n]


def _consensus_data(C2, rnom, plant=None):
    ms = validate_c2(C2)
    plant = consensus_plant(C2, 0.3) if plant is None else plant
    yd = make_t_systems(build_tilde_plant(plant), rnom, ms)
    return yd, delay_structure_from_adjacency(ms.adjacency), ms


def test_distinct_actuator_gains_take_the_stein_route(rng):
    prob = consensus_problem(rand_connected_c2(rng, 5, 2), 0.3, HORIZON_Q, b2=actuator_gains(5))
    factors, _ = _tables(prob.yd, prob.structure, prob.ms)
    assert factors is None


def test_dynamic_nominal_takes_the_stein_route():
    C2 = _named_graphs()["path6"]
    L = laplacian_rnom(validate_c2(C2).adjacency).D
    # the Laplacian gain behind a decoupled stable state: same map,
    # dynamic realization
    rnom = StateSpace(np.array([[0.5]]), np.zeros((1, 6)), np.zeros((6, 1)), L)
    factors, _ = _tables(*_consensus_data(C2, rnom))
    assert factors is None


def test_non_symmetric_nominal_takes_the_stein_route():
    C2 = _named_graphs()["path6"]
    D = np.array(laplacian_rnom(validate_c2(C2).adjacency).D)
    D[0, 1] += 0.05  # row sums stay zero, so the gain stays relative
    D[0, 0] -= 0.05
    factors, _ = _tables(*_consensus_data(C2, StateSpace.static_gain(D)))
    assert factors is None


def _two_components(per_component_deviation):
    """Paths {0, 1, 2} and {3, 4}, each sensed along its edges."""
    C2 = edge_c2(5, [(0, 1), (1, 2), (3, 4)])
    ms = validate_c2(C2)
    eye, zero = np.eye(5), np.zeros((5, 5))
    if per_component_deviation:
        # marginal agreement on each component, invisible in z
        A, deviation = eye, ms.disagreement_basis() @ ms.disagreement_basis().T
    else:
        # stable open loop, deviation from the global average
        A, deviation = 0.5 * eye, eye - np.ones((5, 5)) / 5
    plant = Plant(
        A=A,
        B1=eye,
        B2=eye,
        C1=np.vstack([0.7 * deviation, zero]),
        D12=np.vstack([zero, 0.3 * eye]),
        C2=C2,
    )
    return _consensus_data(C2, laplacian_rnom(ms.adjacency), plant)


def test_global_deviation_on_two_components_matches_stein():
    # the two agreement modes share eigenvalue 0 of the nominal, and the
    # global average couples them: only a basis of that eigenspace that
    # holds the all-ones vector makes the deviation diagonal, and the
    # shared eigenbasis splits the eigenspace along the deviation
    _assert_same_table(*_tables(*_two_components(per_component_deviation=False)))


def test_per_component_deviation_on_two_components_matches_stein():
    # here every matrix is a polynomial in the nominal and the
    # disagreement projector, so any eigenbasis diagonalizes it
    _assert_same_table(*_tables(*_two_components(per_component_deviation=True)))
