"""The benchmark's three workloads.

Each workload function takes the seed, builds its inputs, warms up the
code it times, and returns its fixed list of operations.  An operation
calls relsyn through module attributes (``solver.solve``, not a copy
bound by ``from ... import``), so that the traced run sees the calls it
wraps.  The seed relabels nodes and sensors and re-orients sensors
(general_graph, qi_verdicts) or seeds the noise of ring_sweep's
simulated replica; it changes neither the size of a problem nor the
order of the operations, so every seed does the same work and
allocates in the same order, and the set of failing operations does
not depend on it.  ring_sweep's grid has nothing to relabel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

import checks
from relsyn import bench, lti, measurement, solver, structure, youla

# ring_sweep: the README's default ring-sweep grid on the circulant path.
RING_N = tuple(range(3, 13))
RING_GAMMA = (0.2, 0.4, 0.5)
RING_HORIZON_Q = 32
RING_ORDER_SEED = 0

#: (gamma, n) points whose k_opt fails the closed-loop check: R is
#: truncated to horizon_q + 2n taps, which leaves the loop unstable at
#: the first five and misses J by 4.4e-4 and 1.9e-4 at the last two.
#: Only the checks of the loop closed by K may fail there.
RING_FAULTS = frozenset(
    {(0.2, 8), (0.2, 10), (0.2, 11), (0.2, 12), (0.4, 12), (0.2, 9), (0.4, 10)}
)

# general_graph: non-circulant networks on the general dense path.
GENERAL_GAMMA = (0.2, 0.5)
GENERAL_HORIZON_Q = 16
#: Seed of the one random graph; the workload seed only relabels it.
RANDOM_GRAPH_SEED = 0
RANDOM_GRAPH_NODES = 7
RANDOM_GRAPH_CHORDS = 3

# ring_sweep's last operation: a Monte Carlo replica of one synthesized
# ring loop.
SIM_N = 8
SIM_GAMMA = 0.5
SIM_HORIZON_Q = 32
SIM_STEPS = 100_000

# qi_verdicts: the four-subsystem counterexample scaled up, and rings.
TRIANGULAR_N = (4, 6, 8, 10, 12, 14, 16, 18, 20)
RING_QI_N = (8, 16, 24, 32, 40, 48, 56, 64)


@dataclass(frozen=True)
class Op:
    """One timed operation: `run` does the work, `digest` reduces its
    output to what `check` needs (untimed), and `check` returns the
    problems with a digest.  `tolerated` holds the prefixes of the
    problems that a named fault in the program causes on this operation;
    they count it as failed without making the run incorrect."""

    label: str
    run: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object], list]
    tolerated: tuple = ()


# ---------------------------------------------------------------------------
# networks and plants, built with numpy
# ---------------------------------------------------------------------------


def path_adjacency(n: int) -> np.ndarray:
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = 1.0
    return A


def grid_adjacency(rows: int, cols: int) -> np.ndarray:
    n = rows * cols
    A = np.zeros((n, n))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                A[v, v + 1] = A[v + 1, v] = 1.0
            if r + 1 < rows:
                A[v, v + cols] = A[v + cols, v] = 1.0
    return A


def random_connected_adjacency(rng, n: int, chords: int) -> np.ndarray:
    """A random spanning tree plus `chords` distinct extra edges."""
    A = np.zeros((n, n))
    order = rng.permutation(n)
    for idx in range(1, n):
        a, b = int(order[idx]), int(order[rng.integers(0, idx)])
        A[a, b] = A[b, a] = 1.0
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if A[i, j] == 0]
    rng.shuffle(free)
    for i, j in free[:chords]:
        A[i, j] = A[j, i] = 1.0
    return A


def ring_adjacency(n: int) -> np.ndarray:
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1.0
    return A


def consecutive_differences(n: int) -> np.ndarray:
    """y_i = x_i - x_(i+1), i = 0..n-2: the ring family's sensing."""
    C2 = np.zeros((n - 1, n))
    for i in range(n - 1):
        C2[i, i], C2[i, i + 1] = 1.0, -1.0
    return C2


def edge_sensing(adjacency, rng) -> np.ndarray:
    """One difference sensor per edge, in random orientation and order."""
    n = adjacency.shape[0]
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            if adjacency[i, j]:
                r = np.zeros(n)
                sign = 1.0 if rng.random() < 0.5 else -1.0
                r[i], r[j] = sign, -sign
                rows.append(r)
    return np.vstack(rows)[rng.permutation(len(rows))]


def relabel(M, perm) -> np.ndarray:
    """M with node a of the result being node perm[a] of the input."""
    return np.asarray(M)[np.ix_(perm, perm)]


def consensus_plant(adjacency, C2, gamma: float) -> dict:
    """Matrices of the consensus plant x+ = x + u + w with
    z = [(1-gamma) deviation from the average; gamma u] and y = C2 x."""
    n = adjacency.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    deviation = eye - np.ones((n, n)) / n
    return {
        "A": eye,
        "B1": eye,
        "B2": eye,
        "C1": np.vstack([(1.0 - gamma) * deviation, zero]),
        "D12": np.vstack([zero, gamma * eye]),
        "C2": np.asarray(C2, dtype=float),
    }


def consensus_case(adjacency, C2, gamma: float) -> dict:
    """The plant, the nominal gain -(1/n) L, the Q delays (hop distance),
    the state-feedback delays (0 on the nominal gain's support, the hop
    distance elsewhere) and the reference norms that bracket J."""
    case = consensus_plant(adjacency, C2, gamma)
    n = adjacency.shape[0]
    case["R_nom"] = -(np.diag(adjacency.sum(axis=1)) - adjacency) / n
    case["q_delay"] = checks.graph_distance(adjacency)
    case["r_delay"] = np.where(case["R_nom"] != 0, 0.0, case["q_delay"])
    plant = [case[k] for k in ("A", "B1", "B2", "C1", "D12")]
    case["h2_cent"] = checks.centralized_h2(*plant)
    case["h2_nom"] = checks.nominal_h2(*plant, case["R_nom"])
    return case


# ---------------------------------------------------------------------------
# synthesis workloads
# ---------------------------------------------------------------------------


def synthesis_digest(res) -> dict:
    return {
        "J": float(res.objective),
        "Q": np.array(res.q_opt.taps),
        "K": np.array(res.k_opt.taps),
    }


def check_synthesis(case_of: Callable[[], dict], digest: dict) -> list:
    return checks.check_synthesis(case_of(), digest["J"], digest["Q"], digest["K"])


def ring_case(n: int, gamma: float) -> dict:
    return consensus_case(ring_adjacency(n), consecutive_differences(n), gamma)


def ring_sweep(seed: int) -> list:
    """The grid's solves, then one simulated replica of a synthesized
    loop, the sweep's Monte Carlo cross-check."""
    # A fixed shuffled order spreads the middle-sized solves, which set
    # op_s_p50, over the round instead of bunching them in one stretch.
    grid = [(n, g) for n in RING_N for g in RING_GAMMA]
    order = np.random.default_rng(RING_ORDER_SEED).permutation(len(grid))
    solver.solve_ring_circulant(3, 0.5, RING_HORIZON_Q)  # warm-up
    ops = [
        Op(
            label=f"ring n={n} gamma={g}",
            run=partial(solve_ring, n, g),
            digest=synthesis_digest,
            check=partial(check_synthesis, partial(ring_case, n, g)),
            tolerated=checks.TRUNCATION_PROBLEMS if (g, n) in RING_FAULTS else (),
        )
        for n, g in (grid[i] for i in order)
    ]
    return ops + [replica_op(seed)]


def solve_ring(n: int, gamma: float):
    return solver.solve_ring_circulant(n, gamma, horizon_q=RING_HORIZON_Q)


def general_graphs() -> list:
    rng = np.random.default_rng(RANDOM_GRAPH_SEED)
    return [
        ("path6", path_adjacency(6)),
        ("grid2x3", grid_adjacency(2, 3)),
        ("random7", random_connected_adjacency(rng, RANDOM_GRAPH_NODES, RANDOM_GRAPH_CHORDS)),
    ]


def general_graph(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for name, adj in general_graphs():
        adj = relabel(adj, rng.permutation(adj.shape[0]))
        C2 = edge_sensing(adj, rng)
        for g in GENERAL_GAMMA:
            plant = lti.Plant(**consensus_plant(adj, C2, g))
            ops.append(
                Op(
                    label=f"{name} gamma={g}",
                    run=partial(solve_general, plant, adj),
                    digest=synthesis_digest,
                    check=partial(check_synthesis, partial(consensus_case, adj, C2, g)),
                )
            )
    warm = path_adjacency(3)
    solve_general(lti.Plant(**consensus_plant(warm, consecutive_differences(3), 0.5)), warm, 4)
    return ops


def solve_general(plant: lti.Plant, adj: np.ndarray, horizon_q: int = GENERAL_HORIZON_Q):
    ms = measurement.validate_c2(plant.C2)
    yd = youla.make_t_systems(youla.build_tilde_plant(plant), youla.laplacian_rnom(adj), ms)
    prob = solver.SynthesisProblem(
        yd=yd,
        structure=structure.delay_structure_from_adjacency(adj),
        ms=ms,
        horizon_q=horizon_q,
    )
    return solver.solve(prob)


# ---------------------------------------------------------------------------
# closed-loop simulation
# ---------------------------------------------------------------------------


class SimReference:
    """J and the independent closed-loop H2 norm of the simulated loop.
    The norm is computed on first use, by the checks after the timed
    rounds, so that it stays out of the set-up time."""

    def __init__(self, J: float, K_taps: np.ndarray):
        self.J = J
        self.K = K_taps

    @cached_property
    def h2(self) -> float:
        case = ring_case(SIM_N, SIM_GAMMA)
        return checks.closed_loop_h2(
            *(case[k] for k in ("A", "B1", "B2", "C1", "D12", "C2")), self.K
        )


def sim_digest(rec) -> dict:
    return {
        "diverged": bool(rec.diverged),
        "steps": int(rec.steps_completed),
        "energies": (rec.z**2).sum(axis=1),
    }


def check_replica(ref: SimReference, digest: dict) -> list:
    if digest["diverged"] or digest["steps"] != SIM_STEPS:
        return [f"simulation stopped after {digest['steps']} of {SIM_STEPS} steps"]
    return checks.monte_carlo_problems(digest["energies"], ref.J, ref.h2)


def sim_loop():
    """The simulated loop: plant, synthesized controller, measurement
    structure and the reference its replicas are checked against."""
    res = solver.solve_ring_circulant(SIM_N, SIM_GAMMA, horizon_q=SIM_HORIZON_Q)
    plant = solver.ring_plant(SIM_N, SIM_GAMMA)
    ref = SimReference(float(res.objective), np.array(res.k_opt.taps))
    return plant, res.k_opt, measurement.validate_c2(plant.C2), ref


def replica_op(seed: int) -> Op:
    """One replica of SIM_STEPS steps; the loop is synthesized during
    set-up, so the operation times the simulation alone."""
    plant, K, ms, ref = sim_loop()
    bench.simulate_closed_loop(plant, K, ms, steps=2000, seed=0)  # warm-up
    noise_seed = int(np.random.default_rng(seed).integers(0, 2**31))
    return Op(
        label=f"replica seed={noise_seed}",
        run=partial(simulate, plant, K, ms, noise_seed),
        digest=sim_digest,
        check=partial(check_replica, ref),
    )


def simulate(plant, K, ms, seed: int):
    return bench.simulate_closed_loop(plant, K, ms, steps=SIM_STEPS, seed=seed)


# ---------------------------------------------------------------------------
# quadratic-invariance verdicts
# ---------------------------------------------------------------------------


def triangular_inputs(n: int, rng) -> dict:
    """bench.triangular_plant(n) with states relabeled and sensors
    shuffled and re-oriented, and its two structures relabeled alike."""
    base = bench.triangular_plant(n)
    perm = rng.permutation(n)
    sperm = rng.permutation(base.C2.shape[0])
    signs = np.where(rng.random(base.C2.shape[0]) < 0.5, 1.0, -1.0)
    C2 = signs[:, None] * base.C2[np.ix_(sperm, perm)]
    plant = lti.Plant(
        A=relabel(base.A, perm), B1=base.B1, B2=base.B2, C1=base.C1, D12=base.D12, C2=C2
    )
    sensors = bench.local_sensor_structure(n).min_delay[np.ix_(perm, sperm)]
    upper = relabel(np.where(np.triu(np.ones((n, n))) != 0, 0.0, np.inf), perm)
    return {"plant": plant, "sensors": sensors, "upper": upper}


def triangular_op(inp: dict):
    plant = inp["plant"]
    ms = measurement.validate_c2(plant.C2)
    cert_y = structure.qi_certificate(
        structure.InfoStructure(inp["sensors"]), structure.transfer_pattern(plant.pyu())
    )
    cert_x = structure.qi_certificate(
        structure.InfoStructure(inp["upper"]), structure.transfer_pattern(plant.pxu())
    )
    return ms.n_components, cert_y, cert_x


def check_triangular(inp: dict, digest) -> list:
    n_components, cert_y, cert_x = digest
    p = inp["plant"]
    problems = [] if n_components == 1 else [f"{n_components} components, expected 1"]
    g_yu = checks.structural_delays(p.A, p.B2, p.C2)
    g_xu = checks.structural_delays(p.A, p.B2, np.eye(p.A.shape[0]))
    problems += checks.check_qi(inp["sensors"], g_yu, cert_y, expect_qi=False)
    problems += checks.check_qi(inp["upper"], g_xu, cert_x, expect_qi=True)
    return problems


def ring_qi_inputs(n: int, rng) -> dict:
    perm = rng.permutation(n)
    adj = relabel(ring_adjacency(n), perm)
    eye = np.eye(n)
    plant = lti.Plant(
        A=eye, B1=eye, B2=eye, C1=eye, D12=np.zeros((n, n)), C2=edge_sensing(adj, rng)
    )
    return {"plant": plant, "adjacency": adj}


def ring_qi_op(inp: dict):
    s = structure.delay_structure_from_adjacency(inp["adjacency"])
    ms = measurement.validate_c2(inp["plant"].C2)
    cert = structure.qi_certificate(s, structure.transfer_pattern(inp["plant"].pxu()))
    return ms.n_components, np.array(s.min_delay), cert


def check_ring_qi(inp: dict, digest) -> list:
    n_components, s, cert = digest
    problems = [] if n_components == 1 else [f"{n_components} components, expected 1"]
    if not np.array_equal(s, checks.graph_distance(inp["adjacency"])):
        problems.append("delay structure differs from the hop distance")
    p = inp["plant"]
    g_xu = checks.structural_delays(p.A, p.B2, np.eye(p.A.shape[0]))
    return problems + checks.check_qi(s, g_xu, cert, expect_qi=True)


def qi_verdicts(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for n in TRIANGULAR_N:
        inp = triangular_inputs(n, rng)
        ops.append(
            Op(
                label=f"triangular n={n}",
                run=partial(triangular_op, inp),
                digest=lambda out: out,
                check=partial(check_triangular, inp),
            )
        )
    for n in RING_QI_N:
        inp = ring_qi_inputs(n, rng)
        ops.append(
            Op(
                label=f"ring n={n}",
                run=partial(ring_qi_op, inp),
                digest=lambda out: out,
                check=partial(check_ring_qi, inp),
            )
        )
    triangular_op(triangular_inputs(4, np.random.default_rng(0)))  # warm-up
    ring_qi_op(ring_qi_inputs(8, np.random.default_rng(0)))
    return ops


WORKLOADS = {
    "ring_sweep": ring_sweep,
    "general_graph": general_graph,
    "qi_verdicts": qi_verdicts,
}
