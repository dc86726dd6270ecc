"""Shared generators for randomized property tests."""

import contextlib
import sys

import numpy as np
import pytest

from relsyn import (
    DomainError,
    FirSystem,
    Plant,
    StateSpace,
    SynthesisProblem,
    build_tilde_plant,
    delay_structure_from_adjacency,
    fir_compose,
    laplacian_rnom,
    make_t_systems,
    markov,
    validate_c2,
)
from relsyn.solver import _free_columns


def rand_schur(rng, n, m, p, rho=0.6, d_scale=1.0):
    """Random discrete-time system with spectral radius exactly rho."""
    A = rng.normal(size=(n, n))
    radius = np.max(np.abs(np.linalg.eigvals(A)))
    A = A * (rho / radius)
    return StateSpace(
        A,
        rng.normal(size=(n, m)),
        rng.normal(size=(p, n)),
        d_scale * rng.normal(size=(p, m)),
    )


def rand_connected_c2(rng, n, extra_edges=0):
    """Sensing matrix of a random connected graph: a random spanning tree
    plus up to `extra_edges` distinct chords, random orientations."""
    edges = set()
    order = rng.permutation(n)
    for idx in range(1, n):
        a = int(order[idx])
        b = int(order[rng.integers(0, idx)])
        edges.add((min(a, b), max(a, b)))
    candidates = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
    ]
    rng.shuffle(candidates)
    for pair in candidates[:extra_edges]:
        edges.add(pair)
    rows = []
    for i, j in sorted(edges):
        r = np.zeros(n)
        if rng.random() < 0.5:
            r[i], r[j] = 1.0, -1.0
        else:
            r[i], r[j] = -1.0, 1.0
        rows.append(r)
    C2 = np.vstack(rows)
    rng.shuffle(C2)
    return C2


def rand_relative_fir(rng, ms, l, horizon):
    """Random FIR map whose every tap is relative on every component."""
    taps = rng.normal(size=(horizon + 1, l, ms.n_states))
    for comp in ms.components:
        cols = list(comp)
        taps[:, :, cols] -= taps[:, :, cols].mean(axis=2, keepdims=True)
    return FirSystem(taps)


def rand_relative_fir_exact(rng, ms, l, horizon, span=8):
    """Random relative FIR with *exactly* zero row sums in floating point.

    Entries are dyadic rationals (integers / span) and each component's
    last column is the negated integer sum of the others, which floats
    represent exactly; useful when a downstream map amplifies row-sum
    defects through unstable dynamics.
    """
    ints = rng.integers(-span, span + 1, size=(horizon + 1, l, ms.n_states))
    ints = ints.astype(float)
    for comp in ms.components:
        cols = list(comp)
        ints[:, :, cols[-1]] = -ints[:, :, cols[:-1]].sum(axis=2)
    return FirSystem(ints / span)


def consensus_plant(C2, gamma, b2=None):
    """x+ = x + u + w, z = [(1-gamma) deviation; gamma u], y = C2 x; with
    `b2` the actuator gains, x+ = x + diag(b2) u + w."""
    n = C2.shape[1]
    eye, zero = np.eye(n), np.zeros((n, n))
    return Plant(
        A=eye,
        B1=eye,
        B2=eye if b2 is None else np.diag(b2),
        C1=np.vstack([(1.0 - gamma) * (eye - np.ones((n, n)) / n), zero]),
        D12=np.vstack([zero, gamma * eye]),
        C2=C2,
    )


def actuator_gains(n):
    """Distinct actuator gains 0.6..1.4: a consensus plant that no
    eigenbasis of the Laplacian diagonalizes."""
    return np.linspace(0.6, 1.4, n)


#: Taps of the truncated-FIR oracles.  On the slowest problem they check,
#: the n = 8 ring (spectral radius 0.927, column delays up to 32), the
#: geometric tail past this horizon is 0.927^(2 (256 - 32)) = 1.6e-15, far
#: below 1e-12 of J, so the oracles stand for the exact objective.
ORACLE_HORIZON = 256


def consensus_problem(C2, gamma, horizon_q, b2=None):
    """The consensus plant with the Laplacian nominal and hop-distance
    delays of the sensing graph."""
    n = C2.shape[1]
    adj = np.zeros((n, n))
    for row in C2:
        i, j = np.flatnonzero(row)
        adj[i, j] = adj[j, i] = 1.0
    plant = consensus_plant(C2, gamma, b2)
    ms = validate_c2(C2)
    yd = make_t_systems(build_tilde_plant(plant), laplacian_rnom(adj), ms)
    return SynthesisProblem(
        yd=yd,
        structure=delay_structure_from_adjacency(adj),
        ms=ms,
        horizon_q=horizon_q,
    )


def eliminate_q0(n: int) -> FirSystem:
    """Column-lift map from the free circulant entries to the first column.

    The relative constraint ties the diagonal entry to the off-diagonal
    ones, so the first column of Q equals M q with q the n-1 free scalar
    FIRs: row 0 of M collects -z^(-l_j) over every parameter and row n-j
    holds +z^(-l_j) for parameter j, where l_j is the ring distance of
    circulant offset j.  Column sums vanish, so Q 1 = 0 holds by
    construction.  The circulant solve keeps this lift as column delays;
    the tests use the FIR map as its oracle.
    """
    if n < 2:
        raise DomainError("ring needs at least 2 nodes")
    dist = [min(j, n - j) for j in range(n)]
    horizon = max(dist[1:])
    taps = np.zeros((horizon + 1, n, n - 1))
    for j in range(1, n):
        taps[dist[j], 0, j - 1] = -1.0
        taps[dist[j], n - j, j - 1] = 1.0
    return FirSystem(taps)


def brute_force_objective(prob) -> float:
    """J of `prob` from an independent dense quadratic program: enumerate
    every free coefficient, build its column of the objective by explicit
    FIR composition over ORACLE_HORIZON taps, and solve the normal
    equations directly."""
    yd, T_J = prob.yd, ORACLE_HORIZON
    F1 = markov(yd.t1_stable, T_J)
    F2 = markov(yd.t2_stable, T_J)
    F3 = markov(yd.t3_projected, T_J)
    dirs, inputs, delays = _free_columns(prob.structure, prob.ms.indicators, prob.horizon_q)
    cols = []
    for k, a in zip(delays, inputs):
        d = np.zeros((prob.horizon_q + 1,) + dirs[a].shape)
        d[k] = dirs[a]
        contrib = fir_compose(fir_compose(F2, FirSystem(d), horizon=T_J), F3, horizon=T_J)
        cols.append(contrib.taps.reshape(-1))
    G = np.column_stack(cols)
    t = -F1.taps.reshape(-1)
    x = np.linalg.solve(G.T @ G, G.T @ t)
    return float(np.linalg.norm(G @ x - t))


@contextlib.contextmanager
def address_space(headroom: int):
    """Let the process map at most `headroom` more bytes while the block
    runs (Linux only), so that an oversized allocation fails at once,
    whatever memory the host has, instead of filling it."""
    resource = pytest.importorskip("resource")
    if not sys.platform.startswith("linux"):
        pytest.skip("RLIMIT_AS bounds the address space on Linux only")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as statm:
        mapped = int(statm.read().split()[0]) * resource.getpagesize()
    limit = mapped + headroom
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
