"""Checks of relsyn's outputs computed with numpy and scipy only.

Nothing here calls relsyn: the workloads hand over plain arrays (plant
matrices, controller taps, delay matrices) and get back a list of
problems, empty when the output passes.  The H2 norms come from the
impulse-response energy of the loop under the returned Q and under the
returned FIR controller K, the bounds on J from scipy's Riccati and
Lyapunov solvers, the state feedback behind Q from its impulse
response, and the QI verdicts from a min-plus product.

The synthesis checks assume consensus-type plants: the all-ones vector is
fixed by A, invisible to C1 and C2, so the loop is run on the
disagreement subspace where it must be stable.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

#: Largest relative gap between the reported J and the closed-loop H2 norm
#: under the returned K.  On the ring grid, correct points agree within
#: 1.2e-6 and the truncated-controller fault misses by 1.9e-4 or more.
H2_RTOL = 1e-5

#: Largest relative gap between J and the H2 norm of T1 + T2 Q T3 under
#: the returned Q, and between K C2 and the impulse response of the state
#: feedback behind Q.  Both agree within 4e-15 on every synthesis here,
#: the named-fault points included.
Q_RTOL = 1e-9

#: Prefixes of the problems that a truncated controller causes: the loop
#: closed by K differs from the one J describes.  Every other problem
#: means that J, Q or the taps of K themselves are wrong.
TRUNCATION_PROBLEMS = ("closed loop under K is unstable", "closed-loop H2 under K")

#: Slack on the centralized / nominal sandwich around J.
BOUND_RTOL = 1e-9

#: Indicator row sums of Q allowed, as in relsyn's own acceptance gate.
RELATIVE_ATOL = 1e-10

#: Monte Carlo acceptance: |E||z||^2 - J^2| within this many standard errors.
MC_SIGMAS = 6.0

#: Batches of the batch-means standard error of a simulated energy rate.
MC_BATCHES = 100

#: The loop counts as stable once its state energy decays by this factor
#: from its peak, and as unstable once it grows by DIVERGE from its start.
_DECAY = 1e-24
_DIVERGE = 1e20


def disagreement_projector(n: int) -> np.ndarray:
    """Orthogonal projector onto the complement of the all-ones vector."""
    return np.eye(n) - np.ones((n, n)) / n


def disagreement_basis(n: int) -> np.ndarray:
    """Orthonormal n x (n-1) basis of the complement of the all-ones vector."""
    return sla.null_space(np.ones((1, n)))


def _require_consensus(A, C1, C2) -> None:
    ones = np.ones(A.shape[0])
    if not (
        np.allclose(A @ ones, ones)
        and np.allclose(ones @ A, ones)
        and np.allclose(C1 @ ones, 0.0)
        and np.allclose(C2 @ ones, 0.0)
    ):
        raise ValueError("the closed-loop checks need a consensus-type plant")


def closed_loop_h2(A, B1, B2, C1, D12, C2, K_taps, max_steps: int = 200_000) -> float:
    """H2 norm of w -> z under u[t] = sum_k K_k y[t-k], y = C2 x.

    Impulse-response energy of the loop, one impulse per disturbance
    channel, run until the loop state (x and the last T measurements) has
    decayed by `_DECAY` from its peak.  Returns inf when the state grows
    by `_DIVERGE` or has not decayed after `max_steps` steps.
    """
    A, B1, B2, C1, D12, C2 = (np.asarray(M, dtype=float) for M in (A, B1, B2, C1, D12, C2))
    K = np.asarray(K_taps, dtype=float)
    _require_consensus(A, C1, C2)
    P = disagreement_projector(A.shape[0])
    T = K.shape[0] - 1
    hist = np.zeros((T + 1, C2.shape[0], B1.shape[1]))  # hist[k] = y[t-k]
    x = P @ B1  # state after the impulse at t = 0, agreement part dropped
    start = float(np.sum(x * x))
    peak = start
    energy = 0.0
    for step in range(max_steps):
        hist[1:] = hist[:-1]
        hist[0] = C2 @ x
        u = np.einsum("kij,kjw->iw", K, hist)
        z = C1 @ x + D12 @ u
        energy += float(np.sum(z * z))
        x = P @ (A @ x + B2 @ u)
        size = float(np.sum(x * x) + np.sum(hist[:T] * hist[:T]))
        if not math.isfinite(size) or size > _DIVERGE * start:
            return math.inf
        peak = max(peak, size)
        if step >= T and size <= _DECAY * peak:
            return math.sqrt(energy)
    return math.inf


def q_loop_h2(A, B1, B2, C1, D12, R_nom, Q_taps, max_steps: int = 200_000) -> float:
    """H2 norm of T1 + T2 Q T3, the closed loop behind the free parameter.

    The nominal loop x_n+ = (A + B2 R_nom) x_n + B1 w feeds q = Q x_n, and
    the plant runs under u = R_nom x - q.  Impulse-response energy, with
    the same stopping rule as `closed_loop_h2`.
    """
    A, B1, B2, C1, D12, R_nom = (np.asarray(M, dtype=float) for M in (A, B1, B2, C1, D12, R_nom))
    Q = np.asarray(Q_taps, dtype=float)
    _require_consensus(A, C1, R_nom)
    P = disagreement_projector(A.shape[0])
    A_nom = A + B2 @ R_nom
    T = Q.shape[0] - 1
    hist = np.zeros((T + 1, A.shape[0], B1.shape[1]))  # hist[k] = x_n[t-k]
    x_nom = P @ B1
    x = x_nom.copy()
    start = float(np.sum(x * x))
    peak = start
    energy = 0.0
    for step in range(max_steps):
        hist[1:] = hist[:-1]
        hist[0] = x_nom
        u = R_nom @ x - np.einsum("kij,kjw->iw", Q, hist)
        z = C1 @ x + D12 @ u
        energy += float(np.sum(z * z))
        x = P @ (A @ x + B2 @ u)
        x_nom = P @ (A_nom @ x_nom)
        size = float(np.sum(x * x) + np.sum(x_nom * x_nom) + np.sum(hist[:T] * hist[:T]))
        if not math.isfinite(size) or size > _DIVERGE * start:
            return math.inf
        peak = max(peak, size)
        if step >= T and size <= _DECAY * peak:
            return math.sqrt(energy)
    return math.inf


def state_feedback_taps(A, B2, R_nom, Q_taps, taps: int) -> np.ndarray:
    """First `taps` impulse-response coefficients of the state feedback
    behind Q, R = R_nom - Q (I - N Q)^-1, where N maps an injection v to
    the state of the nominal loop x+ = (A + B2 R_nom) x + B2 v.  So
    u = R_nom x - q with q = Q e and e = x + N q."""
    A, B2, R_nom = (np.asarray(M, dtype=float) for M in (A, B2, R_nom))
    Q = np.asarray(Q_taps, dtype=float)
    n = A.shape[0]
    A_nom = A + B2 @ R_nom
    hist = np.zeros((Q.shape[0], n, n))  # hist[k] = e[t-k]
    state = np.zeros((n, n))  # N's state, driven by q
    out = np.zeros((taps, B2.shape[1], n))
    for t in range(taps):
        x = np.eye(n) if t == 0 else np.zeros((n, n))
        hist[1:] = hist[:-1]
        hist[0] = x + state
        q = np.einsum("kij,kjw->iw", Q, hist)
        out[t] = R_nom @ x - q
        state = A_nom @ state + B2 @ q
    return out


def centralized_h2(A, B1, B2, C1, D12) -> float:
    """Optimal H2 norm over all state-feedback controllers (scipy DARE on
    the disagreement dynamics); no relative, delay or FIR constraint can
    do better."""
    V = disagreement_basis(A.shape[0])
    a = V.T @ A @ V
    b = V.T @ B2
    q = V.T @ C1.T @ C1 @ V
    r = D12.T @ D12
    s = V.T @ C1.T @ D12
    X = sla.solve_discrete_are(a, b, q, r, s=s)
    bw = V.T @ B1
    return math.sqrt(float(np.trace(bw.T @ X @ bw)))


def nominal_h2(A, B1, B2, C1, D12, R_nom) -> float:
    """H2 norm of the loop closed by the static state feedback u = R_nom x
    (Q = 0), by scipy's discrete Lyapunov solver on the disagreement
    dynamics."""
    V = disagreement_basis(A.shape[0])
    a = V.T @ (A + B2 @ R_nom) @ V
    if np.max(np.abs(np.linalg.eigvals(a))) >= 1.0:
        return math.inf
    b = V.T @ B1
    c = (C1 + D12 @ R_nom) @ V
    X = sla.solve_discrete_lyapunov(a, b @ b.T)
    return math.sqrt(float(np.trace(c @ X @ c.T)))


def graph_distance(adjacency) -> np.ndarray:
    """All-pairs hop distance (inf when unreachable) by Floyd-Warshall."""
    adj = np.asarray(adjacency) != 0
    n = adj.shape[0]
    D = np.where(adj, 1.0, np.inf)
    np.fill_diagonal(D, 0.0)
    for k in range(n):
        D = np.minimum(D, D[:, k, None] + D[None, k, :])
    return D


def forbidden_entries(taps, min_delay) -> int:
    """Number of nonzero FIR coefficients at taps earlier than allowed."""
    taps = np.asarray(taps)
    ks = np.arange(taps.shape[0])[:, None, None]
    return int(np.count_nonzero(taps[ks < np.asarray(min_delay)[None]]))


def check_synthesis(case: dict, J: float, Q_taps, K_taps) -> list:
    """Problems with one synthesis result, or an empty list.

    `case` holds the plant matrices (A, B1, B2, C1, D12, C2), the static
    nominal gain R_nom, the delay structures q_delay of Q and r_delay of
    the state feedback, and the reference norms h2_cent and h2_nom.
    Problems that start with one of TRUNCATION_PROBLEMS concern only the
    loop closed by K.
    """
    problems = []
    A, B1, B2, C1, D12, C2 = (case[k] for k in ("A", "B1", "B2", "C1", "D12", "C2"))
    R_nom = case["R_nom"]
    if not math.isfinite(J) or J <= 0.0:
        return [f"J = {J} is not a positive number"]
    lo, hi = case["h2_cent"], case["h2_nom"]
    if not lo * (1.0 - BOUND_RTOL) <= J <= hi * (1.0 + BOUND_RTOL):
        problems.append(f"J = {J:.12g} outside [centralized {lo:.12g}, nominal {hi:.12g}]")
    h2_q = q_loop_h2(A, B1, B2, C1, D12, R_nom, Q_taps)
    if not abs(h2_q - J) <= Q_RTOL * J:
        problems.append(f"H2 norm under Q {h2_q:.12g} misses J {J:.12g}")
    bad = forbidden_entries(Q_taps, case["q_delay"])
    if bad:
        problems.append(f"Q has {bad} coefficients outside its delay structure")
    sums = np.abs(np.asarray(Q_taps).sum(axis=2)).max()
    if sums > RELATIVE_ATOL:
        problems.append(f"Q does not annihilate the all-ones vector ({sums:.2e})")
    KC2 = np.einsum("kij,jl->kil", np.asarray(K_taps), C2)
    R = state_feedback_taps(A, B2, R_nom, Q_taps, KC2.shape[0])
    scale = 1.0 + float(np.abs(R).max())
    gap = float(np.abs(KC2 - R).max())
    if not gap <= Q_RTOL * scale:
        problems.append(f"K C2 differs from the state feedback behind Q by {gap:.2e}")
    ks = np.arange(KC2.shape[0])[:, None, None]
    outside = np.abs(KC2[ks < case["r_delay"][None]])
    if outside.size and outside.max() > 1e-12 * scale:
        problems.append("K C2 has coefficients outside the state feedback's delay structure")
    if np.abs(KC2.sum(axis=2)).max() > 1e-12 * scale:
        problems.append("K C2 is not relative")
    h2 = closed_loop_h2(A, B1, B2, C1, D12, C2, K_taps)
    if not math.isfinite(h2):
        problems.append(TRUNCATION_PROBLEMS[0])
    elif abs(h2 - J) > H2_RTOL * J:
        problems.append(
            f"{TRUNCATION_PROBLEMS[1]} {h2:.12g} misses J {J:.12g} by {abs(h2 - J) / J:.2e}"
        )
    return problems


def monte_carlo_problems(energies, J: float, h2: float) -> list:
    """Problems with one simulated replica: its mean energy rate must lie
    within MC_SIGMAS batch-means standard errors of both J^2 and the
    independent closed-loop H2^2."""
    e = np.asarray(energies, dtype=float)
    batches = e[: e.size - e.size % MC_BATCHES].reshape(MC_BATCHES, -1).mean(axis=1)
    emp = float(e.mean())
    se = float(batches.std(ddof=1) / math.sqrt(MC_BATCHES))
    problems = []
    for label, ref in (("J^2", J * J), ("H2^2", h2 * h2)):
        if not abs(emp - ref) <= MC_SIGMAS * se:
            problems.append(
                f"E||z||^2 = {emp:.6g} is {abs(emp - ref) / se:.1f} standard "
                f"errors from {label} = {ref:.6g}"
            )
    return problems


def structural_delays(A, B, C) -> np.ndarray:
    """Smallest k >= 1 with a structurally nonzero (C A^(k-1) B)[i, j]
    (inf when there is none), by boolean matrix powers; D = 0."""
    Ab, reach, Cb = (np.asarray(M) != 0 for M in (A, B, C))
    delay = np.full((Cb.shape[0], reach.shape[1]), np.inf)
    for k in range(1, Ab.shape[0] + 2):
        hit = ((Cb.astype(int) @ reach.astype(int)) > 0) & np.isinf(delay)
        delay[hit] = k
        reach = (Ab.astype(int) @ reach.astype(int)) > 0
    return delay


def min_plus_qi(s, g) -> bool:
    """Quadratic invariance of delay structure s (l x p) against plant
    pattern g (p x l): (s * g * s)[i, m] >= s[i, m] in the min-plus
    algebra.  Builds l x l and l x p arrays only."""
    s = np.asarray(s, dtype=float)
    g = np.asarray(g, dtype=float)
    l, p = s.shape
    sg = np.full((l, l), np.inf)
    for j in range(p):
        sg = np.minimum(sg, s[:, j, None] + g[None, j, :])
    sgs = np.full((l, p), np.inf)
    for k in range(l):
        sgs = np.minimum(sgs, sg[:, k, None] + s[None, k, :])
    return bool(np.all(sgs >= s))


def check_qi(s, g, cert, expect_qi: bool) -> list:
    """Problems with one QI verdict: it must match the min-plus verdict
    and the expected one, and a certificate (i, j, k, m) must violate
    s(i,j) + g(j,k) + s(k,m) >= s(i,m)."""
    s = np.asarray(s, dtype=float)
    g = np.asarray(g, dtype=float)
    verdict = cert is None
    problems = []
    if verdict != min_plus_qi(s, g):
        problems.append(f"verdict QI={verdict} disagrees with the min-plus product")
    if verdict != expect_qi:
        problems.append(f"verdict QI={verdict}, expected QI={expect_qi}")
    if cert is not None:
        i, j, k, m = cert
        if not s[i, j] + g[j, k] + s[k, m] < s[i, m]:
            problems.append(f"certificate {tuple(cert)} does not violate QI")
    return problems
