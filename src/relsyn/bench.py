"""Reproducible experiment runners: worked examples, ring sweep, simulation.

Human-facing reports print state indices 1-based (x1, x2, ...) to match
the usual control-theory convention; all library data stays 0-based.
"""

from __future__ import annotations

import importlib.util
import math
import os
import runpy
import time
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, DomainError, RelsynError
from .fileio import write_texts
from .lti import FirSystem, Plant, StateSpace, _shared_eigenbasis, fir_compose
from .measurement import (
    MeasurementStructure,
    recover_controller,
    recovered_structure,
    validate_c2,
)
from .solver import (
    SynthesisProblem,
    SynthesisResult,
    combined_r_structure,
    recovered_r_fir,
    solve,
    solve_ring_circulant,
)
from .structure import InfoStructure, is_qi, membership, qi_certificate, transfer_pattern
from .youla import build_tilde_plant, make_t_systems

CSV_HEADER = "n,gamma,J,J_per_node,solve_ms,residual"

#: Bound on max|K C2 - R| in :func:`verify_synthesis`, relative to 1 + max|R|.
KC2_MATCH_TOL = 1e-10

#: Trajectory norms above this are treated as divergence.
OVERFLOW_GUARD = 1e9

#: Steps per chunk of noise draws and output products in the simulation.
_CHUNK_STEPS = 4096

#: Entries of the simulation's lift [P Gamma] (32 MB) above which blocks
#: get shorter than the controller's T + 1 taps.
_LIFT_DOUBLES = 1 << 22


# ---------------------------------------------------------------------------
# the four-subsystem motivating example
# ---------------------------------------------------------------------------


def triangular_plant(n: int) -> Plant:
    """Stable upper-triangular chain of subsystems, all difference pairs
    measured.  The fixed coefficients make the report reproducible; the
    structural verdicts do not depend on them."""
    A = np.zeros((n, n))
    for i in range(n):
        A[i, i] = 0.5
        for j in range(i + 1, n):
            A[i, j] = 0.1
    C2 = all_pairs_sensing(n)
    C1 = np.vstack([np.eye(n), np.zeros((n, n))])
    D12 = np.vstack([np.zeros((n, n)), np.eye(n)])
    return Plant(A=A, B1=np.eye(n), B2=np.eye(n), C1=C1, D12=D12, C2=C2)


def all_pairs_sensing(n: int) -> np.ndarray:
    """One row x_i - x_j per pair i < j, in the order of np.triu_indices."""
    i, j = np.triu_indices(n, 1)
    rows = np.arange(len(i))
    C2 = np.zeros((len(i), n))
    C2[rows, i], C2[rows, j] = 1.0, -1.0
    return C2


def local_sensor_structure(n: int) -> InfoStructure:
    """Sparsity pattern where actuator i may use exactly the sensors
    located at subsystem i (the pairs (i, j) with j > i)."""
    i, _ = np.triu_indices(n, 1)
    mask = np.zeros((n, len(i)))
    mask[i, np.arange(len(i))] = 1.0
    return InfoStructure.from_sparsity(mask)


def star_recover_upper_triangular(
    R: FirSystem, n: int
) -> FirSystem:
    """Recover K from an upper-triangular relative R using, per output
    row i, only the sensors located at subsystem i.

    Row i of R is supported on columns j >= i with zero row sum, so it
    equals sum_j>i (-R_ij) (x_i - x_j); this recovery is a different (and
    here structure-compatible) representative than the spanning-tree one.
    """
    i, j = np.triu_indices(n, 1)
    taps = np.zeros((R.horizon + 1, n, len(i)))
    taps[:, i, np.arange(len(i))] = -R.taps[:, i, j]
    return FirSystem(taps)


@dataclass(frozen=True)
class MotivatingExampleReport:
    qi_output_feedback: bool
    qi_certificate: tuple | None
    qi_state_feedback: bool
    objective: float
    controller: FirSystem
    controller_in_structure: bool
    controller_matches_r: float
    text: str


def run_motivating_example() -> MotivatingExampleReport:
    """Four coupled subsystems, all pairwise differences measured, one
    subcontroller per subsystem restricted to its own sensors, Q of FIR
    horizon 8.

    Reports (a) that the sensor-access sparsity is not quadratically
    invariant for the measured-output formulation, with a violating
    quadruple, (b) that the equivalent state-feedback structure is, and
    (c) the optimal cost of the convex reformulation together with a
    recovered controller that respects the sensor-access pattern.
    """
    n, horizon_q = 4, 8
    plant = triangular_plant(n)
    ms = validate_c2(plant.C2)
    S = local_sensor_structure(n)

    g_yu = transfer_pattern(plant.pyu())
    cert = qi_certificate(S, g_yu)
    verdict_yu = cert is None

    uptri = InfoStructure.from_sparsity(np.triu(np.ones((n, n))))
    verdict_xu = is_qi(uptri, transfer_pattern(plant.pxu()))

    yd = make_t_systems(build_tilde_plant(plant), StateSpace.static_gain(np.zeros((n, n))), ms)
    prob = SynthesisProblem(yd=yd, structure=uptri, ms=ms, horizon_q=horizon_q)
    res = solve(prob)

    R = recovered_r_fir(yd, res.q_opt, res.k_opt.horizon)
    K = star_recover_upper_triangular(R, n)
    in_structure = membership(K, S)
    kc2 = fir_compose(K, FirSystem(ms.c2[np.newaxis]))
    match = float(np.abs(kc2.taps - R.padded(kc2.horizon).taps).max())

    lines = [
        "Four-subsystem motivating example",
        f"  sensor-access structure QI w.r.t. measured-output map: {verdict_yu}",
    ]
    if cert is not None:
        i, j, k, m = cert
        lines.append(
            f"    violating quadruple (u{i + 1}, y{j + 1}, u{k + 1}, y{m + 1}): "
            f"K[{i + 1},{j + 1}] G[{j + 1},{k + 1}] K[{k + 1},{m + 1}] hits the "
            f"forbidden entry ({i + 1},{m + 1})"
        )
    lines += [
        f"  upper-triangular structure QI w.r.t. state map: {verdict_xu}",
        f"  convex program optimum J = {res.objective:.9f} (FIR horizon {horizon_q})",
        f"  recovered controller in sensor-access structure: {in_structure}",
        f"  max |K C2 - R| over taps: {match:.3e}",
    ]
    return MotivatingExampleReport(
        qi_output_feedback=verdict_yu,
        qi_certificate=cert,
        qi_state_feedback=verdict_xu,
        objective=res.objective,
        controller=K,
        controller_in_structure=in_structure,
        controller_matches_r=match,
        text="\n".join(lines),
    )


# ---------------------------------------------------------------------------
# the five-state decomposition example
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionExampleReport:
    components: tuple
    indicators: np.ndarray
    infeasible_component: int
    feasible_controller: np.ndarray
    feasible_error: float
    text: str


def run_example_1() -> DecompositionExampleReport:
    """Five states, two sensors, three components: recovery exists only
    when the map is relative on each component and the isolated state's
    column vanishes."""
    C2 = np.array(
        [
            [1.0, 0.0, -1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 1.0, 0.0],
        ]
    )
    ms = validate_c2(C2)
    rng = np.random.default_rng(0)

    # infeasible: any nonzero entry on the isolated state's column
    bad = rng.normal(size=(1, 5))
    bad[0, [0, 2]] -= bad[0, [0, 2]].mean()
    bad[0, [1, 3]] -= bad[0, [1, 3]].mean()
    bad[0, 4] = 0.7
    try:
        recover_controller(bad, ms)
        raise AssertionError("recovery unexpectedly succeeded")
    except DecompositionError as exc:
        infeasible_component = exc.component

    # feasible: zero the isolated column and make each block relative
    good = bad.copy()
    good[0, 4] = 0.0
    K = recover_controller(good, ms)
    err = float(np.abs(K @ C2 - good).max())

    comps_1based = tuple(tuple(v + 1 for v in comp) for comp in ms.components)
    lines = [
        "Five-state decomposition example",
        "  components: " + ", ".join("{" + ",".join(map(str, c)) + "}" for c in comps_1based),
    ]
    for ci, ind in enumerate(ms.indicators):
        lines.append(f"  indicator {ci + 1}: {ind.astype(int).tolist()}")
    lines += [
        f"  map with nonzero column 5 rejected at component "
        f"{infeasible_component + 1} (state {{5}} supports no relative map)",
        f"  after zeroing column 5: K = {K.round(12).tolist()}, "
        f"max |K C2 - R| = {err:.3e}",
    ]
    return DecompositionExampleReport(
        components=ms.components,
        indicators=ms.indicators,
        infeasible_component=infeasible_component,
        feasible_controller=K,
        feasible_error=err,
        text="\n".join(lines),
    )


# ---------------------------------------------------------------------------
# closed-loop simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryRecord:
    """States, inputs and performance outputs of a driven simulation.

    Arrays are time-major; `diverged` marks a run stopped early by the
    overflow guard, with `steps_completed` the number of stored steps.
    """

    x: np.ndarray
    u: np.ndarray
    z: np.ndarray
    diverged: bool
    steps_completed: int


def simulate_closed_loop(
    plant: Plant,
    K: FirSystem,
    ms: MeasurementStructure,
    steps: int,
    seed: int,
) -> TrajectoryRecord:
    """Simulate x[t+1] = A x + B1 w + B2 u with u the FIR controller
    applied to the history of y = C2 x and w unit white noise (a zero B1
    turns the disturbance off).

    The controller's tap 0 acts on the current measurement (y has no
    feedthrough, so the loop is well posed).  With F_k = K_k C2,
    M_0 = A + B2 F_0 and M_k = B2 F_k, the loop is
    x[t+1] = sum_k M_k x[t-k] + B1 w[t] and u[t] = sum_k F_k x[t-k].

    The route is read off the loop.  When one orthogonal V makes A, B1,
    B2 and every F_k diagonal (`_modes`; a node-shaped plant whose loop
    is symmetric in a shared basis, as every ring loop is), the loop is
    n scalar recursions on the modes V' x; otherwise it is one n-state
    block in node coordinates.  On both routes the window s of a mode's
    last L = T + 1 states gives its next B states at once,
    P s + Gamma w_block (see `_lift`), one batched product per block
    over the modes.  B is L, or less where P and Gamma would pass
    `_LIFT_DOUBLES` entries.  This is the same recursion with its sums
    regrouped: P costs L n^2 flops per step on the block route, as the
    T + 1 products of the plain recursion do, and n L on the modal
    route, plus three n x n rotations per step (noise in, states and
    controls out), one product per chunk each.

    The noise comes from one generator in time order, so chunked draws
    give the same stream as per-step ones; the modal route rotates each
    chunk, w V.  Noise, outputs and the overflow guard go in chunks of
    about `_CHUNK_STEPS` steps.  A chunk's states, with L rows of
    history, live in one chunk-sized buffer in the route's coordinates
    and are copied (rotated) into the node-coordinate trajectory before
    the guard, so on both routes the run stops at the first state x
    above `OVERFLOW_GUARD` or not finite, and stores that state.  The
    controller output is one FIR filter over the chunk's states (scalar
    taps per mode on the modal route, rotated back), applied by
    overlap-save (`_overlap_save`).  Its rounding error is about eps
    times the largest state of the surrounding FFT segment, not of
    u[t]'s own window: u and z match the tap sum to that, so in the
    chunk where a run diverges the early entries are accurate only
    relative to the run's peak (up to `OVERFLOW_GUARD`).  Trajectories
    that do not fit in memory raise :class:`DomainError` with numpy's
    size and shape.
    """
    if steps < 1:
        raise DomainError("steps must be positive")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if K.n_inputs != plant.n_meas:
        raise DomainError(
            f"controller consumes {K.n_inputs} measurements, plant has {plant.n_meas}"
        )
    if K.n_outputs != plant.n_ctrl:
        raise DomainError(
            f"controller drives {K.n_outputs} inputs, plant has {plant.n_ctrl}"
        )
    if not np.array_equal(ms.c2, plant.C2):
        raise DomainError("measurement structure does not match the plant's C2")
    try:
        return _simulate(plant, K, steps, seed)
    except MemoryError as exc:
        raise DomainError(
            f"{str(exc) or 'out of memory'}; lower steps (now {steps})"
        ) from exc


def _simulate(plant: Plant, K: FirSystem, steps: int, seed: int) -> TrajectoryRecord:
    """`simulate_closed_loop` on inputs it has checked."""
    rng = np.random.default_rng(seed)
    n, q = plant.n_states, plant.n_dist
    L = K.horizon + 1
    F = K.taps @ plant.C2  # F[k] = K_k C2, so u[t] = sum_k F[k] x[t-k]
    V = _modes(plant, F)
    if V is None:
        # one mode of n states: M (1, L, n, n), B1 (1, n, q)
        M = plant.B2 @ F
        M[0] += plant.A
        M, b1, f = M[np.newaxis], plant.B1[np.newaxis], F
    else:
        # n modes of one state: M (n, L, 1, 1), B1 (n, 1, 1), f[k, i] of mode i
        a, b1, b2 = (np.diag(V.T @ X @ V) for X in (plant.A, plant.B1, plant.B2))
        f = np.diagonal(V.T @ F @ V, axis1=1, axis2=2)
        M = b2 * f
        M[0] += a
        M, b1 = M.T[:, :, None, None], b1[:, None, None]
    modes, s, qs = M.shape[0], M.shape[2], b1.shape[2]
    B = max(1, min(L, _LIFT_DOUBLES // (L * modes * s * (s + qs))))
    P, gamma = _lift(M, b1, B)
    B = P.shape[1] // s
    blocks = -(-steps // B)
    # X[L - 1 + t] = x[t], after L - 1 rows of zero history
    X = np.zeros((L + blocks * B, n))
    u = np.zeros((steps, plant.n_ctrl))
    z = np.zeros((steps, plant.n_perf))
    per_chunk = max(1, _CHUNK_STEPS // B)
    # buf[:, r] holds X[t0 + r] of the chunk from step t0 in the route's
    # coordinates, rows its (L + per_chunk B, n) view; block j maps the
    # window buf[:, jB .. jB + T] (flat[:, jBs : (jB + L)s]) to the B
    # states after it
    buf = np.zeros((modes, L + per_chunk * B, s))
    flat = buf.reshape(modes, -1)
    rows = buf[0] if V is None else buf[:, :, 0].T
    w = np.empty((per_chunk * B, q))
    diverged = False
    t_done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, blocks, per_chunk):
            nb = min(per_chunk, blocks - j0)
            t0, t1 = j0 * B, min((j0 + nb) * B, steps)
            wc = w[: nb * B]
            rng.standard_normal(out=wc[: t1 - t0])
            wc[t1 - t0 :] = 0.0
            wm = wc.reshape(1, nb, B * q) if V is None else (V.T @ wc.T).reshape(n, nb, B)
            new = flat[:, L * s : (L + nb * B) * s].reshape(modes, nb, B * s)
            np.matmul(wm, gamma.transpose(0, 2, 1), out=new)
            for j in range(nb):
                new[:, j] += (P @ flat[:, j * B * s : (j * B + L) * s, None])[..., 0]
            xm = rows[L : L + nb * B]
            X[L + t0 : L + t0 + nb * B] = xm if V is None else xm @ V.T
            xc = X[L + t0 : L + t1]
            # whole-chunk bounds first; a NaN fails them too
            if not (xc.max() <= OVERFLOW_GUARD and xc.min() >= -OVERFLOW_GUARD):
                ok = np.abs(xc).max(axis=1) <= OVERFLOW_GUARD
                if not ok.all():
                    diverged = True
                    t1 = t0 + int(np.argmin(ok)) + 1
            uc = _overlap_save(f, rows[: L - 1 + t1 - t0])  # from x[t0 - T .. t1 - 1]
            u[t0:t1] = uc if V is None else uc @ V.T
            np.matmul(X[L - 1 + t0 : L - 1 + t1], plant.C1.T, out=z[t0:t1])
            z[t0:t1] += u[t0:t1] @ plant.D12.T
            t_done = t1
            if diverged:
                break
            buf[:, :L] = buf[:, nb * B : nb * B + L]
    return TrajectoryRecord(
        x=X[L - 1 : L + t_done],
        u=u[:t_done],
        z=z[:t_done],
        diverged=diverged,
        steps_completed=t_done,
    )


def _modes(plant: Plant, F: np.ndarray) -> np.ndarray | None:
    """:func:`~relsyn.lti._shared_eigenbasis` of the groups A, B1, B2 and
    (F_0, ..., F_T); None unless the plant has n inputs of each kind."""
    if not plant.n_ctrl == plant.n_dist == plant.n_states:
        return None
    return _shared_eigenbasis(plant.A[np.newaxis], plant.B1[np.newaxis], plant.B2[np.newaxis], F)


def _overlap_save(F: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y[s] = sum_k F[k] x[s + L - 1 - k] for the len(x) - L + 1 windows
    of L = len(F) consecutive rows of x, oldest first.  F holds matrix
    taps, shape (L, m, n), or one scalar tap per channel, shape (L, n),
    which acts on each column of x alone.

    Overlap-save: the FFT size N is the power of two at or above 4L, each
    segment of N inputs yields N - L + 1 outputs, and all segments go
    through one batched rfft, one product per frequency (a matmul, or an
    elementwise product for scalar taps) and one irfft, at
    O(n m + (n + m) log N) per output for matrix taps.  The spectrum of F
    holds N / 2 + 1 complex taps, 4 to 8 times F's bytes.
    """
    L, m = F.shape[:2]
    n = x.shape[1]
    steps = x.shape[0] - L + 1
    if steps <= 0:
        return np.zeros((0, m))
    N = 1 << (4 * L - 1).bit_length()
    hop = N - L + 1
    segs = -(-steps // hop)
    padded = np.zeros((segs * hop + L - 1, n))
    padded[: len(x)] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, N, axis=0)[::hop]
    spec = np.fft.rfft(windows, axis=2).transpose(2, 1, 0)  # (N/2 + 1, n, segs)
    Fs = np.fft.rfft(F, N, axis=0)
    prod = Fs @ spec if F.ndim == 3 else Fs[:, :, None] * spec  # (N/2 + 1, m, segs)
    out = np.fft.irfft(prod, N, axis=0)
    return out[L - 1 :].transpose(2, 0, 1).reshape(segs * hop, m)[:steps]


def _lift(M: np.ndarray, B1: np.ndarray, B: int) -> tuple:
    """P (modes x Bs x Ls) and Gamma (modes x Bs x Bq) of the lifted loop
    of each mode, for taps M (modes x L x s x s) and noise input B1
    (modes x s x q): the mode's states x[t+1 .. t+B] in terms of its
    window x[t-T .. t] and its noise w[t .. t+B-1], all oldest first,
    for B <= L.  Found by running the recursion B steps on the identity,
    all modes at once.  The block ends before the first step whose rows
    overflow in any mode: past it a zero state times an infinite entry
    would read as divergence."""
    modes, L, s, _ = M.shape
    q = B1.shape[2]
    # [M_T ... M_0]: multiplies L consecutive states, oldest first
    m_row = M[:, ::-1].transpose(0, 2, 1, 3).reshape(modes, s, L * s)
    ls, cols = L * s, L * s + B * q
    out = np.zeros((modes, B, s, cols))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(B):
            # x[t+1+i] reads window states i..T (identity columns) and the
            # i states computed before it
            out[:, i, :, i * s : ls] = m_row[:, :, : ls - i * s]
            out[:, i] += m_row[:, :, ls - i * s :] @ out[:, :i].reshape(modes, i * s, cols)
            out[:, i, :, ls + i * q : ls + (i + 1) * q] += B1
            if i and not np.isfinite(out[:, i]).all():
                B = i
                break
    out = out[:, :B].reshape(modes, B * s, cols)
    return out[..., :ls], out[..., ls : ls + B * q]


# ---------------------------------------------------------------------------
# ring sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Grid of ring sizes and effort weights for the cost-per-node sweep,
    the Q horizon of every solve, and the CSV path (the plot script and
    the PNG are written beside it).  ``relsyn ring-sweep`` builds it from
    its four flags ``--n``, ``--gamma``, ``--horizon-q`` and ``--out``."""

    n_values: tuple
    gamma_values: tuple
    horizon_q: int
    output_path: str

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        gs = tuple(float(g) for g in self.gamma_values)
        if not ns or not gs:
            raise DomainError("sweep needs at least one n and one gamma")
        if any(n < 2 for n in ns):
            raise DomainError("every ring size must be at least 2")
        if any(not 0.0 <= g <= 1.0 for g in gs):
            raise DomainError("every gamma must lie in [0, 1]")
        if self.horizon_q < 0:
            raise DomainError("horizon_q must be nonnegative")
        object.__setattr__(self, "n_values", ns)
        object.__setattr__(self, "gamma_values", gs)


@dataclass(frozen=True)
class SweepRow:
    n: int
    gamma: float
    J: float
    J_per_node: float
    solve_ms: float
    residual: float
    failed: bool = False


def _solve_row(n: int, gamma: float, cfg: SweepConfig) -> SweepRow:
    t0 = time.perf_counter()
    try:
        res = solve_ring_circulant(n, gamma, horizon_q=cfg.horizon_q)
    except RelsynError:
        ms_elapsed = 1e3 * (time.perf_counter() - t0)
        return SweepRow(
            n=n, gamma=gamma, J=math.nan, J_per_node=math.nan,
            solve_ms=ms_elapsed, residual=math.nan, failed=True,
        )
    ms_elapsed = 1e3 * (time.perf_counter() - t0)
    return SweepRow(
        n=n,
        gamma=gamma,
        J=res.objective,
        J_per_node=res.objective / n,
        solve_ms=ms_elapsed,
        residual=res.residual_gradient,
    )


def run_ring_sweep(cfg: SweepConfig, render: bool):
    """Solve every (n, gamma) pair, write the CSV, emit a plot script and
    (when matplotlib renders successfully) a PNG next to it.

    Rows are written in (n, gamma) order, whatever the order of the grid;
    a failed solve keeps its row with NaN values and the sweep continues.

    Returns (rows, csv_path, plot_script_path, png_path). ``png_path`` is
    None, and no PNG is written, when ``render=False`` or when matplotlib
    is not installed (it is the optional ``plot`` extra); the CSV and the
    plot script are always written.
    """
    rows = [_solve_row(n, g, cfg) for n in cfg.n_values for g in cfg.gamma_values]
    rows.sort(key=lambda r: (r.n, r.gamma))
    script = _sibling(cfg.output_path, "_plot.py")
    write_texts({cfg.output_path: _csv_text(rows), script: _plot_script(cfg.output_path)})
    png = render_sweep_png(cfg.output_path) if render else None
    return rows, cfg.output_path, script, png


def _csv_text(rows) -> str:
    """Sweep rows under the fixed header, 12 significant digits."""
    body = "".join(
        f"{r.n},{r.gamma:.12g},{r.J:.12g},{r.J_per_node:.12g},"
        f"{r.solve_ms:.12g},{r.residual:.12g}\n"
        for r in rows
    )
    return CSV_HEADER + "\n" + body


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render cost-per-node curves from {csv_name} (one series per gamma).

Reads the CSV next to this file and writes {png_name} beside it, from any
working directory; failed (NaN) rows are skipped.
\"\"\"
import csv
import math
import os
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
series = defaultdict(list)
with open(os.path.join(here, {csv_name!r}), "r", encoding="utf-8") as fh:
    for row in csv.DictReader(fh):
        if not math.isnan(float(row["J"])):
            series[float(row["gamma"])].append((int(row["n"]), float(row["J_per_node"])))

fig, ax = plt.subplots(figsize=(6.0, 3.8))
for gamma in sorted(series):
    pts = sorted(series[gamma])
    ax.plot([p[0] for p in pts], [p[1] for p in pts], marker="o",
            label=f"gamma = {{gamma:g}}")
ax.set_xlabel("network size n")
ax.set_ylabel("cost per node J / n")
ax.legend()
ax.grid(True, alpha=0.3)
fig.tight_layout()
fig.savefig(os.path.join(here, {png_name!r}), dpi=160)
plt.close(fig)
"""


def _sibling(path: str, suffix: str) -> str:
    stem, _ = os.path.splitext(path)
    return stem + suffix


def _plot_script(csv_path: str) -> str:
    """The plot script that renders `csv_path` from beside it."""
    csv_name = os.path.basename(csv_path)
    png_name = os.path.basename(_sibling(csv_path, ".png"))
    return _PLOT_SCRIPT.format(csv_name=csv_name, png_name=png_name)


def render_sweep_png(csv_path: str) -> str | None:
    """Render the cost-per-node figure next to the CSV by running its
    emitted plot script in-process; returns the PNG path, or None when
    matplotlib is unavailable."""
    if importlib.util.find_spec("matplotlib") is None:
        return None
    runpy.run_path(_sibling(csv_path, "_plot.py"))
    return _sibling(csv_path, ".png")


# ---------------------------------------------------------------------------
# structural cross-checks of a synthesis result (library and tests only)
# ---------------------------------------------------------------------------


def verify_synthesis(prob: SynthesisProblem, res: SynthesisResult) -> dict:
    """Structural checks on a synthesis result: parameter membership,
    K C2 = R, and membership of the recovered controller in its induced
    structure.

    The solve recovered K as R Z, Z the recovery map, from the taps of
    :func:`recovered_r_fir` that R is taken from here, so K C2 = R is not
    a second route to R: it tests that Z C2 is the identity on R, which
    holds when R is relative, and that snapping K's roundoff to its
    structural zeros moved no tap far.  max|K C2 - R| on K's window is
    held to KC2_MATCH_TOL relative to 1 + max|R|, since the taps of K
    grow with R's."""
    ms = prob.ms
    kc2 = fir_compose(res.k_opt, FirSystem(ms.c2[np.newaxis]))
    R = recovered_r_fir(prob.yd, res.q_opt, res.k_opt.horizon)
    tol = KC2_MATCH_TOL * (1.0 + float(np.abs(R.taps).max(initial=0.0)))
    k_structure = recovered_structure(
        combined_r_structure(prob.structure, prob.yd), ms
    )
    return {
        "q_member": membership(res.q_opt, prob.structure),
        "k_member": membership(res.k_opt, k_structure),
        "kc2_matches_r": float(np.abs(kc2.taps - R.taps).max(initial=0.0)) <= tol,
        "constraint_violation": res.constraint_violation,
    }
