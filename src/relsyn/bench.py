"""Reproducible experiment runners: worked examples, ring sweep, simulation.

Human-facing reports print state indices 1-based (x1, x2, ...) to match
the usual control-theory convention; all library data stays 0-based.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, DomainError, RelsynError
from .lti import FirSystem, Plant, StateSpace, fir_compose
from .measurement import MeasurementStructure, recover_controller, validate_c2
from .solver import (
    DEFAULT_Q_HORIZON,
    SynthesisProblem,
    SynthesisResult,
    _clean_r_fir,
    combined_r_structure,
    recovered_r_fir,
    recovered_structure,
    solve,
    solve_ring_circulant,
)
from .structure import InfoStructure, is_qi, membership, qi_certificate, transfer_pattern
from .youla import build_tilde_plant, check_e_constraint, make_t_systems

CSV_HEADER = "n,gamma,J,J_per_node,solve_ms,residual"

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


def triangular_plant(n: int = 4, diag: float = 0.5, upper: float = 0.1) -> Plant:
    """Stable upper-triangular chain of subsystems, all difference pairs
    measured.  The fixed coefficients make the report reproducible; the
    structural verdicts do not depend on them."""
    A = np.zeros((n, n))
    for i in range(n):
        A[i, i] = diag
        for j in range(i + 1, n):
            A[i, j] = upper
    C2 = all_pairs_sensing(n)
    C1 = np.vstack([np.eye(n), np.zeros((n, n))])
    D12 = np.vstack([np.zeros((n, n)), np.eye(n)])
    return Plant(A=A, B1=np.eye(n), B2=np.eye(n), C1=C1, D12=D12, C2=C2)


def all_pairs_sensing(n: int) -> np.ndarray:
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            r = np.zeros(n)
            r[i], r[j] = 1.0, -1.0
            rows.append(r)
    return np.vstack(rows)


def _pair_row_index(n: int, i: int, j: int) -> int:
    """Row of the all-pairs sensing matrix measuring x_i - x_j (i < j)."""
    assert i < j
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def local_sensor_structure(n: int) -> InfoStructure:
    """Sparsity pattern where actuator i may use exactly the sensors
    located at subsystem i (the pairs (i, j) with j > i)."""
    p = n * (n - 1) // 2
    mask = np.zeros((n, p))
    for i in range(n):
        for j in range(i + 1, n):
            mask[i, _pair_row_index(n, i, j)] = 1.0
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
    p = n * (n - 1) // 2
    taps = np.zeros((R.horizon + 1, n, p))
    for t in range(R.horizon + 1):
        for i in range(n):
            for j in range(i + 1, n):
                taps[t, i, _pair_row_index(n, i, j)] = -R.taps[t, i, j]
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


def run_motivating_example(horizon_q: int = 8) -> MotivatingExampleReport:
    """Four coupled subsystems, all pairwise differences measured, one
    subcontroller per subsystem restricted to its own sensors.

    Reports (a) that the sensor-access sparsity is not quadratically
    invariant for the measured-output formulation, with a violating
    quadruple, (b) that the equivalent state-feedback structure is, and
    (c) the optimal cost of the convex reformulation together with a
    recovered controller that respects the sensor-access pattern.
    """
    n = 4
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

    r_fir = recovered_r_fir(yd, res.q_opt, horizon_q + 2 * n)
    r_clean = _clean_r_fir(r_fir, uptri, ms)
    K = star_recover_upper_triangular(r_clean, n)
    in_structure = membership(K, S)
    kc2 = fir_compose(K, FirSystem(ms.c2[np.newaxis]))
    match = float(np.abs(kc2.taps - r_clean.padded(kc2.horizon).taps).max())

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


def run_example_1(seed: int = 0) -> DecompositionExampleReport:
    """Five states, two sensors, three components: recovery exists only
    when the map decomposes into per-component relative blocks and the
    isolated state's column vanishes."""
    C2 = np.array(
        [
            [1.0, 0.0, -1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 1.0, 0.0],
        ]
    )
    ms = validate_c2(C2)
    rng = np.random.default_rng(seed)

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
    disturbance_scale: float = 1.0,
) -> TrajectoryRecord:
    """Simulate x[t+1] = A x + B1 w + B2 u with u the FIR controller
    applied to the history of y = C2 x and w unit white noise (scaled by
    `disturbance_scale`; zero turns the disturbance off).

    The controller's tap 0 acts on the current measurement (y has no
    feedthrough, so the loop is well posed).  With M_0 = A + B2 K_0 C2 and
    M_k = B2 K_k C2, the loop is x[t+1] = sum_k M_k x[t-k] + B1 w[t], so
    the window s of the last L = T + 1 states gives the next B states at
    once, P s + Gamma w_block (see `_lift`).  B is L, or less where P and
    Gamma would pass `_LIFT_DOUBLES` entries.  This is the same recursion
    with its sums regrouped: P costs L n^2 flops per step, as the T + 1
    products of the plain recursion do, but the Python loop runs once
    per B steps.  The noise comes from one generator in time order, so
    chunked draws give the same stream as per-step ones.  Noise, outputs
    and the overflow guard go in chunks of about `_CHUNK_STEPS` steps;
    the run stops at the first state above `OVERFLOW_GUARD` or not
    finite, and stores that state.
    """
    if steps < 1:
        raise DomainError("steps must be positive")
    if K.n_inputs != plant.n_meas:
        raise DomainError(
            f"controller consumes {K.n_inputs} measurements, plant has {plant.n_meas}"
        )
    if not np.array_equal(ms.c2, plant.C2):
        raise DomainError("measurement structure does not match the plant's C2")
    rng = np.random.default_rng(seed)
    n, q = plant.n_states, plant.n_dist
    L = K.horizon + 1
    B = max(1, min(L, _LIFT_DOUBLES // (L * n * (n + q))))
    F = K.taps @ plant.C2  # F[k] = K_k C2, so u[t] = sum_k F[k] x[t-k]
    P, gamma = _lift(plant, F, B)
    B = P.shape[0] // n
    blocks = -(-steps // B)
    # X[L - 1 + t] = x[t], after L - 1 rows of zero history; block j maps
    # the window x[jB - T .. jB] (flat[jBn : (jB + L)n]) to new[j], the
    # states x[jB + 1 .. jB + B]
    X = np.zeros((L + blocks * B, n))
    flat = X.reshape(-1)
    new = X[L:].reshape(blocks, B * n)
    u = np.zeros((steps, plant.n_ctrl))
    z = np.zeros((steps, plant.n_perf))
    per_chunk = max(1, _CHUNK_STEPS // B)
    diverged = False
    t_done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, blocks, per_chunk):
            j1 = min(j0 + per_chunk, blocks)
            t0, t1 = j0 * B, min(j1 * B, steps)
            w = np.zeros(((j1 - j0) * B, q))
            w[: t1 - t0] = disturbance_scale * rng.standard_normal((t1 - t0, q))
            np.matmul(w.reshape(j1 - j0, B * q), gamma.T, out=new[j0:j1])
            for j in range(j0, j1):
                new[j] += P @ flat[j * B * n : (j * B + L) * n]
            ok = np.abs(X[L + t0 : L + t1]).max(axis=1) <= OVERFLOW_GUARD
            if not ok.all():
                diverged = True
                t1 = t0 + int(np.argmin(ok)) + 1
            uc = u[t0:t1]
            for k in range(L):
                uc += X[L - 1 + t0 - k : L - 1 + t1 - k] @ F[k].T
            np.matmul(X[L - 1 + t0 : L - 1 + t1], plant.C1.T, out=z[t0:t1])
            z[t0:t1] += uc @ plant.D12.T
            t_done = t1
            if diverged:
                break
    return TrajectoryRecord(
        x=X[L - 1 : L + t_done],
        u=u[:t_done],
        z=z[:t_done],
        diverged=diverged,
        steps_completed=t_done,
    )


def _lift(plant: Plant, F: np.ndarray, B: int) -> tuple:
    """P (Bn x Ln) and Gamma (Bn x Bq) of the lifted loop: the states
    x[t+1 .. t+B] in terms of the window x[t-T .. t] and the noise
    w[t .. t+B-1], all oldest first, for B <= L.  Found by running the
    recursion B steps on the identity.  The block ends before the first
    step whose rows overflow: past it a zero state times an infinite
    entry would read as divergence."""
    L, n, q = F.shape[0], plant.n_states, plant.n_dist
    M = plant.B2 @ F
    M[0] += plant.A
    # [M_T ... M_0]: multiplies L consecutive states, oldest first
    m_row = M[::-1].transpose(1, 0, 2).reshape(n, L * n)
    ln, cols = L * n, L * n + B * q
    out = np.zeros((B, n, cols))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(B):
            # x[t+1+i] reads window states i..T (identity columns) and the
            # i states computed before it
            out[i, :, i * n : ln] = m_row[:, : ln - i * n]
            out[i] += m_row[:, ln - i * n :] @ out[:i].reshape(i * n, cols)
            out[i, :, ln + i * q : ln + (i + 1) * q] += plant.B1
            if i and not np.isfinite(out[i]).all():
                B = i
                break
    out = out[:B].reshape(B * n, cols)
    return out[:, :ln], out[:, ln : ln + B * q]


# ---------------------------------------------------------------------------
# ring sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Grid of ring sizes and effort weights for the cost-per-node sweep."""

    n_values: tuple
    gamma_values: tuple
    horizon_q: int = DEFAULT_Q_HORIZON
    output_path: str = "ring_sweep.csv"

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        gs = tuple(float(g) for g in self.gamma_values)
        if not ns or not gs:
            raise DomainError("sweep needs at least one n and one gamma")
        if any(n < 2 for n in ns):
            raise DomainError("every ring size must be at least 2")
        if any(not 0.0 <= g <= 1.0 for g in gs):
            raise DomainError("every gamma must lie in [0, 1]")
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


def run_ring_sweep(cfg: SweepConfig, render: bool = True):
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
    emit_csv(rows, cfg.output_path)
    script = _emit_plot_script(cfg.output_path)
    png = render_sweep_png(cfg.output_path) if render else None
    return rows, cfg.output_path, script, png


def emit_csv(rows, path: str) -> str:
    """Write sweep rows with the fixed header, 12 significant digits and
    LF line endings."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in rows:
                fh.write(
                    f"{r.n},{r.gamma:.12g},{r.J:.12g},{r.J_per_node:.12g},"
                    f"{r.solve_ms:.12g},{r.residual:.12g}\n"
                )
    except OSError as exc:
        raise DomainError(f"cannot write sweep CSV to {path}: {exc}") from exc
    return path


def parse_csv(path: str):
    """Read back a sweep CSV written by :func:`emit_csv`."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise DomainError(f"{path}: unexpected header {header!r}")
            for line in fh:
                if not line.strip():
                    continue
                n, gamma, J, Jn, ms_t, resid = line.strip().split(",")
                rows.append(
                    SweepRow(
                        n=int(n),
                        gamma=float(gamma),
                        J=float(J),
                        J_per_node=float(Jn),
                        solve_ms=float(ms_t),
                        residual=float(resid),
                        failed=math.isnan(float(J)),
                    )
                )
    except OSError as exc:
        raise DomainError(f"cannot read sweep CSV from {path}: {exc}") from exc
    return rows


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render cost-per-node curves from {csv_name} (one series per gamma).\"\"\"
import csv
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

series = defaultdict(list)
with open({csv_name!r}, "r", encoding="utf-8") as fh:
    for row in csv.DictReader(fh):
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
fig.savefig({png_name!r}, dpi=160)
print("wrote", {png_name!r})
"""


def _sibling(path: str, suffix: str) -> str:
    stem, _ = os.path.splitext(path)
    return stem + suffix


def _emit_plot_script(csv_path: str) -> str:
    script_path = _sibling(csv_path, "_plot.py")
    csv_name = os.path.basename(csv_path)
    png_name = os.path.basename(_sibling(csv_path, ".png"))
    with open(script_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_PLOT_SCRIPT.format(csv_name=csv_name, png_name=png_name))
    return script_path


def render_sweep_png(csv_path: str) -> str | None:
    """Render the cost-per-node figure next to the CSV; returns the PNG
    path, or None when matplotlib is unavailable."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return None
    rows = [r for r in parse_csv(csv_path) if not r.failed]
    gammas = sorted({r.gamma for r in rows})
    fig, ax = plt.subplots(figsize=(6.0, 3.8))
    for gamma in gammas:
        pts = sorted((r.n, r.J_per_node) for r in rows if r.gamma == gamma)
        ax.plot(
            [p[0] for p in pts],
            [p[1] for p in pts],
            marker="o",
            label=f"gamma = {gamma:g}",
        )
    ax.set_xlabel("network size n")
    ax.set_ylabel("cost per node J / n")
    ax.legend()
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    png_path = _sibling(csv_path, ".png")
    fig.savefig(png_path, dpi=160)
    plt.close(fig)
    return png_path


# ---------------------------------------------------------------------------
# cross-checks shared by the CLI and the acceptance suite
# ---------------------------------------------------------------------------


def verify_synthesis(prob: SynthesisProblem, res: SynthesisResult) -> dict:
    """Structural checks on a synthesis result: parameter membership,
    indicator annihilation of K C2, and membership of the recovered
    controller in its induced structure."""
    ms = prob.ms
    kc2 = fir_compose(res.k_opt, FirSystem(ms.c2[np.newaxis]))
    k_structure = recovered_structure(
        combined_r_structure(prob.structure, prob.yd), ms
    )
    return {
        "q_member": membership(res.q_opt, prob.structure),
        "k_member": membership(res.k_opt, k_structure),
        "kc2_relative": check_e_constraint(kc2, ms.indicators),
        "constraint_violation": res.constraint_violation,
    }
