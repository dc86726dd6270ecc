"""Command-line interface.

Subcommands:
    graph       components, indicators and adjacency of a sensing matrix
    qi          quadratic-invariance verdict of a structure against a plant
    solve       synthesize a controller from a problem bundle
    ring-sweep  cost-per-node sweep over ring sizes and effort weights
    simulate    Monte Carlo cross-check of a synthesized controller
    example     run a packaged worked example
    youla       nominal-controller validation (``youla check``)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bench, fileio
from .errors import DomainError, RelsynError
from .lti import StateSpace
from .measurement import validate_c2
from .solver import DEFAULT_Q_HORIZON, SynthesisProblem, ring_plant, solve
from .structure import qi_certificate, ring_delay_structure, transfer_pattern
from .youla import build_tilde_plant, laplacian_rnom, make_t_systems, nominal_verdicts

#: Keys of the two forms of a problem bundle (``solve``, ``simulate`` and
#: ``youla check``).
_RING_KEYS = ("ring", "gamma", "horizon_q")
_PLANT_KEYS = ("plant", "c2", "structure", "rnom", "laplacian", "gamma", "horizon_q")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RelsynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relsyn",
        description="H2 controller synthesis restricted to relative measurements",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("graph", help="analyze a sensing matrix")
    p.add_argument("c2file")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("qi", help="quadratic-invariance verdict")
    p.add_argument("structfile")
    p.add_argument("plantfile")
    p.add_argument(
        "--map",
        choices=("auto", "yu", "xu"),
        default="auto",
        help="plant block to test against (measured-output or state map)",
    )
    p.set_defaults(func=_cmd_qi)

    p = sub.add_parser("solve", help="solve a problem bundle")
    p.add_argument("bundle")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("ring-sweep", help="cost-per-node sweep on rings")
    p.add_argument("--n", default="3..12", help="range a..b or comma list")
    p.add_argument("--gamma", default="0.2,0.4,0.5", help="comma list in [0,1]")
    p.add_argument("--horizon-q", type=int, default=DEFAULT_Q_HORIZON)
    p.add_argument("--out", default="ring_sweep.csv")
    p.add_argument("--no-plot", action="store_true")
    p.set_defaults(func=_cmd_ring_sweep)

    p = sub.add_parser("simulate", help="simulate a synthesized loop")
    p.add_argument("bundle")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("example", help="run a worked example")
    p.add_argument("name", choices=("motivating", "example1"))
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("youla", help="parameterization utilities")
    ysub = p.add_subparsers(required=True)
    yc = ysub.add_parser("check", help="validate a bundle's nominal controller")
    yc.add_argument("bundle")
    yc.set_defaults(func=_cmd_youla_check)

    return parser


def _cmd_graph(args) -> int:
    ms = validate_c2(fileio.read_matrix(args.c2file))
    doc = {
        "states": ms.n_states,
        "measurements": ms.n_measurements,
        "components": [[int(v) + 1 for v in comp] for comp in ms.components],
        "indicators": [[int(x) for x in row] for row in ms.indicators],
        "adjacency": [[int(x) for x in row] for row in ms.adjacency],
        "indexing": "1-based",
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_qi(args) -> int:
    s = fileio.read_structure(args.structfile)
    blocks = fileio.read_plant(args.plantfile)
    mode = args.map
    if mode == "auto":
        n = blocks["A"].shape[0]
        p = blocks["C2"].shape[0] if "C2" in blocks else None
        mode = "yu" if p is not None and s.cols == p and p != n else "xu"
    if mode == "yu":
        plant = fileio.plant_from_blocks(blocks)
        pattern = transfer_pattern(plant.pyu())
    else:
        n = blocks["A"].shape[0]
        plant = fileio.plant_from_blocks(blocks, c2=np.eye(n))
        pattern = transfer_pattern(plant.pxu())
    cert = qi_certificate(s, pattern)
    if cert is None:
        print(f"quadratically invariant (structure vs {mode} pattern): yes")
        return 0
    i, j, k, m = cert
    print(f"quadratically invariant (structure vs {mode} pattern): no")
    print(
        f"violating quadruple (i, j, k, m) = ({i + 1}, {j + 1}, {k + 1}, {m + 1}): "
        f"K[{i + 1},{j + 1}] G[{j + 1},{k + 1}] K[{k + 1},{m + 1}] lands on a "
        f"forbidden entry"
    )
    return 0


def _read_problem(path: str) -> tuple:
    """Read a problem bundle into (plant, nominal, structure, horizon_q, gamma).

    A plant bundle names its nominal exactly once, by ``rnom = <file>``
    (a static gain) or by ``laplacian = true``: -(1/n)L of the
    communication graph, the delay-1 entries of the structure, or of the
    measurement graph when the structure has none (a pure sparsity
    pattern).  ``ring = <n>`` is shorthand for the plant bundle of
    ``ring_plant(n, gamma)``, ``ring_delay_structure(n)`` and
    ``laplacian = true``.
    """
    bundle = fileio.read_bundle(path, ("ring",) + _PLANT_KEYS)
    horizon_q = fileio.number(path, bundle.get("horizon_q", DEFAULT_Q_HORIZON), int)
    if "ring" in bundle:
        extra = [key for key in bundle if key not in _RING_KEYS + ("_dir",)]
        if extra:
            raise DomainError(
                f"{path}: a ring bundle takes only the keys {', '.join(_RING_KEYS)}, "
                f"found {', '.join(extra)}"
            )
        n = fileio.number(path, bundle["ring"], int)
        gamma = fileio.number(path, bundle.get("gamma", 0.5))
        plant, structure = ring_plant(n, gamma), ring_delay_structure(n)
        bundle["laplacian"] = "true"
    else:
        missing = [key for key in ("plant", "structure") if key not in bundle]
        if missing:
            raise DomainError(
                f"{path}: a bundle needs either 'ring = <n>' or the keys {missing}"
            )
        c2 = fileio.read_matrix(fileio.bundle_path(bundle, "c2")) if "c2" in bundle else None
        plant = fileio.plant_from_blocks(
            fileio.read_plant(fileio.bundle_path(bundle, "plant")), c2=c2
        )
        structure = fileio.read_structure(fileio.bundle_path(bundle, "structure"))
        gamma = fileio.number(path, bundle["gamma"]) if "gamma" in bundle else math.nan
    laplacian = bundle.get("laplacian", "false")
    if laplacian not in ("true", "false"):
        raise DomainError(f"{path}: laplacian must be true or false, found {laplacian!r}")
    if (laplacian == "true") == ("rnom" in bundle):
        raise DomainError(
            f"{path}: name the nominal exactly once, by 'rnom = <file>' or 'laplacian = true'"
        )
    if laplacian == "true":
        comm = (structure.min_delay == 1.0).astype(float)
        rnom = laplacian_rnom(comm if comm.any() else validate_c2(plant.C2).adjacency)
    else:
        rnom = StateSpace.static_gain(fileio.read_matrix(fileio.bundle_path(bundle, "rnom")))
    return plant, rnom, structure, horizon_q, gamma


def _solve_bundle(path: str) -> tuple:
    """Solve the bundle's problem: (result, gamma, plant)."""
    plant, rnom, structure, horizon_q, gamma = _read_problem(path)
    ms = validate_c2(plant.C2)
    yd = make_t_systems(build_tilde_plant(plant), rnom, ms)
    prob = SynthesisProblem(yd=yd, structure=structure, ms=ms, horizon_q=horizon_q)
    return solve(prob), gamma, plant


def _cmd_solve(args) -> int:
    res, gamma, plant = _solve_bundle(args.bundle)
    out_dir = args.out_dir or os.path.dirname(os.path.abspath(args.bundle))
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"cannot create output directory {out_dir}: {exc}") from exc
    stem = os.path.splitext(os.path.basename(args.bundle))[0]
    q_path = os.path.join(out_dir, f"{stem}_q_opt.fir")
    k_path = os.path.join(out_dir, f"{stem}_k_opt.fir")
    fileio.write_texts({q_path: fileio.fir_text(res.q_opt), k_path: fileio.fir_text(res.k_opt)})
    print(
        f"n={plant.n_states} gamma={gamma:.12g} J={res.objective:.12g} "
        f"residual={res.residual_gradient:.12g}"
    )
    print(f"wrote {q_path}")
    print(f"wrote {k_path}")
    return 0


def _parse_n_values(text: str) -> tuple:
    text = text.strip()
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            return tuple(range(int(a), int(b) + 1))
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise DomainError(
            f"ring sizes must be a range a..b or a comma list of integers, got {text!r}"
        ) from None


def _cmd_ring_sweep(args) -> int:
    cfg = bench.SweepConfig(
        n_values=_parse_n_values(args.n),
        gamma_values=tuple(
            fileio.number("--gamma", tok) for tok in args.gamma.split(",") if tok
        ),
        horizon_q=args.horizon_q,
        output_path=args.out,
    )
    rows, csv_path, script_path, png_path = bench.run_ring_sweep(
        cfg, render=not args.no_plot
    )
    failed = sum(r.failed for r in rows)
    print(f"wrote {csv_path} ({len(rows)} rows, {failed} failed)")
    print(f"wrote {script_path}")
    if png_path:
        print(f"wrote {png_path}")
    return 0


def _cmd_simulate(args) -> int:
    res, _, plant = _solve_bundle(args.bundle)
    rec = bench.simulate_closed_loop(
        plant, res.k_opt, res.yd.ms, steps=args.steps, seed=args.seed
    )
    if rec.diverged:
        print(f"diverged after {rec.steps_completed} steps")
        return 1
    emp = float((rec.z**2).sum(axis=1).mean())
    j2 = res.objective**2
    print(
        f"steps={rec.steps_completed} empirical_E_z2={emp:.9g} "
        f"analytic_J2={j2:.9g} ratio={emp / j2 if j2 else math.nan:.6f}"
    )
    return 0


def _cmd_example(args) -> int:
    if args.name == "motivating":
        print(bench.run_motivating_example().text)
    else:
        print(bench.run_example_1().text)
    return 0


def _cmd_youla_check(args) -> int:
    plant, rnom, *_ = _read_problem(args.bundle)
    ms = validate_c2(plant.C2)
    stable, relative, stabilizing, _ = nominal_verdicts(build_tilde_plant(plant), rnom, ms)
    print(f"nominal controller stable:                    {_verdict(stable)}")
    print(f"annihilates every component indicator:        {_verdict(relative)}")
    print(f"stabilizes extended plant modulo agreement:   {_verdict(stabilizing)}")
    return 0 if (stable and relative and stabilizing) else 1


def _verdict(ok: bool) -> str:
    return "ok" if ok else "FAIL"


if __name__ == "__main__":
    sys.exit(main())
