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
from .solver import (
    DEFAULT_Q_HORIZON,
    SynthesisProblem,
    build_ring_problem,
    ring_plant,
    solve,
    solve_ring_circulant,
)
from .structure import qi_certificate, transfer_pattern
from .youla import build_tilde_plant, check_e_constraint, laplacian_rnom, make_t_systems


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
    p.add_argument("--laplacian", action="store_true",
                   help="nominal = -(1/n)L of the communication graph read "
                        "off the delay structure (measurement graph for "
                        "pure sparsity structures)")
    p.add_argument("--horizon-q", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("ring-sweep", help="cost-per-node sweep on rings")
    p.add_argument("--n", default="3..12", help="range a..b or comma list")
    p.add_argument("--gamma", default="0.2,0.4,0.5", help="comma list in [0,1]")
    p.add_argument("--horizon-q", type=int, default=DEFAULT_Q_HORIZON)
    p.add_argument("--out", default="ring_sweep.csv")
    p.add_argument("--config", default=None,
                   help="key = value file overriding the flags above")
    p.add_argument("--no-plot", action="store_true")
    p.set_defaults(func=_cmd_ring_sweep)

    p = sub.add_parser("simulate", help="simulate a synthesized loop")
    p.add_argument("bundle")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--laplacian", action="store_true")
    p.add_argument("--horizon-q", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("example", help="run a worked example")
    p.add_argument("name", choices=("motivating", "example1"))
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("youla", help="parameterization utilities")
    ysub = p.add_subparsers(required=True)
    yc = ysub.add_parser("check", help="validate a nominal controller")
    yc.add_argument("plantfile")
    yc.add_argument("rnomfile", nargs="?", default=None)
    yc.add_argument("--c2", default=None, help="sensing matrix file")
    yc.add_argument("--laplacian", action="store_true")
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


def _load_plant(path: str, c2=None):
    blocks = fileio.read_plant(path)
    return fileio.plant_from_blocks(blocks, c2=c2)


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


def _build_problem_from_bundle(bundle: dict, args) -> tuple:
    """Returns (problem, gamma_label, solver_kind)."""
    path = args.bundle
    horizon_q = args.horizon_q
    if horizon_q is None:
        horizon_q = fileio._number(path, bundle.get("horizon_q", DEFAULT_Q_HORIZON), int)

    if "ring" in bundle:
        n = fileio._number(path, bundle["ring"], int)
        gamma = fileio._number(path, bundle.get("gamma", 0.5))
        prob = build_ring_problem(n, gamma, horizon_q)
        return prob, gamma, "ring"

    missing = [key for key in ("plant", "structure") if key not in bundle]
    if missing:
        raise RelsynError(
            f"bundle needs either 'ring = <n>' or the keys {missing} "
            f"(plus optional c2/rnom/laplacian/gamma)"
        )
    plant = _load_plant(
        fileio.bundle_path(bundle, "plant"),
        c2=fileio.read_matrix(fileio.bundle_path(bundle, "c2")) if "c2" in bundle else None,
    )
    ms = validate_c2(plant.C2)
    structure = fileio.read_structure(fileio.bundle_path(bundle, "structure"))
    use_laplacian = args.laplacian or bundle.get("laplacian", "false").lower() in (
        "true",
        "1",
        "yes",
    )
    if use_laplacian:
        # the communication graph is what the delay structure encodes:
        # delay-1 entries are the neighbors; a pure sparsity structure has
        # none, in which case the measurement graph stands in
        comm = (structure.min_delay == 1.0).astype(float)
        rnom = laplacian_rnom(comm if comm.any() else ms.adjacency)
    elif "rnom" in bundle:
        rnom = StateSpace.static_gain(
            fileio.read_matrix(fileio.bundle_path(bundle, "rnom"))
        )
    else:
        rnom = StateSpace.static_gain(np.zeros((plant.n_ctrl, plant.n_states)))
    yd = make_t_systems(build_tilde_plant(plant), rnom, ms)
    prob = SynthesisProblem(yd=yd, structure=structure, ms=ms, horizon_q=horizon_q)
    gamma = fileio._number(path, bundle["gamma"]) if "gamma" in bundle else math.nan
    return prob, gamma, "general"


def _cmd_solve(args) -> int:
    bundle = fileio.read_bundle(args.bundle)
    prob, gamma, kind = _build_problem_from_bundle(bundle, args)
    if kind == "ring":
        res = solve_ring_circulant(prob.yd.plant.n_states, gamma, prob.horizon_q)
    else:
        res = solve(prob)
    out_dir = args.out_dir or bundle["_dir"]
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.bundle))[0]
    q_path = os.path.join(out_dir, f"{stem}_q_opt.fir")
    k_path = os.path.join(out_dir, f"{stem}_k_opt.fir")
    fileio.write_fir(q_path, res.q_opt)
    fileio.write_fir(k_path, res.k_opt)
    n = prob.yd.plant.n_states
    print(
        f"n={n} gamma={gamma:.12g} J={res.objective:.12g} "
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
    n_text, gamma_text = args.n, args.gamma
    horizon_q, out = args.horizon_q, args.out
    gamma_source = "--gamma"
    if args.config:
        cfgfile = fileio.read_bundle(args.config)
        n_text = cfgfile.get("n_values", n_text)
        if "gamma_values" in cfgfile:
            gamma_text, gamma_source = cfgfile["gamma_values"], args.config
        horizon_q = fileio._number(args.config, cfgfile.get("horizon_q", horizon_q), int)
        out = cfgfile.get("output_path", out)
    cfg = bench.SweepConfig(
        n_values=_parse_n_values(n_text),
        gamma_values=tuple(
            fileio._number(gamma_source, tok) for tok in gamma_text.split(",") if tok
        ),
        horizon_q=horizon_q,
        output_path=out,
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
    bundle = fileio.read_bundle(args.bundle)
    prob, gamma, kind = _build_problem_from_bundle(bundle, args)
    if kind == "ring":
        n = prob.yd.plant.n_states
        res = solve_ring_circulant(n, gamma, prob.horizon_q)
        plant = ring_plant(n, gamma)
    else:
        res = solve(prob)
        plant = _plant_of(bundle)
    rec = bench.simulate_closed_loop(
        plant, res.k_opt, prob.ms, steps=args.steps, seed=args.seed
    )
    if rec.diverged:
        print(f"diverged after {rec.steps_completed} steps")
        return 1
    emp = float((rec.z**2).sum(axis=1).mean())
    print(
        f"steps={rec.steps_completed} empirical_E_z2={emp:.9g} "
        f"analytic_J2={res.objective**2:.9g} ratio={emp / res.objective**2:.6f}"
    )
    return 0


def _plant_of(bundle: dict):
    return _load_plant(
        fileio.bundle_path(bundle, "plant"),
        c2=fileio.read_matrix(fileio.bundle_path(bundle, "c2")) if "c2" in bundle else None,
    )


def _cmd_example(args) -> int:
    if args.name == "motivating":
        print(bench.run_motivating_example().text)
    else:
        print(bench.run_example_1().text)
    return 0


def _cmd_youla_check(args) -> int:
    from .lti import close_loop, is_internally_stable

    c2 = fileio.read_matrix(args.c2) if args.c2 else None
    plant = _load_plant(args.plantfile, c2=c2)
    ms = validate_c2(plant.C2)
    if args.laplacian:
        rnom = laplacian_rnom(ms.adjacency)
    elif args.rnomfile:
        rnom = StateSpace.static_gain(fileio.read_matrix(args.rnomfile))
    else:
        print("error: provide an rnom file or --laplacian", file=sys.stderr)
        return 2
    tilde = build_tilde_plant(plant)
    stable = rnom.n_states == 0 or rnom.is_schur()
    relative = check_e_constraint(rnom, ms.indicators)
    cl = close_loop(tilde, rnom)
    dirs = []
    for e in ms.agreement_directions():
        v = np.zeros(cl.n_states)
        v[: plant.n_states] = e
        dirs.append(v)
    stabilizing = is_internally_stable(cl, dirs)
    print(f"nominal controller stable:                    {_verdict(stable)}")
    print(f"annihilates every component indicator:        {_verdict(relative)}")
    print(f"stabilizes extended plant modulo agreement:   {_verdict(stabilizing)}")
    return 0 if (stable and relative and stabilizing) else 1


def _verdict(ok: bool) -> str:
    return "ok" if ok else "FAIL"


if __name__ == "__main__":
    sys.exit(main())
