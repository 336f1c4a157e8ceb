"""Command-line driver: sampling, transforms, rotation, solves and audits.

Exit codes: 0 all good (and all selected audits passed), 1 compute failure
(a failed audit or solve, a convexity, rotation or slope-grid precondition,
file I/O), 2 invalid configuration or arguments.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .audits import (
    JetCheckConfig,
    check_rotation_preserves_subsolution,
    check_rotation_preserves_supersolution,
    check_subsolution,
    check_supersolution,
    coefficient_audit,
    hessian_bound_harness,
    subharmonicity_trial,
)
from .conjugate import (
    _CONVEXITY_TOL,
    DomainMask,
    conjugate_fast,
    slope_domain,
    subdifferential,
)
from .errors import (
    ConvexityError,
    GridError,
    RotationError,
    SlagLabError,
    SlopeGridError,
)
from .experiments import (
    DEFAULT_SEED,
    REGISTRY,
    ExperimentConfig,
    _key_value_lines,
    parse_config,
    run_all,
)
from .fields import GridSpec, sample_potential
from .formulas import REGISTRY as FORMULAS
from .formulas import parse_formula
from .hessians import hessian_field
from .operators import ProblemSpec, ma_residual, mar_residual, slag_residual
from .reports import write_json
from .rotation import RotatedPotential, RotationParams, rotate
from .solver import SolverConfig, solve_dirichlet

logger = logging.getLogger("slag_lab.cli")

_COMPUTE_FAILURES = (ConvexityError, RotationError, SlopeGridError, OSError)


def _angle(text: str) -> float:
    """Rotation angle argument: a float strictly inside (0, pi/2)."""
    alpha = float(text)
    if not 0.0 < alpha < 0.5 * math.pi:
        raise argparse.ArgumentTypeError(
            f"angle must lie in (0, pi/2), got {text}")
    return alpha


def _grid_from_args(args) -> GridSpec:
    if args.h is not None:
        if not (math.isfinite(args.h) and args.h > 0):
            raise GridError(f"--h must be finite and positive, got {args.h}")
        nodes = int(round(2.0 * args.radius / args.h)) + 1
    else:
        nodes = args.grid
    return GridSpec.ball_box(args.dim, nodes, args.radius)


def cmd_sample(args) -> int:
    grid = _grid_from_args(args)
    field = sample_potential(parse_formula(args.formula), grid)
    fileio.save_field(args.out, field)
    print(f"wrote {args.out} ({grid.shape}, h={grid.spacing:.6g})")
    return 0


def cmd_conjugate(args) -> int:
    field = fileio.load_field(args.infile)
    star = conjugate_fast(field, convexity_tol=args.tol)
    fileio.save_field(args.out, star, value_kind="conjugate")
    print(f"wrote {args.out} ({star.grid.shape}, h={star.grid.spacing:.6g})")
    return 0


def cmd_subdiff(args) -> int:
    field = fileio.load_field(args.infile)
    point = tuple(float(x) for x in args.point.split(","))
    s = subdifferential(field, point, tol=args.tol)
    anchor = tuple(float(x) for x in s.anchor)
    print(f"# anchor {anchor}  tolerance {s.tolerance:.6g}")
    for member in s.members:
        print(",".join(f"{x:.17g}" for x in member))
    return 0


def cmd_slope_domain(args) -> int:
    field = fileio.load_field(args.infile)
    dom = slope_domain(field)
    fileio.write_pf1(args.out, dom.slope_grid, dom.inside.astype(float), "mask")
    print(f"wrote {args.out} ({int(dom.inside.sum())} inside nodes)")
    return 0


def cmd_rotate(args) -> int:
    field = fileio.load_field(args.infile)
    params = RotationParams.from_alpha(args.alpha)
    rp = rotate(field, params, delta=args.delta)
    out = Path(args.out)
    # the field's mask is the slope domain; save_field writes it alongside
    fileio.save_field(out, rp.field)
    print(f"wrote {out} and {out.with_suffix('.mask.pf1')}")
    return 0


def cmd_residual(args) -> int:
    field = fileio.load_field(args.infile)
    h = hessian_field(field)
    if args.variant == "slag":
        res = slag_residual(h, args.theta)
    elif args.variant == "ma":
        res = ma_residual(h, args.phi)
    else:
        res = mar_residual(h, args.phi)
    values = np.where(res.valid, res.values, np.nan)
    fileio.write_pf1(args.out, field.grid, values, "potential")
    print(f"wrote {args.out}; max |residual| = {res.max_abs:.6g}; "
          f"{len(res.flagged)} flagged nodes")
    return 0


def cmd_solve(args) -> int:
    grid = _grid_from_args(args)
    spec = ProblemSpec(dim=args.dim, theta=args.theta)
    options = {}
    if args.config:
        for key, value in _key_value_lines(Path(args.config).read_text()):
            if key not in SolverConfig.__dataclass_fields__:
                raise SlagLabError(f"unknown solver option {key!r}")
            options[key] = (int if key == "max_iters" else float)(value)
    cfg = SolverConfig(**options)
    if args.boundary.endswith(".pf1"):
        g = fileio.load_field(args.boundary).values
    else:
        g = parse_formula(args.boundary)
    field, report = solve_dirichlet(g, spec, grid, cfg)
    fileio.save_field(args.out, field)
    if args.report:
        write_json(args.report, report.to_json())
    print(f"converged={report.converged} iterations={report.iterations} "
          f"residual={report.final_residual:.3e}")
    return 0 if report.converged else 1


def cmd_audit(args) -> int:
    if args.check == "coeffs":
        if not args.spectrum:
            raise SlagLabError("--check coeffs needs --spectrum")
        lam = np.array([float(x) for x in args.spectrum.split(",")])
        tol = 0.0 if args.tol is None else args.tol
        report = coefficient_audit(lam, args.m, tol)
    else:
        if not args.infile:
            raise SlagLabError(f"--check {args.check} needs --in")
        cfg = (JetCheckConfig() if args.tol is None
               else JetCheckConfig(tolerance=args.tol))
        field = fileio.load_field(args.infile)
        if args.check == "super":
            report = check_supersolution(field, args.theta, cfg)
        elif args.check == "sub":
            report = check_subsolution(field, args.theta, cfg)
        elif args.check == "rotation-super":
            report = check_rotation_preserves_supersolution(
                field, args.theta, args.alpha, delta=args.delta, cfg=cfg
            )
        elif args.check == "rotation-sub":
            eps = [float(x) * field.grid.spacing
                   for x in (args.eps or "2,4,8").split(",")]
            report = check_rotation_preserves_subsolution(
                field, args.theta, args.alpha, eps, cfg=cfg
            )
        elif args.check == "hessian-bound":
            report = hessian_bound_harness(field, args.theta, args.alpha, cfg)
        elif args.check == "bm":
            params = RotationParams.from_alpha(args.alpha)
            rp = RotatedPotential(
                field, DomainMask(field.grid, field.mask.copy()), params
            )
            report = subharmonicity_trial(rp, m=args.m, slack=args.slack)
        else:
            raise SlagLabError(f"unknown audit {args.check!r}")
    payload = report.to_json()
    if args.json:
        write_json(args.json, payload)
    print(json.dumps(payload if args.verbose else report.summary_row()))
    return 0 if report.passed else 1


def cmd_run(args) -> int:
    outdir = args.outdir
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.config:
        cfg, file_outdir = parse_config(Path(args.config).read_text())
        if args.seed is not None:
            cfg.seed = args.seed
        configs = [cfg]
        outdir = outdir or file_outdir
    elif args.all:
        configs = [ExperimentConfig(name, seed=seed) for name in REGISTRY]
    elif args.experiment:
        configs = [ExperimentConfig(args.experiment, seed=seed)]
    else:
        print("nothing to run: pass --experiment, --all or --config",
              file=sys.stderr)
        return 2
    results, passed = run_all(configs, outdir)
    for result in results:
        for rep in result.reports:
            status = "pass" if rep.passed else "FAIL"
            print(f"[{status}] {rep.name}: checked={rep.checked_nodes} "
                  f"min_margin={rep.min_margin:.3e}")
    return 0 if passed else 1


def cmd_convert(args) -> int:
    fileio.convert(args.infile, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slag-lab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--verbose", action="store_true",
                        help="full audit payloads, debug log lines on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_args(p):
        p.add_argument("--dim", type=int, default=2, choices=(2, 3))
        p.add_argument("--grid", type=int, default=65,
                       help="nodes per axis (ignored when --h is given)")
        p.add_argument("--h", type=float, default=None, help="node spacing")
        p.add_argument("--radius", type=float, default=1.0)

    p = sub.add_parser("sample", help="sample a builtin formula to PF1")
    add_grid_args(p)
    p.add_argument("--formula", required=True,
                   help="one of: " + ", ".join(FORMULAS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("conjugate", help="Legendre-Fenchel transform")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=_CONVEXITY_TOL)
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("subdiff", help="discrete subdifferential members")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--point", required=True, help="comma-separated coords")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_subdiff)

    p = sub.add_parser("slope-domain", help="attained-gradient domain mask")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_slope_domain)

    p = sub.add_parser("rotate", help="rotate a potential")
    p.add_argument("--alpha", type=_angle, required=True,
                   help="radians, in (0, pi/2)")
    p.add_argument("--delta", type=float, default=None,
                   help="semiconvexity margin (default cot alpha)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("residual", help="operator residual field")
    p.add_argument("--variant", choices=("slag", "ma", "mar"), default="slag")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("solve", help="Dirichlet solve")
    add_grid_args(p)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--boundary", required=True,
                   help="builtin formula spec or a PF1 file")
    p.add_argument("--config", default=None, help="key=value solver options")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("audit", help="viscosity and curvature audits")
    p.add_argument("--check", required=True,
                   choices=("super", "sub", "rotation-super", "rotation-sub",
                            "bm", "coeffs", "hessian-bound"))
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--alpha", type=_angle, default=math.pi / 4)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eps", default=None,
                   help="mollifier radii in cells, e.g. 2,4,8")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--slack", type=float, default=0.0)
    p.add_argument("--spectrum", default=None,
                   help="comma-separated eigenvalues for --check coeffs")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("run", help="run builtin experiments one after "
                       "another; write their artifacts once, at the end")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--experiment", choices=sorted(REGISTRY), default=None)
    which.add_argument("--all", action="store_true")
    which.add_argument("--config", default=None,
                       help="key=value experiment file (name, outdir, seed, "
                            "grid, samples)")
    p.add_argument("--outdir", default=None,
                   help="artifact directory (overrides the config's outdir)")
    p.add_argument("--seed", type=int, default=None,
                   help=f"experiment seed (overrides the config's seed; "
                        f"default {DEFAULT_SEED})")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("convert", help="PF1 <-> CSV conversion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.verbose:
        logging.getLogger("slag_lab").setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except (SlagLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _COMPUTE_FAILURES) else 2


if __name__ == "__main__":
    sys.exit(main())
