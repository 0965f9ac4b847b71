"""Command-line interface.

Subcommands: ``solve`` (single run with error metrics), ``study``
(convergence/decay ladders), ``weights`` (quadrature weight tables),
``mlf`` (special-function tabulation), ``mesh-info``.

Exit codes: 0 success, 2 bad configuration or output path or a request too
large for memory, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys

import numpy as np

from . import harness, meshfem, reference
from .cq import cq_weights, get_rule
from .mlf import MlfAccuracyError, mlf_neg
from .numkit import CgError


def _add_common(p):
    p.add_argument("--out", help="output file (default: stdout)")


def _comma_list(conv):
    """argparse type: a comma-separated list of ``conv`` values."""

    def parse(text):
        return [conv(x) for x in text.split(",")]

    parse.__name__ = f"{conv.__name__} list"   # argparse names it in its error
    return parse


def _emit_text(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_mesh_info(args):
    mesh = meshfem.build_mesh(args.M)
    print(f"M = {mesh.M}")
    print(f"h = {mesh.h:.17g}")
    print(f"nodes = {len(mesh.nodes)}")
    print(f"triangles = {len(mesh.triangles)}")
    print(f"interior dofs = {mesh.n_interior}")
    return 0


def _cmd_weights(args):
    rule = get_rule(args.rule)
    w = cq_weights(rule, args.alpha, args.tau, args.N)
    lines = ["j,weight"]
    lines += [f"{j},{format(v, '.17g')}" for j, v in enumerate(w)]
    _emit_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_mlf(args):
    xs = np.geomspace(args.x_min, args.x_max, args.points) if args.x_min > 0 else (
        np.linspace(args.x_min, args.x_max, args.points)
    )
    vals = mlf_neg(args.alpha, args.beta, xs)
    lines = ["x,E"] + [f"{format(x, '.17g')},{format(v, '.17g')}" for x, v in zip(xs, vals)]
    _emit_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_solve(args):
    # the one-cell temporal study of this run, measured as a study measures it
    cfg = harness.StudyConfig(
        args.case, (args.alpha,), (args.scheme,), "temporal", M=args.M, N_list=(args.N,),
        t=args.t, reference=args.reference, corrected=args.corrected, K_max=args.K_max,
    )
    case = reference.get_case(args.case, args.alpha)
    sys_, hist, (l2, h1) = harness.run_cell(cfg, case, args.scheme, args.M, args.t, args.N, {})
    iterations = [its for _, its, _ in hist.solve_stats]

    metrics = {
        "case": args.case,
        "alpha": args.alpha,
        "scheme": args.scheme,
        "M": args.M,
        "N": args.N,
        "t": args.t,
        "reference": args.reference,
        "normalized": case.v_l2_norm > 0.0,
        "backend": hist.backend,
        "cg_iterations_mean": float(np.mean(iterations)),
        "cg_iterations_max": max(iterations),
        "error_l2": l2,
        "error_h1": h1,
    }
    if metrics["normalized"]:
        metrics["error_l2_normalized"] = metrics["error_l2"] / case.v_l2_norm
    if args.dump_solution:
        # interior nodal coefficients of the view's final state
        np.savetxt(args.dump_solution, sys_.nodal(hist.final))
    _emit_text(json.dumps(metrics, indent=2), args.out)
    return 0


def _cmd_study(args):
    # every flag named after a study key overrides it; one alpha or scheme is a list
    keys = harness.STUDY_CONFIG_SCHEMA["properties"]
    overrides = {k: v for k, v in vars(args).items() if k in keys}
    overrides["alphas"] = None if args.alpha is None else [args.alpha]
    overrides["schemes"] = None if args.scheme is None else [args.scheme]
    cfg = harness.StudyConfig.from_json(args.config, overrides)
    report = harness.run_study(cfg)
    _emit_text(harness.emit(report, cfg.format), cfg.out)
    return 0


@functools.lru_cache(maxsize=1)
def build_parser():
    """The one parser of this process; each ``parse_args`` call returns a
    fresh namespace, so calls share no arguments."""
    ap = argparse.ArgumentParser(
        prog="fracstep",
        description="Galerkin FEM + convolution quadrature solvers for "
        "time-fractional diffusion benchmarks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh-info", help="print mesh statistics")
    p.add_argument("--M", type=int, required=True)
    p.set_defaults(func=_cmd_mesh_info)

    p = sub.add_parser("weights", help="dump quadrature weight tables as CSV")
    p.add_argument("--rule", choices=("be", "sbd", "BE", "SBD"), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--N", type=int, default=32)
    _add_common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("mlf", help="tabulate E_{alpha,beta}(-x)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--x-min", type=float, default=0.0)
    p.add_argument("--x-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=21)
    _add_common(p)
    p.set_defaults(func=_cmd_mlf)

    p = sub.add_parser("solve", help="single run with error metrics")
    p.add_argument("--case", required=True, choices=list("abcdefg"))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--scheme", default="be", choices=list(harness.ALL_SCHEMES))
    p.add_argument("--M", type=int, default=16)
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--t", type=float, default=0.1)
    p.add_argument("--reference", default="discrete_modal", choices=harness.REFERENCES)
    p.add_argument("--K-max", type=int, default=255)
    p.add_argument("--corrected", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--dump-solution", help="write final interior coefficients")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("study", help="convergence/decay study")
    p.add_argument("--config", help="JSON study config (flags override keys)")
    p.add_argument("--print-schema", action="store_true")
    p.add_argument("--case", choices=list("abcdefg"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--scheme", choices=list(harness.ALL_SCHEMES))
    p.add_argument("--kind", choices=("temporal", "spatial", "decay"))
    p.add_argument("--M", type=int)
    p.add_argument("--M-list", dest="M_list", type=_comma_list(int))
    p.add_argument("--N", type=int)
    p.add_argument("--N-list", dest="N_list", type=_comma_list(int))
    p.add_argument("--t", type=float)
    p.add_argument("--t-list", dest="t_list", type=_comma_list(float))
    p.add_argument("--reference", choices=harness.REFERENCES)
    p.add_argument("--corrected", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--format", choices=("csv", "markdown"))
    _add_common(p)
    p.set_defaults(func=_cmd_study)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "print_schema", False):
        print(json.dumps(harness.STUDY_CONFIG_SCHEMA, indent=2))
        return 0
    try:
        return args.func(args)
    except ValueError as exc:   # ConfigError among them
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=_sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"request too large for memory: {str(exc) or 'allocation failed'}", file=_sys.stderr)
        return 2
    except (CgError, MlfAccuracyError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
