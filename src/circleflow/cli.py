"""Command-line front end.

Subcommands: `check` (validation + existence conditions), `flow` (curvature
flow or Newton solve, optional trace/mesh output), `layout` (develop a
packing and render SVG).

Exit codes: 0 success, 2 unreadable or malformed mesh file, 3 validation or
usage failure (including Euclidean targets that do not sum to 2*pi*chi), 4
existence conditions violated or undecidable, 5 solver did not converge
(degeneration, iteration cap, or spherical constraint stop).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .conditions import _subset_margins, full_report
from .curvature import PackingMetric
from .files import MeshFormatError, MeshValidationError, parse_mesh, write_mesh, write_trace
from .flow import (
    FlowConfig,
    FlowSample,
    FlowTrace,
    MODE_EULER,
    MODE_NEWTON,
    NewtonNonConvergenceError,
    Termination,
    newton_solve,
    run_flow,
)
from .geometry import DegenerateTriangleError, DomainError, Geometry
from .layout import develop_layout, render_svg

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONDITIONS = 4
EXIT_NO_CONVERGENCE = 5

__all__ = ["build_parser", "run"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circleflow",
        description="circle-packing metrics on weighted triangulated surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a mesh and test existence conditions")
    p_check.add_argument("mesh", help="mesh JSON file")
    p_check.add_argument("--subset-cap", type=int, default=20, metavar="N",
                         help="skip the exhaustive subset scan above N vertices")
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.set_defaults(func=cmd_check)

    p_flow = sub.add_parser("flow", help="drive the metric toward the target curvatures")
    p_flow.add_argument("mesh", help="mesh JSON file")
    p_flow.add_argument("--mode", choices=(MODE_EULER, MODE_NEWTON), default=MODE_EULER)
    p_flow.add_argument("--tol", type=float, default=None,
                        help="sup-norm curvature tolerance (default 1e-8 flow, 1e-10 newton)")
    p_flow.add_argument("--max-steps", type=int, default=None,
                        help="step/iteration cap (default 1e6 flow, 100 newton)")
    p_flow.add_argument("--record-every", type=int, default=1, metavar="K",
                        help="keep every K-th accepted sample in the trace")
    p_flow.add_argument("--out", default=None, metavar="TRACE",
                        help="write the trace as JSON lines")
    p_flow.add_argument("--save-mesh", default=None, metavar="PATH",
                        help="write the mesh back with the final radii")
    p_flow.add_argument("--json", action="store_true", help="machine-readable summary")
    p_flow.set_defaults(func=cmd_flow)

    p_layout = sub.add_parser("layout", help="develop the packing and render an SVG")
    p_layout.add_argument("mesh", help="mesh JSON file")
    p_layout.add_argument("--out", required=True, metavar="SVG", help="output SVG path")
    p_layout.add_argument("--seed-face", type=int, default=None,
                          help="face placed first (default: face 0)")
    p_layout.set_defaults(func=cmd_layout)
    return parser


def _loop_summary(verdict):
    return {
        "length": verdict.length,
        "status": verdict.status,
        "loops_checked": verdict.loops_checked,
        "witnesses": [
            {"vertices": list(lp.vertices), "edges": list(lp.edges)} for lp in verdict.witnesses
        ],
        "undetermined": [
            {"vertices": list(lp.vertices), "edges": list(lp.edges)}
            for lp in verdict.undetermined
        ],
    }


def cmd_check(args, mesh, metric, targets) -> int:
    geometry = metric.geometry
    chi = mesh.euler_characteristic()
    header = (
        f"mesh ok: {mesh.vertex_count} vertices, {mesh.edge_count} edges, "
        f"{mesh.face_count} faces, euler characteristic {chi}, geometry {geometry.tag}"
    )
    try:
        report = full_report(mesh, geometry, targets=targets, subset_cap=args.subset_cap)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.json:
        doc = {
            "valid": True,
            "geometry": geometry.tag,
            "vertices": mesh.vertex_count,
            "edges": mesh.edge_count,
            "faces": mesh.face_count,
            "euler_char": chi,
            "overall": report.overall,
            "subset": None,
            "loops": None,
        }
        if report.subset is not None:
            s = report.subset
            doc["subset"] = {
                "status": s.status,
                "min_margin": s.min_margin,
                "witness": list(s.witness) if s.witness else None,
                "violations": s.violations,
                "near_ties": s.near_ties,
                "subsets_checked": s.subsets_checked,
                "worst_bounds": [[m, list(vs)] for m, vs in s.worst_bounds],
            }
        if report.loops is not None:
            doc["loops"] = [_loop_summary(v) for v in report.loops]
        print(json.dumps(doc, indent=1))
    else:
        print(header)
        if geometry is Geometry.SPHERICAL:
            print("existence conditions: not applicable in spherical geometry")
        elif report.subset is not None:
            s = report.subset
            if s.status == "skipped":
                print(
                    f"subset scan skipped ({mesh.vertex_count} vertices > cap {args.subset_cap})"
                )
            else:
                print(
                    f"subset inequalities: {s.status} over {s.subsets_checked} subsets, "
                    f"min margin {s.min_margin:.6g}"
                )
                if s.witness is not None:
                    print(f"violating subset: {set(s.witness)}")
                for m, vs in s.worst_bounds[:3]:
                    print(f"  margin {m: .6g} at {set(vs)}")
        if report.loops is not None:
            for v in report.loops:
                line = f"{v.length}-loop condition: {v.status} over {v.loops_checked} loops"
                if v.witnesses:
                    line += f"; violated at vertices {list(v.witnesses[0].vertices)}"
                elif v.undetermined:
                    line += (
                        f"; {len(v.undetermined)} walk(s) over threshold with "
                        "unresolved homotopy class"
                    )
                print(line)
        print(f"overall: {report.overall}")
    if report.overall in ("holds", "not_applicable"):
        return EXIT_OK
    return EXIT_CONDITIONS


def _degeneration_hint(mesh, geometry, targets, radii):
    """Most negative target-sum-minus-bound margin over singletons, the
    small-radius subset and, in hyperbolic geometry, the whole vertex set;
    the flow degenerates toward the tightest of these."""
    n = mesh.vertex_count
    member = np.eye(n, dtype=bool)
    small = radii < 0.05 * float(np.median(radii))
    if 0 < small.sum() < n:
        member = np.vstack([member, small])
    if geometry is Geometry.HYPERBOLIC:
        member = np.vstack([member, np.ones(n, dtype=bool)])
    margins = _subset_margins(mesh, targets, member)
    k = int(np.argmin(margins))
    return float(margins[k]), tuple(int(v) for v in np.flatnonzero(member[k]))


def _newton_trace(mesh, metric, config, targets):
    """Run newton_solve; returns its iterates as a trace (t = iteration) and
    the iteration count."""
    samples = []

    def record(it, m, curv):
        samples.append(FlowSample.of(m, curv, float(it), 0.0))

    try:
        _solved, iterations = newton_solve(mesh, metric, config, on_iterate=record)
        termination = Termination.CONVERGED
    except NewtonNonConvergenceError as err:
        iterations, termination = err.iterations, Termination.MAX_STEPS
    trace = FlowTrace(
        geometry=metric.geometry, targets=targets, samples=samples, termination=termination
    )
    return trace, iterations


def cmd_flow(args, mesh, metric, targets) -> int:
    geometry = metric.geometry
    newton = args.mode == MODE_NEWTON
    config = FlowConfig(
        target_curvatures=targets,
        tol_curvature=args.tol,
        max_steps=args.max_steps,
        mode=args.mode,
        record_every=max(1, args.record_every),
    )
    try:
        resolved = config.resolved(mesh, geometry)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    if newton and geometry is Geometry.SPHERICAL:
        print("error: newton mode needs euclidean or hyperbolic geometry", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if newton:
            trace, iterations = _newton_trace(mesh, metric, config, resolved.target_curvatures)
            report = None
        else:
            trace, report = run_flow(mesh, metric, config)
    except (DomainError, DegenerateTriangleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    final = trace.samples[-1]
    residual = float(np.abs(final.curvatures - trace.targets).max())
    term = trace.termination
    if args.out:
        write_trace(args.out, trace, report)
    if args.save_mesh:
        write_mesh(
            args.save_mesh,
            mesh,
            metric=PackingMetric(geometry=geometry, radii=final.radii),
            targets=trace.targets if newton else targets,
        )
    if args.json:
        if newton:
            progress, rates = {"iterations": iterations}, {}
        else:
            progress = {"samples": len(trace.samples), "t_final": final.t}
            rates = {
                "rate_c1": report.rate_c1 if report else None,
                "rate_c2": report.rate_c2 if report else None,
            }
        print(
            json.dumps(
                {
                    "mode": args.mode,
                    "geometry": geometry.tag,
                    "termination": term.value,
                    **progress,
                    "residual": residual,
                    **rates,
                    "radii": np.asarray(final.radii).tolist(),
                }
            )
        )
    else:
        if not newton:
            print(
                f"flow {term.value}: {len(trace.samples)} samples, t = {final.t:.6g}, "
                f"sup|K - target| = {residual:.3e}"
            )
        elif term is Termination.CONVERGED:
            print(f"newton converged in {iterations} iterations, "
                  f"sup|K - target| = {residual:.3e}")
        else:
            print(f"newton did not converge: residual {residual:.3e} "
                  f"after {iterations} iterations")
        if report and math.isfinite(report.rate_c2):
            print(
                f"tail fit sup|K - target| ~ {report.rate_c1:.3g} * exp(-{report.rate_c2:.3g} t)"
            )
        if geometry is Geometry.SPHERICAL:
            print("stopped: spherical mode, no convergence guarantee")
        if term is Termination.DEGENERATED:
            margin, subset = _degeneration_hint(mesh, geometry, trace.targets, final.radii)
            print(
                f"degeneration hint: tightest probed subset {set(subset)} has "
                f"target-sum minus bound {margin:.6g}"
            )
    if term in (Termination.CONVERGED, Termination.STOPPED):
        return EXIT_OK
    return EXIT_NO_CONVERGENCE


def cmd_layout(args, mesh, metric, targets) -> int:
    if metric.geometry is Geometry.SPHERICAL:
        print("error: layout needs a euclidean or hyperbolic metric", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        plan = develop_layout(mesh, metric, seed_face=args.seed_face)
    except (ValueError, DomainError, DegenerateTriangleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    svg = render_svg(mesh, plan)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(
        f"layout: {mesh.face_count} faces placed from seed {plan.seed_face}, "
        f"{len(plan.tree_edges)} tree edges, {len(plan.cut_edges)} cut edges -> {args.out}"
    )
    return EXIT_OK


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        mesh, metric, targets = parse_mesh(args.mesh)
    except MeshValidationError as err:
        print("mesh validation failed:", file=sys.stderr)
        for v in err.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_VALIDATION
    except MeshFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    return args.func(args, mesh, metric, targets)
