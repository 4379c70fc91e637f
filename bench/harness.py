"""Measurement loop: set-up, timed passes, output checks, traced passes.

A pass runs every operation of the workload once, in order.  Passes repeat
until they have taken about the run's time budget, and at least twice;
timings are medians over passes.  Set-up and the reference job
(`reference.py`) repeat before every pass, so their samples spread over the
run like the passes do.  Outputs are checked after
each pass, outside the timed region; a pass whose output fingerprint matches
an already-checked one reuses that check's outcome.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import reference
import tracing
from circleflow import curvature, files
from workloads import WORKLOADS, Outcome

# before each untraced pass, set-up repeats for at least this long
SETUP_SECONDS = 0.5
PHASES = ("solve", "check", "layout")

# per-layer metric -> (unit, better, source, traced function it comes from);
# source is a span aggregate ("s" inclusive seconds, "self_s", "calls"), a
# counter of the same name read from return values ("count"), or "ratio"
PER_LAYER = {
    "files.parse_mesh.s": ("s", "lower", "s", "files.parse_mesh"),
    "files.write_mesh.s": ("s", "lower", "s", "files.write_mesh"),
    "mesh.validate.s": ("s", "lower", "s", "mesh.validate"),
    "mesh.enumerate_short_loops.s": ("s", "lower", "s", "mesh.enumerate_short_loops"),
    "mesh.enumerate_short_loops.loops": ("count", "lower", "count", "mesh.enumerate_short_loops"),
    "geometry.triangle_lengths.s": ("s", "lower", "s", "geometry.triangle_lengths"),
    "geometry.triangle_lengths.calls": ("count", "lower", "calls", "geometry.triangle_lengths"),
    "geometry.angles_from_lengths.s": ("s", "lower", "s", "geometry.angles_from_lengths"),
    "curvature.curvature_state.s": ("s", "lower", "s", "curvature.curvature_state"),
    "curvature.curvature_state.self_s": ("s", "lower", "self_s", "curvature.curvature_state"),
    "curvature.curvature_state.calls": ("count", "lower", "calls", "curvature.curvature_state"),
    "curvature.curvature_hessian.s": ("s", "lower", "s", "curvature.curvature_hessian"),
    "curvature.curvature_hessian.calls": ("count", "lower", "calls", "curvature.curvature_hessian"),
    "flow.run_flow.self_s": ("s", "lower", "self_s", "flow.run_flow"),
    "flow.newton_solve.self_s": ("s", "lower", "self_s", "flow.newton_solve"),
    "flow.spsolve.s": ("s", "lower", "s", tracing.SPSOLVE),
    "flow.spsolve.calls": ("count", "lower", "calls", tracing.SPSOLVE),
    "flow.accepted_steps": ("count", "lower", "count", "flow.run_flow"),
    "flow.newton_iters": ("count", "lower", "count", "flow.newton_solve"),
    "flow.accept_ratio": ("ratio", "higher", "ratio", "flow.run_flow"),
    "conditions.check_subset_inequalities.s": (
        "s", "lower", "s", "conditions.check_subset_inequalities"),
    "conditions.subsets_checked": (
        "count", "lower", "count", "conditions.check_subset_inequalities"),
    "conditions.check_loop_conditions.self_s": (
        "s", "lower", "self_s", "conditions.check_loop_conditions"),
    "conditions.full_report.self_s": ("s", "lower", "self_s", "conditions.full_report"),
    "conditions.subset_bound.s": ("s", "lower", "s", "conditions.subset_bound"),
    "conditions.subset_bound.calls": ("count", "lower", "calls", "conditions.subset_bound"),
    "layout.develop_layout.s": ("s", "lower", "s", "layout.develop_layout"),
    "layout.render_svg.s": ("s", "lower", "s", "layout.render_svg"),
    "layout.svg_bytes": ("bytes", "lower", "count", "layout.render_svg"),
    "cli.run.self_s": ("s", "lower", "self_s", "cli.run"),
}
# from the untraced passes of a traced run
RUN_LEVEL = {
    "solve_s": ("s", "lower"),
    "check_s": ("s", "lower"),
    "layout_s": ("s", "lower"),
    "fail_frac": ("ratio", "lower"),
    "undecided_frac": ("ratio", "lower"),
    "known_defect_frac": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def setup(ins):
    """parse_mesh (with validate) and one curvature_state per input file."""
    state = {}
    for inp in ins:
        mesh, metric, targets = files.parse_mesh(inp.path)
        curvature.curvature_state(mesh, metric)
        state[inp.name] = (mesh, metric, targets)
    return state


@dataclass
class Raised:
    text: str


@dataclass
class Tally:
    """Outcomes of every operation attempted in the run."""

    attempted: int = 0
    failed: int = 0  # wrong outputs not explained by a known defect
    wrong: int = 0  # every wrong output
    known: int = 0  # wrong outputs of inputs marked with a ROADMAP defect
    checks: int = 0
    undecided: int = 0
    seen: dict = field(default_factory=dict)  # (op, fingerprint) -> Outcome

    def record(self, ops, results, state):
        for op, res in zip(ops, results):
            if isinstance(res, Raised):
                outcome, new = Outcome(ok=False, note=res.text), True
            else:
                key = (op.name, op.fingerprint(res))
                new = key not in self.seen
                if new:
                    self.seen[key] = checked(op, res, state)
                outcome = self.seen[key]
            self.attempted += 1
            if op.kind == "check":
                self.checks += 1
                self.undecided += outcome.undecided
            if outcome.ok:
                continue
            self.wrong += 1
            if op.inp.known_defect:
                self.known += 1
                label = f"known defect ({op.inp.known_defect})"
            else:
                self.failed += 1
                label = "FAILED"
            if new:
                print(f"{label} {op.name}: {outcome.note}", file=sys.stderr)


def checked(op, res, state) -> Outcome:
    try:
        return op.check(res, state)
    except Exception:  # output the check cannot read is a wrong output
        return Outcome(ok=False, note=traceback.format_exc())


def run_ops(ops, state, tracer=None):
    """One pass; returns (wall seconds, seconds per operation, raw results)."""
    times = []
    results = []
    start = time.perf_counter()
    for n, op in enumerate(ops):
        t = time.perf_counter()
        try:
            if tracer is None:
                results.append(op.run(state))
            else:
                with tracer.operation(n + 1, op.name):
                    results.append(op.run(state))
        except Exception:  # the run goes on; the operation counts as failed
            results.append(Raised(traceback.format_exc()))
        times.append(time.perf_counter() - t)
    return time.perf_counter() - start, times, results


def repeat(seconds, one_pass):
    """Call one_pass() at least twice, and again while the next call would end
    nearer to `seconds` than the last one did.  one_pass returns (wall seconds,
    value); returns both lists."""
    values, walls = [], []
    while len(walls) < 2 or sum(walls) + statistics.median(walls) / 2.0 < seconds:
        wall, value = one_pass()
        walls.append(wall)
        values.append(value)
    return walls, values


def timed_setups(ins, setup_times):
    """Set up until a repeat starts SETUP_SECONDS or more after the first (so
    at least twice); returns the last state."""
    end = time.perf_counter() + SETUP_SECONDS
    while True:
        t = time.perf_counter()
        state = setup(ins)
        setup_times.append(time.perf_counter() - t)
        if t >= end:
            return state


def untraced(ins, ops, seconds, tally, setup_times, ref_times):
    """Passes, each after its own set-up repeats and reference jobs, so that
    their samples spread over the whole run.  Returns (pass walls, per-pass
    operation seconds)."""

    def one_pass():
        state = timed_setups(ins, setup_times)
        reference.time_job(ref_times)
        wall, times, results = run_ops(ops, state)
        tally.record(ops, results, state)
        return wall, times

    return repeat(seconds, one_pass)


def traced(ins, ops, seconds, tally):
    """Passes under a fresh Tracer each: a traced set-up operation, then the ops.
    Returns (op walls, per-pass layer metrics, first pass tracer)."""
    tracers = []

    def one_pass():
        tracer = tracing.Tracer()
        try:
            tracer.install()
            with tracer.operation(0, "setup"):
                state = setup(ins)
            wall, _times, results = run_ops(ops, state, tracer)
        finally:
            tracer.uninstall()
        tally.record(ops, results, state)
        tracers.append(tracer)
        return wall, layer_metrics(tracer)

    walls, per_pass = repeat(seconds, one_pass)
    return walls, per_pass, tracers[0]


def layer_metrics(tracer):
    calls, incl, selfs, flow_evals = tracer.aggregate()
    steps = tracer.counts["flow.accepted_steps"]
    spans = {"s": incl, "self_s": selfs, "calls": calls}
    out = {}
    for name, (_unit, _better, source, fn) in PER_LAYER.items():
        if fn in tracer.missing:
            continue  # the function is gone: reported as missing, not as zero
        if source == "ratio":
            out[name] = steps / flow_evals if flow_evals else 0.0
        elif source == "count":
            out[name] = tracer.counts.get(name, 0)
        else:
            out[name] = spans[source].get(fn, 0)
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def speed_scale(ref_times, meta):
    """Factor from measured seconds to seconds at the reference speed."""
    meta["ref_s"] = statistics.median(ref_times)
    return reference.SECONDS / meta["ref_s"]


def end_to_end(ins, ops, seconds, tally, meta):
    setup_times, ref_times = [], []
    walls, _op_times = untraced(ins, ops, seconds, tally, setup_times, ref_times)
    scale = speed_scale(ref_times, meta)
    meta["pass_walls"] = walls
    meta["raw_setup_s"] = statistics.median(setup_times)
    meta["raw_wall_s"] = statistics.median(walls)
    values = {
        "setup_s": meta["raw_setup_s"] * scale,
        "wall_s": meta["raw_wall_s"] * scale,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(ins, ops, seconds, tally, meta, spans_path):
    """Untraced passes for half the time, traced passes for the other half."""
    ref_times = []
    walls, op_times = untraced(ins, ops, seconds / 2.0, tally, [], ref_times)
    scale = speed_scale(ref_times, meta)
    t_walls, per_pass, first = traced(ins, ops, seconds / 2.0, tally)
    spans_path.parent.mkdir(exist_ok=True)
    first.write(spans_path)
    meta["pass_walls"] = [walls, t_walls]
    meta["missing"] = first.missing
    counters = [{k: v for k, v in p.items() if PER_LAYER[k][0] != "s"} for p in per_pass]
    meta["counters_repeat"] = all(c == counters[0] for c in counters)
    values = dict(counters[0])
    for name in per_pass[0]:
        if PER_LAYER[name][0] == "s":
            values[name] = statistics.median(p[name] for p in per_pass)
    for kind in PHASES:
        sums = [sum(t for op, t in zip(ops, times) if op.kind == kind) for times in op_times]
        values[f"{kind}_s"] = statistics.median(sums) * scale
    values["fail_frac"] = tally.wrong / tally.attempted
    values["undecided_frac"] = tally.undecided / tally.checks if tally.checks else 0.0
    values["known_defect_frac"] = tally.known / tally.attempted
    values["trace.overhead_s"] = statistics.median(t_walls) - statistics.median(walls)
    units = {k: v[0] for k, v in {**PER_LAYER, **RUN_LEVEL}.items()}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run(workload, seed, seconds, trace, root: Path, spans_path: Path):
    """Returns (result dict for the last output line, metadata dict)."""
    spec = WORKLOADS[workload]
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    try:
        ins = spec.make_inputs(inputs.InputWriter(work), np.random.default_rng(seed),
                               root / "fixtures")
        ops = spec.make_ops(ins, work)
        meta["inputs"] = {i.name: i.vertices for i in ins}
        tally = Tally()
        if trace:
            metrics = per_layer(ins, ops, seconds, tally, meta, spans_path)
        else:
            metrics = end_to_end(ins, ops, seconds, tally, meta)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, meta
