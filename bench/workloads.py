"""The workloads: their operations and the check on each operation's output.

An operation is one call a user makes: library `run_flow`, or the in-process
CLI `circleflow.cli.run(argv)` with its output captured.  Checks run outside
the timed region and recompute what they can from the written files.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs
from circleflow import cli, conditions, curvature, files, flow
from circleflow.curvature import PackingMetric

FLOW_TOL = 1e-8  # run_flow default tolerance
NEWTON_TOL = 1e-10  # newton default tolerance
WITNESS_TOL = 1e-9  # strictness slack of the existence inequalities
EXIT_OK, EXIT_CONDITIONS = 0, 4


@dataclass(frozen=True)
class Outcome:
    ok: bool
    undecided: bool = False
    note: str = ""


@dataclass(frozen=True)
class Op:
    kind: str  # "solve" | "check" | "layout": the phase its time is summed into
    name: str
    inp: inputs.Input
    run: Callable[[dict], Any]  # setup state -> raw result; the timed part
    check: Callable[[Any, dict], Outcome]
    fingerprint: Callable[[Any], str]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    outputs: tuple  # files the call wrote


def cli_call(argv, outputs=()) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return CliResult(code, out.getvalue(), tuple(outputs))


def cli_fingerprint(res: CliResult) -> str:
    h = hashlib.sha256(f"{res.code}\n{res.stdout}".encode())
    for path in res.outputs:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def residual(mesh, geometry, radii, targets) -> float:
    state = curvature.curvature_state(mesh, PackingMetric(geometry=geometry, radii=radii))
    return float(np.abs(state.curvatures - targets).max())


def fail(note) -> Outcome:
    return Outcome(ok=False, note=note)


# -- flow-euclid: library run_flow ------------------------------------------------


def library_flow(inp) -> Op:
    def run(state):
        mesh, metric, _targets = state[inp.name]
        return flow.run_flow(mesh, metric)

    def check(result, state):
        trace, _report = result
        mesh, _metric, _targets = state[inp.name]
        if trace.termination is not flow.Termination.CONVERGED:
            return fail(f"termination {trace.termination}")
        targets = flow.default_targets(mesh, inp.geometry)
        r = residual(mesh, inp.geometry, trace.samples[-1].radii, targets)
        return Outcome(ok=r <= FLOW_TOL, note=f"residual {r:.3e}")

    def fingerprint(result):
        trace, _report = result
        final = np.asarray(trace.samples[-1].radii, dtype=float)
        return hashlib.sha256(str(trace.termination).encode() + final.tobytes()).hexdigest()

    return Op("solve", f"run_flow:{inp.name}", inp, run, check, fingerprint)


# -- newton-hyper: CLI flow --mode newton, then CLI layout ----------------------------


def cli_newton(inp, saved: Path) -> Op:
    def run(_state):
        argv = ["flow", str(inp.path), "--mode", "newton", "--json", "--save-mesh", str(saved)]
        return cli_call(argv, [saved])

    def check(res, _state):
        if res.code != EXIT_OK:
            return fail(f"exit {res.code}")
        if json.loads(res.stdout)["termination"] != "converged":
            return fail("not converged")
        mesh, metric, targets = files.parse_mesh(saved)
        r = residual(mesh, inp.geometry, metric.radii, targets)
        return Outcome(ok=r <= NEWTON_TOL, note=f"residual {r:.3e}")

    return Op("solve", f"flow-newton:{inp.name}", inp, run, check, cli_fingerprint)


def cli_layout(inp, saved: Path, svg: Path) -> Op:
    def run(_state):
        return cli_call(["layout", str(saved), "--out", str(svg)], [svg])

    def check(res, _state):
        if res.code != EXIT_OK:
            return fail(f"exit {res.code}")
        root = ET.parse(svg).getroot()
        return Outcome(ok=root.tag.endswith("svg"), note=f"root {root.tag}")

    return Op("layout", f"layout:{inp.name}", inp, run, check, cli_fingerprint)


# -- check-exist: CLI check --json ----------------------------------------------------


def _subset_witness_ok(mesh, targets, witness) -> bool:
    if len(set(witness)) == mesh.vertex_count:
        bound = 2.0 * math.pi * mesh.euler_characteristic()  # no link pairs
    else:
        bound = conditions.subset_bound(mesh, witness)
    return float(sum(targets[v] for v in witness)) <= bound + WITNESS_TOL


def _loop_witness_ok(mesh, loop) -> bool:
    """A violating loop: a closed edge path over its vertices, at or over the
    weight threshold, and not the boundary of a face."""
    verts, eids = loop["vertices"], loop["edges"]
    for n, e in enumerate(eids):
        edge = mesh.edges[e]
        if {edge.a, edge.b} != {verts[n], verts[(n + 1) % len(verts)]}:
            return False
    threshold = math.pi if len(eids) == 3 else 2.0 * math.pi
    weight = sum(mesh.edges[e].weight for e in eids)
    bounds_face = any(set(f.edges) == set(eids) for f in mesh.faces)
    return weight >= threshold - WITNESS_TOL and not bounds_face


def witnesses_ok(inp, doc) -> Outcome:
    mesh, _metric, targets = files.parse_mesh(inp.path)
    if targets is None:
        targets = flow.default_targets(mesh, inp.geometry)
    reported = []
    subset = doc.get("subset") or {}
    if subset.get("witness"):
        w = tuple(subset["witness"])
        if not _subset_witness_ok(mesh, targets, w):
            return fail(f"subset witness {w} does not violate its bound")
        reported.append(frozenset(w))
    for verdict in doc.get("loops") or ():
        for loop in verdict["witnesses"]:
            if not _loop_witness_ok(mesh, loop):
                return fail(f"loop witness {loop['vertices']} does not violate its threshold")
            reported.append(frozenset(loop["vertices"]))
    if inp.witness is not None and inp.witness not in reported:
        return fail(f"expected witness {sorted(inp.witness)}, got {reported}")
    return Outcome(ok=True)


def cli_check(inp) -> Op:
    def run(_state):
        return cli_call(["check", str(inp.path), "--json"])

    def check(res, _state):
        doc = json.loads(res.stdout)
        overall = doc["overall"]
        want_code = EXIT_OK if overall == "holds" else EXIT_CONDITIONS
        if res.code != want_code:
            return fail(f"exit {res.code} for {overall}")
        if overall == "undetermined":
            return Outcome(ok=True, undecided=True)
        if overall != inp.expect:
            return fail(f"verdict {overall}, expected {inp.expect}")
        if overall == "fails":
            return witnesses_ok(inp, doc)
        return Outcome(ok=True)

    return Op("check", f"check:{inp.name}", inp, run, check, cli_fingerprint)


# -- registry -------------------------------------------------------------------------


def _newton_ops(ins, work: Path):
    """Newton solve of every mesh; layout of the first (V=3326) only.  The
    V=13310 layout alone takes about 4 s and is the noisiest operation on a
    shared machine, so with it a run held two passes and its median spread
    too far between runs."""
    saved = [work / f"{inp.name}.solved.json" for inp in ins]
    ops = [cli_newton(inp, path) for inp, path in zip(ins, saved)]
    ops.insert(1, cli_layout(ins[0], saved[0], work / f"{ins[0].name}.svg"))
    return ops


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable  # (InputWriter, rng, fixtures dir) -> [Input]
    make_ops: Callable  # ([Input], work dir) -> [Op]


WORKLOADS = {
    "flow-euclid": Workload(inputs.flow_euclid, lambda ins, _work: [library_flow(i) for i in ins]),
    "newton-hyper": Workload(inputs.newton_hyper, _newton_ops),
    "check-exist": Workload(inputs.check_exist, lambda ins, _work: [cli_check(i) for i in ins]),
}
