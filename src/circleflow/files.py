"""Mesh files (JSON) and flow traces (JSON lines).

Mesh schema::

    {
      "geometry": "euclidean" | "hyperbolic" | "spherical",
      "vertices": <count>,
      "edges":  [{"a": 0, "b": 1, "weight": 0.7853}, ...],
      "faces":  [{"v": [i, j, k], "e": [e_jk, e_ki, e_ij]}, ...],
      "radii":   [...],              optional, defaults 1.0 (pi/8 spherical)
      "targets": [...],              optional prescribed curvatures
      "allow_duplicate_triples": false
    }

Weights are radians; {"deg": 45} is accepted as a convenience.  Face edge
slots follow the package convention (slot n holds the edge opposite vertex
slot n), which keeps parallel edges representable.

A trace file has one JSON object per accepted sample ("t", "radii", "K",
"M", "m", "h") and a final record carrying the termination label, geometry,
targets, and the convergence report when one exists.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from .curvature import PackingMetric
from .flow import ConvergenceReport, FlowSample, FlowTrace, Termination
from .geometry import DomainError, Geometry
from .mesh import WeightedTriangulation, validate

__all__ = [
    "MeshFormatError",
    "MeshValidationError",
    "default_radii",
    "parse_mesh",
    "read_trace",
    "write_mesh",
    "write_trace",
]


class MeshFormatError(ValueError):
    """The file is not a syntactically valid mesh description."""


class MeshValidationError(ValueError):
    """The mesh parsed but is not a closed weighted triangulation."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def default_radii(geometry: Geometry, n: int) -> np.ndarray:
    if geometry is Geometry.SPHERICAL:
        return np.full(n, math.pi / 8.0)
    return np.ones(n)


def _weight_value(raw) -> float:
    if isinstance(raw, dict):
        if set(raw) != {"deg"}:
            raise MeshFormatError(f"weight object must be {{'deg': x}}, got {raw}")
        return math.radians(float(raw["deg"]))
    return float(raw)


def _float_array(raw, n, what) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (n,):
        raise MeshFormatError(f"{what} must list one value per vertex")
    if not np.all(np.isfinite(arr)):
        raise MeshFormatError(f"{what} must be finite")
    return arr


def parse_mesh(path):
    """Read a mesh file; returns (mesh, metric, targets or None).

    Raises MeshFormatError for malformed content and MeshValidationError
    (with .violations) when the triangulation fails structural validation.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise MeshFormatError(f"cannot read mesh file {path}: {err}") from None
    if not isinstance(raw, dict):
        raise MeshFormatError("mesh file must hold a JSON object")
    try:
        geometry = Geometry.from_tag(raw["geometry"])
        mesh = WeightedTriangulation(
            raw["vertices"],
            [(e["a"], e["b"], _weight_value(e["weight"])) for e in raw["edges"]],
            [(f["v"], f["e"]) for f in raw["faces"]],
            allow_duplicate_triples=bool(raw.get("allow_duplicate_triples", False)),
        )
    except MeshFormatError:
        raise
    except (KeyError, TypeError, ValueError, DomainError) as err:
        raise MeshFormatError(f"malformed mesh file: {err}") from None
    violations = validate(mesh)
    if violations:
        raise MeshValidationError(violations)
    n = mesh.vertex_count
    radii = raw.get("radii")
    radii = default_radii(geometry, n) if radii is None else _float_array(radii, n, "radii")
    try:
        metric = PackingMetric(geometry=geometry, radii=radii)
    except (ValueError, DomainError) as err:
        raise MeshFormatError(f"bad radii: {err}") from None
    targets = raw.get("targets")
    if targets is not None:
        targets = _float_array(targets, n, "targets")
    return mesh, metric, targets


def write_mesh(
    path,
    mesh: WeightedTriangulation,
    *,
    geometry: Optional[Geometry] = None,
    metric: Optional[PackingMetric] = None,
    targets=None,
) -> None:
    if metric is not None:
        geometry = metric.geometry
    if geometry is None:
        raise ValueError("need a geometry or a metric")
    doc = {
        "geometry": Geometry(geometry).tag,
        "vertices": mesh.vertex_count,
        "edges": [
            {"a": a, "b": b, "weight": w}
            for (a, b), w in zip(mesh.edge_endpoints.tolist(), mesh.edge_weights.tolist())
        ],
        "faces": [
            {"v": v, "e": e}
            for v, e in zip(mesh.face_vertices.tolist(), mesh.face_edge_ids.tolist())
        ],
    }
    if mesh.allow_duplicate_triples:
        doc["allow_duplicate_triples"] = True
    if metric is not None:
        doc["radii"] = np.asarray(metric.radii, dtype=float).tolist()
    if targets is not None:
        doc["targets"] = np.asarray(targets, dtype=float).tolist()
    Path(path).write_text(json.dumps(doc) + "\n")


def write_trace(path, trace: FlowTrace, report: Optional[ConvergenceReport] = None) -> None:
    with open(path, "w") as fh:
        for s in trace.samples:
            fh.write(
                json.dumps(
                    {
                        "t": s.t,
                        "radii": np.asarray(s.radii).tolist(),
                        "K": np.asarray(s.curvatures).tolist(),
                        "M": s.k_max,
                        "m": s.k_min,
                        "h": s.step,
                    }
                )
            )
            fh.write("\n")
        tail = {
            "termination": trace.termination.value if trace.termination else None,
            "geometry": trace.geometry.tag,
            "targets": np.asarray(trace.targets).tolist(),
            "report": None,
        }
        if report is not None:
            tail["report"] = {
                "limit_radii": np.asarray(report.limit_radii).tolist(),
                "limit_curvatures": np.asarray(report.limit_curvatures).tolist(),
                "rate_c1": report.rate_c1,
                "rate_c2": report.rate_c2,
                "residual": report.residual,
            }
        fh.write(json.dumps(tail))
        fh.write("\n")


def read_trace(path):
    """Inverse of write_trace; returns (trace, report or None)."""
    lines = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines or "termination" not in lines[-1]:
        raise MeshFormatError(f"{path} is not a complete trace file")
    tail = lines[-1]
    geometry = Geometry.from_tag(tail["geometry"])
    samples = [
        FlowSample(
            t=float(rec["t"]),
            radii=np.asarray(rec["radii"], dtype=float),
            curvatures=np.asarray(rec["K"], dtype=float),
            k_max=float(rec["M"]),
            k_min=float(rec["m"]),
            step=float(rec["h"]),
        )
        for rec in lines[:-1]
    ]
    trace = FlowTrace(
        geometry=geometry,
        targets=np.asarray(tail["targets"], dtype=float),
        samples=samples,
        termination=Termination(tail["termination"]) if tail["termination"] else None,
    )
    report = None
    if tail.get("report"):
        rep = tail["report"]
        report = ConvergenceReport(
            limit_radii=np.asarray(rep["limit_radii"], dtype=float),
            limit_curvatures=np.asarray(rep["limit_curvatures"], dtype=float),
            rate_c1=float(rep["rate_c1"]),
            rate_c2=float(rep["rate_c2"]),
            residual=float(rep["residual"]),
        )
    return trace, report
