"""Shared helpers: seeded draws and the acceptance summary lines."""

import math

import numpy as np
import pytest

import circleflow as cf
from circleflow import meshes

_ACCEPTANCE = {}

CATALOG = (
    "tetrahedron",
    "octahedron",
    "torus_7",
    "genus_2",
    "minimal_projective_plane",
    "violating_sphere",
    "violating_genus_2",
)


def catalog():
    """Every built-in mesh of `circleflow.meshes`, by builder name."""
    return {name: getattr(meshes, name)() for name in CATALOG}


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def draw_triangle(rng, geometry, wmax=math.pi / 2, rlo=0.2, rhi=2.0):
    """Random TriangleConfig that actually carries a triangle (retry on failure)."""
    while True:
        radii = rng.uniform(rlo, rhi, 3)
        if geometry is cf.Geometry.SPHERICAL:
            radii = radii * rng.uniform(0.2, 0.3) * (math.pi / radii.sum())
        weights = rng.uniform(0.0, wmax, 3)
        try:
            tc = cf.TriangleConfig(geometry=geometry, radii=radii, weights=weights)
            cf.tri_angles(tc)
            return tc
        except (cf.DomainError, cf.DegenerateTriangleError):
            continue


def draw_metric(rng, mesh, geometry, rlo=0.3, rhi=3.0):
    """Random PackingMetric whose every face is realizable on the mesh."""
    n = mesh.vertex_count
    while True:
        radii = rng.uniform(rlo, rhi, n)
        if geometry is cf.Geometry.SPHERICAL:
            radii = rng.uniform(0.05, 0.5, n)
        try:
            metric = cf.PackingMetric(geometry=geometry, radii=radii)
            cf.curvature_state(mesh, metric)
            return metric
        except (cf.DomainError, cf.DegenerateTriangleError):
            continue


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if "test_acceptance" in report.nodeid and name.startswith("test_c"):
        _ACCEPTANCE[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[name]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line("[acceptance] %s: %s" % (name, word))
