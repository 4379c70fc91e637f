"""Planar development of the packing and SVG output."""

import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import circleflow as cf
import layout_oracle
import mesh_oracle
from circleflow import files, meshes
from conftest import catalog, draw_metric

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _check_plan_lengths(mesh, metric, plan, tol=1e-9):
    fv = mesh.face_vertices
    L = cf.triangle_lengths(metric.geometry, np.asarray(metric.radii)[fv], mesh.face_weights)
    for f in range(len(fv)):
        c = plan.face_coords[f]
        for s, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            if metric.geometry is cf.Geometry.HYPERBOLIC:
                za, zb = complex(*c[a]), complex(*c[b])
                num = abs(za - zb)
                den = abs(1 - zb.conjugate() * za)
                d = 2 * math.atanh(num / den)
            else:
                d = float(np.linalg.norm(c[a] - c[b]))
            assert abs(d - L[f, s]) < tol


def test_euclidean_layout_is_isometric_per_face():
    mesh, metric, _ = files.parse_mesh(os.path.join(FIXDIR, "tetrahedron.json"))
    plan = cf.develop_layout(mesh, metric)
    assert plan.face_coords.shape == (4, 3, 2)
    assert plan.circles.shape == (4, 3, 3)
    _check_plan_lengths(mesh, metric, plan)
    assert len(plan.tree_edges) == 3 and len(plan.cut_edges) == 3


def test_tree_edges_share_exact_endpoints():
    for name in (os.path.join(FIXDIR, "torus7.json"), os.path.join(FIXDIR, "genus2.json")):
        mesh, metric, _ = files.parse_mesh(name)
        plan = cf.develop_layout(mesh, metric)
        assert len(plan.tree_edges) == len(mesh.faces) - 1
        assert len(plan.cut_edges) == len(mesh.edges) - len(plan.tree_edges)
        fv = mesh.face_vertices
        slots = mesh_oracle.edge_face_slots(mesh)
        for e in plan.tree_edges:
            (f, sf), (g, sg) = slots[e]
            for v in (mesh.edges[e].a, mesh.edges[e].b):
                cf_ = plan.face_coords[f][list(fv[f]).index(v)]
                cg_ = plan.face_coords[g][list(fv[g]).index(v)]
                assert cf_[0] == cg_[0] and cf_[1] == cg_[1]


def test_hyperbolic_layout_stays_in_disk():
    mesh, metric, _ = files.parse_mesh(os.path.join(FIXDIR, "genus2.json"))
    plan = cf.develop_layout(mesh, metric)
    _check_plan_lengths(mesh, metric, plan, tol=1e-7)
    arr = plan.circles.reshape(-1, 3)
    assert np.all(np.hypot(arr[:, 0], arr[:, 1]) + arr[:, 2] < 1.0)


def test_flat_torus_tangency_at_converged_metric():
    t7 = meshes.torus_7()
    r0 = np.random.default_rng(1).uniform(0.5, 2.0, 7)
    _, report = cf.run_flow(t7, cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=r0))
    metric = cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=np.asarray(report.limit_radii))
    plan = cf.develop_layout(t7, metric)
    fv = t7.face_vertices
    for f in range(len(fv)):
        c = plan.face_coords[f]
        r = np.asarray(metric.radii)[fv[f]]
        for a, b in ((0, 1), (1, 2), (2, 0)):
            d = float(np.linalg.norm(c[a] - c[b]))
            assert abs(d - (r[a] + r[b])) < 1e-6


def test_hyperbolic_circle_helper():
    c, rho = cf.hyperbolic_circle(0j, 1.0)
    assert c == 0j and rho == pytest.approx(math.tanh(0.5))
    # off-center circles stay inside the disk
    c2, rho2 = cf.hyperbolic_circle(0.3 + 0.4j, 0.8)
    assert abs(c2) + rho2 < 1.0


def test_seed_face_honored():
    mesh, metric, _ = files.parse_mesh(os.path.join(FIXDIR, "torus7.json"))
    plan = cf.develop_layout(mesh, metric, seed_face=5)
    assert plan.seed_face == 5
    _check_plan_lengths(mesh, metric, plan)


def test_spherical_layout_unsupported():
    mesh, metric, _ = files.parse_mesh(os.path.join(FIXDIR, "tetrahedron_spherical.json"))
    with pytest.raises(ValueError):
        cf.develop_layout(mesh, metric)


def test_render_svg_deterministic_and_well_formed():
    mesh, metric, _ = files.parse_mesh(os.path.join(FIXDIR, "tetrahedron.json"))
    plan = cf.develop_layout(mesh, metric)
    svg1 = cf.render_svg(mesh, plan)
    svg2 = cf.render_svg(mesh, plan)
    assert svg1 == svg2
    root = ET.fromstring(svg1)
    assert root.tag.endswith("svg")
    body = ET.tostring(root, encoding="unicode")
    assert "circle" in body and "line" in body


def test_hyperbolic_circle_on_arrays_matches_scalar_calls(rng):
    centers = rng.uniform(-0.6, 0.6, 20) + 1j * rng.uniform(-0.6, 0.6, 20)
    centers[3] = 0.0
    radii = rng.uniform(0.1, 2.0, 20)
    c, rho = cf.hyperbolic_circle(centers, radii)
    for n in range(20):
        cn, rn = cf.hyperbolic_circle(complex(centers[n]), float(radii[n]))
        assert abs(cn - c[n]) <= 1e-15 and abs(rn - rho[n]) <= 1e-15
    assert c[3] == 0 and rho[3] == np.tanh(0.5 * radii[3])  # the center-0 case is exact


def _layout_cases():
    cases = []
    for name in sorted(os.listdir(FIXDIR)):
        mesh, metric, _ = files.parse_mesh(os.path.join(FIXDIR, name))
        if metric.geometry is not cf.Geometry.SPHERICAL:
            cases.append((name, mesh, metric))
    rng = np.random.default_rng(20261018)
    for name, mesh in catalog().items():
        for geometry in (cf.Geometry.EUCLIDEAN, cf.Geometry.HYPERBOLIC):
            cases.append((f"{name}-{geometry.tag}", mesh, draw_metric(rng, mesh, geometry)))
    return cases


def test_layout_and_svg_match_face_by_face_oracle():
    for name, mesh, metric in _layout_cases():
        for seed_face in (0, mesh.face_count - 1):
            plan = cf.develop_layout(mesh, metric, seed_face=seed_face)
            ref = layout_oracle.develop_layout(mesh, metric, seed_face=seed_face)
            assert plan.tree_edges == ref.tree_edges and plan.cut_edges == ref.cut_edges, name
            assert np.abs(plan.face_coords - ref.face_coords).max() <= 1e-12, name
            assert np.abs(plan.circles - ref.circles).max() <= 1e-12, name
            assert cf.render_svg(mesh, plan) == layout_oracle.render_svg(mesh, ref), name
