"""Mesh and trace serialization."""

import json
import math
import os
import time

import numpy as np
import pytest

import circleflow as cf
import mesh_oracle
from circleflow import files, meshes
from conftest import catalog

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_parse_fixture_files():
    expect = {
        "tetrahedron.json": (cf.Geometry.EUCLIDEAN, 4),
        "torus7.json": (cf.Geometry.EUCLIDEAN, 7),
        "genus2.json": (cf.Geometry.HYPERBOLIC, 11),
        "tetrahedron_spherical.json": (cf.Geometry.SPHERICAL, 4),
        "sphere9_violating.json": (cf.Geometry.EUCLIDEAN, 9),
    }
    for name, (geom, nv) in expect.items():
        mesh, metric, targets = files.parse_mesh(os.path.join(FIXDIR, name))
        assert metric.geometry is geom
        assert mesh.vertex_count == nv
        assert cf.validate(mesh) == []
        cf.curvature_state(mesh, metric)  # radii are admissible


def test_default_radii_by_geometry(tmp_path):
    p = tmp_path / "m.json"
    files.write_mesh(p, meshes.tetrahedron(), geometry=cf.Geometry.EUCLIDEAN)
    _, metric, _ = files.parse_mesh(p)
    assert np.all(metric.radii == 1.0)
    files.write_mesh(p, meshes.tetrahedron(), geometry=cf.Geometry.SPHERICAL)
    _, metric_s, _ = files.parse_mesh(p)
    assert np.allclose(metric_s.radii, math.pi / 8)


def test_degree_weights(tmp_path):
    p = tmp_path / "m.json"
    files.write_mesh(p, meshes.tetrahedron(), geometry=cf.Geometry.EUCLIDEAN)
    doc = json.loads(p.read_text())
    doc["edges"][0]["weight"] = {"deg": 45}
    p.write_text(json.dumps(doc))
    mesh, _, _ = files.parse_mesh(p)
    assert mesh.edges[0].weight == pytest.approx(math.pi / 4)
    doc["edges"][0]["weight"] = {"deg": 45, "rad": 0.1}
    p.write_text(json.dumps(doc))
    with pytest.raises(files.MeshFormatError):
        files.parse_mesh(p)


def test_parse_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json at all {")
    with pytest.raises(files.MeshFormatError):
        files.parse_mesh(p)
    with pytest.raises(files.MeshFormatError):
        files.parse_mesh(tmp_path / "missing.json")
    files.write_mesh(p, meshes.tetrahedron(), geometry=cf.Geometry.EUCLIDEAN)
    doc = json.loads(p.read_text())
    del doc["faces"]
    p.write_text(json.dumps(doc))
    with pytest.raises(files.MeshFormatError):
        files.parse_mesh(p)


def test_bad_radii_rejected(tmp_path):
    p = tmp_path / "m.json"
    files.write_mesh(p, meshes.tetrahedron(), geometry=cf.Geometry.EUCLIDEAN)
    doc = json.loads(p.read_text())
    doc["radii"] = [1.0, -2.0, 1.0, 1.0]
    p.write_text(json.dumps(doc))
    with pytest.raises(files.MeshFormatError, match="radii"):
        files.parse_mesh(p)


@pytest.mark.parametrize("key", ["radii", "targets"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_vertex_values_rejected(tmp_path, key, bad):
    p = tmp_path / "m.json"
    files.write_mesh(p, meshes.tetrahedron(), geometry=cf.Geometry.EUCLIDEAN)
    doc = json.loads(p.read_text())
    doc[key] = [1.0, bad, 1.0, 1.0]
    p.write_text(json.dumps(doc))
    with pytest.raises(files.MeshFormatError, match=f"{key} must be finite"):
        files.parse_mesh(p)


def test_validation_errors_carry_violations(tmp_path):
    p = tmp_path / "m.json"
    files.write_mesh(p, meshes.tetrahedron(), geometry=cf.Geometry.EUCLIDEAN)
    doc = json.loads(p.read_text())
    doc["edges"][0]["a"] = doc["edges"][0]["b"]  # self loop
    p.write_text(json.dumps(doc))
    with pytest.raises(files.MeshValidationError) as exc:
        files.parse_mesh(p)
    assert len(exc.value.violations) >= 1


def test_vertex_count_beyond_the_faces_is_one_violation(tmp_path):
    # a small file claiming a huge vertex count costs no per-vertex work
    p = tmp_path / "m.json"
    files.write_mesh(p, meshes.tetrahedron(), geometry=cf.Geometry.EUCLIDEAN)
    doc = json.loads(p.read_text())
    for count in (5, 10**6, 10**12):
        doc["vertices"] = count
        p.write_text(json.dumps(doc))
        start = time.perf_counter()
        with pytest.raises(files.MeshValidationError) as exc:
            files.parse_mesh(p)
        assert time.perf_counter() - start < 0.1
        assert exc.value.violations == [f"vertex 4 lies on no face (4 of {count} do)"]


def test_write_mesh_needs_geometry_or_metric(tmp_path):
    with pytest.raises(ValueError):
        files.write_mesh(tmp_path / "m.json", meshes.tetrahedron())


def test_mesh_round_trip_bit_identical(tmp_path):
    t7 = meshes.torus_7()
    w = [math.pi / 7 * (i % 3) / 3 + 0.1 for i in range(21)]
    mesh = meshes.replace_weights(t7, w)
    radii = np.linspace(1, 2, 7) / 3.0
    metric = cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=radii)
    targets = np.zeros(7)
    p = tmp_path / "m.json"
    files.write_mesh(p, mesh, metric=metric, targets=targets)
    assert p.read_text().count("\n") == 1  # compact: one line, not indented
    m2, met2, t2 = files.parse_mesh(p)
    assert m2.vertex_count == mesh.vertex_count
    assert [tuple(f.vertices) for f in m2.faces] == [tuple(f.vertices) for f in mesh.faces]
    assert [tuple(f.edges) for f in m2.faces] == [tuple(f.edges) for f in mesh.faces]
    assert all(a.weight == b.weight for a, b in zip(mesh.edges, m2.edges))  # bitwise
    assert np.all(np.asarray(met2.radii) == radii)
    assert np.all(np.asarray(t2) == targets)
    # second round trip is a fixed point
    p2 = tmp_path / "m2.json"
    files.write_mesh(p2, m2, metric=met2, targets=t2)
    assert json.loads(p.read_text()) == json.loads(p2.read_text())


def test_duplicate_triple_flag_round_trip(tmp_path):
    rp2 = meshes.minimal_projective_plane()
    p = tmp_path / "rp2.json"
    files.write_mesh(p, rp2, geometry=cf.Geometry.EUCLIDEAN)
    m2, _, _ = files.parse_mesh(p)
    assert len(m2.faces) == 4 and cf.validate(m2) == []


def test_trace_round_trip(tmp_path):
    t7 = meshes.torus_7()
    r0 = np.random.default_rng(9).uniform(0.5, 2.0, 7)
    trace, report = cf.run_flow(t7, cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=r0))
    p = tmp_path / "run.jsonl"
    files.write_trace(p, trace, report)
    tr2, rep2 = files.read_trace(p)
    assert tr2.termination is trace.termination
    assert tr2.geometry is trace.geometry
    assert np.all(np.asarray(tr2.targets) == np.asarray(trace.targets))
    assert len(tr2.samples) == len(trace.samples)
    for a, b in zip(trace.samples, tr2.samples):
        assert a.t == b.t and a.step == b.step
        assert np.all(np.asarray(a.radii) == np.asarray(b.radii))
        assert np.all(np.asarray(a.curvatures) == np.asarray(b.curvatures))
    assert rep2 is not None
    assert rep2.rate_c2 == pytest.approx(report.rate_c2)
    assert np.allclose(rep2.limit_radii, report.limit_radii, rtol=0, atol=0)
    # replay: curvatures recompute from radii
    for s in tr2.samples:
        K = cf.curvature_state(
            t7, cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=np.asarray(s.radii))
        ).curvatures
        assert np.abs(K - np.asarray(s.curvatures)).max() < 1e-12


def test_trace_without_report_or_tail(tmp_path):
    t7 = meshes.torus_7()
    trace, _ = cf.run_flow(
        t7,
        cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=np.random.default_rng(2).uniform(0.5, 2.0, 7)),
        cf.FlowConfig(max_steps=5),
    )
    p = tmp_path / "run.jsonl"
    files.write_trace(p, trace)
    tr2, rep2 = files.read_trace(p)
    assert rep2 is None and tr2.termination is cf.Termination.MAX_STEPS
    # a samples-only file has no termination record
    lines = p.read_text().strip().splitlines()
    p.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(files.MeshFormatError):
        files.read_trace(p)


def test_write_mesh_bytes_match_the_record_form(tmp_path):
    p = tmp_path / "m.json"
    for name in sorted(os.listdir(FIXDIR)):
        mesh, metric, targets = files.parse_mesh(os.path.join(FIXDIR, name))
        files.write_mesh(p, mesh, metric=metric, targets=targets)
        expect = mesh_oracle.write_mesh_text(mesh, metric.geometry, metric.radii, targets)
        assert p.read_text() == expect, name
    for name, mesh in catalog().items():
        files.write_mesh(p, mesh, geometry=cf.Geometry.HYPERBOLIC)
        assert p.read_text() == mesh_oracle.write_mesh_text(mesh, cf.Geometry.HYPERBOLIC), name


def test_ragged_face_is_a_format_error(tmp_path):
    p = tmp_path / "m.json"
    files.write_mesh(p, meshes.tetrahedron(), geometry=cf.Geometry.EUCLIDEAN)
    doc = json.loads(p.read_text())
    doc["faces"][2]["v"] = [0, 1]
    p.write_text(json.dumps(doc))
    with pytest.raises(files.MeshFormatError, match="face 2: needs 3 vertices and 3 edges"):
        files.parse_mesh(p)
    doc["faces"][2]["v"] = [0, 1, {"x": 2}]
    p.write_text(json.dumps(doc))
    with pytest.raises(files.MeshFormatError):
        files.parse_mesh(p)


@pytest.mark.parametrize("where, value", [
    (("vertices",), 4.9),
    (("vertices",), 4.0),
    (("vertices",), True),
    (("vertices",), [4]),
    (("edges", 0, "b"), 2.7),
    (("edges", 0, "a"), "0"),
    (("faces", 1, "v", 0), 0.3),
    (("faces", 1, "e", 2), 1.0),
])
def test_non_integer_counts_and_ids_are_format_errors(tmp_path, where, value):
    # each of these used to be truncated (or coerced) into a valid tetrahedron
    p = tmp_path / "m.json"
    files.write_mesh(p, meshes.tetrahedron(), geometry=cf.Geometry.EUCLIDEAN)
    doc = json.loads(p.read_text())
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    p.write_text(json.dumps(doc))
    with pytest.raises(files.MeshFormatError, match="integer"):
        files.parse_mesh(p)
