"""Vertex curvature, coordinate changes, Hessian assembly."""

import math
import os
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import circleflow as cf
from circleflow import meshes
from circleflow.geometry import _dtheta_dr
from conftest import draw_metric

GEOMS = (cf.Geometry.EUCLIDEAN, cf.Geometry.HYPERBOLIC, cf.Geometry.SPHERICAL)
FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIXTURES = sorted(f for f in os.listdir(FIXDIR) if f.endswith(".json"))


def test_packing_metric_validation():
    with pytest.raises(cf.DomainError):
        cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=np.array([]))
    with pytest.raises(cf.DomainError):
        cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=np.array([1.0, -2.0]))
    with pytest.raises(cf.DomainError):
        cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=np.array([1.0, np.inf]))
    with pytest.raises(cf.DomainError):
        cf.PackingMetric(geometry=cf.Geometry.SPHERICAL, radii=np.array([0.2, 3.2]))
    m = cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        m.radii[0] = 5.0  # read-only


def test_u_round_trip(rng):
    for g in GEOMS:
        radii = rng.uniform(0.05, 0.6, 9) if g is cf.Geometry.SPHERICAL else rng.uniform(0.05, 8.0, 9)
        m = cf.PackingMetric(geometry=g, radii=radii)
        back = cf.from_u(cf.to_u(m))
        assert back.geometry is g
        assert np.allclose(back.radii, radii, rtol=1e-12, atol=0)


def test_u_forms():
    r = np.array([0.3, 1.2])
    assert np.allclose(cf.to_u(cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=r)).u, np.log(r))
    assert np.allclose(
        cf.to_u(cf.PackingMetric(geometry=cf.Geometry.HYPERBOLIC, radii=r)).u,
        np.log(np.tanh(r / 2)),
    )
    assert np.allclose(
        cf.to_u(cf.PackingMetric(geometry=cf.Geometry.SPHERICAL, radii=r)).u,
        np.log(np.tan(r / 2)),
    )
    # hyperbolic u must stay negative
    with pytest.raises(cf.DomainError):
        cf.from_u(cf.UCoordinates(geometry=cf.Geometry.HYPERBOLIC, u=np.array([-1.0, 0.5])))
    # an overflowing exp is a silent DomainError, not a RuntimeWarning
    for geometry in (cf.Geometry.EUCLIDEAN, cf.Geometry.SPHERICAL):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(cf.DomainError):
                cf.from_u(cf.UCoordinates(geometry=geometry, u=np.array([0.0, 800.0])))


def test_equal_radii_closed_forms():
    # tetrahedron, zero weights, equal radii: each cone angle is 3 * pi/3
    tet = meshes.tetrahedron()
    st = cf.curvature_state(tet, cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=np.ones(4)))
    assert np.allclose(st.cone_angles, math.pi, atol=1e-12)
    assert np.allclose(st.curvatures, math.pi, atol=1e-12)
    assert st.total_area is None
    assert st.avg_curvature == pytest.approx(math.pi)
    # 7-vertex torus, equal radii: cone angles 2 pi, flat
    t7 = meshes.torus_7()
    st7 = cf.curvature_state(t7, cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=np.ones(7)))
    assert np.allclose(st7.curvatures, 0.0, atol=1e-12)
    assert st7.avg_curvature == 0.0


def test_areas_by_geometry(rng):
    g2 = meshes.genus_2()
    mh = draw_metric(rng, g2, cf.Geometry.HYPERBOLIC)
    sth = cf.curvature_state(g2, mh)
    assert sth.total_area is not None and sth.total_area > 0
    tet = meshes.tetrahedron()
    ms = draw_metric(rng, tet, cf.Geometry.SPHERICAL)
    sts = cf.curvature_state(tet, ms)
    assert sts.total_area is not None and sts.total_area > 0


def test_gauss_bonnet_residual_and_violation(monkeypatch):
    tet = meshes.tetrahedron()
    radii = np.random.default_rng(1).uniform(0.5, 2.5, 4)
    m = cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=radii)
    st = cf.curvature_state(tet, m)
    assert abs(st.gb_residual) < 1e-12
    # an Euler characteristic off by one puts the identity 2*pi off, whatever
    # the rounding of the angle sums
    monkeypatch.setattr(cf.curvature, "euler_characteristic", lambda mesh: 3)
    with pytest.raises(cf.GaussBonnetViolation, match="defect -6.28"):
        cf.curvature_state(tet, m)


def _oracle_cone_angles(mesh, metric):
    """Cone angles from face-local lengths, each vertex summed exactly (math.fsum)."""
    g = metric.geometry
    lengths = cf.triangle_lengths(g, metric.radii[mesh.face_vertices], mesh.face_weights)
    angles = cf.angles_from_lengths(g, lengths)
    corners = [[] for _ in range(mesh.vertex_count)]
    for f, face in enumerate(mesh.faces):
        for s, v in enumerate(face.vertices):
            corners[v].append(float(angles[f, s]))
    return np.array([math.fsum(c) for c in corners]), lengths


def _oracle_cases():
    """(name, mesh, metric): every fixture plus a permuted genus_2, in every
    geometry, at the file radii where that geometry admits them and at drawn radii."""
    rng = np.random.default_rng(20261017)
    loaded = []
    for name in FIXTURES:
        mesh, metric, _ = cf.parse_mesh(os.path.join(FIXDIR, name))
        loaded.append((name, mesh, metric.radii))
    g2 = meshes.genus_2(0.4)
    perm = rng.permutation(g2.vertex_count)
    loaded.append(("genus_2 permuted", g2.permuted(perm), rng.uniform(0.3, 3.0, g2.vertex_count)))
    for name, mesh, radii in loaded:
        for g in GEOMS:
            if g is not cf.Geometry.SPHERICAL or radii[mesh.face_vertices].sum(axis=1).max() < math.pi:
                yield name, mesh, cf.PackingMetric(geometry=g, radii=radii)
            yield name, mesh, draw_metric(rng, mesh, g)


def test_cone_angles_match_exact_summation_oracle():
    for name, mesh, metric in _oracle_cases():
        st = cf.curvature_state(mesh, metric)
        cone, lengths = _oracle_cone_angles(mesh, metric)
        assert np.abs(st.cone_angles - cone).max() <= 1e-13, name
        ends = mesh.edge_endpoints
        r = metric.radii
        per_edge = cf.edge_length(metric.geometry, r[ends[:, 0]], r[ends[:, 1]], mesh.edge_weights)
        np.testing.assert_allclose(per_edge[mesh.face_edge_ids], lengths, rtol=1e-14, atol=0)
        assert abs(st.gb_residual) <= 1e-12, name


def _coo_hessian(mesh, metric):
    """Oracle: the Hessian assembled as a COO matrix of every face entry and
    converted to CSR, which sums the repeated vertex pairs."""
    g = metric.geometry
    face_radii = metric.radii[mesh.face_vertices]
    lengths = cf.triangle_lengths(g, face_radii, mesh.face_weights)
    angles = cf.angles_from_lengths(g, lengths)
    jac = _dtheta_dr(g, face_radii, mesh.face_weights, lengths, angles)
    contrib = -jac * cf.s_func(g, face_radii)[:, None, :]
    fv = mesh.face_vertices
    rows = np.broadcast_to(fv[:, :, None], contrib.shape).ravel()
    cols = np.broadcast_to(fv[:, None, :], contrib.shape).ravel()
    n = mesh.vertex_count
    return scipy.sparse.coo_matrix((contrib.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def test_hessian_matches_coo_assembly_oracle():
    for name, mesh, metric in _oracle_cases():
        hess = cf.curvature_hessian(mesh, metric)
        want = _coo_hessian(mesh, metric)
        assert hess.has_canonical_format and want.has_canonical_format
        assert np.array_equal(hess.indptr, want.indptr), name
        assert np.array_equal(hess.indices, want.indices), name
        assert np.abs(hess.data - want.data).max() <= 1e-14 * np.abs(want.data).max(), name
        # a second call refills data on the cached pattern
        pattern = mesh._corner_pair_pattern
        again = cf.curvature_hessian(mesh, metric)
        assert mesh._corner_pair_pattern is pattern
        assert np.array_equal(again.data, hess.data)


def test_spherical_face_sum_guard():
    tet = meshes.tetrahedron()
    m = cf.PackingMetric(geometry=cf.Geometry.SPHERICAL, radii=np.full(4, 1.1))
    with pytest.raises(cf.DomainError):
        cf.curvature_state(tet, m)


def test_curvature_permutation_equivariance(rng):
    t7 = meshes.torus_7()
    m = draw_metric(rng, t7, cf.Geometry.EUCLIDEAN)
    perm = rng.permutation(7)
    pm = t7.permuted(perm)
    mp = cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=np.asarray(m.radii)[np.argsort(perm)])
    K = cf.curvature_state(t7, m).curvatures
    Kp = cf.curvature_state(pm, mp).curvatures
    assert np.allclose(Kp, K[np.argsort(perm)], atol=1e-12)


def test_hessian_matches_finite_differences(rng):
    t7 = meshes.torus_7()
    m = draw_metric(rng, t7, cf.Geometry.EUCLIDEAN, rlo=0.6, rhi=1.8)
    H = cf.curvature_hessian(t7, m).toarray()
    u0 = cf.to_u(m).u
    h = 1e-6
    for j in range(7):
        up, um = u0.copy(), u0.copy()
        up[j] += h
        um[j] -= h
        Kp = cf.curvature_state(t7, cf.from_u(cf.UCoordinates(geometry=m.geometry, u=up))).curvatures
        Km = cf.curvature_state(t7, cf.from_u(cf.UCoordinates(geometry=m.geometry, u=um))).curvatures
        fd = (Kp - Km) / (2 * h)
        assert np.allclose(H[:, j], fd, rtol=1e-6, atol=1e-6)


def test_hessian_structure_all_geometries(rng):
    for mesh, g in [
        (meshes.tetrahedron(), cf.Geometry.EUCLIDEAN),
        (meshes.torus_7(), cf.Geometry.EUCLIDEAN),
        (meshes.genus_2(), cf.Geometry.HYPERBOLIC),
        (meshes.tetrahedron(), cf.Geometry.SPHERICAL),
    ]:
        m = draw_metric(rng, mesh, g)
        H = cf.curvature_hessian(mesh, m).toarray()
        assert np.abs(H - H.T).max() < 1e-10
        if g is cf.Geometry.EUCLIDEAN:
            assert np.abs(H.sum(axis=1)).max() < 1e-10
        elif g is cf.Geometry.HYPERBOLIC:
            assert scipy.linalg.eigvalsh(H).min() > 0


def test_hyperbolic_curvature_tends_to_euclidean_at_small_radii():
    # a hyperbolic face of radii ~r is Euclidean up to O(r^2); the half-angle
    # kernel keeps that gap down to r ~ 1e-8 (the law of cosines cancels near
    # 1 and loses it from 1e-4 on), and the Hessian keeps its positive row sums
    g2 = meshes.genus_2()
    radii = math.exp(-1.0) * np.exp(0.3 * np.random.default_rng(0).standard_normal(11))
    k_euc = cf.curvature_state(g2, cf.PackingMetric(cf.Geometry.EUCLIDEAN, radii)).curvatures
    gaps = {}
    for scale in (1e-2, 1e-4, 1e-6, 1e-8):
        metric = cf.PackingMetric(cf.Geometry.HYPERBOLIC, radii * scale)
        gaps[scale] = np.abs(cf.curvature_state(g2, metric).curvatures - k_euc).max()
    c = gaps[1e-2] / 1e-4
    for scale in (1e-4, 1e-6):
        assert 0.5 * c * scale**2 <= gaps[scale] <= 2.0 * c * scale**2, scale
    assert gaps[1e-8] <= 1e-13
    hess = cf.curvature_hessian(g2, cf.PackingMetric(cf.Geometry.HYPERBOLIC, radii * 1e-4))
    assert cf.diagonal_dominance_verdict(hess) is cf.DefinitenessVerdict.POSITIVE_DEFINITE
    hess = cf.curvature_hessian(g2, cf.PackingMetric(cf.Geometry.HYPERBOLIC, radii * 1e-6))
    assert np.asarray(hess.sum(axis=1)).min() > 0.0


def test_dominance_verdicts(rng):
    t7 = meshes.torus_7()
    m = draw_metric(rng, t7, cf.Geometry.EUCLIDEAN)
    H = cf.curvature_hessian(t7, m).toarray()
    assert cf.diagonal_dominance_verdict(H) is cf.DefinitenessVerdict.PSD_RANK_DEFICIENT_1
    g2 = meshes.genus_2()
    mh = draw_metric(rng, g2, cf.Geometry.HYPERBOLIC)
    Hh = cf.curvature_hessian(g2, mh).toarray()
    assert cf.diagonal_dominance_verdict(Hh) is cf.DefinitenessVerdict.POSITIVE_DEFINITE
    bad = np.array([[1.0, -5.0], [-5.0, 1.0]])
    assert cf.diagonal_dominance_verdict(bad) is cf.DefinitenessVerdict.INDEFINITE_OR_UNKNOWN
    with pytest.raises(ValueError):
        cf.diagonal_dominance_verdict(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        cf.diagonal_dominance_verdict(np.ones((2, 3)))
