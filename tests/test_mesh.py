"""Triangulation container, validation, subcomplexes, short loops."""

import math

import numpy as np
import pytest

import circleflow as cf
from circleflow import meshes
from circleflow.mesh import Edge, Face, WeightedTriangulation
from subset_oracle import subcomplex_and_link


def test_builder_stats():
    cases = [
        (meshes.tetrahedron(), 4, 6, 4, 2),
        (meshes.octahedron(), 6, 12, 8, 2),
        (meshes.torus_7(), 7, 21, 14, 0),
        (meshes.genus_2(), 11, 39, 26, -2),
        (meshes.minimal_projective_plane(), 3, 6, 4, 1),
        (meshes.violating_sphere(), 9, 21, 14, 2),
        (meshes.violating_genus_2(), 12, 42, 28, -2),
    ]
    for mesh, nv, ne, nf, chi in cases:
        assert mesh.vertex_count == nv
        assert len(mesh.edges) == ne
        assert len(mesh.faces) == nf
        assert mesh.euler_characteristic() == chi
        assert cf.validate(mesh) == []


def test_torus7_is_regular():
    t7 = meshes.torus_7()
    assert np.array_equal(t7.vertex_degrees(), np.full(7, 6))
    # complete graph: every vertex pair carries exactly one edge
    assert len(t7.pair_edges()) == 21


def test_validate_self_loop():
    mesh = WeightedTriangulation(
        3,
        [Edge(0, 0, 0.0), Edge(1, 2, 0.0), Edge(2, 0, 0.0)],
        [Face((0, 1, 2), (1, 2, 0))],
    )
    msgs = cf.validate(mesh)
    assert any("coincide" in m for m in msgs)


def test_validate_slot_mismatch():
    # edge in slot 0 must join the two vertices opposite slot 0
    mesh = WeightedTriangulation(
        4,
        [Edge(0, 1, 0.0), Edge(0, 2, 0.0), Edge(0, 3, 0.0),
         Edge(1, 2, 0.0), Edge(1, 3, 0.0), Edge(2, 3, 0.0)],
        [Face((0, 1, 2), (0, 1, 3)),  # slot 0 should join (1, 2), gave (0, 1)
         Face((0, 1, 3), (4, 2, 0)),
         Face((0, 2, 3), (5, 2, 1)),
         Face((1, 2, 3), (5, 4, 3))],
    )
    msgs = cf.validate(mesh)
    assert any("slot" in m for m in msgs)


def test_validate_degree_and_duplicate_triple():
    # doubled triangle: every vertex has degree 2 and both faces share a triple
    mesh = WeightedTriangulation(
        3,
        [Edge(1, 2, 0.0), Edge(2, 0, 0.0), Edge(0, 1, 0.0)],
        [Face((0, 1, 2), (0, 1, 2)), Face((0, 1, 2), (0, 1, 2))],
    )
    msgs = cf.validate(mesh)
    assert any("degree" in m for m in msgs)
    assert any("triple" in m for m in msgs)


def test_validate_two_edge_disk():
    mesh = WeightedTriangulation(
        3,
        [Edge(1, 2, 0.0), Edge(2, 0, 0.0), Edge(0, 1, 0.0), Edge(0, 1, 0.0)],
        [Face((0, 1, 2), (0, 1, 2)), Face((0, 1, 2), (0, 1, 3))],
        allow_duplicate_triples=True,
    )
    msgs = cf.validate(mesh)
    assert any("two-edge disk" in m for m in msgs)


def test_validate_weight_range():
    mesh = WeightedTriangulation(
        4,
        [Edge(1, 2, 2.0), Edge(2, 0, 0.0), Edge(0, 1, 0.0),
         Edge(0, 3, 0.0), Edge(1, 3, 0.0), Edge(2, 3, 0.0)],
        [Face((0, 1, 2), (0, 1, 2)),
         Face((0, 1, 3), (4, 3, 2)),
         Face((0, 2, 3), (5, 3, 1)),
         Face((1, 2, 3), (5, 4, 0))],
    )
    msgs = cf.validate(mesh)
    assert any("weight" in m for m in msgs)


def test_validate_disconnected():
    tet = meshes.tetrahedron()
    edges = list(tet.edges) + [Edge(e.a + 4, e.b + 4, e.weight) for e in tet.edges]
    faces = list(tet.faces) + [
        Face(tuple(v + 4 for v in f.vertices), tuple(e + 6 for e in f.edges))
        for f in tet.faces
    ]
    mesh = WeightedTriangulation(8, edges, faces)
    msgs = cf.validate(mesh)
    assert any("connect" in m for m in msgs)


def test_constructor_rejects_bad_indices():
    with pytest.raises(ValueError):
        WeightedTriangulation(2, [Edge(0, 5, 0.0)], [])


def test_subcomplex_and_link():
    tet = meshes.tetrahedron()
    stats = subcomplex_and_link(tet, {0})
    assert (stats.vertex_count, stats.edge_count, stats.face_count) == (1, 0, 0)
    assert stats.euler_char == 1
    assert len(stats.link_pairs) == 3
    stats2 = subcomplex_and_link(tet, {0, 1})
    assert (stats2.vertex_count, stats2.edge_count, stats2.face_count) == (2, 1, 0)
    whole = subcomplex_and_link(tet, {0, 1, 2, 3})
    assert whole.euler_char == tet.euler_characteristic() and whole.link_pairs == ()
    with pytest.raises(ValueError):
        subcomplex_and_link(tet, set())
    with pytest.raises(ValueError):
        subcomplex_and_link(tet, {0, 4})


def test_star_subdivide_counts():
    t7 = meshes.torus_7()
    sub, center = meshes.star_subdivide(t7, 0)
    assert center == 7
    assert sub.vertex_count == 8
    assert len(sub.edges) == 24
    assert len(sub.faces) == 16
    assert sub.euler_characteristic() == 0
    assert cf.validate(sub) == []


def test_replace_weights_forms():
    t7 = meshes.torus_7()
    w1 = meshes.replace_weights(t7, math.pi / 4)
    assert np.allclose(w1.edge_weights, math.pi / 4)
    w2 = meshes.replace_weights(t7, {0: 0.3})
    assert w2.edges[0].weight == 0.3 and w2.edges[1].weight == 0.0
    w3 = meshes.replace_weights(t7, {(0, 1): 0.2})
    eid = t7.pair_edges()[frozenset((0, 1))][0]
    assert w3.edges[eid].weight == 0.2


def test_permuted_preserves_structure(rng):
    g2 = meshes.genus_2()
    perm = rng.permutation(11)
    pm = g2.permuted(perm)
    assert cf.validate(pm) == []
    assert pm.euler_characteristic() == -2
    assert sorted(np.asarray(pm.vertex_degrees()).tolist()) == sorted(
        np.asarray(g2.vertex_degrees()).tolist()
    )


# GF(2) homology oracle: a cycle is null-homologous iff its edge vector lies
# in the span of the face boundary vectors.

def _gf2_in_span(columns, target):
    basis = {}

    def reduce(v):
        while v:
            p = v.bit_length() - 1
            if p not in basis:
                return v, p
            v ^= basis[p]
        return 0, None

    for c in columns:
        v, p = reduce(c)
        if p is not None:
            basis[p] = v
    v, _ = reduce(target)
    return v == 0


def _boundary_columns(mesh):
    cols = []
    for f in mesh.faces:
        m = 0
        for e in f.edges:
            m ^= 1 << e
        cols.append(m)
    return cols


def _loop_vector(loop):
    m = 0
    for e in loop.edges:
        m ^= 1 << e
    return m


def test_torus_loops_match_homology_oracle():
    t7 = meshes.torus_7()
    loops = cf.enumerate_short_loops(t7, max_len=4)
    l3 = [l for l in loops if len(l.edges) == 3]
    assert len(l3) == 35  # every vertex triple closes up in a complete graph
    assert sum(1 for l in l3 if l.bounds_face is not None) == 14
    cols = _boundary_columns(t7)
    checked = 0
    for loop in loops:
        if not loop.embedded:
            continue
        trivial = _gf2_in_span(cols, _loop_vector(loop))
        # on a torus a separating embedded loop bounds a disk, so the GF(2)
        # class decides null-homotopy exactly
        assert loop.null_homotopic == trivial
        checked += 1
    assert checked >= 35


def test_projective_plane_loops():
    rp2 = meshes.minimal_projective_plane()
    loops = cf.enumerate_short_loops(rp2, max_len=4)
    l3 = [l for l in loops if len(l.edges) == 3]
    l4 = [l for l in loops if len(l.edges) == 4]
    assert len(l3) == 8
    assert sum(1 for l in l3 if l.null_homotopic) == 4
    assert sum(1 for l in l3 if l.bounds_face is not None) == 4
    # the other four generate the orientation class: nontrivial over GF(2)
    cols = _boundary_columns(rp2)
    for loop in l3:
        trivial = _gf2_in_span(cols, _loop_vector(loop))
        assert trivial == bool(loop.null_homotopic)
    # pinched walks through the parallel edge pairs
    assert len(l4) == 3
    assert all(not l.embedded for l in l4)
    assert all(l.bounds_face_pair is not None for l in l4)


def test_genus2_null_homotopic_implies_null_homologous():
    g2 = meshes.genus_2()
    cols = _boundary_columns(g2)
    loops = cf.enumerate_short_loops(g2, max_len=4)
    assert sum(1 for l in loops if len(l.edges) == 3) == 69
    assert sum(1 for l in loops if len(l.edges) == 4) == 258
    for loop in loops:
        if loop.null_homotopic:
            assert _gf2_in_span(cols, _loop_vector(loop))


def test_loop_weight_sum():
    t7 = meshes.replace_weights(meshes.torus_7(), math.pi / 4)
    loops = cf.enumerate_short_loops(t7, max_len=3)
    for loop in loops[:5]:
        assert loop.weight_sum(t7) == pytest.approx(len(loop.edges) * math.pi / 4)


def test_face_id_of():
    tet = meshes.tetrahedron()
    fid = meshes.face_id_of(tet, (0, 1, 2))
    assert tuple(sorted(tet.faces[fid].vertices)) == (0, 1, 2)
