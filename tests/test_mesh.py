"""Triangulation container, validation, subcomplexes, short loops."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import circleflow as cf
import mesh_oracle
from circleflow import files, meshes
from circleflow.mesh import Edge, Face, WeightedTriangulation, _connected
from conftest import catalog
from subset_oracle import subcomplex_and_link

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


# -- the array path against the cell-by-cell oracle -----------------------------


def _doc(mesh):
    return json.loads(mesh_oracle.write_mesh_text(mesh, cf.Geometry.EUCLIDEAN))


def _corrupted_docs():
    """One mesh file per structural check, each failing it (and maybe others)."""
    out = {}
    tet = _doc(meshes.tetrahedron())
    t7 = _doc(meshes.torus_7())

    def variant(name, base, change):
        doc = json.loads(json.dumps(base))
        change(doc)
        out[name] = doc

    variant("vertex_on_no_face", tet, lambda d: d.update(vertices=5))
    variant("self_loop", tet, lambda d: d["edges"][0].update(a=d["edges"][0]["b"]))
    variant("weight_above_range", t7, lambda d: [d["edges"][e].update(weight=2.0) for e in (9, 3)])
    variant("weight_below_range", t7, lambda d: d["edges"][5].update(weight=-0.1))
    variant("weight_nan", t7, lambda d: [d["edges"][e].update(weight=math.nan) for e in (2, 7)])
    variant("weight_inf", t7, lambda d: d["edges"][4].update(weight=-math.inf))
    variant("slot_mismatch", t7, lambda d: d["faces"][3]["e"].reverse())

    def edge_in_one_face(d):
        # a parallel copy of edge 0 takes its place in the first face using it
        a, b = d["edges"][0]["a"], d["edges"][0]["b"]
        d["edges"].append({"a": a, "b": b, "weight": 0.0})
        face = next(f for f in d["faces"] if 0 in f["e"])
        face["e"][face["e"].index(0)] = len(d["edges"]) - 1

    variant("edge_in_one_face", t7, edge_in_one_face)
    variant("edge_in_three_faces", t7, lambda d: d["faces"].append(dict(d["faces"][6])))
    variant(
        "degree_below_three",
        tet,
        lambda d: d.update(
            vertices=3,
            edges=[{"a": 1, "b": 2, "weight": 0.0}, {"a": 2, "b": 0, "weight": 0.0},
                   {"a": 0, "b": 1, "weight": 0.0}],
            faces=[{"v": [0, 1, 2], "e": [0, 1, 2]}, {"v": [0, 2, 1], "e": [0, 2, 1]}],
        ),
    )

    def identical_edge_sets(d):
        # faces listing (x, x, y) and (x, y, y) carry the same edge set
        x, y = d["faces"][0]["e"][:2]
        d["faces"][0]["e"] = [x, x, y]
        d["faces"][1]["e"] = [x, y, y]

    variant("identical_edge_triple", t7, identical_edge_sets)
    variant("duplicate_vertex_triple", _doc(meshes.minimal_projective_plane()),
            lambda d: d.pop("allow_duplicate_triples"))
    variant(
        "two_edge_disk",
        tet,
        lambda d: d.update(
            vertices=3,
            edges=[{"a": 1, "b": 2, "weight": 0.0}, {"a": 2, "b": 0, "weight": 0.0},
                   {"a": 0, "b": 1, "weight": 0.0}, {"a": 0, "b": 1, "weight": 0.0}],
            faces=[{"v": [0, 1, 2], "e": [0, 1, 2]}, {"v": [0, 1, 2], "e": [0, 1, 3]}],
            allow_duplicate_triples=True,
        ),
    )

    def two_tetrahedra(d):
        n, ne = d["vertices"], len(d["edges"])
        d["edges"] += [dict(e, a=e["a"] + n, b=e["b"] + n) for e in d["edges"]]
        d["faces"] += [{"v": [v + n for v in f["v"]], "e": [e + ne for e in f["e"]]}
                       for f in d["faces"]]
        d["vertices"] = 2 * n

    variant("disconnected", tet, two_tetrahedra)
    return out


def _mesh_of(doc):
    return WeightedTriangulation(
        doc["vertices"],
        [(e["a"], e["b"], e["weight"]) for e in doc["edges"]],
        [(f["v"], f["e"]) for f in doc["faces"]],
        allow_duplicate_triples=doc.get("allow_duplicate_triples", False),
    )


def _oracle_cases():
    cases = {name: _mesh_of(doc) for name, doc in _corrupted_docs().items()}
    cases.update((p.name, files.parse_mesh(p)[0]) for p in sorted(FIXTURES.glob("*.json")))
    cases.update(catalog())
    return cases


def test_corpus_covers_every_check():
    expect = {
        "vertex_on_no_face": "lies on no face",
        "self_loop": "endpoints coincide",
        "weight_above_range": "outside [0, pi/2]",
        "weight_below_range": "outside [0, pi/2]",
        "weight_nan": "weight not finite",
        "weight_inf": "weight not finite",
        "slot_mismatch": "does not join",
        "edge_in_one_face": "belongs to 1 faces",
        "edge_in_three_faces": "belongs to 3 faces",
        "degree_below_three": "degree 2 < 3",
        "identical_edge_triple": "identical edge triple",
        "duplicate_vertex_triple": "same vertex triple (strict mode)",
        "two_edge_disk": "bound a two-edge disk",
        "disconnected": "mesh is disconnected",
    }
    docs = _corrupted_docs()
    assert set(docs) == set(expect)
    for name, doc in docs.items():
        assert any(expect[name] in m for m in cf.validate(_mesh_of(doc))), name


@pytest.mark.parametrize("name", sorted(_oracle_cases()))
def test_validate_matches_loop_oracle(name):
    mesh = _oracle_cases()[name]
    assert cf.validate(mesh) == mesh_oracle.validate(mesh)


@pytest.mark.parametrize("name", sorted(_corrupted_docs()))
def test_parse_reports_the_oracle_violations(tmp_path, name):
    doc = _corrupted_docs()[name]
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(files.MeshValidationError) as exc:
        files.parse_mesh(p)
    assert exc.value.violations == mesh_oracle.validate(_mesh_of(doc))


@pytest.mark.parametrize("name", sorted(_oracle_cases()))
def test_derived_tables_match_loop_oracle(name):
    mesh = _oracle_cases()[name]
    indptr, corners = mesh.edge_face_slots
    slots = [
        [(int(c) // 3, int(c) % 3) for c in corners[indptr[e] : indptr[e + 1]]]
        for e in range(mesh.edge_count)
    ]
    assert slots == mesh_oracle.edge_face_slots(mesh)
    assert np.array_equal(mesh.vertex_degrees(), mesh_oracle.vertex_degrees(mesh))
    pairs = mesh.pair_edges()
    assert list(pairs.items()) == list(mesh_oracle.pair_edges(mesh).items())
    assert _connected(mesh) == mesh_oracle.connected(mesh)


def test_views_and_arrays_agree():
    for mesh in catalog().values():
        assert [tuple(e) for e in mesh.edges] == [
            (a, b, w) for (a, b), w in zip(mesh.edge_endpoints.tolist(), mesh.edge_weights.tolist())
        ]
        assert [f.vertices for f in mesh.faces] == [tuple(v) for v in mesh.face_vertices.tolist()]
        assert [f.edges for f in mesh.faces] == [tuple(e) for e in mesh.face_edge_ids.tolist()]
        assert mesh.edges is mesh.edges and mesh.faces is mesh.faces  # built once
        with pytest.raises(ValueError):
            mesh.face_vertices[0, 0] = 1  # read-only state


def test_constructor_rejects_malformed_rows():
    g2 = meshes.genus_2()
    again = WeightedTriangulation(
        g2.vertex_count,
        zip(*g2.edge_endpoints.T, g2.edge_weights),
        zip(g2.face_vertices, g2.face_edge_ids),
    )
    assert again.edges == g2.edges and again.faces == g2.faces
    with pytest.raises(ValueError, match="face 1: needs 3 vertices and 3 edges"):
        WeightedTriangulation(4, [(0, 1, 0.0)], [((0, 1, 2), (0, 0, 0)), ((0, 1), (0, 0, 0))])
    with pytest.raises(ValueError, match="face 0: edge id out of range"):
        WeightedTriangulation(4, [(0, 1, 0.0)], [((0, 1, 2), (0, 0, 1))])
    with pytest.raises(ValueError, match="face 0: vertex out of range"):
        WeightedTriangulation(4, [(0, 1, 0.0)], [((0, 1, 4), (0, 0, 1))])
    with pytest.raises(ValueError, match="out of range"):
        WeightedTriangulation(4, [(0, 1, 0.0)], [((0, 1, 10**30), (0, 0, 0))])
    with pytest.raises(ValueError, match="not an integer"):
        WeightedTriangulation(4, [(0, 1.5, 0.0)], [((0, 1, 2), (0, 0, 0))])
    with pytest.raises(ValueError, match="not an integer"):
        WeightedTriangulation(4.0, [(0, 1, 0.0)], [((0, 1, 2), (0, 0, 0))])
