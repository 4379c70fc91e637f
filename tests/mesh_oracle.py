"""Cell-by-cell reference for `validate`, its derived tables and `write_mesh`.

These are the loop forms the array path replaced: they walk the `edges` and
`faces` views one record at a time and keep the old message order, so the
tests can require the array path to return exactly the same list and bytes.
"""

import itertools
import json
import math

import numpy as np

from circleflow.geometry import Geometry
from circleflow.mesh import MAX_MESH_WEIGHT


def edge_face_slots(mesh):
    """Per edge, list of (face id, slot) occurrences."""
    occ = [[] for _ in mesh.edges]
    for f, face in enumerate(mesh.faces):
        for s, e in enumerate(face.edges):
            occ[e].append((f, s))
    return occ


def vertex_degrees(mesh):
    deg = np.zeros(mesh.vertex_count, dtype=np.int64)
    for e in mesh.edges:
        deg[e.a] += 1
        deg[e.b] += 1
    return deg


def pair_edges(mesh):
    """Map unordered endpoint pair -> list of edge ids (parallel-aware)."""
    table = {}
    for idx, e in enumerate(mesh.edges):
        table.setdefault(frozenset((e.a, e.b)), []).append(idx)
    return table


def connected(mesh):
    adj = [[] for _ in range(mesh.vertex_count)]
    for e in mesh.edges:
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    seen = np.zeros(mesh.vertex_count, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return bool(seen.all())


def validate(mesh):
    used = {v for face in mesh.faces for v in face.vertices}
    if len(used) != mesh.vertex_count:
        first = min(set(range(len(used) + 1)) - used)
        return [f"vertex {first} lies on no face ({len(used)} of {mesh.vertex_count} do)"]
    bad = []
    for idx, e in enumerate(mesh.edges):
        if e.a == e.b:
            bad.append(f"edge {idx}: endpoints coincide (vertex {e.a})")
        if not (0.0 <= e.weight <= MAX_MESH_WEIGHT + 1e-12):
            bad.append(f"edge {idx}: weight {e.weight} outside [0, pi/2]")
        if not math.isfinite(e.weight):
            bad.append(f"edge {idx}: weight not finite")

    for f, face in enumerate(mesh.faces):
        i, j, k = face.vertices
        expect = (frozenset((j, k)), frozenset((k, i)), frozenset((i, j)))
        for s in range(3):
            e = mesh.edges[face.edges[s]]
            if frozenset((e.a, e.b)) != expect[s]:
                bad.append(
                    f"face {f}: edge slot {s} (edge {face.edges[s]}) does not join "
                    f"the two vertices opposite slot {s}"
                )

    occ = edge_face_slots(mesh)
    for idx, faces in enumerate(occ):
        if len(faces) != 2:
            bad.append(f"edge {idx}: belongs to {len(faces)} faces (expected 2)")

    for v, d in enumerate(vertex_degrees(mesh)):
        if d < 3:
            bad.append(f"vertex {v}: degree {d} < 3")

    seen_edge_sets = {}
    for f, face in enumerate(mesh.faces):
        key = frozenset(face.edges)
        if key in seen_edge_sets:
            bad.append(f"faces {seen_edge_sets[key]},{f}: identical edge triple")
        else:
            seen_edge_sets[key] = f

    if not mesh.allow_duplicate_triples:
        seen_triples = {}
        for f, face in enumerate(mesh.faces):
            key = frozenset(face.vertices)
            if len(key) == 3 and key in seen_triples:
                bad.append(f"faces {seen_triples[key]},{f}: same vertex triple (strict mode)")
            else:
                seen_triples.setdefault(key, f)

    for eids in pair_edges(mesh).values():
        if len(eids) < 2:
            continue
        for e1, e2 in itertools.combinations(eids, 2):
            for f1, _ in occ[e1]:
                rest1 = sorted(x for x in mesh.faces[f1].edges if x != e1)
                for f2, _ in occ[e2]:
                    if f1 == f2:
                        continue
                    rest2 = sorted(x for x in mesh.faces[f2].edges if x != e2)
                    if rest1 == rest2:
                        bad.append(f"edges {e1},{e2}: bound a two-edge disk")

    if not connected(mesh):
        bad.append("mesh is disconnected")

    return bad


def write_mesh_text(mesh, geometry, radii=None, targets=None) -> str:
    """The mesh file text as written from the record views."""
    doc = {
        "geometry": Geometry(geometry).tag,
        "vertices": mesh.vertex_count,
        "edges": [{"a": e.a, "b": e.b, "weight": e.weight} for e in mesh.edges],
        "faces": [{"v": list(f.vertices), "e": list(f.edges)} for f in mesh.faces],
    }
    if mesh.allow_duplicate_triples:
        doc["allow_duplicate_triples"] = True
    if radii is not None:
        doc["radii"] = np.asarray(radii, dtype=float).tolist()
    if targets is not None:
        doc["targets"] = np.asarray(targets, dtype=float).tolist()
    return json.dumps(doc) + "\n"
