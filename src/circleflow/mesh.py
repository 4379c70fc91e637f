"""Weighted triangulations of closed surfaces.

Cells are index-based: vertices are 0..N-1, edges carry endpoint ids and a
crossing-angle weight, and each face stores both its vertex triple and an
explicit edge triple (slot n holds the edge opposite the slot-n vertex).
The explicit edge references keep parallel edges representable, which a
vertex-pair encoding cannot do.

`validate` reports structural violations as data rather than raising, so a
checker can show all of them at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "Edge",
    "Face",
    "Loop",
    "WeightedTriangulation",
    "enumerate_short_loops",
    "euler_characteristic",
    "validate",
]

MAX_MESH_WEIGHT = math.pi / 2.0  # solver-level cap; the kernel itself takes [0, pi)


class Edge(NamedTuple):
    a: int
    b: int
    weight: float


class Face(NamedTuple):
    vertices: tuple  # (i, j, k)
    edges: tuple  # (e_jk, e_ki, e_ij): slot n is the edge opposite vertex slot n


class WeightedTriangulation:
    """Immutable triangulated closed surface with weighted edges.

    `allow_duplicate_triples=True` admits several faces on the same vertex
    triple (the generalized reading needed once parallel edges exist);
    the default strict mode flags them in `validate`.
    """

    __slots__ = ("vertex_count", "edges", "faces", "allow_duplicate_triples", "_cache")

    def __init__(self, vertex_count, edges, faces, *, allow_duplicate_triples=False):
        n = int(vertex_count)
        if n <= 0:
            raise ValueError("vertex_count must be positive")
        edge_list = []
        for idx, (a, b, w) in enumerate(edges):
            a, b, w = int(a), int(b), float(w)
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge {idx}: endpoint out of range")
            edge_list.append(Edge(a, b, w))
        face_list = []
        for idx, (verts, eids) in enumerate(faces):
            verts = tuple(int(v) for v in verts)
            eids = tuple(int(e) for e in eids)
            if len(verts) != 3 or len(eids) != 3:
                raise ValueError(f"face {idx}: needs 3 vertices and 3 edges")
            if any(not 0 <= v < n for v in verts):
                raise ValueError(f"face {idx}: vertex out of range")
            if any(not 0 <= e < len(edge_list) for e in eids):
                raise ValueError(f"face {idx}: edge id out of range")
            face_list.append(Face(verts, eids))
        self.vertex_count = n
        self.edges = tuple(edge_list)
        self.faces = tuple(face_list)
        self.allow_duplicate_triples = bool(allow_duplicate_triples)
        self._cache = {}

    # -- basic counts -------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def euler_characteristic(self) -> int:
        return euler_characteristic(self)

    # -- cached arrays ------------------------------------------------------

    def _arr(self, key, build):
        try:
            return self._cache[key]
        except KeyError:
            value = build()
            self._cache[key] = value
            return value

    @property
    def face_vertices(self) -> np.ndarray:
        return self._arr(
            "fv", lambda: np.array([f.vertices for f in self.faces], dtype=np.int64).reshape(-1, 3)
        )

    @property
    def face_edge_ids(self) -> np.ndarray:
        return self._arr(
            "fe", lambda: np.array([f.edges for f in self.faces], dtype=np.int64).reshape(-1, 3)
        )

    @property
    def face_weights(self) -> np.ndarray:
        return self._arr("fw", lambda: self.edge_weights[self.face_edge_ids])

    @property
    def edge_weights(self) -> np.ndarray:
        return self._arr("ew", lambda: np.array([e.weight for e in self.edges], dtype=float))

    @property
    def edge_endpoints(self) -> np.ndarray:
        return self._arr(
            "eab", lambda: np.array([(e.a, e.b) for e in self.edges], dtype=np.int64).reshape(-1, 2)
        )

    @property
    def edge_face_slots(self):
        """Per edge, list of (face id, slot) occurrences."""

        def build():
            occ = [[] for _ in self.edges]
            for f, face in enumerate(self.faces):
                for s, e in enumerate(face.edges):
                    occ[e].append((f, s))
            return occ

        return self._arr("efaces", build)

    def vertex_degrees(self) -> np.ndarray:
        def build():
            deg = np.zeros(self.vertex_count, dtype=np.int64)
            for e in self.edges:
                deg[e.a] += 1
                deg[e.b] += 1
            return deg

        return self._arr("deg", build)

    def pair_edges(self):
        """Map unordered endpoint pair -> list of edge ids (parallel-aware)."""

        def build():
            table = {}
            for idx, e in enumerate(self.edges):
                table.setdefault(frozenset((e.a, e.b)), []).append(idx)
            return table

        return self._arr("pairs", build)

    def permuted(self, perm: Sequence[int]) -> "WeightedTriangulation":
        """Relabel vertices by perm[v]; edge and face ids keep their order."""
        perm = [int(p) for p in perm]
        edges = [(perm[e.a], perm[e.b], e.weight) for e in self.edges]
        faces = [(tuple(perm[v] for v in f.vertices), f.edges) for f in self.faces]
        return WeightedTriangulation(
            self.vertex_count, edges, faces, allow_duplicate_triples=self.allow_duplicate_triples
        )


def euler_characteristic(mesh: WeightedTriangulation) -> int:
    return mesh.vertex_count - mesh.edge_count + mesh.face_count


# -- validation --------------------------------------------------------------


def _connected(mesh: WeightedTriangulation) -> bool:
    if mesh.vertex_count == 0:
        return True
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


def validate(mesh: WeightedTriangulation) -> list:
    """Structural violations as a list of strings; empty means valid.

    Checks: weight range [0, pi/2]; no self-loop edges; face/edge slot
    consistency; every edge in exactly two faces; vertex degrees >= 3; no two
    faces with the same edge triple; in strict mode no two faces on the same
    vertex triple; no two-edge disk (a parallel edge pair whose two faces
    share their remaining edges); connectivity.

    A vertex on no face is reported alone, before any per-vertex work, so a
    claimed vertex count far beyond the face table costs nothing.
    """
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

    for idx, occ in enumerate(mesh.edge_face_slots):
        if len(occ) != 2:
            bad.append(f"edge {idx}: belongs to {len(occ)} faces (expected 2)")

    for v, d in enumerate(mesh.vertex_degrees()):
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
                bad.append(
                    f"faces {seen_triples[key]},{f}: same vertex triple (strict mode)"
                )
            else:
                seen_triples.setdefault(key, f)

    # two-edge disk: parallel edges e1, e2 whose containing faces agree on the
    # remaining two edges (a doubled triangle pinched along e1 and e2)
    for pair, eids in mesh.pair_edges().items():
        if len(eids) < 2:
            continue
        for e1, e2 in itertools.combinations(eids, 2):
            for f1, _ in mesh.edge_face_slots[e1]:
                rest1 = sorted(x for x in mesh.faces[f1].edges if x != e1)
                for f2, _ in mesh.edge_face_slots[e2]:
                    if f1 == f2:
                        continue
                    rest2 = sorted(x for x in mesh.faces[f2].edges if x != e2)
                    if rest1 == rest2:
                        bad.append(f"edges {e1},{e2}: bound a two-edge disk")

    if not _connected(mesh):
        bad.append("mesh is disconnected")

    return bad


# -- short loops and null-homotopy --------------------------------------------


@dataclass(frozen=True)
class Loop:
    """A closed edge path of length 3 or 4.

    `vertices` lists the walk in traversal order (repeats allowed only when
    `embedded` is False); `edges` the corresponding edge ids.  `null_homotopic`
    is True/False for embedded loops and None (undetermined) otherwise.
    """

    vertices: tuple
    edges: tuple
    embedded: bool
    bounds_face: Optional[int]
    bounds_face_pair: Optional[tuple]
    null_homotopic: Optional[bool]

    def weight_sum(self, mesh: WeightedTriangulation) -> float:
        return float(sum(mesh.edges[e].weight for e in self.edges))


def _face_regions(mesh: WeightedTriangulation, loop_edges: frozenset):
    """Connected face components when adjacency across loop edges is cut."""
    comp = np.full(mesh.face_count, -1, dtype=np.int64)
    occ = mesh.edge_face_slots
    n_comp = 0
    for start in range(mesh.face_count):
        if comp[start] >= 0:
            continue
        comp[start] = n_comp
        stack = [start]
        while stack:
            f = stack.pop()
            for e in mesh.faces[f].edges:
                if e in loop_edges:
                    continue
                for g, _ in occ[e]:
                    if comp[g] < 0:
                        comp[g] = n_comp
                        stack.append(g)
        n_comp += 1
    return comp, n_comp


def _loop_null_homotopic(mesh: WeightedTriangulation, loop_edges: frozenset) -> bool:
    """Embedded loop bounds a disk iff cutting along it leaves a chi=1 piece.

    A non-separating loop (single piece) is never null-homotopic; this also
    rejects one-sided loops, whose single complementary piece may have chi 1
    on a non-orientable surface but whose boundary runs around the loop twice.
    """
    comp, n_comp = _face_regions(mesh, loop_edges)
    if n_comp == 1:
        return False
    for c in range(n_comp):
        faces = np.nonzero(comp == c)[0]
        verts = set()
        edges = set()
        for f in faces:
            verts.update(mesh.faces[f].vertices)
            edges.update(mesh.faces[f].edges)
        chi = len(verts) - len(edges) + len(faces)
        if chi == 1:
            return True
    return False


def _vertex_adjacency(mesh: WeightedTriangulation):
    adj = [set() for _ in range(mesh.vertex_count)]
    for e in mesh.edges:
        if e.a != e.b:
            adj[e.a].add(e.b)
            adj[e.b].add(e.a)
    return adj


def enumerate_short_loops(mesh: WeightedTriangulation, max_len: int = 4) -> list:
    """All closed edge paths of length 3 (and 4 when max_len=4).

    Embedded loops (distinct vertices) get a definite null-homotopy verdict
    via complementary-region analysis, plus face-boundary annotations:
    a 3-loop may bound a single face, a 4-loop the union of two faces sharing
    an edge.  Closed 4-walks that revisit a vertex (possible only with
    parallel edges) are reported with null_homotopic=None.
    """
    if max_len not in (3, 4):
        raise ValueError("max_len must be 3 or 4")
    pair_edges = mesh.pair_edges()
    adj = _vertex_adjacency(mesh)
    face_by_edgeset = {}
    for f, face in enumerate(mesh.faces):
        face_by_edgeset.setdefault(frozenset(face.edges), f)

    # map symmetric-difference edge set of two adjacent faces -> (f, g)
    pair_by_boundary = {}
    for e, occ in enumerate(mesh.edge_face_slots):
        if len(occ) != 2:
            continue
        f, g = occ[0][0], occ[1][0]
        if f == g:
            continue
        union = set(mesh.faces[f].edges) | set(mesh.faces[g].edges)
        shared = set(mesh.faces[f].edges) & set(mesh.faces[g].edges)
        boundary = frozenset(union - shared)
        if len(boundary) == 4:
            pair_by_boundary.setdefault(boundary, (min(f, g), max(f, g)))

    loops = []

    def emit(verts, eids, embedded):
        eset = frozenset(eids)
        bounds_face = face_by_edgeset.get(eset) if len(eids) == 3 else None
        bounds_pair = pair_by_boundary.get(eset) if len(eids) == 4 else None
        if embedded:
            if bounds_face is not None:
                nh = True
            else:
                nh = _loop_null_homotopic(mesh, eset)
        else:
            nh = None
        loops.append(
            Loop(
                vertices=tuple(verts),
                edges=tuple(eids),
                embedded=embedded,
                bounds_face=bounds_face,
                bounds_face_pair=bounds_pair,
                null_homotopic=nh,
            )
        )

    n = mesh.vertex_count
    for a in range(n):
        for b in (x for x in adj[a] if x > a):
            for c in (x for x in adj[b] if x > b and x in adj[a]):
                for eab in pair_edges[frozenset((a, b))]:
                    for ebc in pair_edges[frozenset((b, c))]:
                        for eca in pair_edges[frozenset((c, a))]:
                            emit((a, b, c), (eab, ebc, eca), True)

    if max_len == 4:
        for a in range(n):
            nbrs = sorted(x for x in adj[a] if x > a)
            for bi in range(len(nbrs)):
                for di in range(bi + 1, len(nbrs)):
                    b, d = nbrs[bi], nbrs[di]
                    for c in adj[b] & adj[d]:
                        if c == a or c <= a:
                            continue
                        for eab in pair_edges[frozenset((a, b))]:
                            for ebc in pair_edges[frozenset((b, c))]:
                                for ecd in pair_edges[frozenset((c, d))]:
                                    for eda in pair_edges[frozenset((d, a))]:
                                        emit((a, b, c, d), (eab, ebc, ecd, eda), True)
        # pinched 4-walks a->b->a->d->a through two parallel pairs at a
        for a in range(n):
            groups = []
            for other in sorted(adj[a]):
                eids = pair_edges[frozenset((a, other))]
                if len(eids) >= 2:
                    groups.append((other, eids))
            for gi in range(len(groups)):
                b, eids_b = groups[gi]
                out_back = list(itertools.combinations(eids_b, 2))
                for gj in range(gi, len(groups)):
                    d, eids_d = groups[gj]
                    if gi == gj:
                        if len(eids_b) < 4:
                            continue
                        combos = [
                            (p1, p2)
                            for p1, p2 in itertools.combinations(out_back, 2)
                            if not set(p1) & set(p2)
                        ]
                    else:
                        combos = [
                            (p1, p2)
                            for p1 in out_back
                            for p2 in itertools.combinations(eids_d, 2)
                        ]
                    for (e1, e2), (e3, e4) in combos:
                        emit((a, b, a, d), (e1, e2, e3, e4), False)

    return loops
