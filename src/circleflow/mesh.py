"""Weighted triangulations of closed surfaces.

Cells are index-based: vertices are 0..N-1, edges carry endpoint ids and a
crossing-angle weight, and each face stores both its vertex triple and an
explicit edge triple (slot n holds the edge opposite the slot-n vertex).
The explicit edge references keep parallel edges representable, which a
vertex-pair encoding cannot do.

A mesh is four read-only arrays: `face_vertices` and `face_edge_ids`, shape
(F, 3), `edge_endpoints`, shape (E, 2), and `edge_weights`, shape (E,).  Every
derived table (edge-to-corner incidence, vertex degrees, parallel-edge groups,
the Hessian pattern) is built from them with numpy on first use and cached.
`edges` and `faces` are tuple views of `Edge` / `Face` records, also built on
first use, for code that walks the cells one at a time.

`validate` reports structural violations as data rather than raising, so a
checker can show all of them at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

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


def _integers(values) -> np.ndarray:
    """`values` as int64; ValueError unless numpy reads them all as integers
    (not bools, floats or strings).  uint64 beyond int64 wraps negative."""
    arr = np.asarray(values)
    if arr.dtype == object or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError("count or id out of range or not an integer")
    return arr.astype(np.int64)


class WeightedTriangulation:
    """Immutable triangulated closed surface with weighted edges, built from
    (a, b, weight) edge rows and (vertex triple, edge triple) face rows.
    `allow_duplicate_triples=True` admits several faces on the same vertex
    triple (the generalized reading needed once parallel edges exist);
    the default strict mode flags them in `validate`.
    """

    __slots__ = ("vertex_count", "face_vertices", "face_edge_ids", "edge_endpoints",
                 "edge_weights", "allow_duplicate_triples", "_cache")

    def __init__(self, vertex_count, edges, faces, *, allow_duplicate_triples=False):
        n = _integers(vertex_count)
        if n.ndim or n <= 0:
            raise ValueError("vertex_count must be a positive integer")
        n = int(n)
        edges, faces = list(edges), list(faces)
        a, b, w = zip(*edges) if edges else ((), (), ())
        short = next((i for i, (v, e) in enumerate(faces) if len(v) != 3 or len(e) != 3), None)
        if short is not None:
            raise ValueError(f"face {short}: needs 3 vertices and 3 edges")
        verts, eids = zip(*faces) if faces else ((), ())
        ab = _integers([a, b]).T.copy()
        fv = _integers(verts).reshape(-1, 3)
        fe = _integers(eids).reshape(-1, 3)
        bad = np.flatnonzero(((ab < 0) | (ab >= n)).any(axis=1))
        if bad.size:
            raise ValueError(f"edge {bad[0]}: endpoint out of range")
        bad_vertex = ((fv < 0) | (fv >= n)).any(axis=1)
        bad = np.flatnonzero(bad_vertex | ((fe < 0) | (fe >= len(ab))).any(axis=1))
        if bad.size:
            what = "vertex" if bad_vertex[bad[0]] else "edge id"
            raise ValueError(f"face {bad[0]}: {what} out of range")
        self.vertex_count = n
        self.edge_endpoints = ab
        self.edge_weights = np.fromiter(map(float, w), dtype=float, count=len(w))
        self.face_vertices = fv
        self.face_edge_ids = fe
        for arr in (ab, self.edge_weights, fv, fe):
            arr.flags.writeable = False
        self.allow_duplicate_triples = bool(allow_duplicate_triples)
        self._cache = {}

    # -- basic counts -------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edge_weights)

    @property
    def face_count(self) -> int:
        return len(self.face_vertices)

    def euler_characteristic(self) -> int:
        return euler_characteristic(self)

    # -- cached views and tables --------------------------------------------

    def _arr(self, key, build):
        try:
            return self._cache[key]
        except KeyError:
            value = build()
            self._cache[key] = value
            return value

    @property
    def edges(self) -> tuple:
        ab, w = self.edge_endpoints, self.edge_weights
        return self._arr("edges", lambda: tuple(map(Edge, *ab.T.tolist(), w.tolist())))

    @property
    def faces(self) -> tuple:
        def build():
            fv, fe = self.face_vertices.tolist(), self.face_edge_ids.tolist()
            return tuple(map(Face, map(tuple, fv), map(tuple, fe)))

        return self._arr("faces", build)

    @property
    def _corner_pair_pattern(self):
        """CSR pattern (indptr, indices) of the vertex pairs that share a face,
        diagonal included, the data slot of every (face, row corner, column
        corner) entry, shape (F, 3, 3), where repeated pairs share a slot,
        and the data slot of each vertex's diagonal entry, shape (N,)."""

        def build():
            n = self.vertex_count
            fv = self.face_vertices
            pairs = (fv[:, :, None] * n + fv[:, None, :]).ravel()
            keys, slots = np.unique(pairs, return_inverse=True)
            indptr = np.searchsorted(keys, np.arange(n + 1) * n)
            diagonal = np.searchsorted(keys, np.arange(n) * (n + 1))
            return indptr, keys % n, slots.reshape(-1, 3, 3), diagonal

        return self._arr("cpairs", build)

    @property
    def face_weights(self) -> np.ndarray:
        return self._arr("fw", lambda: self.edge_weights[self.face_edge_ids])

    @property
    def edge_face_slots(self):
        """Edge-to-corner incidence as CSR arrays (indptr, corners): the
        corners 3 * face + slot whose slot holds edge e are
        corners[indptr[e]:indptr[e + 1]], in increasing order."""

        def build():
            fe = self.face_edge_ids.ravel()
            corners = np.argsort(fe, kind="stable")
            return np.searchsorted(fe[corners], np.arange(self.edge_count + 1)), corners

        return self._arr("efaces", build)

    def vertex_degrees(self) -> np.ndarray:
        ab = self.edge_endpoints
        return self._arr("deg", lambda: np.bincount(ab.ravel(), minlength=self.vertex_count))

    def pair_edges(self):
        """Map unordered endpoint pair -> list of edge ids (parallel-aware)."""

        def build():
            pairs = np.sort(self.edge_endpoints, axis=1)
            first = _first_equal_row(pairs)
            order = np.argsort(first, kind="stable")  # grouped, each led by its lowest id
            starts = np.flatnonzero(first[order] == order).tolist()
            ids, keys = order.tolist(), pairs.tolist()
            ends = starts[1:] + [len(ids)]
            return {frozenset(keys[ids[a]]): ids[a:b] for a, b in zip(starts, ends)}

        return self._arr("pairs", build)

    def permuted(self, perm: Sequence[int]) -> "WeightedTriangulation":
        """Relabel vertices by perm[v]; edge and face ids keep their order."""
        perm = np.asarray(perm, dtype=np.int64)
        a, b = perm[self.edge_endpoints].T
        return WeightedTriangulation(
            self.vertex_count,
            zip(a, b, self.edge_weights),
            zip(perm[self.face_vertices], self.face_edge_ids),
            allow_duplicate_triples=self.allow_duplicate_triples,
        )


def euler_characteristic(mesh: WeightedTriangulation) -> int:
    return mesh.vertex_count - mesh.edge_count + mesh.face_count


# -- validation --------------------------------------------------------------


def _connected(mesh: WeightedTriangulation) -> bool:
    ab, n = mesh.edge_endpoints, mesh.vertex_count
    graph = sp.coo_matrix((np.ones(len(ab)), (ab[:, 0], ab[:, 1])), shape=(n, n))
    return csgraph.connected_components(graph, directed=False, return_labels=False) == 1


def _first_equal_row(rows: np.ndarray) -> np.ndarray:
    """Per row, the index of the first row equal to it."""
    order = np.lexsort(rows.T[::-1])  # stable: equal rows stay in index order
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (np.diff(rows[order], axis=0) != 0).any(axis=1)
    first = np.empty_like(order)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


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
    fv, fe = mesh.face_vertices, mesh.face_edge_ids
    ab, w = mesh.edge_endpoints, mesh.edge_weights
    used = np.unique(fv)
    if len(used) != mesh.vertex_count:
        gaps = np.flatnonzero(used != np.arange(len(used)))
        first = int(gaps[0]) if gaps.size else len(used)
        return [f"vertex {first} lies on no face ({len(used)} of {mesh.vertex_count} do)"]
    bad = []
    loop = ab[:, 0] == ab[:, 1]
    out_of_range = ~((w >= 0.0) & (w <= MAX_MESH_WEIGHT + 1e-12))
    not_finite = ~np.isfinite(w)
    for idx in np.flatnonzero(loop | out_of_range | not_finite).tolist():
        if loop[idx]:
            bad.append(f"edge {idx}: endpoints coincide (vertex {int(ab[idx, 0])})")
        if out_of_range[idx]:
            bad.append(f"edge {idx}: weight {float(w[idx])} outside [0, pi/2]")
        if not_finite[idx]:
            bad.append(f"edge {idx}: weight not finite")

    pairs = np.sort(ab, axis=1)
    opposite = np.sort(np.stack([fv[:, [1, 2, 0]], fv[:, [2, 0, 1]]], axis=-1), axis=-1)
    for f, s in np.argwhere((pairs[fe] != opposite).any(axis=-1)).tolist():
        bad.append(f"face {f}: edge slot {s} (edge {int(fe[f, s])}) does not join "
                   f"the two vertices opposite slot {s}")

    counts = np.bincount(fe.ravel(), minlength=mesh.edge_count)
    for idx in np.flatnonzero(counts != 2).tolist():
        bad.append(f"edge {idx}: belongs to {int(counts[idx])} faces (expected 2)")

    deg = mesh.vertex_degrees()
    for v in np.flatnonzero(deg < 3).tolist():
        bad.append(f"vertex {v}: degree {int(deg[v])} < 3")

    # faces compare by the *set* of their edges: sorted, with a repeated id
    # moved to the middle slot so that (x, x, y) and (x, y, y) agree
    s = np.sort(fe, axis=1)
    middle = np.where((s[:, 1] == s[:, 0]) | (s[:, 1] == s[:, 2]), s[:, 0], s[:, 1])
    first = _first_equal_row(np.stack([s[:, 0], middle, s[:, 2]], axis=1))
    for f in np.flatnonzero(first != np.arange(len(fe))).tolist():
        bad.append(f"faces {int(first[f])},{f}: identical edge triple")

    if not mesh.allow_duplicate_triples:
        s = np.sort(fv, axis=1)
        distinct = (s[:, 0] < s[:, 1]) & (s[:, 1] < s[:, 2])
        first = _first_equal_row(s)
        for f in np.flatnonzero(distinct & (first != np.arange(len(fv)))).tolist():
            bad.append(f"faces {int(first[f])},{f}: same vertex triple (strict mode)")

    # two-edge disk: parallel edges e1, e2 whose containing faces agree on the
    # remaining two edges (a doubled triangle pinched along e1 and e2)
    same_pair = _first_equal_row(pairs)
    groups = {}
    for e in np.flatnonzero(np.bincount(same_pair, minlength=1)[same_pair] >= 2).tolist():
        groups.setdefault(int(same_pair[e]), []).append(e)
    indptr, corners = mesh.edge_face_slots
    for eids in groups.values():
        for e1, e2 in itertools.combinations(eids, 2):
            for f1 in (corners[indptr[e1] : indptr[e1 + 1]] // 3).tolist():
                rest1 = sorted(x for x in fe[f1].tolist() if x != e1)
                for f2 in (corners[indptr[e2] : indptr[e2 + 1]] // 3).tolist():
                    if f1 != f2 and rest1 == sorted(x for x in fe[f2].tolist() if x != e2):
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
    indptr, corners = mesh.edge_face_slots
    start, owner = indptr.tolist(), (corners // 3).tolist()
    faces = mesh.faces
    comp = [-1] * mesh.face_count
    n_comp = 0
    for seed in range(mesh.face_count):
        if comp[seed] >= 0:
            continue
        comp[seed] = n_comp
        stack = [seed]
        while stack:
            f = stack.pop()
            for e in faces[f].edges:
                if e in loop_edges:
                    continue
                for g in owner[start[e] : start[e + 1]]:
                    if comp[g] < 0:
                        comp[g] = n_comp
                        stack.append(g)
        n_comp += 1
    return np.array(comp), n_comp


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
        region = comp == c
        verts, edges = mesh.face_vertices[region], mesh.face_edge_ids[region]
        if len(np.unique(verts)) - len(np.unique(edges)) + len(verts) == 1:
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
    faces = mesh.faces
    face_by_edgeset = {}
    for f, face in enumerate(faces):
        face_by_edgeset.setdefault(frozenset(face.edges), f)

    # map symmetric-difference edge set of two adjacent faces -> (f, g)
    pair_by_boundary = {}
    indptr, corners = mesh.edge_face_slots
    two = indptr[:-1][np.diff(indptr) == 2]
    for f, g in (corners[two[:, None] + [0, 1]] // 3).tolist():
        if f == g:
            continue
        union = set(faces[f].edges) | set(faces[g].edges)
        shared = set(faces[f].edges) & set(faces[g].edges)
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
