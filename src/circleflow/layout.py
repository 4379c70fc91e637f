"""Develop a packing into the plane or the hyperbolic disk and render it.

Faces are placed along a breadth-first spanning tree of the dual graph, one
generation of the tree at a time as whole arrays: the two shared vertices of
each new face reuse the coordinates its parent face already has (exactly, no
re-solving), and the third is placed on the far side of the shared edge at
the distances the metric dictates.  Edges off the tree are cut edges; a face
pair across a cut edge generally disagrees about coordinates unless the
surface is simply connected, and the disagreement is the holonomy of the
developing map.

Hyperbolic coordinates live in the Poincare disk, where placing a point at a
prescribed distance and bearing from z means conjugating by the disk
automorphism that moves z to the origin.  Spherical metrics have no global
planar picture and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import PackingMetric, _face_table
from .geometry import Geometry
from .mesh import WeightedTriangulation

__all__ = ["LayoutPlan", "develop_layout", "hyperbolic_circle", "render_svg"]


@dataclass(frozen=True)
class LayoutPlan:
    geometry: Geometry
    seed_face: int
    face_coords: np.ndarray  # (F, 3, 2): per face, per vertex slot
    circles: np.ndarray  # (F, 3, 3): drawable (cx, cy, rho) per slot
    tree_edges: tuple  # edge ids the development crossed
    cut_edges: tuple  # everything else; coordinates may disagree across these


def _mob_to_zero(z, p):
    return (z - p) / (1.0 - p.conjugate() * z)


def _mob_from_zero(w, p):
    return (w + p) / (1.0 + p.conjugate() * w)


def hyperbolic_circle(center, radius):
    """Euclidean (center, radius) of a metric circle in the Poincare disk.

    Takes scalars or arrays of centers and radii (broadcast together)."""
    center = np.asarray(center, dtype=complex)
    t = np.tanh(0.5 * np.asarray(radius, dtype=float))
    size = np.abs(center)
    direction = np.divide(center, size, out=np.ones_like(center), where=size > 0)
    z_far = _mob_from_zero(t * direction, center)
    z_near = _mob_from_zero(-t * direction, center)
    return 0.5 * (z_far + z_near), 0.5 * np.abs(z_far - z_near)


def _place_across(hyperbolic, coords, fv, reach, angles, src, dst):
    """Place the faces dst // 3 across the placed corners src: corner
    (f, sf) and (g, sg) hold the same edge; fill coords[g]."""
    f, sf = np.divmod(src, 3)
    g, sg = np.divmod(dst, 3)
    p, q = (sg + 1) % 3, (sg + 2) % 3
    a, b = (sf + 1) % 3, (sf + 2) % 3  # the shared edge's ends in f
    p_at_a = fv[f, a] == fv[g, p]
    zp = np.where(p_at_a, coords[f, a], coords[f, b])
    zq = np.where(p_at_a, coords[f, b], coords[f, a])
    zs = coords[f, sf]  # third vertex of f, on the side to avoid
    alpha = angles[g, p]
    leg = reach[g, q]  # p-vertex to the new vertex
    if hyperbolic:
        qm = _mob_to_zero(zq, zp)
        sm = _mob_to_zero(zs, zp)
        sign = np.where((qm.conjugate() * sm).imag > 0, -1.0, 1.0)
        zr = _mob_from_zero(leg * np.exp(1j * (np.angle(qm) + sign * alpha)), zp)
    else:
        u = (zq - zp) / np.abs(zq - zp)
        sign = np.where((u.conjugate() * (zs - zp)).imag > 0, -1.0, 1.0)
        zr = zp + leg * u * np.exp(1j * sign * alpha)
    coords[g, p] = zp
    coords[g, q] = zq
    coords[g, sg] = zr


def develop_layout(
    mesh: WeightedTriangulation, metric: PackingMetric, seed_face: int = None
) -> LayoutPlan:
    geometry = metric.geometry
    if geometry is Geometry.SPHERICAL:
        raise ValueError("layout needs a Euclidean or hyperbolic metric")
    hyperbolic = geometry is Geometry.HYPERBOLIC
    _, lengths, angles = _face_table(mesh, metric)
    # Euclidean coordinate distance of a point at metric distance d from 0
    reach = np.tanh(0.5 * lengths) if hyperbolic else lengths
    fv = mesh.face_vertices
    n_faces = mesh.face_count
    if seed_face is None:
        seed_face = 0
    if not 0 <= seed_face < n_faces:
        raise ValueError(f"seed face {seed_face} out of range")

    # across[c]: the other corner holding the edge of corner c = 3 * face + slot
    indptr, corners = mesh.edge_face_slots
    two = indptr[:-1][np.diff(indptr) == 2]
    across = np.full(3 * n_faces, -1, dtype=np.int64)
    across[corners[two]] = corners[two + 1]
    across[corners[two + 1]] = corners[two]

    coords = np.full((n_faces, 3), complex("nan"), dtype=complex)
    coords[seed_face] = 0.0, reach[seed_face, 2], reach[seed_face, 1] * np.exp(
        1j * angles[seed_face, 0]
    )
    placed = np.zeros(n_faces, dtype=bool)
    placed[seed_face] = True

    # breadth-first, one generation at a time: in queue order, each unplaced
    # face is claimed by the first corner that reaches it
    tree = []
    frontier = np.array([seed_face])
    while frontier.size:
        src = (3 * frontier[:, None] + np.arange(3)).ravel()
        dst = across[src]
        src, dst = src[dst >= 0], dst[dst >= 0]
        fresh = ~placed[dst // 3]
        src, dst = src[fresh], dst[fresh]
        _, first = np.unique(dst // 3, return_index=True)
        first.sort()
        src, dst = src[first], dst[first]
        _place_across(hyperbolic, coords, fv, reach, angles, src, dst)
        frontier = dst // 3
        placed[frontier] = True
        tree.append(mesh.face_edge_ids.ravel()[src])
    if not placed.all():
        raise ValueError("dual graph is disconnected; cannot develop every face")

    vertex_radii = np.asarray(metric.radii, dtype=float)[fv]
    if hyperbolic:
        centers, rho = hyperbolic_circle(coords, vertex_radii)
    else:
        centers, rho = coords, vertex_radii
    tree = np.concatenate(tree)
    crossed = np.zeros(mesh.edge_count, dtype=bool)
    crossed[tree] = True
    return LayoutPlan(
        geometry=geometry,
        seed_face=int(seed_face),
        face_coords=np.stack([coords.real, coords.imag], axis=-1),
        circles=np.stack([centers.real, centers.imag, rho], axis=-1),
        tree_edges=tuple(tree.tolist()),
        cut_edges=tuple(np.flatnonzero(~crossed).tolist()),
    )


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def render_svg(mesh: WeightedTriangulation, plan: LayoutPlan) -> str:
    """Standalone SVG: packing circles, tree edges solid, cut edges dashed.

    Output is deterministic for a given plan; duplicate circles and segments
    (tree edges are shared exactly) collapse to one element.
    """
    tree = set(plan.tree_edges)

    def key(*vals):
        return tuple(round(v, 9) for v in vals)

    # Python floats: round() on numpy scalars costs several times more
    circles = {}
    for cx, cy, rho in plan.circles.reshape(-1, 3).tolist():
        circles.setdefault(key(cx, cy, rho), (cx, cy, rho))

    solid, dashed = {}, {}
    for corners, edges in zip(plan.face_coords.tolist(), mesh.face_edge_ids.tolist()):
        for s, e in enumerate(edges):
            (ax, ay), (bx, by) = corners[(s + 1) % 3], corners[(s + 2) % 3]
            k = frozenset((key(ax, ay), key(bx, by)))
            (solid if e in tree else dashed).setdefault(k, (ax, ay, bx, by))

    if plan.geometry is Geometry.HYPERBOLIC:
        lo_x = lo_y = -1.05
        extent = 2.10
    else:
        arr = plan.circles.reshape(-1, 3)
        lo_x = float((arr[:, 0] - arr[:, 2]).min())
        hi_x = float((arr[:, 0] + arr[:, 2]).max())
        lo_y = float((arr[:, 1] - arr[:, 2]).min())
        hi_y = float((arr[:, 1] + arr[:, 2]).max())
        pad = 0.03 * max(hi_x - lo_x, hi_y - lo_y, 1e-9)
        lo_x, lo_y = lo_x - pad, lo_y - pad
        extent = max(hi_x - lo_x, hi_y - lo_y) + 2 * pad
    width = _fmt(extent)
    stroke = _fmt(extent / 400.0)
    dash = f"{_fmt(extent / 80.0)} {_fmt(extent / 160.0)}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(lo_x)} {_fmt(lo_y)} '
        f'{width} {width}">'
    ]
    if plan.geometry is Geometry.HYPERBOLIC:
        out.append(
            f'<circle cx="0" cy="0" r="1" fill="none" stroke="#000000" stroke-width="{stroke}"/>'
        )
    out.append(f'<g fill="none" stroke="#888888" stroke-width="{stroke}">')
    for seg in solid.values():
        out.append(
            f'<line x1="{_fmt(seg[0])}" y1="{_fmt(seg[1])}" '
            f'x2="{_fmt(seg[2])}" y2="{_fmt(seg[3])}"/>'
        )
    out.append("</g>")
    out.append(
        f'<g fill="none" stroke="#c0392b" stroke-width="{stroke}" stroke-dasharray="{dash}">'
    )
    for seg in dashed.values():
        out.append(
            f'<line x1="{_fmt(seg[0])}" y1="{_fmt(seg[1])}" '
            f'x2="{_fmt(seg[2])}" y2="{_fmt(seg[3])}"/>'
        )
    out.append("</g>")
    out.append(f'<g fill="none" stroke="#1a6fb0" stroke-width="{stroke}">')
    for cx, cy, rho in circles.values():
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(rho)}"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
