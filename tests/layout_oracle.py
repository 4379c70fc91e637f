"""Face-by-face reference for `develop_layout` and `render_svg`.

This is the loop form the array path replaced: a breadth-first walk of the
dual graph that places one face at a time with complex scalars, one
`hyperbolic_circle` call per corner, and an SVG keyed on numpy scalars.  The
tests require the array path to give the same plan within 1e-12 and the
same SVG bytes.
"""

import cmath
import math
from collections import deque

import numpy as np

from circleflow.geometry import Geometry, angles_from_lengths, triangle_lengths
from circleflow.layout import LayoutPlan
from mesh_oracle import edge_face_slots


def _mob_to_zero(z: complex, p: complex) -> complex:
    return (z - p) / (1.0 - p.conjugate() * z)


def _mob_from_zero(w: complex, p: complex) -> complex:
    return (w + p) / (1.0 + p.conjugate() * w)


def _reach(geometry: Geometry, d: float) -> float:
    # Euclidean coordinate distance of a point at metric distance d from 0
    return math.tanh(0.5 * d) if geometry is Geometry.HYPERBOLIC else d


def hyperbolic_circle(center: complex, radius: float):
    """Euclidean (center, radius) of a metric circle in the Poincare disk."""
    t = math.tanh(0.5 * radius)
    if center == 0:
        return 0j, t
    direction = center / abs(center)
    z_far = _mob_from_zero(t * direction, center)
    z_near = _mob_from_zero(-t * direction, center)
    return 0.5 * (z_far + z_near), 0.5 * abs(z_far - z_near)


def _place_across(geometry, coords, fv, lengths, angles, f, sf, g, sg):
    """Face g shares the edge at slot sf of placed face f; fill coords[g]."""
    p, q, r = (sg + 1) % 3, (sg + 2) % 3, sg
    by_vertex = {int(fv[f, n]): coords[f, n] for n in range(3)}
    zp = by_vertex[int(fv[g, p])]
    zq = by_vertex[int(fv[g, q])]
    zs = coords[f, sf]  # third vertex of f, on the side to avoid
    alpha = angles[g, p]
    leg = _reach(geometry, lengths[g, q])  # p-vertex to the new vertex
    if geometry is Geometry.HYPERBOLIC:
        qm = _mob_to_zero(zq, zp)
        sm = _mob_to_zero(zs, zp)
        phi = cmath.phase(qm)
        side = (qm.conjugate() * sm).imag
        sign = -1.0 if side > 0 else 1.0
        zr = _mob_from_zero(leg * cmath.exp(1j * (phi + sign * alpha)), zp)
    else:
        u = (zq - zp) / abs(zq - zp)
        side = (u.conjugate() * (zs - zp)).imag
        sign = -1.0 if side > 0 else 1.0
        zr = zp + leg * u * cmath.exp(1j * sign * alpha)
    coords[g, p] = zp
    coords[g, q] = zq
    coords[g, r] = zr


def develop_layout(mesh, metric, seed_face: int = None) -> LayoutPlan:
    geometry = metric.geometry
    if geometry is Geometry.SPHERICAL:
        raise ValueError("layout needs a Euclidean or hyperbolic metric")
    radii = np.asarray(metric.radii)[mesh.face_vertices]
    lengths = triangle_lengths(geometry, radii, mesh.face_weights)
    angles = angles_from_lengths(geometry, lengths)
    fv = mesh.face_vertices
    n_faces = mesh.face_count
    if seed_face is None:
        seed_face = 0
    if not 0 <= seed_face < n_faces:
        raise ValueError(f"seed face {seed_face} out of range")

    coords = np.full((n_faces, 3), complex("nan"), dtype=complex)
    placed = np.zeros(n_faces, dtype=bool)
    coords[seed_face, 0] = 0.0
    coords[seed_face, 1] = _reach(geometry, lengths[seed_face, 2])
    coords[seed_face, 2] = _reach(geometry, lengths[seed_face, 1]) * cmath.exp(
        1j * angles[seed_face, 0]
    )
    placed[seed_face] = True

    tree = []
    queue = deque([seed_face])
    occ = edge_face_slots(mesh)
    while queue:
        f = queue.popleft()
        for e in mesh.faces[f].edges:
            pair = occ[e]
            if len(pair) != 2:
                continue
            (fa, sa), (fb, sb) = pair
            if fa == fb:
                continue
            g, sg = (fb, sb) if fa == f else (fa, sa)
            if placed[g]:
                continue
            sf = sa if fa == f else sb
            _place_across(geometry, coords, fv, lengths, angles, f, sf, g, sg)
            placed[g] = True
            tree.append(e)
            queue.append(g)
    if not placed.all():
        raise ValueError("dual graph is disconnected; cannot develop every face")

    vertex_radii = np.asarray(metric.radii, dtype=float)
    circles = np.empty((n_faces, 3, 3))
    for f in range(n_faces):
        for s in range(3):
            z = coords[f, s]
            r = float(vertex_radii[fv[f, s]])
            if geometry is Geometry.HYPERBOLIC:
                c, rho = hyperbolic_circle(z, r)
            else:
                c, rho = z, r
            circles[f, s] = (c.real, c.imag, rho)

    tree_set = set(tree)
    cut = tuple(e for e in range(mesh.edge_count) if e not in tree_set)
    return LayoutPlan(
        geometry=geometry,
        seed_face=int(seed_face),
        face_coords=np.stack([coords.real, coords.imag], axis=-1),
        circles=circles,
        tree_edges=tuple(tree),
        cut_edges=cut,
    )


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def render_svg(mesh, plan: LayoutPlan) -> str:
    """Standalone SVG: packing circles, tree edges solid, cut edges dashed.

    Output is deterministic for a given plan; duplicate circles and segments
    (tree edges are shared exactly) collapse to one element.
    """
    coords = plan.face_coords
    tree = set(plan.tree_edges)

    def key(*vals):
        return tuple(round(v, 9) for v in vals)

    circles = {}
    for f in range(coords.shape[0]):
        for s in range(3):
            cx, cy, rho = plan.circles[f, s]
            circles.setdefault(key(cx, cy, rho), (cx, cy, rho))

    solid, dashed = {}, {}
    for f, face in enumerate(mesh.faces):
        for s in range(3):
            e = face.edges[s]
            a, b = (s + 1) % 3, (s + 2) % 3
            seg = (coords[f, a, 0], coords[f, a, 1], coords[f, b, 0], coords[f, b, 1])
            k = frozenset((key(seg[0], seg[1]), key(seg[2], seg[3])))
            (solid if e in tree else dashed).setdefault(k, seg)

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
