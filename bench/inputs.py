"""Seeded input meshes for the benchmark workloads.

Every mesh is built here from the workload seed, written with
`circleflow.files.write_mesh`, and later read back through `parse_mesh`, so
the program only ever sees files.  Each input records, by construction, the
outcome a correct program must report:

- ``solves``: a metric with the prescribed curvatures exists and a solve must
  converge;
- ``holds`` / ``fails``: the existence verdict, with the vertex set a
  ``fails`` verdict must name as its witness when one is known;
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from circleflow import files, meshes
from circleflow.curvature import PackingMetric
from circleflow.geometry import Geometry
from circleflow.mesh import WeightedTriangulation, euler_characteristic, validate

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class Input:
    name: str
    path: Path
    geometry: Geometry
    vertices: int
    expect: str  # "solves" | "holds" | "fails"
    witness: Optional[frozenset] = None  # vertex set a "fails" verdict must report
    # ROADMAP defect id when the parent commit is known to answer wrongly
    known_defect: Optional[str] = None


# -- mesh builders --------------------------------------------------------------


def from_triangles(vertex_count, triangles, edge_weight) -> WeightedTriangulation:
    """Mesh on vertex triples; edges are keyed by endpoint pair and get
    `edge_weight()` in order of first appearance."""
    edge_ids = {}
    edges = []

    def eid(a, b):
        key = (min(a, b), max(a, b))
        if key not in edge_ids:
            edge_ids[key] = len(edges)
            edges.append((key[0], key[1], edge_weight()))
        return edge_ids[key]

    faces = [((i, j, k), (eid(j, k), eid(k, i), eid(i, j))) for i, j, k in triangles]
    return WeightedTriangulation(vertex_count, edges, faces)


def uniform_weights(rng, wmax):
    return lambda: float(rng.uniform(0.0, wmax))


def grid_torus_triangles(n, m):
    """n x m grid on the flat torus, each square cut along one diagonal."""
    tris = []
    for i in range(n):
        for j in range(m):
            v00 = i * m + j
            v10 = ((i + 1) % n) * m + j
            v01 = i * m + (j + 1) % m
            v11 = ((i + 1) % n) * m + (j + 1) % m
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return n * m, tris


def refine_triangles(vertex_count, triangles):
    """One 1->4 midpoint subdivision; needs a mesh without parallel edges."""
    mid = {}

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid:
            mid[key] = vertex_count + len(mid)
        return mid[key]

    out = []
    for i, j, k in triangles:
        a, b, c = midpoint(j, k), midpoint(k, i), midpoint(i, j)
        out += [(i, c, b), (c, j, a), (b, a, k), (a, b, c)]
    return vertex_count + len(mid), out


def refined(base: WeightedTriangulation, rounds: int):
    n, tris = base.vertex_count, [f.vertices for f in base.faces]
    for _ in range(rounds):
        n, tris = refine_triangles(n, tris)
    return n, tris


def grid_torus(n, m, rng, wmax=1.2) -> WeightedTriangulation:
    return from_triangles(*grid_torus_triangles(n, m), uniform_weights(rng, wmax))


def refined_genus_2(rounds, rng, wmax=1.0) -> WeightedTriangulation:
    return from_triangles(*refined(meshes.genus_2(), rounds), uniform_weights(rng, wmax))


def star_rim(mesh: WeightedTriangulation, face_id: int = 0):
    """Star-subdivide one face and put weight pi/2 on its rim.

    The new centre c has target sum 0 (flat or hyperbolic default) against a
    subset bound 2*pi - 3*(pi - pi/2) = pi/2, so no metric exists: the subset
    test fails at {c}, and the rim becomes a null-homotopic 3-loop of weight
    3*pi/2 that bounds no face.  Returns (mesh, centre, rim vertices).
    """
    rim = mesh.faces[face_id].vertices
    mesh, centre = meshes.star_subdivide(mesh, face_id)
    pairs = ((rim[0], rim[1]), (rim[1], rim[2]), (rim[2], rim[0]))
    return meshes.replace_weights(mesh, {p: HALF_PI for p in pairs}), centre, frozenset(rim)


def lognormal_radii(rng, n, scale=1.0, sigma=0.3):
    return scale * np.exp(sigma * rng.standard_normal(n))


# -- writing --------------------------------------------------------------------


class InputWriter:
    """Writes generated meshes into one directory and checks each on the way."""

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def write(self, name, mesh, geometry, radii, *, chi, targets=None, **expect) -> Input:
        problems = validate(mesh)
        if problems:
            raise ValueError(f"generated mesh {name} is invalid: {problems[:3]}")
        if euler_characteristic(mesh) != chi:
            raise ValueError(f"generated mesh {name} has chi {euler_characteristic(mesh)} != {chi}")
        path = self.directory / f"{name}.json"
        metric = PackingMetric(geometry=geometry, radii=radii)
        files.write_mesh(path, mesh, metric=metric, targets=targets)
        return Input(name=name, path=path, geometry=geometry, vertices=mesh.vertex_count, **expect)

    def copy(self, name, source: Path, *, targets=None, **expect) -> Input:
        """Re-write a checked-in fixture, optionally with new targets."""
        mesh, metric, old_targets = files.parse_mesh(source)
        chi = euler_characteristic(mesh)
        return self.write(
            name, mesh, metric.geometry, metric.radii, chi=chi,
            targets=old_targets if targets is None else targets, **expect,
        )


# -- workload input sets -----------------------------------------------------------


def flow_euclid(w: InputWriter, rng, _fixtures: Path):
    out = []
    for k in (20, 30):
        mesh = grid_torus(k, k, rng)
        radii = lognormal_radii(rng, mesh.vertex_count)
        out.append(
            w.write(f"torus{k}x{k}", mesh, Geometry.EUCLIDEAN, radii, chi=0, expect="solves")
        )
    return out


def newton_hyper(w: InputWriter, rng, _fixtures: Path):
    out = []
    for rounds in (4, 5):
        mesh = refined_genus_2(rounds, rng)
        radii = lognormal_radii(rng, mesh.vertex_count, scale=math.exp(-1.0))
        out.append(
            w.write(f"genus2r{rounds}", mesh, Geometry.HYPERBOLIC, radii, chi=-2, expect="solves")
        )
    return out


def check_exist(w: InputWriter, rng, fixtures: Path):
    euclid, hyper = Geometry.EUCLIDEAN, Geometry.HYPERBOLIC
    out = []
    for n, m in ((4, 4), (4, 5)):
        mesh = grid_torus(n, m, rng)
        radii = lognormal_radii(rng, mesh.vertex_count)
        out.append(w.write(f"torus{n}x{m}", mesh, euclid, radii, chi=0, expect="holds"))
    mesh, centre, _rim = star_rim(grid_torus(4, 4, rng))
    out.append(
        w.write("torus4x4star", mesh, euclid, lognormal_radii(rng, mesh.vertex_count), chi=0,
                expect="fails", witness=frozenset({centre}))
    )
    out.append(w.copy("sphere9", fixtures / "sphere9_violating.json",
                      expect="fails", witness=frozenset({6})))
    g2 = refined_genus_2(2, rng)
    r_g2 = lognormal_radii(rng, g2.vertex_count, scale=math.exp(-1.0))
    out.append(w.write("genus2r2", g2, hyper, r_g2, chi=-2, expect="holds"))
    mesh, centre, rim = star_rim(g2)
    r_star = np.append(r_g2, math.exp(-1.0))
    out.append(w.write("genus2r2star", mesh, hyper, r_star, chi=-2, expect="fails", witness=rim))
    mesh = grid_torus(20, 20, rng)
    out.append(w.write("torus20x20", mesh, euclid, lognormal_radii(rng, mesh.vertex_count),
                       chi=0, expect="holds"))
    # every target -2 sums to -22 < 2*pi*chi = -4*pi: no hyperbolic metric exists
    out.append(w.copy("genus2neg", fixtures / "genus2.json", targets=np.full(11, -2.0),
                      expect="fails", known_defect="a"))
    return out
