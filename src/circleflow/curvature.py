"""Packing metrics, discrete curvature, and its Jacobian.

A packing metric assigns one circle radius per vertex; each face then carries
the geodesic triangle of `geometry.tri_angles`.  The curvature of a vertex is
2*pi minus its cone angle (the sum of incident inner angles).

`curvature_state` does only the work that depends on the radii; the incidence
arrays it reads are cached on the mesh.  Each edge length is computed once
per edge and gathered to the faces, and the cone angles are summed with one
`np.bincount` over the corner->vertex index, so each per-vertex sum runs in
the fixed corner order of the face table (a relabelling of the faces may move
it by rounding).  The two Gauss-Bonnet totals are still exact sums
(math.fsum).

The flow works in coordinates u with du/dr = 1/s(r): u = ln r (Euclidean),
ln tanh(r/2) (hyperbolic, so u < 0), ln tan(r/2) (spherical).  In these
coordinates the curvature Jacobian d K_i / d u_j is symmetric.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .geometry import (
    DomainError,
    Geometry,
    _dtheta_dr,
    angles_from_lengths,
    edge_length,
    s_func,
)
from .mesh import WeightedTriangulation, euler_characteristic

__all__ = [
    "CurvatureState",
    "DefinitenessVerdict",
    "GaussBonnetViolation",
    "PackingMetric",
    "UCoordinates",
    "curvature_hessian",
    "curvature_state",
    "default_targets",
    "diagonal_dominance_verdict",
    "from_u",
    "to_u",
]

_TWO_PI = 2.0 * math.pi


class GaussBonnetViolation(ArithmeticError):
    """Total curvature failed the combinatorial Gauss-Bonnet identity."""


@dataclass(frozen=True)
class PackingMetric:
    """Geometry tag plus one positive radius per vertex."""

    geometry: Geometry
    radii: np.ndarray

    def __post_init__(self):
        r = np.array(self.radii, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise DomainError("radii must be a nonempty vector")
        if not np.all(np.isfinite(r)) or not np.all(r > 0.0):
            raise DomainError("radii must be positive and finite")
        if self.geometry is Geometry.SPHERICAL and not np.all(r < math.pi):
            raise DomainError("spherical radii must lie in (0, pi)")
        r.setflags(write=False)
        object.__setattr__(self, "radii", r)


@dataclass(frozen=True)
class UCoordinates:
    """Flow coordinates; componentwise image of the radii under du/dr = 1/s(r)."""

    geometry: Geometry
    u: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)


def to_u(metric: PackingMetric) -> UCoordinates:
    r = metric.radii
    g = metric.geometry
    if g is Geometry.EUCLIDEAN:
        u = np.log(r)
    elif g is Geometry.HYPERBOLIC:
        u = np.log(np.tanh(r / 2.0))
    else:
        u = np.log(np.tan(r / 2.0))
    return UCoordinates(geometry=g, u=u)


def from_u(coords: UCoordinates) -> PackingMetric:
    """Inverse of `to_u`; raises DomainError for u outside the domain (a
    non-finite or vanishing radius, hyperbolic u >= 0, spherical r >= pi)."""
    u = coords.u
    g = coords.geometry
    # an overflowing exp gives an infinite radius, which PackingMetric rejects
    with np.errstate(over="ignore"):
        if g is Geometry.EUCLIDEAN:
            r = np.exp(u)
        elif g is Geometry.HYPERBOLIC:
            if np.any(u >= 0.0):
                raise DomainError("hyperbolic u-coordinates must be negative")
            # r = ln((1+e^u)/(1-e^u)); -expm1 keeps precision for u near 0-
            r = np.log1p(np.exp(u)) - np.log(-np.expm1(u))
        else:
            r = 2.0 * np.arctan(np.exp(u))
    return PackingMetric(geometry=g, radii=r)


def default_targets(mesh: WeightedTriangulation, geometry: Geometry) -> np.ndarray:
    """Average curvature in the Euclidean gauge, zero otherwise."""
    n = mesh.vertex_count
    if geometry is Geometry.EUCLIDEAN:
        return np.full(n, _TWO_PI * euler_characteristic(mesh) / n)
    return np.zeros(n)


def resolve_targets(
    mesh: WeightedTriangulation, geometry: Geometry, targets: Optional[np.ndarray] = None
) -> np.ndarray:
    """`targets` checked, or `default_targets`.  Raises ValueError unless there
    is one value per vertex and, in Euclidean geometry, they sum to 2*pi*chi
    (Gauss-Bonnet has no area term there)."""
    if targets is None:
        return default_targets(mesh, geometry)
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (mesh.vertex_count,):
        raise ValueError("targets must give one value per vertex")
    if geometry is Geometry.EUCLIDEAN:
        want = _TWO_PI * euler_characteristic(mesh)
        if abs(float(targets.sum()) - want) > 1e-8 * max(1.0, abs(want)):
            raise ValueError(
                f"Euclidean targets must sum to 2*pi*chi = {want}, got {targets.sum()}"
            )
    return targets


def _face_radii(mesh: WeightedTriangulation, metric: PackingMetric) -> np.ndarray:
    if metric.radii.shape != (mesh.vertex_count,):
        raise DomainError(
            f"metric has {metric.radii.size} radii for {mesh.vertex_count} vertices"
        )
    return metric.radii[mesh.face_vertices]


def _check_spherical_faces(mesh, face_radii):
    sums = face_radii.sum(axis=1)
    bad = np.nonzero(sums >= math.pi)[0]
    if bad.size:
        f = int(bad[0])
        raise DomainError(f"face {f}: spherical radii sum {sums[f]} >= pi")


@dataclass(frozen=True)
class CurvatureState:
    """Cone angles, curvatures, and the bookkeeping identities of one metric.

    total_area is the summed triangle area for curved geometries and None in
    the Euclidean case, where the flow never consumes it.  gb_residual is the
    defect of total curvature against 2*pi*chi - curvature*area; it should sit
    at rounding level for any metric on a valid mesh.
    """

    cone_angles: np.ndarray
    curvatures: np.ndarray
    total_area: Optional[float]
    gb_residual: float
    avg_curvature: float


def curvature_state(
    mesh: WeightedTriangulation, metric: PackingMetric, *, gb_tol: float = 1e-9
) -> CurvatureState:
    """Evaluate vertex curvatures; raises GaussBonnetViolation if the total
    curvature identity degrades beyond gb_tol."""
    geom = metric.geometry
    face_radii = _face_radii(mesh, metric)
    if geom is Geometry.SPHERICAL:
        _check_spherical_faces(mesh, face_radii)
    r = metric.radii
    ends = mesh.edge_endpoints
    edge_lengths = edge_length(geom, r[ends[:, 0]], r[ends[:, 1]], mesh.edge_weights)
    angles = angles_from_lengths(geom, edge_lengths[mesh.face_edge_ids])
    cone = np.bincount(
        mesh.face_vertices.ravel(), weights=angles.ravel(), minlength=mesh.vertex_count
    )
    curv = _TWO_PI - cone

    chi = euler_characteristic(mesh)
    excess = angles.sum(axis=1) - math.pi
    sum_excess = math.fsum(excess.tolist())
    lam = geom.curvature
    total_area = None if lam == 0 else lam * sum_excess
    residual = math.fsum(curv.tolist()) - _TWO_PI * chi + sum_excess
    if abs(residual) > gb_tol:
        raise GaussBonnetViolation(f"total curvature defect {residual} exceeds {gb_tol}")
    return CurvatureState(
        cone_angles=cone,
        curvatures=curv,
        total_area=total_area,
        gb_residual=residual,
        avg_curvature=_TWO_PI * chi / mesh.vertex_count,
    )


def curvature_hessian(mesh: WeightedTriangulation, metric: PackingMetric) -> sp.csr_matrix:
    """Sparse symmetric Jacobian A with A[i, j] = d K_i / d u_j.

    Assembled per face as -(d theta_n / d r_m) * s(r_m); for weights in
    [0, pi/2] the diagonal is positive and off-diagonal entries nonpositive.
    Euclidean row sums vanish (scale invariance); hyperbolic row sums are
    positive, making A strictly diagonally dominant.
    """
    geom = metric.geometry
    face_radii = _face_radii(mesh, metric)
    if geom is Geometry.SPHERICAL:
        _check_spherical_faces(mesh, face_radii)
    jac, _, _ = _dtheta_dr(geom, face_radii, mesh.face_weights)
    s_col = s_func(geom, face_radii)  # s(r_m) along the column slot
    contrib = -jac * s_col[:, None, :]
    fv = mesh.face_vertices
    rows = np.broadcast_to(fv[:, :, None], contrib.shape).ravel()
    cols = np.broadcast_to(fv[:, None, :], contrib.shape).ravel()
    n = mesh.vertex_count
    mat = sp.coo_matrix((contrib.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


class DefinitenessVerdict(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    PSD_RANK_DEFICIENT_1 = "psd_rank_deficient_1"
    INDEFINITE_OR_UNKNOWN = "indefinite_or_unknown"


def diagonal_dominance_verdict(matrix, *, tol: float = 1e-10) -> DefinitenessVerdict:
    """Cheap definiteness certificate for a symmetric matrix.

    Strict diagonal dominance with positive diagonal certifies positive
    definiteness.  Failing that, a positive diagonal, nonpositive off-diagonal
    entries, vanishing row sums, and an irreducible sparsity pattern certify
    positive semidefiniteness with a one-dimensional kernel.  Anything else is
    reported unknown; no eigensolver is consulted.
    """
    a = sp.csr_matrix(matrix, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(abs(a.diagonal()).max(initial=0.0), np.abs(a.data).max(initial=0.0), 1e-300)
    asym = abs(a - a.T)
    if asym.nnz and asym.data.max() > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    diag = a.diagonal()
    off_abs_sum = np.asarray(np.abs(a).sum(axis=1)).ravel() - np.abs(diag)
    if np.all(diag > 0.0) and np.all(diag - off_abs_sum > tol * scale):
        return DefinitenessVerdict.POSITIVE_DEFINITE
    off = a.copy()
    off.setdiag(0.0)
    off.eliminate_zeros()
    row_sums = np.asarray(a.sum(axis=1)).ravel()
    if (
        np.all(diag > 0.0)
        and (off.nnz == 0 or off.data.max() <= tol * scale)
        and np.all(np.abs(row_sums) <= tol * scale * max(1, a.shape[0]))
    ):
        n_comp, _ = csgraph.connected_components(abs(a) > 0, directed=False)
        if n_comp == 1:
            return DefinitenessVerdict.PSD_RANK_DEFICIENT_1
    return DefinitenessVerdict.INDEFINITE_OR_UNKNOWN
