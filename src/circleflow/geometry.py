"""Trigonometry of a single packing face: three circles with prescribed
crossing angles in a constant-curvature background.

A face is described by three radii r_0, r_1, r_2 and three weights
w_0, w_1, w_2, where w_n is the crossing angle carried by the edge
*opposite* circle n (so w_n couples circles n+1 and n+2).  Weight 0 means
tangency.  The three circle centers span a geodesic triangle whose edge
lengths and inner angles are what everything downstream (curvature, flow,
Hessians) consumes.

With s the generalized sine of `s_func` (x, sinh x or sin x), one pair of
half-angle laws serves all three geometries, and a table of (s, s', s^-1)
is the only per-geometry part of the formulas:

    s(l/2)^2 = s((r_a + r_b)/2)^2 - s(r_a) s(r_b) sin^2(w/2)
    tan(theta_a/2) = sqrt(s(sigma-b) s(sigma-c) / (s(sigma) s(sigma-a)))

(l the edge of two circles crossing at angle w; theta_a the angle opposite
side a, sigma the semi-perimeter).  Neither subtracts numbers near 1, so
small curved faces keep their digits.  The first radicand is nonnegative
since s is log-concave; the second law is used exactly where every
sigma - x > 0 (and sigma < pi on the sphere), else DegenerateTriangleError.

All functions broadcast over leading axes; the slot axis of size 3 is
always last.  Angles are radians throughout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateTriangleError",
    "DomainError",
    "Geometry",
    "TriangleAngles",
    "TriangleConfig",
    "angles_from_lengths",
    "dtheta_dr",
    "dtheta_dx",
    "edge_length",
    "s_func",
    "tri_angles",
    "triangle_lengths",
]

# (row, col, third) index triples for the off-diagonal derivative entries.
_OFF_SLOTS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_NEXT = (1, 2, 0)
_PREV = (2, 0, 1)


class DomainError(ValueError):
    """An input lies outside the geometric domain (radius or coordinate range)."""


class DegenerateTriangleError(ValueError):
    """The three circles do not bound a nondegenerate geodesic triangle."""


class Geometry(enum.IntEnum):
    """Background geometry; the integer value is the model curvature."""

    HYPERBOLIC = -1
    EUCLIDEAN = 0
    SPHERICAL = 1

    @property
    def curvature(self) -> int:
        return int(self)

    @property
    def tag(self) -> str:
        return self.name.lower()

    @classmethod
    def from_tag(cls, tag: str) -> "Geometry":
        try:
            return cls[str(tag).upper()]
        except KeyError:
            raise DomainError(f"unknown geometry tag {tag!r}") from None


# (s, s', s^-1) per geometry
_TRIG = {
    Geometry.EUCLIDEAN: (np.positive, np.ones_like, np.positive),
    Geometry.HYPERBOLIC: (np.sinh, np.cosh, np.arcsinh),
    Geometry.SPHERICAL: (np.sin, np.cos, np.arcsin),
}


def s_func(geometry: Geometry, x):
    """Generalized sine s(x): x, sinh x, or sin x depending on the geometry."""
    return _TRIG[geometry][0](np.asarray(x, dtype=float))


def edge_length(geometry: Geometry, r_a, r_b, weight):
    """Distance between the centers of two circles crossing at angle `weight`.

    Weight 0 gives externally tangent circles, length r_a + r_b, in every
    geometry.
    """
    s, _, s_inv = _TRIG[geometry]
    r_a = np.asarray(r_a, dtype=float)
    r_b = np.asarray(r_b, dtype=float)
    mid = s(0.5 * (r_a + r_b))
    sin2 = np.sin(0.5 * np.asarray(weight, dtype=float)) ** 2
    return 2.0 * s_inv(np.sqrt(mid * mid - s(r_a) * s(r_b) * sin2))


def _edge_length_dr(geometry: Geometry, r_a, r_b, weight, length):
    """d length / d r_a with r_b and the weight held fixed."""
    s, c, _ = _TRIG[geometry]
    return (s(r_a + r_b) - 2.0 * c(r_a) * s(r_b) * np.sin(0.5 * weight) ** 2) / s(length)


def triangle_lengths(geometry: Geometry, radii, weights):
    """Edge lengths (..., 3) of a face; slot n is the edge opposite circle n."""
    radii = np.asarray(radii, dtype=float)
    return edge_length(geometry, radii[..., _NEXT], radii[..., _PREV], weights)


def angles_from_lengths(geometry: Geometry, lengths):
    """Inner angles (..., 3) of the geodesic triangle with the given side lengths.

    Raises DegenerateTriangleError unless every semi-perimeter gap sigma - x
    is positive (and sigma < pi on the sphere); a non-finite side fails too.
    """
    s = _TRIG[geometry][0]
    x = np.asarray(lengths, dtype=float)
    sigma = 0.5 * x.sum(axis=-1, keepdims=True)
    # an infinite side gives inf - inf here, which the test below refuses
    with np.errstate(invalid="ignore"):
        gap = sigma - x
    ok = np.all(gap > 0.0, axis=-1)
    if geometry is Geometry.SPHERICAL:
        ok &= sigma[..., 0] < math.pi
    if not np.all(ok):
        bad = int(np.flatnonzero(~ok.ravel())[0])
        sides = x.reshape(-1, 3)[bad].tolist()
        raise DegenerateTriangleError(f"triangle {bad}: sides {sides} bound no triangle")
    sg = s(gap)
    return 2.0 * np.arctan2(np.sqrt(sg[..., _NEXT] * sg[..., _PREV]), np.sqrt(s(sigma) * sg))


@dataclass(frozen=True)
class TriangleConfig:
    """One face: geometry, three radii, three opposite-edge weights."""

    geometry: Geometry
    radii: tuple
    weights: tuple

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        weights = tuple(float(w) for w in self.weights)
        if len(radii) != 3 or len(weights) != 3:
            raise DomainError("a face needs exactly three radii and three weights")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "weights", weights)
        if any(not math.isfinite(r) or r <= 0.0 for r in radii):
            raise DomainError(f"radii must be positive and finite, got {radii}")
        if any(not 0.0 <= w < math.pi for w in weights):
            raise DomainError(f"weights must lie in [0, pi), got {weights}")
        if self.geometry is Geometry.SPHERICAL and sum(radii) >= math.pi:
            raise DomainError(f"spherical radii must satisfy r_i + r_j + r_k < pi, got sum {sum(radii)}")


@dataclass(frozen=True)
class TriangleAngles:
    """Resolved face data: lengths, angles, angle sum excess, sine-law invariant.

    area_term is theta_0 + theta_1 + theta_2 - pi, which equals
    curvature * area of the triangle.  sine_norm is the rotation-invariant
    s(x_i) s(x_j) sin(theta_k) appearing in every angle derivative.
    """

    lengths: np.ndarray
    angles: np.ndarray
    area_term: float
    sine_norm: float


def tri_angles(config: TriangleConfig) -> TriangleAngles:
    """Lengths and angles of one face; raises if the face is degenerate."""
    geom = config.geometry
    radii = np.asarray(config.radii, dtype=float)
    weights = np.asarray(config.weights, dtype=float)
    lengths = triangle_lengths(geom, radii, weights)
    angles = angles_from_lengths(geom, lengths)
    s = s_func(geom, lengths)
    sine_norm = float(s[0] * s[1] * math.sin(angles[2]))
    if not sine_norm > 0.0:
        raise DegenerateTriangleError(f"flat face: sine invariant {sine_norm}")
    return TriangleAngles(
        lengths=lengths,
        angles=angles,
        area_term=float(angles.sum() - math.pi),
        sine_norm=sine_norm,
    )


def _dtheta_dx(geometry: Geometry, lengths, angles):
    """Jacobian (..., 3, 3) of angles w.r.t. side lengths.

    Row n, column m holds d theta_n / d x_m.  The diagonal is s(x_n)/A with
    A the sine-law invariant; off-diagonal entries are -s(x_n) cos(theta_p)/A
    with p the remaining slot.
    """
    lengths = np.asarray(lengths, dtype=float)
    angles = np.asarray(angles, dtype=float)
    s = s_func(geometry, lengths)
    tri_sine = s[..., 0] * s[..., 1] * np.sin(angles[..., 2])
    out = np.zeros(lengths.shape + (3,), dtype=float)
    diag = s / tri_sine[..., None]
    for n in range(3):
        out[..., n, n] = diag[..., n]
    cos_t = np.cos(angles)
    for n, m, p in _OFF_SLOTS:
        out[..., n, m] = -diag[..., n] * cos_t[..., p]
    return out


def _dlength_dr(geometry: Geometry, radii, weights, lengths):
    """Jacobian (..., 3, 3) of side lengths w.r.t. radii; d x_p / d r_m.

    x_p depends only on the two radii other than r_p, so the diagonal is zero.
    """
    radii = np.asarray(radii, dtype=float)
    weights = np.asarray(weights, dtype=float)
    out = np.zeros(radii.shape + (3,), dtype=float)
    for p, m, o in _OFF_SLOTS:
        # row p: derivative of length x_p w.r.t. radius r_m (o is the third slot)
        out[..., p, m] = _edge_length_dr(
            geometry, radii[..., m], radii[..., o], weights[..., p], lengths[..., p]
        )
    return out


def _dtheta_dr(geometry: Geometry, radii, weights, lengths, angles):
    """Jacobian (..., 3, 3) of angles w.r.t. radii, chained through the
    face's side lengths and angles."""
    jx = _dtheta_dx(geometry, lengths, angles)
    jr = _dlength_dr(geometry, radii, weights, lengths)
    return np.einsum("...np,...pm->...nm", jx, jr)


def dtheta_dx(angles: TriangleAngles, geometry: Geometry) -> np.ndarray:
    """3x3 matrix of angle derivatives w.r.t. the three side lengths."""
    return _dtheta_dx(geometry, angles.lengths, angles.angles)


def dtheta_dr(config: TriangleConfig) -> np.ndarray:
    """3x3 matrix of angle derivatives w.r.t. the three radii.

    For weights in [0, pi/2] the diagonal is negative, off-diagonal entries
    are positive, and the s(r)-weighted row sums are negative, zero, or
    positive in hyperbolic, Euclidean, or spherical geometry respectively.
    For weights in (pi/2, pi) no sign structure is promised.
    """
    ang = tri_angles(config)
    radii = np.asarray(config.radii, dtype=float)
    weights = np.asarray(config.weights, dtype=float)
    return _dtheta_dr(config.geometry, radii, weights, ang.lengths, ang.angles)
