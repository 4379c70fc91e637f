"""Law-of-cosines reference for the face trigonometry of `circleflow.geometry`.

These are the per-geometry forms the half-angle kernel replaced.  They agree
with it at moderate radii, and lose digits where it does not: near 1 the
hyperbolic and spherical cosines cancel, so small curved faces are where the
two part.
"""

import numpy as np

from circleflow.geometry import Geometry

_NEXT = (1, 2, 0)
_PREV = (2, 0, 1)


def edge_length(geometry, r_a, r_b, weight):
    cw = np.cos(weight)
    if geometry is Geometry.EUCLIDEAN:
        return np.sqrt(r_a * r_a + r_b * r_b + 2.0 * r_a * r_b * cw)
    if geometry is Geometry.HYPERBOLIC:
        arg = np.cosh(r_a) * np.cosh(r_b) + np.sinh(r_a) * np.sinh(r_b) * cw
        return np.arccosh(np.maximum(arg, 1.0))
    arg = np.cos(r_a) * np.cos(r_b) - np.sin(r_a) * np.sin(r_b) * cw
    return np.arccos(np.clip(arg, -1.0, 1.0))


def edge_length_dr(geometry, r_a, r_b, weight, length):
    """d length / d r_a with r_b and the weight held fixed."""
    cw = np.cos(weight)
    if geometry is Geometry.EUCLIDEAN:
        return (r_a + r_b * cw) / length
    if geometry is Geometry.HYPERBOLIC:
        return (np.sinh(r_a) * np.cosh(r_b) + np.cosh(r_a) * np.sinh(r_b) * cw) / np.sinh(length)
    return (np.sin(r_a) * np.cos(r_b) + np.cos(r_a) * np.sin(r_b) * cw) / np.sin(length)


def angles_from_lengths(geometry, lengths):
    x = np.asarray(lengths, dtype=float)
    xj = x[..., _NEXT]
    xk = x[..., _PREV]
    if geometry is Geometry.EUCLIDEAN:
        arg = (xj * xj + xk * xk - x * x) / (2.0 * xj * xk)
    elif geometry is Geometry.HYPERBOLIC:
        arg = (np.cosh(xj) * np.cosh(xk) - np.cosh(x)) / (np.sinh(xj) * np.sinh(xk))
    else:
        arg = (np.cos(x) - np.cos(xj) * np.cos(xk)) / (np.sin(xj) * np.sin(xk))
    return np.arccos(np.clip(arg, -1.0, 1.0))
