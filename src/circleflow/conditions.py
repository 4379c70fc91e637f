"""Existence conditions for prescribed-curvature circle packings.

A packing metric with the required curvatures exists exactly when every
proper vertex subset I keeps its target curvature sum strictly above a
combinatorial bound: the bound is what the curvature sum over I converges to
when the radii on I shrink to zero, and equals

    2*pi*chi(F_I) - sum over link pairs of (pi - weight),

where F_I is the subcomplex spanned by I and a link pair is a face corner at
a vertex of I whose opposite edge avoids I.  Every margin target_sum(I) -
bound(I) is computed from the face-corner table alone, as

    sum over v in I of (target_v - 2*pi) + sum over faces f of term_f(I),

with term_f = pi when f has two or three corners in I, pi - w (w the weight
of the edge opposite the corner) when it has one, and 0 otherwise.  The two
forms agree: each edge of F_I borders two faces, so 2*E_I = 3*F_I + F_2,
with F_2 the faces having exactly two corners in I, and therefore

    2*pi*chi(F_I) = 2*pi*|I| - pi*(F_I + F_2),

while the faces with exactly one corner in I are the link pairs.  For I = V
the margin is target_sum - 2*pi*chi.
`check_subset_inequalities` runs that test over all proper subsets
(exhaustively, for meshes small enough to enumerate); `subset_bound` exposes
the bound itself and `degeneration_probe` demonstrates the convergence
numerically.

On surfaces of negative Euler characteristic with zero hyperbolic targets
the same content reduces to two local weight conditions on short loops: a
null-homotopic 3-loop with weight sum >= pi must bound a face, and a
null-homotopic 4-loop with weight sum >= 2*pi must bound a pair of adjacent
faces.  `check_loop_conditions` tests both, reporting "undetermined" for
closed walks whose homotopy class the region-cutting test cannot decide.
Hyperbolic targets also need each target below 2*pi and a target sum above
2*pi*chi; `full_report` tests those before the loop screen or the subset
scan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import PackingMetric, curvature_state, resolve_targets
from .geometry import Geometry
from .mesh import WeightedTriangulation, enumerate_short_loops, euler_characteristic

__all__ = [
    "ConditionReport",
    "DegenerationRow",
    "LoopConditionVerdict",
    "STRICT_TOL",
    "SubsetConditionVerdict",
    "check_loop_conditions",
    "check_subset_inequalities",
    "degeneration_probe",
    "full_report",
    "subset_bound",
]

_TWO_PI = 2.0 * math.pi

# strict inequalities with weights that are rational multiples of pi: anything
# this close to equality is reported as a violation, not a pass
STRICT_TOL = 1e-9
# margins below this are counted as near ties worth a warning
NEAR_TOL = 1e-6

_CHUNK = 1 << 15
_WORST_KEEP = 10


def _subset_margins(mesh: WeightedTriangulation, targets: np.ndarray, member) -> np.ndarray:
    """Margins target_sum(I) - bound(I), one per row of the boolean
    membership matrix `member` (subsets x vertices); see the module docstring."""
    corners = member[:, mesh.face_vertices]
    count = corners.sum(axis=2, dtype=np.int8)
    faces = (corners * (math.pi - mesh.face_weights)).sum(axis=2)
    faces[count >= 2] = math.pi
    return member @ (targets - _TWO_PI) + faces.sum(axis=1)


def subset_bound(mesh: WeightedTriangulation, subset) -> float:
    """Limiting curvature sum over `subset` when its radii collapse to zero
    (2*pi*chi for the whole vertex set)."""
    n = mesh.vertex_count
    ids = [int(v) for v in subset]
    if not ids or not all(0 <= v < n for v in ids):
        raise ValueError("subset must be a nonempty set of vertex ids")
    member = np.zeros((1, n), dtype=bool)
    member[0, ids] = True
    return -float(_subset_margins(mesh, np.zeros(n), member)[0])


@dataclass(frozen=True)
class SubsetConditionVerdict:
    status: str  # "holds" | "fails" | "skipped"
    min_margin: float  # min over subsets of (target sum - bound)
    witness: Optional[tuple] = None  # smallest violating subset, ties to lowest ids
    violations: int = 0
    near_ties: int = 0  # margins in (STRICT_TOL, NEAR_TOL]
    worst_bounds: tuple = ()  # ((margin, subset), ...): tightest first, ties by size, then ids
    subsets_checked: int = 0


@dataclass(frozen=True)
class LoopConditionVerdict:
    length: int  # 3 or 4
    status: str  # "holds" | "fails" | "undetermined"
    witnesses: tuple = ()  # violating loops
    undetermined: tuple = ()  # unclassifiable walks at or over the threshold
    loops_checked: int = 0


@dataclass(frozen=True)
class ConditionReport:
    geometry: Geometry
    euler_char: int
    overall: str  # "holds" | "fails" | "undetermined" | "not_applicable"
    subset: Optional[SubsetConditionVerdict]
    loops: Optional[tuple]


@dataclass(frozen=True)
class DegenerationRow:
    factor: float
    curvature_sum: float
    bound: float
    gap: float


def _mask_vertices(mask: int) -> tuple:
    out = []
    v = 0
    mask = int(mask)
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _scan_chunk(mesh: WeightedTriangulation, targets: np.ndarray, start: int, stop: int):
    """Margins target_sum(I) - bound(I) for subset masks in [start, stop)."""
    masks = np.arange(start, stop, dtype=np.uint64)
    bits = np.arange(mesh.vertex_count, dtype=np.uint64)
    member = ((masks[:, None] >> bits) & np.uint64(1)).astype(bool)
    margin = _subset_margins(mesh, targets, member)

    mn = int(np.argmin(margin))
    # the tightest subsets by (margin rounded to 1e-12, popcount, mask), so
    # that last-digit rounding cannot reorder subsets with equal margins
    rounded = np.round(margin, 12)
    keep = min(_WORST_KEEP, margin.size)
    tight = np.flatnonzero(rounded <= np.partition(rounded, keep - 1)[keep - 1])
    popcount = member[tight].sum(axis=1)
    pick = np.lexsort((masks[tight], popcount, rounded[tight]))[:keep]
    worst = [
        (float(rounded[i]), int(p), int(masks[i]), float(margin[i]))
        for i, p in zip(tight[pick], popcount[pick])
    ]

    violating = margin <= STRICT_TOL
    n_viol = int(violating.sum())
    best = None
    if n_viol:
        vm = masks[violating]
        vp = member[violating].sum(axis=1)
        first = np.lexsort((vm, vp))[0]
        best = (int(vp[first]), int(vm[first]))
    near = int(((margin > STRICT_TOL) & (margin <= NEAR_TOL)).sum())
    return (float(margin[mn]), int(masks[mn])), n_viol, near, worst, best


def check_subset_inequalities(
    mesh: WeightedTriangulation,
    *,
    targets: Optional[np.ndarray] = None,
    subset_cap: int = 20,
) -> SubsetConditionVerdict:
    """Exhaustive strict-inequality test target_sum(I) > bound(I) over proper I.

    Subsets are uint64 bitmasks scanned in vectorized chunks.  Default targets
    prescribe the average curvature 2*pi*chi/N at every vertex.  Meshes with
    more than `subset_cap` vertices skip the scan (status "skipped").
    """
    n = mesh.vertex_count
    if n < 2:
        raise ValueError("subset scan needs at least two vertices")
    if targets is None:
        targets = resolve_targets(mesh, Geometry.EUCLIDEAN)
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (n,):
        raise ValueError("targets must give one value per vertex")
    if n > subset_cap:
        return SubsetConditionVerdict(status="skipped", min_margin=math.nan)

    total = (1 << n) - 2  # proper nonempty masks are 1 .. 2^n - 2
    results = [
        _scan_chunk(mesh, targets, s, min(s + _CHUNK, total + 1))
        for s in range(1, total + 1, _CHUNK)
    ]

    min_pair = min(r[0] for r in results)
    violations = sum(r[1] for r in results)
    near_ties = sum(r[2] for r in results)
    worst_all = sorted(itertools.chain.from_iterable(r[3] for r in results))[:_WORST_KEEP]
    best = None
    for r in results:
        if r[4] is not None and (best is None or r[4] < best):
            best = r[4]
    return SubsetConditionVerdict(
        status="fails" if violations else "holds",
        min_margin=min_pair[0],
        witness=_mask_vertices(best[1]) if best else None,
        violations=violations,
        near_ties=near_ties,
        worst_bounds=tuple((m, _mask_vertices(k)) for _r, _p, k, m in worst_all),
        subsets_checked=total,
    )


def check_loop_conditions(mesh: WeightedTriangulation, *, witness_cap: int = 8):
    """Weight thresholds on short null-homotopic loops; returns (3-verdict, 4-verdict).

    A loop at or over its threshold passes only by bounding the required
    cells.  Essential loops are unconstrained.  Walks whose homotopy class is
    unresolved (pinched walks through parallel edges) land in `undetermined`.
    """
    loops = enumerate_short_loops(mesh, max_len=4)
    verdicts = []
    for length, threshold in ((3, math.pi), (4, _TWO_PI)):
        bad = []
        unknown = []
        checked = 0
        for loop in loops:
            if len(loop.edges) != length:
                continue
            checked += 1
            if loop.weight_sum(mesh) < threshold - STRICT_TOL:
                continue
            bounds = loop.bounds_face if length == 3 else loop.bounds_face_pair
            if bounds is not None:
                continue
            if loop.null_homotopic is True:
                bad.append(loop)
            elif loop.null_homotopic is None:
                unknown.append(loop)
        status = "fails" if bad else ("undetermined" if unknown else "holds")
        verdicts.append(
            LoopConditionVerdict(
                length=length,
                status=status,
                witnesses=tuple(bad[:witness_cap]),
                undetermined=tuple(unknown[:witness_cap]),
                loops_checked=checked,
            )
        )
    return tuple(verdicts)


def degeneration_probe(
    mesh: WeightedTriangulation,
    metric: PackingMetric,
    subset,
    shrink_factors=(1.0, 0.5, 0.1, 0.01, 1e-3),
):
    """Scale the subset radii by each factor and tabulate the curvature sum.

    The gap column (curvature sum minus `subset_bound`) stays positive and
    shrinks toward zero as the factor does, which is the degeneration picture
    behind the existence conditions.
    """
    subset = tuple(sorted({int(v) for v in subset}))
    bound = subset_bound(mesh, subset)
    idx = np.array(subset, dtype=np.int64)
    rows = []
    for factor in shrink_factors:
        f = float(factor)
        if not 0.0 < f <= 1.0:
            raise ValueError(f"shrink factors must lie in (0, 1], got {factor}")
        radii = np.array(metric.radii, dtype=float, copy=True)
        radii[idx] *= f
        state = curvature_state(mesh, PackingMetric(geometry=metric.geometry, radii=radii))
        csum = math.fsum(float(state.curvatures[i]) for i in idx)
        rows.append(DegenerationRow(factor=f, curvature_sum=csum, bound=bound, gap=csum - bound))
    return rows


def _hyperbolic_bounds(mesh: WeightedTriangulation, targets: np.ndarray):
    """Bounds on hyperbolic targets beyond the proper-subset inequalities:
    each K_i < 2*pi (cone angles are positive) and sum K = 2*pi*chi + area >
    2*pi*chi, the subset margin of the whole vertex set.  Returns a "fails"
    verdict naming the vertex or the whole vertex set, with the bound's
    margin, or None when both hold.
    """
    top = int(np.argmax(targets))
    n = mesh.vertex_count
    whole = _subset_margins(mesh, targets, np.ones((1, n), dtype=bool))[0]
    bounds = (
        (_TWO_PI - float(targets[top]), (top,)),
        (float(whole), tuple(range(n))),
    )
    for checked, (margin, witness) in enumerate(bounds, start=1):
        if margin <= STRICT_TOL:
            return SubsetConditionVerdict(
                status="fails",
                min_margin=margin,
                witness=witness,
                violations=1,
                worst_bounds=((margin, witness),),
                subsets_checked=checked,
            )
    return None


def full_report(
    mesh: WeightedTriangulation,
    geometry: Geometry,
    *,
    targets: Optional[np.ndarray] = None,
    subset_cap: int = 20,
) -> ConditionReport:
    """Route the geometry to its condition set and fold into one verdict.

    Euclidean -> subset scan ("undetermined" when skipped over the cap);
    targets must sum to 2*pi*chi (ValueError otherwise).  Hyperbolic ->
    `_hyperbolic_bounds`, then the loop conditions for zero targets and the
    subset scan for others.  Spherical -> "not_applicable" (no existence
    criterion to test).
    """
    geometry = Geometry(geometry)
    chi = euler_characteristic(mesh)
    if geometry is Geometry.SPHERICAL:
        return ConditionReport(
            geometry=geometry, euler_char=chi, overall="not_applicable", subset=None, loops=None
        )
    targets = resolve_targets(mesh, geometry, targets)
    verdict = None
    if geometry is Geometry.HYPERBOLIC:
        verdict = _hyperbolic_bounds(mesh, targets)
        if verdict is None and not np.any(targets):
            v3, v4 = check_loop_conditions(mesh)
            statuses = {v3.status, v4.status}
            if "fails" in statuses:
                overall = "fails"
            elif "undetermined" in statuses:
                overall = "undetermined"
            else:
                overall = "holds"
            return ConditionReport(
                geometry=geometry, euler_char=chi, overall=overall, subset=None, loops=(v3, v4)
            )
        if verdict is None and mesh.vertex_count > subset_cap:
            # the loop screen holds only for zero targets: nothing decides
            verdict = SubsetConditionVerdict(status="skipped", min_margin=math.nan)
    if verdict is None:
        verdict = check_subset_inequalities(mesh, targets=targets, subset_cap=subset_cap)
    overall = {"holds": "holds", "fails": "fails", "skipped": "undetermined"}[verdict.status]
    return ConditionReport(
        geometry=geometry, euler_char=chi, overall=overall, subset=verdict, loops=None
    )
