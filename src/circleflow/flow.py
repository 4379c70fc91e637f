"""Curvature flow and direct solves for circle-packing metrics.

The evolution is du_i/dt = -(K_i - target_i) in the flow coordinates of
`curvature.to_u`; its stationary points are metrics of prescribed curvature.
Default targets are the average curvature 2*pi*chi/N in Euclidean geometry
and zero otherwise.

`run_flow` integrates with explicit Euler under step doubling: a step is
accepted only if the state stays in the geometric domain and the sup-norm gap
between one full step and two half steps stays below a per-step budget
proportional to the current curvature residual.  Euclidean updates are
projected onto sum(du) = 0, so the product of the radii is preserved and the
scale gauge never drifts.  Spherical runs use the same machinery but keep the
per-face radius-sum constraint as a step guard and never report a verdict
stronger than "stopped"/"constraint_hit": there is no convergence theory to
promise more.

`newton_solve` descends the same residual with damped Newton steps on the
curvature Jacobian (a convex problem in Euclidean and hyperbolic geometry);
`potential_value` integrates the underlying closed 1-form sum (K_i -
target_i) du_i along straight segments, which is the convex potential whose
gradient the solvers chase.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .curvature import PackingMetric, UCoordinates, curvature_hessian, curvature_state, from_u, to_u
from .geometry import DegenerateTriangleError, DomainError, Geometry
from .mesh import WeightedTriangulation, euler_characteristic

__all__ = [
    "ConvergenceReport",
    "FlowConfig",
    "FlowSample",
    "FlowTrace",
    "MODE_EULER",
    "MODE_NEWTON",
    "MaxPrincipleVerdict",
    "NewtonNonConvergenceError",
    "StepResult",
    "Termination",
    "check_max_principle",
    "default_targets",
    "estimate_exponential_rate",
    "euler_step",
    "newton_solve",
    "potential_value",
    "ricci_rhs",
    "run_flow",
]

_TWO_PI = 2.0 * math.pi
MIN_STEP = 1e-12

MODE_EULER = "explicit_euler"
MODE_NEWTON = "newton"


class Termination(str, enum.Enum):
    CONVERGED = "converged"
    MAX_STEPS = "max_steps"
    DEGENERATED = "degenerated"
    # spherical-only labels: tolerance reached / domain guard exhausted
    STOPPED = "stopped"
    CONSTRAINT_HIT = "constraint_hit"


def default_targets(mesh: WeightedTriangulation, geometry: Geometry) -> np.ndarray:
    """Average curvature in the Euclidean gauge, zero otherwise."""
    n = mesh.vertex_count
    if geometry is Geometry.EUCLIDEAN:
        return np.full(n, _TWO_PI * euler_characteristic(mesh) / n)
    return np.zeros(n)


@dataclass
class FlowConfig:
    """Solve parameters.

    tol_curvature and max_steps default per mode (1e-8 / 1e6 for the flow,
    1e-10 / 100 for Newton).  The per-step error budget is
    max(step_atol, step_rtol * current residual); a budget proportional to the
    residual keeps explicit Euler inside its stability region all the way down.
    """

    target_curvatures: Optional[np.ndarray] = None
    step_init: float = 0.1
    step_max: float = 1.0
    tol_curvature: Optional[float] = None
    max_steps: Optional[int] = None
    mode: str = MODE_EULER
    step_rtol: float = 5e-2
    step_atol: float = 1e-12
    record_every: int = 1

    def resolved(self, mesh: WeightedTriangulation, geometry: Geometry) -> "FlowConfig":
        if self.mode not in (MODE_EULER, MODE_NEWTON):
            raise ValueError(f"unknown mode {self.mode!r}")
        tol = self.tol_curvature
        if tol is None:
            tol = 1e-8 if self.mode == MODE_EULER else 1e-10
        steps = self.max_steps
        if steps is None:
            steps = 10**6 if self.mode == MODE_EULER else 100
        if self.target_curvatures is None:
            targets = default_targets(mesh, geometry)
        else:
            targets = np.asarray(self.target_curvatures, dtype=float)
            if targets.shape != (mesh.vertex_count,):
                raise ValueError("targets must give one value per vertex")
            if geometry is Geometry.EUCLIDEAN:
                want = _TWO_PI * euler_characteristic(mesh)
                if abs(float(targets.sum()) - want) > 1e-8 * max(1.0, abs(want)):
                    raise ValueError(
                        f"Euclidean targets must sum to 2*pi*chi = {want}, got {targets.sum()}"
                    )
        return replace(
            self, target_curvatures=targets, tol_curvature=float(tol), max_steps=int(steps)
        )


@dataclass(frozen=True)
class FlowSample:
    t: float
    radii: np.ndarray
    curvatures: np.ndarray
    k_max: float
    k_min: float
    step: float


@dataclass
class FlowTrace:
    geometry: Geometry
    targets: np.ndarray
    samples: list
    termination: Optional[Termination] = None

    def residuals(self) -> np.ndarray:
        return np.array(
            [np.abs(s.curvatures - self.targets).max() for s in self.samples], dtype=float
        )

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples], dtype=float)


@dataclass(frozen=True)
class ConvergenceReport:
    limit_radii: np.ndarray
    limit_curvatures: np.ndarray
    rate_c1: float
    rate_c2: float
    residual: float


@dataclass(frozen=True)
class StepResult:
    u: UCoordinates
    accepted: bool
    h_used: float
    h_next: float
    error_estimate: float
    curvatures: Optional[np.ndarray] = None


class NewtonNonConvergenceError(RuntimeError):
    """Newton failed to reach tolerance; carries the best iterate seen."""

    def __init__(self, message, best_metric=None, residual=None, iterations=0):
        super().__init__(message)
        self.best_metric = best_metric
        self.residual = residual
        self.iterations = iterations


# -- evaluation helpers --------------------------------------------------------


class _Evaluator:
    """Curvature-as-function-of-u with domain guards."""

    def __init__(self, mesh: WeightedTriangulation, geometry: Geometry):
        self.mesh = mesh
        self.geometry = geometry
        self.face_vertices = mesh.face_vertices

    def in_domain(self, u: np.ndarray) -> bool:
        if not np.all(np.isfinite(u)):
            return False
        if self.geometry is Geometry.HYPERBOLIC:
            return bool(np.all(u < 0.0))
        if self.geometry is Geometry.SPHERICAL:
            r = 2.0 * np.arctan(np.exp(u))
            sums = r[self.face_vertices].sum(axis=1)
            return bool(np.all(sums < math.pi))
        with np.errstate(over="ignore"):
            return bool(np.all(np.isfinite(np.exp(u))))

    def curvatures(self, u: np.ndarray) -> np.ndarray:
        metric = from_u(UCoordinates(geometry=self.geometry, u=u))
        return curvature_state(self.mesh, metric).curvatures

    def try_curvatures(self, u: np.ndarray):
        if not self.in_domain(u):
            return None
        try:
            return self.curvatures(u)
        except (DomainError, DegenerateTriangleError):
            return None


def _project_gauge(delta: np.ndarray, geometry: Geometry) -> np.ndarray:
    # Euclidean flows are scale-blind; keep updates in the sum-zero hyperplane
    if geometry is Geometry.EUCLIDEAN:
        return delta - delta.mean()
    return delta


def ricci_rhs(mesh: WeightedTriangulation, metric: PackingMetric, config: FlowConfig) -> np.ndarray:
    """du/dt = -(K - target), gauge-projected in the Euclidean case."""
    cfg = config.resolved(mesh, metric.geometry)
    k = curvature_state(mesh, metric).curvatures
    return _project_gauge(-(k - cfg.target_curvatures), metric.geometry)


def _attempt_step(ev, cfg, u, curv, h):
    """One adaptive explicit-Euler step; halves h until acceptance or underflow."""
    targets = cfg.target_curvatures
    rhs = _project_gauge(-(curv - targets), ev.geometry)
    resid = float(np.abs(curv - targets).max())
    budget = max(cfg.step_atol, cfg.step_rtol * resid)
    while h >= MIN_STEP:
        u_full = u + h * rhs
        k_full = ev.try_curvatures(u_full)
        if k_full is None:
            h *= 0.5
            continue
        u_half = u + (0.5 * h) * rhs
        k_half = ev.try_curvatures(u_half)
        if k_half is None:
            h *= 0.5
            continue
        rhs_half = _project_gauge(-(k_half - targets), ev.geometry)
        u_two = u_half + (0.5 * h) * rhs_half
        k_two = ev.try_curvatures(u_two)
        if k_two is None:
            h *= 0.5
            continue
        err = float(np.abs(k_full - k_two).max())
        if err <= budget:
            h_next = min(cfg.step_max, 2.0 * h) if err <= 0.25 * budget else h
            return StepResult(
                u=UCoordinates(geometry=ev.geometry, u=u_full),
                accepted=True,
                h_used=h,
                h_next=h_next,
                error_estimate=err,
                curvatures=k_full,
            )
        h *= 0.5
    return StepResult(
        u=UCoordinates(geometry=ev.geometry, u=u),
        accepted=False,
        h_used=0.0,
        h_next=h,
        error_estimate=math.inf,
    )


def euler_step(
    mesh: WeightedTriangulation, u: UCoordinates, config: FlowConfig, h: float
) -> StepResult:
    """Single adaptive step from u; accepted=False signals degeneration
    (the step size underflowed below 1e-12 without an acceptable step)."""
    cfg = config.resolved(mesh, u.geometry)
    ev = _Evaluator(mesh, u.geometry)
    curv = ev.try_curvatures(np.asarray(u.u, dtype=float))
    if curv is None:
        raise DomainError("initial u-coordinates are outside the geometric domain")
    return _attempt_step(ev, cfg, np.asarray(u.u, dtype=float), curv, float(h))


def run_flow(
    mesh: WeightedTriangulation, metric: PackingMetric, config: Optional[FlowConfig] = None
):
    """Integrate the flow until the curvature residual drops below tolerance.

    Returns (trace, report); report is None unless the run converged.  The
    trace records every accepted step (subject to record_every) plus the final
    state.  Spherical terminations are relabeled stopped/constraint_hit.
    """
    geometry = metric.geometry
    cfg = (config or FlowConfig()).resolved(mesh, geometry)
    if cfg.mode != MODE_EULER:
        raise ValueError("run_flow integrates explicit_euler; use newton_solve for newton")
    ev = _Evaluator(mesh, geometry)
    u = np.asarray(to_u(metric).u, dtype=float)
    curv = ev.try_curvatures(u)
    if curv is None:
        raise DomainError("initial metric is outside the geometric domain")
    targets = cfg.target_curvatures
    h = float(cfg.step_init)
    t = 0.0
    samples = [
        FlowSample(
            t=0.0,
            radii=from_u(UCoordinates(geometry=geometry, u=u)).radii,
            curvatures=curv,
            k_max=float(curv.max()),
            k_min=float(curv.min()),
            step=h,
        )
    ]
    termination = None
    since_record = 0
    for _ in range(cfg.max_steps):
        resid = float(np.abs(curv - targets).max())
        if resid <= cfg.tol_curvature:
            termination = Termination.CONVERGED
            break
        res = _attempt_step(ev, cfg, u, curv, h)
        if not res.accepted:
            termination = Termination.DEGENERATED
            break
        u = np.asarray(res.u.u, dtype=float)
        curv = res.curvatures
        t += res.h_used
        h = res.h_next
        since_record += 1
        if since_record >= cfg.record_every:
            since_record = 0
            samples.append(
                FlowSample(
                    t=t,
                    radii=from_u(UCoordinates(geometry=geometry, u=u)).radii,
                    curvatures=curv,
                    k_max=float(curv.max()),
                    k_min=float(curv.min()),
                    step=res.h_used,
                )
            )
    if termination is None:
        termination = Termination.MAX_STEPS
    if since_record != 0:
        samples.append(
            FlowSample(
                t=t,
                radii=from_u(UCoordinates(geometry=geometry, u=u)).radii,
                curvatures=curv,
                k_max=float(curv.max()),
                k_min=float(curv.min()),
                step=h,
            )
        )
    if geometry is Geometry.SPHERICAL:
        if termination is Termination.CONVERGED:
            termination = Termination.STOPPED
        elif termination is Termination.DEGENERATED:
            termination = Termination.CONSTRAINT_HIT
    trace = FlowTrace(geometry=geometry, targets=targets, samples=samples, termination=termination)
    report = None
    if termination is Termination.CONVERGED:
        rate_c1, rate_c2 = math.nan, math.nan
        try:
            rate_c1, rate_c2 = estimate_exponential_rate(trace)
        except ValueError:
            pass
        report = ConvergenceReport(
            limit_radii=samples[-1].radii,
            limit_curvatures=curv,
            rate_c1=rate_c1,
            rate_c2=rate_c2,
            residual=float(np.abs(curv - targets).max()),
        )
    return trace, report


# -- Newton -------------------------------------------------------------------


def _newton_direction(mesh, metric, grad, geometry):
    hess = curvature_hessian(mesh, metric).tocsc()
    n = grad.size
    if geometry is Geometry.EUCLIDEAN:
        # bordered system pins the scale gauge: solve on sum(delta) = 0
        ones = np.ones((n, 1))
        kkt = sp.bmat([[hess, ones], [ones.T, None]], format="csc")
        rhs = np.concatenate([-grad, [0.0]])
        sol = spla.spsolve(kkt, rhs)
        delta = sol[:n]
    else:
        delta = spla.spsolve(hess, -grad)
    if not np.all(np.isfinite(delta)):
        return None
    return delta


def newton_solve(
    mesh: WeightedTriangulation,
    metric: PackingMetric,
    config: Optional[FlowConfig] = None,
    on_iterate: Optional[Callable] = None,
):
    """Damped Newton on the curvature residual; returns (metric, iterations).

    Euclidean and hyperbolic geometry only.  Each step solves the curvature
    Jacobian (gauge-pinned in the Euclidean case) and backtracks until the
    sup-norm residual strictly decreases inside the domain.  Raises
    NewtonNonConvergenceError, carrying the best iterate, when tolerance is
    out of reach.
    """
    geometry = metric.geometry
    if geometry is Geometry.SPHERICAL:
        raise ValueError("newton_solve supports Euclidean and hyperbolic geometry only")
    cfg = (config or FlowConfig(mode=MODE_NEWTON)).resolved(mesh, geometry)
    ev = _Evaluator(mesh, geometry)
    u = np.asarray(to_u(metric).u, dtype=float)
    curv = ev.try_curvatures(u)
    if curv is None:
        raise DomainError("initial metric is outside the geometric domain")
    targets = cfg.target_curvatures
    resid = float(np.abs(curv - targets).max())
    best_u, best_resid = u.copy(), resid
    if on_iterate is not None:
        on_iterate(0, from_u(UCoordinates(geometry=geometry, u=u)), curv)
    done = 0
    for it in range(1, cfg.max_steps + 1):
        if resid <= cfg.tol_curvature:
            return from_u(UCoordinates(geometry=geometry, u=u)), done
        grad = curv - targets
        delta = _newton_direction(
            mesh, from_u(UCoordinates(geometry=geometry, u=u)), grad, geometry
        )
        if delta is None:
            break
        delta = _project_gauge(delta, geometry)
        alpha = 1.0
        moved = False
        while alpha >= 2.0**-30:
            cand = u + alpha * delta
            k_cand = ev.try_curvatures(cand)
            if k_cand is not None:
                cand_resid = float(np.abs(k_cand - targets).max())
                if cand_resid < resid:
                    u, curv, resid = cand, k_cand, cand_resid
                    moved = True
                    break
            alpha *= 0.5
        if not moved:
            break
        done = it
        if resid < best_resid:
            best_u, best_resid = u.copy(), resid
        if on_iterate is not None:
            on_iterate(it, from_u(UCoordinates(geometry=geometry, u=u)), curv)
    if resid <= cfg.tol_curvature:
        return from_u(UCoordinates(geometry=geometry, u=u)), done
    raise NewtonNonConvergenceError(
        f"newton stalled at residual {best_resid:.3e} (tol {cfg.tol_curvature:.1e})",
        best_metric=from_u(UCoordinates(geometry=geometry, u=best_u)),
        residual=best_resid,
        iterations=done,
    )


# -- potential ----------------------------------------------------------------


def potential_value(
    mesh: WeightedTriangulation,
    u: UCoordinates,
    base: UCoordinates,
    targets: Optional[np.ndarray] = None,
    *,
    order: int = 20,
    panels: int = 4,
) -> float:
    """Line integral of sum_i (K_i - target_i) du_i from base to u.

    The 1-form is closed, so the value depends only on the endpoints inside a
    simply connected piece of the domain; the integral runs over the straight
    segment with panelwise Gauss-Legendre quadrature.  Raises DomainError if
    any quadrature point leaves the domain.
    """
    if u.geometry is not base.geometry:
        raise ValueError("endpoints must share a geometry")
    geometry = u.geometry
    if targets is None:
        targets = default_targets(mesh, geometry)
    else:
        targets = np.asarray(targets, dtype=float)
    ev = _Evaluator(mesh, geometry)
    ua = np.asarray(base.u, dtype=float)
    ub = np.asarray(u.u, dtype=float)
    d = ub - ua
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = []
    for p in range(panels):
        lo = p / panels
        hi = (p + 1) / panels
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        for x, w in zip(nodes, weights):
            s = mid + half * x
            point = ua + s * d
            k = ev.try_curvatures(point)
            if k is None:
                raise DomainError("integration segment leaves the geometric domain")
            total.append(half * w * float((k - targets) @ d))
    return math.fsum(total)


# -- diagnostics ----------------------------------------------------------------


def estimate_exponential_rate(trace: FlowTrace, targets: Optional[np.ndarray] = None):
    """Fit sup|K - target| ~ c1 * exp(-c2 t) on the tail of a converged trace.

    Least squares on the log residual over the second half of the samples;
    requires at least 10 usable tail samples.
    """
    if trace.termination is not Termination.CONVERGED:
        raise ValueError("rate estimation needs a converged trace")
    t = trace.times()
    if targets is None:
        targets = trace.targets
    resid = np.array(
        [np.abs(s.curvatures - targets).max() for s in trace.samples], dtype=float
    )
    tail = slice(len(t) // 2, None)
    tt, rr = t[tail], resid[tail]
    keep = rr > 0.0
    tt, rr = tt[keep], rr[keep]
    if tt.size < 10:
        raise ValueError(f"need at least 10 usable tail samples, have {tt.size}")
    slope, intercept = np.polyfit(tt, np.log(rr), 1)
    return float(math.exp(intercept)), float(-slope)


@dataclass(frozen=True)
class MaxPrincipleVerdict:
    status: str  # "pass" | "fail" | "not_applicable"
    first_violation: Optional[tuple] = None  # (sample index, label, amount)


def check_max_principle(
    trace: FlowTrace,
    geometry: Optional[Geometry] = None,
    *,
    step_rtol: float = 5e-2,
    step_atol: float = 1e-12,
) -> MaxPrincipleVerdict:
    """Monotonicity of extreme curvatures along a trace, up to per-step budget.

    Euclidean: max K non-increasing and min K non-decreasing.  Hyperbolic:
    the same once clipped at zero (max(M, 0) falls, min(m, 0) rises).
    Spherical flows carry no such guarantee, so the verdict is
    not_applicable.
    """
    geometry = geometry or trace.geometry
    if geometry is Geometry.SPHERICAL:
        return MaxPrincipleVerdict(status="not_applicable")
    samples = trace.samples
    resid = trace.residuals()
    for i in range(len(samples) - 1):
        slack = max(step_atol, step_rtol * float(resid[i]))
        if geometry is Geometry.EUCLIDEAN:
            hi_now, hi_next = samples[i].k_max, samples[i + 1].k_max
            lo_now, lo_next = samples[i].k_min, samples[i + 1].k_min
        else:
            hi_now, hi_next = max(samples[i].k_max, 0.0), max(samples[i + 1].k_max, 0.0)
            lo_now, lo_next = min(samples[i].k_min, 0.0), min(samples[i + 1].k_min, 0.0)
        if hi_next > hi_now + slack:
            return MaxPrincipleVerdict(
                status="fail", first_violation=(i + 1, "max", float(hi_next - hi_now))
            )
        if lo_next < lo_now - slack:
            return MaxPrincipleVerdict(
                status="fail", first_violation=(i + 1, "min", float(lo_now - lo_next))
            )
    return MaxPrincipleVerdict(status="pass")
