"""Curvature flow and direct solves for circle-packing metrics.

The evolution is du_i/dt = -(K_i - target_i) in the flow coordinates of
`curvature.to_u`; its stationary points are metrics of prescribed curvature.
Default targets are the average curvature 2*pi*chi/N in Euclidean geometry
and zero otherwise.

`run_flow` and `newton_solve` seek the same fixed point and share one solve
loop: it starts from the metric, tests the sup-norm residual against the
tolerance before every step and after the last one, enforces the step cap,
and hands every accepted state to the caller.  Each solver supplies only its
step.

`run_flow` steps with explicit Euler under step doubling: a step is accepted
only if the state stays in the geometric domain and the sup-norm gap between
one full step and two half steps stays below a per-step budget proportional
to the current curvature residual.  Euclidean updates are projected onto
sum(du) = 0, so the product of the radii is preserved and the scale gauge
never drifts.  Spherical runs use the same machinery but keep the per-face
radius-sum constraint as a step guard and never report a verdict stronger
than "stopped"/"constraint_hit": there is no convergence theory to promise
more.

`newton_solve` steps with damped Newton on the curvature Jacobian (a convex
problem in Euclidean and hyperbolic geometry); its line search accepts only a
strictly lower residual, so the last iterate is always the best one.
`potential_value` integrates the underlying closed 1-form sum (K_i -
target_i) du_i along straight segments, which is the convex potential whose
gradient the solvers chase.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .curvature import (PackingMetric, UCoordinates, curvature_hessian, curvature_state,
                        default_targets, from_u, resolve_targets, to_u)
from .geometry import DegenerateTriangleError, DomainError, Geometry
from .mesh import WeightedTriangulation

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
        targets = resolve_targets(mesh, geometry, self.target_curvatures)
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

    @classmethod
    def of(cls, metric: PackingMetric, curvatures: np.ndarray, t: float, step: float):
        """The sample of one solver state."""
        return cls(
            t=t,
            radii=metric.radii,
            curvatures=curvatures,
            k_max=float(curvatures.max()),
            k_min=float(curvatures.min()),
            step=step,
        )


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
    """Newton failed to reach tolerance; carries the last iterate, which is
    the best one seen."""

    def __init__(self, message, best_metric=None, residual=None, iterations=0):
        super().__init__(message)
        self.best_metric = best_metric
        self.residual = residual
        self.iterations = iterations


# -- evaluation helpers --------------------------------------------------------


class _Evaluator:
    """Metric and curvature as functions of the flow coordinates u."""

    def __init__(self, mesh: WeightedTriangulation, geometry: Geometry):
        self.mesh = mesh
        self.geometry = geometry

    def metric(self, u: np.ndarray) -> PackingMetric:
        return from_u(UCoordinates(geometry=self.geometry, u=u))

    def try_curvatures(self, u: np.ndarray):
        """Curvatures at u, or None outside the geometric domain: from_u,
        PackingMetric and curvature_state reject every such u."""
        try:
            return curvature_state(self.mesh, self.metric(u)).curvatures
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


def _solve(ev: _Evaluator, metric: PackingMetric, cfg: FlowConfig, step, on_accept):
    """The solve loop of both solvers.

    `step(u, curv)` returns the next accepted (u, curvatures), or None when
    it finds none; `on_accept(k, u, curv)` sees the start (k = 0) and the
    state after each accepted step k.  Returns (termination, u, curvatures,
    accepted steps) with termination CONVERGED, DEGENERATED (no step found)
    or MAX_STEPS.
    """
    u = np.asarray(to_u(metric).u, dtype=float)
    curv = ev.try_curvatures(u)
    if curv is None:
        raise DomainError("initial metric is outside the geometric domain")
    on_accept(0, u, curv)
    k = 0
    while float(np.abs(curv - cfg.target_curvatures).max()) > cfg.tol_curvature:
        if k == cfg.max_steps:
            return Termination.MAX_STEPS, u, curv, k
        nxt = step(u, curv)
        if nxt is None:
            return Termination.DEGENERATED, u, curv, k
        u, curv = nxt
        k += 1
        on_accept(k, u, curv)
    return Termination.CONVERGED, u, curv, k


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
    targets = cfg.target_curvatures
    # time, the step to try next, and the step that reached the current
    # state (the start records the initial step size)
    t = 0.0
    h = h_used = float(cfg.step_init)
    every = max(1, cfg.record_every)
    samples = []

    def step(u, curv):
        nonlocal t, h, h_used
        res = _attempt_step(ev, cfg, u, curv, h)
        if not res.accepted:
            return None
        t, h, h_used = t + res.h_used, res.h_next, res.h_used
        return res.u.u, res.curvatures

    def record(k, u, curv):
        if k % every == 0:
            samples.append(FlowSample.of(ev.metric(u), curv, t, h_used))

    termination, u, curv, steps = _solve(ev, metric, cfg, step, record)
    if steps % every:
        samples.append(FlowSample.of(ev.metric(u), curv, t, h))
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
    # a degenerate face or a singular Hessian shows up as a non-finite delta,
    # which ends the solve; the warnings on the way there are silenced
    with np.errstate(divide="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
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

    Euclidean and hyperbolic geometry only.  The tolerance and iteration cap
    default to Newton's (1e-10 / 100) whatever `config.mode` says.  Each step
    solves the curvature Jacobian (gauge-pinned in the Euclidean case) and
    backtracks until the sup-norm residual strictly decreases inside the
    domain, so the last iterate is always the best one.  `on_iterate(k,
    metric, curvatures)` sees the start (k = 0) and every iterate.  Raises
    NewtonNonConvergenceError, carrying the last iterate, when tolerance is
    out of reach.
    """
    geometry = metric.geometry
    if geometry is Geometry.SPHERICAL:
        raise ValueError("newton_solve supports Euclidean and hyperbolic geometry only")
    cfg = replace(config or FlowConfig(), mode=MODE_NEWTON).resolved(mesh, geometry)
    ev = _Evaluator(mesh, geometry)
    targets = cfg.target_curvatures

    def step(u, curv):
        grad = curv - targets
        delta = _newton_direction(mesh, ev.metric(u), grad, geometry)
        if delta is None:
            return None
        delta = _project_gauge(delta, geometry)
        resid = float(np.abs(grad).max())
        alpha = 1.0
        while alpha >= 2.0**-30:
            cand = u + alpha * delta
            k_cand = ev.try_curvatures(cand)
            if k_cand is not None and float(np.abs(k_cand - targets).max()) < resid:
                return cand, k_cand
            alpha *= 0.5
        return None

    def report(k, u, curv):
        if on_iterate is not None:
            on_iterate(k, ev.metric(u), curv)

    termination, u, curv, iterations = _solve(ev, metric, cfg, step, report)
    if termination is Termination.CONVERGED:
        return ev.metric(u), iterations
    resid = float(np.abs(curv - targets).max())
    raise NewtonNonConvergenceError(
        f"newton stalled at residual {resid:.3e} (tol {cfg.tol_curvature:.1e})",
        best_metric=ev.metric(u),
        residual=resid,
        iterations=iterations,
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
    targets = resolve_targets(mesh, geometry, targets)
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
