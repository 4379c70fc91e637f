"""Curvature flow and direct solves for circle-packing metrics.

The evolution is du_i/dt = -(K_i - target_i) in the flow coordinates of
`curvature.to_u`; its stationary points are metrics of prescribed curvature.
Default targets are the average curvature 2*pi*chi/N in Euclidean geometry
and zero otherwise.

`run_flow` and `newton_solve` share one solve loop: it starts from the
metric, tests the sup-norm residual against the tolerance before every step
and after the last one, enforces the step cap, and hands every accepted state
to the caller.  Hyperbolic targets that admit no metric end it at the start
as a degeneration.  Both steps solve (A + shift*I) delta = -(K - target) by
Jacobi-preconditioned conjugate gradients, where A is the curvature Jacobian,
a symmetric M-matrix (the problem is convex in Euclidean and hyperbolic
geometry).  In Euclidean geometry, where A is singular on the constants, the
solve runs on the sum = 0 gauge, so the product of the radii never drifts.

`run_flow` takes linearly implicit Euler steps (I + hA) du = -h (K - target),
i.e. shift = 1/h.  A step is accepted in the domain when the error estimate
(h/4) |A (K(u + du) - K(u))|_inf, to leading order the gap between one step
and two half steps, is within a budget proportional to the residual; h then
grows by at most 2.  (I + hA)^-1 is nonnegative, so the maximum principle
holds at every h up to that budget.  A mode of rate lambda contracts by
1/(1 + h lambda), so t advances by log1p(h lambda)/lambda, lambda being the
Rayleigh quotient of A at the gauge-projected residual (by h where it is not
positive); that keeps the tail fit of `estimate_exponential_rate` faithful.
Spherical runs keep the per-face radius-sum constraint as a step guard and
never report a verdict stronger than "stopped"/"constraint_hit": there is no
convergence theory.

`newton_solve` is the limit h -> infinity (shift = 0) with a line search that
accepts only a strictly lower residual, so the last iterate is the best one.
`potential_value` integrates the closed 1-form sum (K_i - target_i) du_i along
straight segments: the convex potential whose gradient the solvers chase.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .conditions import _hyperbolic_bounds
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
# relative residual at which conjugate gradients stops a solve
_CG_RTOL = 1e-10

MODE_EULER = "implicit_euler"
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
    1e-10 / 100 for Newton).  The flow starts at step step_init; its per-step
    error budget is max(step_atol, step_rtol * current residual), which alone
    bounds the step size: a budget proportional to the residual keeps the
    error of each step a fixed fraction of the distance still to go.
    """

    target_curvatures: Optional[np.ndarray] = None
    step_init: float = 0.1
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
    """One flow step: dt is the flow time it covers (see the module notes)."""

    u: UCoordinates
    accepted: bool
    h_used: float
    h_next: float
    error_estimate: float
    curvatures: Optional[np.ndarray] = None
    dt: float = 0.0


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

    def hessian(self, u: np.ndarray) -> sp.csr_matrix:
        # a degenerate face gives non-finite entries, and `solve` None
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return curvature_hessian(self.mesh, self.metric(u))

    def solve(self, hess: sp.csr_matrix, grad: np.ndarray, shift: float = 0.0):
        """delta with (hess + shift*I) delta = -grad, or None when it is not
        finite; `hess` is on the mesh's cached pattern, whose diagonal slots
        take the shift."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if shift:
                data = hess.data.copy()
                data[self.mesh._corner_pair_pattern[3]] += shift
                hess = sp.csr_matrix((data, hess.indices, hess.indptr), shape=hess.shape)
            jacobi = sp.diags(1.0 / hess.diagonal())
            # the cap bounds a solve that iterates on NaN; an inexact delta
            # is still guarded by the caller's acceptance test
            delta, _info = spla.cg(
                hess, _project_gauge(-grad, self.geometry), rtol=_CG_RTOL, maxiter=grad.size,
                M=jacobi,
            )
            delta = _project_gauge(delta, self.geometry)
        if not np.all(np.isfinite(delta)):
            return None
        return delta


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
    or MAX_STEPS.  Hyperbolic targets that break `_hyperbolic_bounds` admit
    no metric, so those stop DEGENERATED right after the start.
    """
    u = np.asarray(to_u(metric).u, dtype=float)
    curv = ev.try_curvatures(u)
    if curv is None:
        raise DomainError("initial metric is outside the geometric domain")
    on_accept(0, u, curv)
    targets = cfg.target_curvatures
    if ev.geometry is Geometry.HYPERBOLIC and _hyperbolic_bounds(ev.mesh, targets):
        return Termination.DEGENERATED, u, curv, 0
    k = 0
    while float(np.abs(curv - targets).max()) > cfg.tol_curvature:
        if k == cfg.max_steps:
            return Termination.MAX_STEPS, u, curv, k
        nxt = step(u, curv)
        if nxt is None:
            return Termination.DEGENERATED, u, curv, k
        u, curv = nxt
        k += 1
        on_accept(k, u, curv)
    return Termination.CONVERGED, u, curv, k


def _implicit_step(ev, cfg, u, curv, h):
    """One linearly implicit Euler step from u; halves h until acceptance or
    underflow."""
    grad = curv - cfg.target_curvatures
    budget = max(cfg.step_atol, cfg.step_rtol * float(np.abs(grad).max()))
    hess = ev.hessian(u)
    f = _project_gauge(grad, ev.geometry)
    ff = float(f @ f)
    lam = float(f @ (hess @ f)) / ff if ff > 0.0 else 0.0
    while h >= MIN_STEP:
        du = ev.solve(hess, grad, 1.0 / h)
        k_new = None if du is None else ev.try_curvatures(u + du)
        if k_new is not None:
            err = 0.25 * h * float(np.abs(hess @ (k_new - curv)).max())
            if err <= budget:
                return StepResult(
                    UCoordinates(geometry=ev.geometry, u=u + du), True, h,
                    h_next=2.0 * h if err <= 0.25 * budget else h, error_estimate=err,
                    curvatures=k_new, dt=math.log1p(h * lam) / lam if lam > 0.0 else h,
                )
        h *= 0.5
    return StepResult(UCoordinates(geometry=ev.geometry, u=u), False, 0.0, h, math.inf)


def euler_step(
    mesh: WeightedTriangulation, u: UCoordinates, config: FlowConfig, h: float
) -> StepResult:
    """The linearly implicit step that `run_flow` takes from u, trying h
    first; accepted=False signals degeneration (the step size underflowed
    below 1e-12 without an acceptable step)."""
    cfg = config.resolved(mesh, u.geometry)
    ev = _Evaluator(mesh, u.geometry)
    curv = ev.try_curvatures(np.asarray(u.u, dtype=float))
    if curv is None:
        raise DomainError("initial u-coordinates are outside the geometric domain")
    return _implicit_step(ev, cfg, np.asarray(u.u, dtype=float), curv, float(h))


def run_flow(
    mesh: WeightedTriangulation, metric: PackingMetric, config: Optional[FlowConfig] = None
):
    """Integrate the flow by linearly implicit Euler steps (`euler_step`)
    until the curvature residual drops below tolerance.

    Returns (trace, report); report is None unless the run converged.  The
    trace records every accepted step (subject to record_every) plus the final
    state.  Spherical terminations are relabeled stopped/constraint_hit.
    """
    geometry = metric.geometry
    cfg = (config or FlowConfig()).resolved(mesh, geometry)
    if cfg.mode != MODE_EULER:
        raise ValueError(f"run_flow integrates {MODE_EULER}; use newton_solve for newton")
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
        res = _implicit_step(ev, cfg, u, curv, h)
        if not res.accepted:
            return None
        t, h, h_used = t + res.dt, res.h_next, res.h_used
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


def newton_solve(
    mesh: WeightedTriangulation,
    metric: PackingMetric,
    config: Optional[FlowConfig] = None,
    on_iterate: Optional[Callable] = None,
):
    """Damped Newton on the curvature residual; returns (metric, iterations).

    Euclidean and hyperbolic geometry only.  The tolerance and iteration cap
    default to Newton's (1e-10 / 100) whatever `config.mode` says.  Each step
    solves the curvature Jacobian by conjugate gradients (relative residual
    1e-10, at most one iteration per vertex, which also bounds a solve on a
    non-finite Jacobian), gauge-projected onto sum = 0 in the Euclidean case,
    and backtracks until the sup-norm residual strictly decreases inside the
    domain, so the last iterate is always the best one.  `on_iterate(k,
    metric, curvatures)` sees the start (k = 0) and every iterate.  Raises
    NewtonNonConvergenceError, carrying the last iterate, when tolerance is
    out of reach (at iteration 0 for hyperbolic targets with no metric).
    """
    geometry = metric.geometry
    if geometry is Geometry.SPHERICAL:
        raise ValueError("newton_solve supports Euclidean and hyperbolic geometry only")
    cfg = replace(config or FlowConfig(), mode=MODE_NEWTON).resolved(mesh, geometry)
    ev = _Evaluator(mesh, geometry)
    targets = cfg.target_curvatures

    def step(u, curv):
        grad = curv - targets
        delta = ev.solve(ev.hessian(u), grad)
        if delta is None:
            return None
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
