"""Normalized flow integration, Newton solver, potential, diagnostics."""

import math

import numpy as np
import pytest

import circleflow as cf
from circleflow import meshes
from conftest import draw_metric


def _euclidean(radii):
    return cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=np.asarray(radii, dtype=float))


def test_default_targets():
    tet = meshes.tetrahedron()
    assert np.allclose(cf.default_targets(tet, cf.Geometry.EUCLIDEAN), math.pi)
    assert np.allclose(cf.default_targets(tet, cf.Geometry.SPHERICAL), 0.0)
    g2 = meshes.genus_2()
    assert np.allclose(cf.default_targets(g2, cf.Geometry.HYPERBOLIC), 0.0)
    t7 = meshes.torus_7()
    assert np.allclose(cf.default_targets(t7, cf.Geometry.EUCLIDEAN), 0.0)


def test_config_resolution_errors():
    t7 = meshes.torus_7()
    with pytest.raises(ValueError):
        cf.FlowConfig(mode="rk4").resolved(t7, cf.Geometry.EUCLIDEAN)
    with pytest.raises(ValueError):
        cf.FlowConfig(target_curvatures=np.zeros(5)).resolved(t7, cf.Geometry.EUCLIDEAN)
    with pytest.raises(ValueError):
        # Euclidean targets must sum to 2 pi chi
        cf.FlowConfig(target_curvatures=np.full(7, 0.1)).resolved(t7, cf.Geometry.EUCLIDEAN)
    res = cf.FlowConfig().resolved(t7, cf.Geometry.EUCLIDEAN)
    assert res.tol_curvature == 1e-8 and res.max_steps == 10**6
    res_n = cf.FlowConfig(mode=cf.MODE_NEWTON).resolved(t7, cf.Geometry.EUCLIDEAN)
    assert res_n.tol_curvature == 1e-10 and res_n.max_steps == 100


def test_ricci_rhs_gauge(rng):
    t7 = meshes.torus_7()
    m = draw_metric(rng, t7, cf.Geometry.EUCLIDEAN)
    rhs = cf.ricci_rhs(t7, m, cf.FlowConfig())
    K = cf.curvature_state(t7, m).curvatures
    assert abs(rhs.sum()) < 1e-12  # mean-zero in the flat gauge
    assert np.allclose(rhs - rhs.mean(), -(K - 0.0) + (K - 0.0).mean(), atol=1e-12)


def test_euler_step_basics(rng):
    t7 = meshes.torus_7()
    m = draw_metric(rng, t7, cf.Geometry.EUCLIDEAN, rlo=0.6, rhi=1.8)
    cfg = cf.FlowConfig().resolved(t7, cf.Geometry.EUCLIDEAN)
    u0 = cf.to_u(m)
    st = cf.euler_step(t7, u0, cfg, 0.05)
    assert st.accepted and st.h_used == 0.05
    K0 = np.abs(cf.curvature_state(t7, m).curvatures).max()
    K1 = np.abs(cf.curvature_state(t7, cf.from_u(st.u)).curvatures).max()
    assert K1 < K0
    # an oversized request is halved until the error budget is met
    st_big = cf.euler_step(t7, u0, cfg, 64.0)
    assert st_big.accepted and st_big.h_used < 64.0
    assert st_big.h_next <= cfg.step_max
    bad = cf.UCoordinates(geometry=cf.Geometry.HYPERBOLIC, u=np.zeros(7))
    with pytest.raises(cf.DomainError):
        cf.euler_step(t7, bad, cf.FlowConfig().resolved(t7, cf.Geometry.HYPERBOLIC), 0.1)


def test_fixed_point_start_returns_immediately():
    t7 = meshes.torus_7()
    trace, report = cf.run_flow(t7, _euclidean(np.ones(7)))
    assert trace.termination is cf.Termination.CONVERGED
    assert len(trace.samples) == 1 and trace.samples[0].t == 0.0
    assert report is not None and report.residual < 1e-10


def test_run_flow_invariants(rng):
    t7 = meshes.torus_7()
    m = _euclidean(rng.uniform(0.5, 2.0, 7))
    trace, report = cf.run_flow(t7, m)
    assert trace.termination is cf.Termination.CONVERGED
    assert report is not None and report.residual < 1e-8
    # scale gauge: sum of log radii is pinned step by step
    sums = [np.log(np.asarray(s.radii)).sum() for s in trace.samples]
    assert max(abs(s - sums[0]) for s in sums) < 1e-10 * len(trace.samples)
    # discrete bound at every accepted sample
    deg = np.asarray(t7.vertex_degrees())
    for s in trace.samples:
        K = np.asarray(s.curvatures)
        assert np.all(K < 2 * math.pi) and np.all(K > (2 - deg) * math.pi)
    # times strictly increase, steps positive
    times = trace.times()
    assert np.all(np.diff(times) > 0)
    # rate fit present on the converged report
    assert report.rate_c2 > 0


def test_potential_descends_along_flow(rng):
    t7 = meshes.torus_7()
    m = _euclidean(rng.uniform(0.7, 1.6, 7))
    trace, _ = cf.run_flow(t7, m)
    base = cf.UCoordinates(geometry=cf.Geometry.EUCLIDEAN, u=np.zeros(7))
    vals = [
        cf.potential_value(t7, cf.UCoordinates(geometry=cf.Geometry.EUCLIDEAN, u=np.log(np.asarray(s.radii))), base)
        for s in trace.samples[:: max(1, len(trace.samples) // 12)]
    ]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_record_every_thins_but_keeps_tail():
    t7 = meshes.torus_7()
    r0 = np.random.default_rng(4).uniform(0.5, 2.0, 7)
    full, _ = cf.run_flow(t7, _euclidean(r0))
    thin, _ = cf.run_flow(t7, _euclidean(r0), cf.FlowConfig(record_every=5))
    assert len(thin.samples) < len(full.samples)
    assert thin.samples[-1].t == full.samples[-1].t
    assert set(np.round(thin.times(), 12)) <= set(np.round(full.times(), 12))
    # any value up to 1 keeps every step
    every, _ = cf.run_flow(t7, _euclidean(r0), cf.FlowConfig(record_every=0))
    assert np.array_equal(every.times(), full.times())


def test_max_steps_termination():
    t7 = meshes.torus_7()
    m = _euclidean(np.random.default_rng(3).uniform(0.5, 2.0, 7))
    trace, report = cf.run_flow(t7, m, cf.FlowConfig(max_steps=3))
    assert trace.termination is cf.Termination.MAX_STEPS
    assert report is None


def test_last_allowed_step_reaching_tolerance_converges():
    # the free run from these radii reaches tolerance on its 38th step
    t7 = meshes.torus_7()
    m = _euclidean(np.random.default_rng(4).uniform(0.5, 2.0, 7))
    free, _ = cf.run_flow(t7, m)
    assert free.termination is cf.Termination.CONVERGED and len(free.samples) == 39
    capped, report = cf.run_flow(t7, m, cf.FlowConfig(max_steps=38))
    assert capped.termination is cf.Termination.CONVERGED and report is not None
    assert capped.samples[-1].t == free.samples[-1].t
    short, report = cf.run_flow(t7, m, cf.FlowConfig(max_steps=37))
    assert short.termination is cf.Termination.MAX_STEPS and report is None


def test_degeneration_detected():
    vs = meshes.violating_sphere()
    trace, report = cf.run_flow(vs, _euclidean(np.ones(9)))
    assert trace.termination is cf.Termination.DEGENERATED
    assert report is None


def test_spherical_runs_have_no_convergence_verdict():
    tet = meshes.tetrahedron()
    m = cf.PackingMetric(geometry=cf.Geometry.SPHERICAL, radii=np.full(4, math.pi / 8))
    trace, report = cf.run_flow(tet, m)
    assert report is None
    assert trace.termination in (
        cf.Termination.STOPPED,
        cf.Termination.CONSTRAINT_HIT,
        cf.Termination.MAX_STEPS,
    )


def test_rate_estimate_on_synthetic_trace():
    # residuals 3 e^{-2 t} should fit c1 = 3, c2 = 2
    ts = np.linspace(0.0, 6.0, 40)
    samples = [
        cf.FlowSample(
            t=float(t),
            radii=np.ones(2),
            curvatures=np.array([3.0 * math.exp(-2.0 * t), 0.0]),
            k_max=3.0 * math.exp(-2.0 * t),
            k_min=0.0,
            step=0.15,
        )
        for t in ts
    ]
    trace = cf.FlowTrace(
        geometry=cf.Geometry.EUCLIDEAN,
        targets=np.zeros(2),
        samples=samples,
        termination=cf.Termination.CONVERGED,
    )
    c1, c2 = cf.estimate_exponential_rate(trace)
    assert c1 == pytest.approx(3.0, rel=1e-6)
    assert c2 == pytest.approx(2.0, rel=1e-6)
    bad = cf.FlowTrace(
        geometry=cf.Geometry.EUCLIDEAN,
        targets=np.zeros(2),
        samples=samples,
        termination=cf.Termination.MAX_STEPS,
    )
    with pytest.raises(ValueError):
        cf.estimate_exponential_rate(bad)
    short = cf.FlowTrace(
        geometry=cf.Geometry.EUCLIDEAN,
        targets=np.zeros(2),
        samples=samples[:6],
        termination=cf.Termination.CONVERGED,
    )
    with pytest.raises(ValueError):
        cf.estimate_exponential_rate(short)


def _trace_from_rows(geometry, rows):
    samples = [
        cf.FlowSample(
            t=0.1 * i,
            radii=np.ones(2),
            curvatures=np.asarray(row, dtype=float),
            k_max=float(max(row)),
            k_min=float(min(row)),
            step=0.1,
        )
        for i, row in enumerate(rows)
    ]
    return cf.FlowTrace(
        geometry=geometry,
        targets=np.zeros(2),
        samples=samples,
        termination=cf.Termination.CONVERGED,
    )


def test_max_principle_verdicts():
    up = _trace_from_rows(cf.Geometry.EUCLIDEAN, [(0.5, -0.5), (0.9, -0.5), (0.9, -0.5)])
    v = cf.check_max_principle(up)
    assert v.status == "fail"
    idx, side, amount = v.first_violation
    assert (idx, side) == (1, "max") and amount > 0
    down = _trace_from_rows(cf.Geometry.EUCLIDEAN, [(0.5, -0.5), (0.5, -0.9)])
    v2 = cf.check_max_principle(down)
    assert v2.status == "fail" and v2.first_violation[1] == "min"
    # hyperbolic comparison clips at zero: an all-negative max may drift up
    neg = _trace_from_rows(cf.Geometry.HYPERBOLIC, [(-0.5, -0.8), (-0.3, -0.7), (-0.2, -0.6)])
    assert cf.check_max_principle(neg).status == "pass"
    sph = _trace_from_rows(cf.Geometry.SPHERICAL, [(0.5, -0.5), (0.9, -0.5)])
    assert cf.check_max_principle(sph).status == "not_applicable"


def test_potential_value_errors():
    t7 = meshes.torus_7()
    u_e = cf.UCoordinates(geometry=cf.Geometry.EUCLIDEAN, u=np.zeros(7))
    u_h = cf.UCoordinates(geometry=cf.Geometry.HYPERBOLIC, u=-np.ones(7))
    with pytest.raises(ValueError):
        cf.potential_value(t7, u_e, u_h)
    bad = cf.UCoordinates(geometry=cf.Geometry.HYPERBOLIC, u=np.full(7, 0.5))
    with pytest.raises(cf.DomainError):
        cf.potential_value(t7, bad, u_h)


def test_run_flow_rejects_newton_mode():
    t7 = meshes.torus_7()
    with pytest.raises(ValueError):
        cf.run_flow(t7, _euclidean(np.ones(7)), cf.FlowConfig(mode=cf.MODE_NEWTON))


def test_newton_solve_basics(rng):
    t7 = meshes.torus_7()
    m = _euclidean(rng.uniform(0.6, 1.7, 7))
    seen = []
    sol, its = cf.newton_solve(t7, m, on_iterate=lambda k, metric, K: seen.append(k))
    assert its <= 25
    assert seen == list(range(len(seen))) and seen[0] == 0
    K = cf.curvature_state(t7, sol).curvatures
    assert np.abs(K).max() < 1e-10
    # scale gauge preserved relative to the start
    assert np.log(np.asarray(sol.radii)).sum() == pytest.approx(np.log(np.asarray(m.radii)).sum(), abs=1e-8)
    with pytest.raises(ValueError):
        cf.newton_solve(
            meshes.tetrahedron(),
            cf.PackingMetric(geometry=cf.Geometry.SPHERICAL, radii=np.full(4, 0.3)),
        )


def test_newton_nonconvergence_carries_best_iterate():
    vs = meshes.violating_sphere()
    m = _euclidean(np.ones(9))
    seen = []
    with pytest.raises(cf.NewtonNonConvergenceError) as exc:
        cf.newton_solve(vs, m, cf.FlowConfig(max_steps=40), on_iterate=lambda *it: seen.append(it))
    err = exc.value
    # the line search stalls long before max_steps; the count is of completed iterations
    assert err.iterations == 5
    assert err.iterations == seen[-1][0]
    assert err.residual > 1e-3
    assert isinstance(err.best_metric, cf.PackingMetric)
    # the line search only accepts a lower residual, so the last iterate is the best
    _, last_metric, last_k = seen[-1]
    assert np.array_equal(err.best_metric.radii, last_metric.radii)
    assert err.residual == np.abs(last_k - cf.default_targets(vs, cf.Geometry.EUCLIDEAN)).max()


def test_newton_uses_newton_defaults_under_a_flow_config():
    # an explicit_euler config must not lend Newton the flow's tolerance 1e-8
    t7 = meshes.torus_7()
    m = _euclidean(np.random.default_rng(4).uniform(0.5, 2.0, 7))
    sol, _ = cf.newton_solve(t7, m, cf.FlowConfig(target_curvatures=np.zeros(7)))
    assert np.abs(cf.curvature_state(t7, sol).curvatures).max() <= 1e-10


def test_newton_agrees_with_flow(rng):
    g2 = meshes.genus_2()
    m = cf.PackingMetric(geometry=cf.Geometry.HYPERBOLIC, radii=rng.uniform(0.8, 3.0, 11))
    trace, report = cf.run_flow(g2, m)
    sol, _ = cf.newton_solve(g2, m)
    assert np.allclose(np.asarray(sol.radii), np.asarray(report.limit_radii), rtol=1e-6, atol=0)
