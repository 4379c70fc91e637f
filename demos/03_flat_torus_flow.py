"""Flowing a lumpy torus packing flat.

Starting from arbitrary radii on the 7-vertex torus, each radius moves
against its own curvature error: du_i/dt = -(K_i - target). run_flow takes
linearly implicit Euler steps, and its time axis counts the flow's own time,
so the curvature spread collapses exponentially at the slowest rate of the
curvature Jacobian at the limit. Because the limit is unique up to overall
scale, every start ends at the same equal-radii packing.
"""

import numpy as np

import circleflow as cf
from circleflow import meshes

t7 = meshes.torus_7()
rng = np.random.default_rng(12)

radii0 = rng.uniform(0.5, 2.0, 7)
metric0 = cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=radii0)
print("initial radii:", np.round(radii0, 4))
K0 = cf.curvature_state(t7, metric0).curvatures
print("initial curvature range: [%.4f, %.4f]" % (K0.min(), K0.max()))

trace, report = cf.run_flow(t7, metric0)
print("\ntermination:", trace.termination.value)
print("accepted samples:", len(trace.samples), " final time: %.3f" % trace.samples[-1].t)
print("final sup|K|: %.2e" % report.residual)

print("\ncurvature envelope along the run (every 5th sample):")
for s in trace.samples[::5]:
    print("  t=%7.3f  K in [%+.3e, %+.3e]  h=%.3f" % (s.t, s.k_min, s.k_max, s.step))

c1, c2 = report.rate_c1, report.rate_c2
print("\ntail fit: sup|K(t)| ~ %.3f * exp(-%.3f t)" % (c1, c2))
limit = cf.PackingMetric(geometry=cf.Geometry.EUCLIDEAN, radii=report.limit_radii)
eig = np.linalg.eigvalsh(cf.curvature_hessian(t7, limit).toarray())
print("slowest nonzero eigenvalue of the curvature Jacobian at the limit: %.3f" % eig[1])

lim = np.asarray(report.limit_radii)
print("limit radii:", np.round(lim, 6))
print("limit radii / geometric mean:", np.round(lim / np.exp(np.mean(np.log(lim))), 8))
print("(the flat packing of this torus is the equal-radii one, up to scale)")

verdict = cf.check_max_principle(trace)
print("\nmax principle check:", verdict.status)
