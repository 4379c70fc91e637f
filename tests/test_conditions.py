"""Existence conditions: subset bounds, loop thresholds, degeneration probes."""

import math
from pathlib import Path

import numpy as np
import pytest

import circleflow as cf
from circleflow import files, meshes
from circleflow.conditions import NEAR_TOL, STRICT_TOL
from conftest import draw_metric
from subset_oracle import oracle_bound

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_subset_bound_tetrahedron_values():
    tet = meshes.tetrahedron()
    assert cf.subset_bound(tet, {0}) == pytest.approx(-math.pi)
    assert cf.subset_bound(tet, {0, 1}) == pytest.approx(0.0)
    assert cf.subset_bound(tet, {0, 1, 2}) == pytest.approx(2 * math.pi)


def test_subset_bound_weights_raise_it():
    tet = meshes.replace_weights(meshes.tetrahedron(), math.pi / 4)
    # each of the three link pairs contributes pi - w instead of pi
    assert cf.subset_bound(tet, {0}) == pytest.approx(2 * math.pi - 3 * (math.pi - math.pi / 4))


def test_subset_bound_additive_over_components():
    g2 = meshes.genus_2()
    adj = set(g2.pair_edges().keys())
    pair = next(
        (a, b)
        for a in range(11)
        for b in range(a + 1, 11)
        if frozenset((a, b)) not in adj
    )
    lhs = cf.subset_bound(g2, set(pair))
    rhs = cf.subset_bound(g2, {pair[0]}) + cf.subset_bound(g2, {pair[1]})
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_zero_hyperbolic_targets_need_negative_euler_characteristic():
    # total curvature 2*pi*chi + area exceeds the target sum 0 when chi >= 0
    for mesh in (meshes.torus_7(), meshes.tetrahedron()):
        r = cf.full_report(mesh, cf.Geometry.HYPERBOLIC)
        assert r.overall == "fails" and r.loops is None
        assert r.subset.witness == tuple(range(mesh.vertex_count))
        assert r.subset.min_margin == pytest.approx(-2 * math.pi * mesh.euler_characteristic())
    # genus 2 still takes the loop route
    for mesh, overall in ((meshes.genus_2(), "holds"), (meshes.violating_genus_2(), "fails")):
        r = cf.full_report(mesh, cf.Geometry.HYPERBOLIC)
        assert r.overall == overall and r.subset is None and len(r.loops) == 2


def test_check_subset_inequalities_torus():
    t7 = meshes.torus_7()
    v = cf.check_subset_inequalities(t7)
    assert v.status == "holds"
    assert v.min_margin == pytest.approx(2 * math.pi)
    assert v.witness is None and v.violations == 0
    assert v.subsets_checked == 2**7 - 2
    v4 = cf.check_subset_inequalities(meshes.replace_weights(t7, math.pi / 4))
    assert v4.status == "holds"
    assert v4.min_margin == pytest.approx(2 * math.pi)


def test_check_subset_small_and_capped():
    from circleflow.mesh import WeightedTriangulation

    with pytest.raises(ValueError):
        cf.check_subset_inequalities(WeightedTriangulation(1, [], []))
    t7 = meshes.torus_7()
    capped = cf.check_subset_inequalities(t7, subset_cap=3)
    assert capped.status == "skipped"
    # over the cap a Euclidean verdict is undetermined, with no loop screen
    report = cf.full_report(t7, cf.Geometry.EUCLIDEAN, subset_cap=3)
    assert report.overall == "undetermined" and report.loops is None


def test_violating_sphere_witness():
    vs = meshes.violating_sphere()
    v = cf.check_subset_inequalities(vs)
    assert v.status == "fails"
    assert v.witness == (6,)
    assert v.min_margin == pytest.approx(-math.pi / 18)
    assert v.violations == 1


def _two_center_octahedron(w_rim):
    # star-subdivide two vertex-disjoint faces of the octahedron, then put
    # weight w_rim on the six rim edges around the new centers
    oct8 = meshes.octahedron()
    f0 = set(oct8.face_vertices[0])
    m1, c1 = meshes.star_subdivide(oct8, 0)
    cand = next(
        i
        for i, t in enumerate(m1.face_vertices)
        if not (set(int(v) for v in t) & f0) and c1 not in t
    )
    m2, c2 = meshes.star_subdivide(m1, cand)
    rims = {}
    for tri in m2.face_vertices:
        for c in (c1, c2):
            if c in tri:
                others = frozenset(int(v) for v in tri if v != c)
                rims[others] = w_rim
    weights = [rims.get(frozenset((e.a, e.b)), 0.0) for e in m2.edges]
    return meshes.replace_weights(m2, weights)


def test_tie_counts_as_violation():
    # rim weight pi/2 puts both center margins exactly at zero
    mesh = _two_center_octahedron(math.pi / 2)
    v = cf.check_subset_inequalities(mesh)
    assert v.status == "fails"
    assert abs(v.min_margin) < 1e-12
    assert v.witness is not None and len(v.witness) == 1


def test_near_ties_reported():
    mesh = _two_center_octahedron(math.pi / 2 - 2e-7)
    v = cf.check_subset_inequalities(mesh)
    assert v.status == "holds"
    assert v.near_ties == 2
    assert v.min_margin == pytest.approx(6e-7, rel=1e-6)


def _oracle_meshes():
    out = {p.name: files.parse_mesh(p)[0] for p in sorted(FIXTURES.glob("*.json"))}
    out.update(
        tetrahedron=meshes.tetrahedron(),
        octahedron=meshes.octahedron(),
        torus_7=meshes.torus_7(),
        genus_2=meshes.genus_2(),
        projective_plane=meshes.minimal_projective_plane(math.pi / 2),
        violating_sphere=meshes.violating_sphere(),
        violating_genus_2=meshes.violating_genus_2(),
        tie_octahedron=_two_center_octahedron(math.pi / 2),
        near_tie_octahedron=_two_center_octahedron(math.pi / 2 - 2e-7),
    )
    return out


def _oracle_scan(mesh, targets):
    """Brute force over the link-form oracle: (min margin, witness,
    violations, near ties) over proper nonempty subsets."""
    n = mesh.vertex_count
    margins = {}
    for mask in range(1, (1 << n) - 1):
        subset = [v for v in range(n) if mask >> v & 1]
        margins[mask] = math.fsum(targets[subset]) - oracle_bound(mesh, subset)
    bad = [(bin(m).count("1"), m) for m, g in margins.items() if g <= STRICT_TOL]
    witness = None
    if bad:
        mask = min(bad)[1]
        witness = tuple(v for v in range(n) if mask >> v & 1)
    near = sum(1 for g in margins.values() if STRICT_TOL < g <= NEAR_TOL)
    return min(margins.values()), witness, len(bad), near


@pytest.mark.parametrize("name", sorted(_oracle_meshes()))
def test_corner_formula_matches_link_oracle(name):
    base = _oracle_meshes()[name]
    n = base.vertex_count
    rng = np.random.default_rng(sum(map(ord, name)))
    random_weights = meshes.replace_weights(
        base, rng.uniform(0.0, math.pi / 2, len(base.edges)).tolist()
    )
    chi = base.euler_characteristic()
    cases = [
        (base, cf.default_targets(base, cf.Geometry.EUCLIDEAN)),
        (random_weights, rng.normal(2 * math.pi * chi / n, 4.0, n)),
    ]
    for mesh, targets in cases:
        for mask in range(1, 1 << n):  # every nonempty subset, the whole set included
            subset = [v for v in range(n) if mask >> v & 1]
            assert abs(cf.subset_bound(mesh, subset) - oracle_bound(mesh, subset)) <= 1e-12
        v = cf.check_subset_inequalities(mesh, targets=targets)
        min_margin, witness, violations, near = _oracle_scan(mesh, targets)
        assert abs(v.min_margin - min_margin) <= 1e-12
        assert (v.witness, v.violations, v.near_ties) == (witness, violations, near)
    assert cf.subset_bound(base, range(n)) == pytest.approx(2 * math.pi * chi, abs=1e-12)


def test_curvature_sums_respect_bounds(rng):
    # realized curvatures always sit strictly above the combinatorial bound
    for mesh in (meshes.tetrahedron(), meshes.torus_7()):
        n = mesh.vertex_count
        w = rng.uniform(0.0, math.pi / 2, len(mesh.edges))
        wm = meshes.replace_weights(mesh, w.tolist())
        for g in (cf.Geometry.EUCLIDEAN, cf.Geometry.HYPERBOLIC):
            m = draw_metric(rng, wm, g)
            K = cf.curvature_state(wm, m).curvatures
            for _ in range(20):
                k = int(rng.integers(1, n))
                subset = set(rng.choice(n, size=k, replace=False).tolist())
                assert K[sorted(subset)].sum() > cf.subset_bound(wm, subset)


def test_verdict_invariant_under_relabeling(rng):
    vs = meshes.violating_sphere()
    perm = rng.permutation(9)
    pv = cf.check_subset_inequalities(vs.permuted(perm))
    v = cf.check_subset_inequalities(vs)
    assert pv.status == v.status
    assert pv.min_margin == pytest.approx(v.min_margin, abs=1e-12)
    # the permuted witness names the same vertices through the relabeling
    mapped = tuple(sorted(int(perm[i]) for i in v.witness))
    assert pv.witness == mapped


def test_loop_conditions_on_fixture_meshes():
    t7 = meshes.replace_weights(meshes.torus_7(), math.pi / 2)
    v3, v4 = cf.check_loop_conditions(t7)
    assert (v3.status, v4.status) == ("holds", "holds")
    assert (v3.loops_checked, v4.loops_checked) == (35, 105)
    g2 = meshes.genus_2()
    w3, w4 = cf.check_loop_conditions(g2)
    assert (w3.status, w4.status) == ("holds", "holds")
    assert (w3.loops_checked, w4.loops_checked) == (69, 258)
    rp2 = meshes.minimal_projective_plane(math.pi / 2)
    p3, p4 = cf.check_loop_conditions(rp2)
    assert (p3.status, p4.status) == ("holds", "holds")


def test_violating_genus2_loop_witness():
    vg = meshes.violating_genus_2()
    v3, _ = cf.check_loop_conditions(vg)
    assert v3.status == "fails"
    assert any(tuple(sorted(w.vertices)) == (2, 3, 5) for w in v3.witnesses)


def test_degeneration_probe_rows(rng):
    t7 = meshes.torus_7()
    m = draw_metric(rng, t7, cf.Geometry.EUCLIDEAN)
    rows = cf.degeneration_probe(t7, m, {0})
    assert len(rows) == 5  # default factor schedule
    for row in rows:
        assert row.bound == pytest.approx(cf.subset_bound(t7, {0}))
        assert row.gap == pytest.approx(row.curvature_sum - row.bound)
        assert row.gap > 0
    with pytest.raises(ValueError):
        cf.degeneration_probe(t7, m, {0}, shrink_factors=(0.0, 0.5))
    with pytest.raises(ValueError):
        cf.degeneration_probe(t7, m, {0}, shrink_factors=(1.5,))


def test_full_report_shapes():
    r_e = cf.full_report(meshes.torus_7(), cf.Geometry.EUCLIDEAN)
    assert r_e.overall == "holds" and r_e.subset is not None and r_e.loops is None
    assert r_e.euler_char == 0
    r_h = cf.full_report(meshes.genus_2(), cf.Geometry.HYPERBOLIC)
    assert r_h.overall == "holds" and r_h.subset is None
    assert [l.length for l in r_h.loops] == [3, 4]
    r_s = cf.full_report(meshes.tetrahedron(), cf.Geometry.SPHERICAL)
    assert r_s.overall == "not_applicable"
    r_skip = cf.full_report(meshes.torus_7(), cf.Geometry.EUCLIDEAN, subset_cap=3)
    assert r_skip.overall in ("undetermined", "holds")
    r_bad = cf.full_report(meshes.violating_genus_2(), cf.Geometry.HYPERBOLIC)
    assert r_bad.overall == "fails"


def test_full_report_honours_targets():
    with pytest.raises(ValueError, match="2\\*pi\\*chi"):
        # Euclidean targets must sum to 2*pi*chi = 0 on the torus
        cf.full_report(meshes.torus_7(), cf.Geometry.EUCLIDEAN, targets=np.full(7, 0.5))
    g2 = meshes.genus_2()
    hyp = cf.Geometry.HYPERBOLIC
    start = cf.PackingMetric(geometry=hyp, radii=np.full(11, 0.5))
    # the targets sum to -22 <= 2*pi*chi = -4*pi: the whole vertex set is the witness
    low = cf.full_report(g2, hyp, targets=np.full(11, -2.0))
    assert low.overall == "fails" and low.loops is None
    assert low.subset.witness == tuple(range(11)) and low.subset.min_margin < 0
    # no positive cone angle reaches a target of 2*pi or more
    high = np.full(11, -1.0)
    high[3] = 7.0
    r_high = cf.full_report(g2, hyp, targets=high)
    assert r_high.overall == "fails" and r_high.subset.witness == (3,)
    # otherwise the subset scan decides: {0} cannot reach -30 < subset_bound = -8*pi
    deep = np.full(11, 2.0)
    deep[0] = -30.0
    r_deep = cf.full_report(g2, hyp, targets=deep)
    assert r_deep.overall == "fails" and r_deep.subset.witness == (0,)
    for targets in (np.full(11, -2.0), high, deep):
        with pytest.raises(cf.NewtonNonConvergenceError):
            cf.newton_solve(g2, start, cf.FlowConfig(target_curvatures=targets, max_steps=60))
    ok = np.full(11, -1.0)
    r_ok = cf.full_report(g2, hyp, targets=ok)
    assert r_ok.overall == "holds" and r_ok.subset.subsets_checked == 2**11 - 2
    assert r_ok.loops is None
    cf.newton_solve(g2, start, cf.FlowConfig(target_curvatures=ok))
    # ... and over the cap nothing does: the loop screen holds only for zero targets
    capped = cf.full_report(g2, hyp, targets=ok, subset_cap=5)
    assert capped.overall == "undetermined" and capped.subset.status == "skipped"
    assert capped.loops is None
