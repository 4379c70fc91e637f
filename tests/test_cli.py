"""Command line entry points: check, flow, layout."""

import json
import math
import os

import numpy as np
import pytest

import circleflow as cf
from circleflow import cli, files, meshes

FIX = lambda name: os.path.join(os.path.dirname(__file__), "..", "fixtures", name)


def test_check_clean_mesh(capsys):
    code = cli.run(["check", FIX("tetrahedron.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "mesh ok: 4 vertices, 6 edges, 4 faces" in out
    assert "overall: holds" in out


def test_check_json_output(capsys):
    code = cli.run(["check", FIX("genus2.json"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "holds"
    assert doc["euler_char"] == -2
    assert doc["valid"] is True


def test_check_violating_mesh(capsys):
    code = cli.run(["check", FIX("sphere9_violating.json")])
    out = capsys.readouterr().out
    assert code == 4
    assert "fails" in out
    assert "{6}" in out


def test_check_spherical_not_applicable(capsys):
    code = cli.run(["check", FIX("tetrahedron_spherical.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "not applicable" in out


def test_check_subset_cap_undetermined(capsys):
    code = cli.run(["check", FIX("torus7.json"), "--subset-cap", "3"])
    out = capsys.readouterr().out
    assert code == 4
    assert "skipped" in out and "overall: undetermined" in out


def _with_targets(path, fixture, targets):
    mesh, metric, _ = files.parse_mesh(FIX(fixture))
    files.write_mesh(path, mesh, metric=metric, targets=targets)
    return str(path)


def test_check_honours_targets(tmp_path, capsys):
    # every target -2 sums to -22 < 2*pi*chi = -4*pi: no hyperbolic metric exists
    low = _with_targets(tmp_path / "low.json", "genus2.json", np.full(11, -2.0))
    code = cli.run(["check", low, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 4 and doc["overall"] == "fails"
    assert doc["subset"]["witness"] == list(range(11))
    # Euclidean targets must sum to 2*pi*chi = 0 on the torus
    code = cli.run(["check", _with_targets(tmp_path / "t7.json", "torus7.json", np.full(7, 0.5))])
    captured = capsys.readouterr()
    assert code == 3 and "overall" not in captured.out and "2*pi*chi" in captured.err
    # other hyperbolic targets: the subset scan, undetermined over the cap
    path = _with_targets(tmp_path / "ok.json", "genus2.json", np.full(11, -1.0))
    assert cli.run(["check", path]) == 0
    assert "overall: holds" in capsys.readouterr().out
    assert cli.run(["check", path, "--subset-cap", "5"]) == 4
    out = capsys.readouterr().out
    assert "subset scan skipped (11 vertices > cap 5)\n" in out
    assert "overall: undetermined" in out


def test_check_zero_hyperbolic_targets_on_a_torus(tmp_path, capsys):
    # no hyperbolic metric has zero curvature on a surface with chi >= 0
    mesh = meshes.torus_7()
    path = tmp_path / "t7h.json"
    files.write_mesh(path, mesh, metric=cf.PackingMetric(cf.Geometry.HYPERBOLIC, np.full(7, 0.5)))
    code = cli.run(["check", str(path), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 4 and doc["overall"] == "fails" and doc["loops"] is None
    assert doc["subset"]["witness"] == list(range(7))


def test_flow_writes_trace_and_mesh(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    mesh_path = tmp_path / "limit.json"
    code = cli.run(
        ["flow", FIX("torus7.json"), "--out", str(trace_path), "--save-mesh", str(mesh_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "flow converged" in out
    assert "tail fit" in out
    trace, report = files.read_trace(trace_path)
    assert trace.termination is cf.Termination.CONVERGED
    assert report is not None
    mesh, metric, targets = files.parse_mesh(mesh_path)
    K = cf.curvature_state(mesh, metric).curvatures
    assert np.abs(K - math.pi / 4 * 0).max() < 1e-7  # flat limit


def test_flow_json_output(capsys):
    code = cli.run(["flow", FIX("tetrahedron.json"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["termination"] == "converged"
    assert doc["rate_c2"] > 0


def test_flow_newton_mode(capsys):
    code = cli.run(["flow", FIX("genus2.json"), "--mode", "newton"])
    out = capsys.readouterr().out
    assert code == 0
    assert "newton converged in" in out


def test_flow_newton_writes_trace_and_mesh(tmp_path, capsys):
    trace_path, mesh_path = tmp_path / "newton.jsonl", tmp_path / "solved.json"
    argv = ["flow", FIX("genus2.json"), "--mode", "newton", "--out", str(trace_path),
            "--save-mesh", str(mesh_path), "--json"]
    code = cli.run(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["termination"] == "converged"
    trace, report = files.read_trace(trace_path)
    assert trace.termination is cf.Termination.CONVERGED and report is None
    assert [s.t for s in trace.samples] == list(range(doc["iterations"] + 1))
    mesh, metric, targets = files.parse_mesh(mesh_path)
    assert np.abs(cf.curvature_state(mesh, metric).curvatures - targets).max() <= 1e-10


def test_flow_newton_nonconvergence(tmp_path, capsys):
    trace_path = tmp_path / "stall.jsonl"
    argv = ["flow", FIX("sphere9_violating.json"), "--mode", "newton", "--out", str(trace_path)]
    code = cli.run(argv)
    assert code == 5
    assert "newton did not converge" in capsys.readouterr().out
    trace, _ = files.read_trace(trace_path)
    assert trace.termination is cf.Termination.MAX_STEPS


def test_flow_newton_rejects_spherical(capsys):
    code = cli.run(["flow", FIX("tetrahedron_spherical.json"), "--mode", "newton"])
    out = capsys.readouterr().out + capsys.readouterr().err
    assert code == 3


def test_flow_spherical_guard_message(capsys):
    code = cli.run(["flow", FIX("tetrahedron_spherical.json")])
    out = capsys.readouterr().out
    assert code == 5
    assert "no convergence guarantee" in out
    assert "constraint_hit" in out


def test_flow_degeneration_exit_and_hint(capsys):
    code = cli.run(["flow", FIX("sphere9_violating.json")])
    out = capsys.readouterr().out
    assert code == 5
    assert "degenerated" in out
    assert "degeneration hint: tightest probed subset {6} has target-sum minus bound -0.17" in out


def test_layout_svg(tmp_path, capsys):
    out_path = tmp_path / "t7.svg"
    code = cli.run(["layout", FIX("torus7.json"), "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "14 faces placed from seed 0, 13 tree edges, 8 cut edges" in out
    assert out_path.read_text().startswith("<svg") or "<svg" in out_path.read_text()


def test_layout_seed_face(tmp_path, capsys):
    out_path = tmp_path / "tet.svg"
    code = cli.run(["layout", FIX("tetrahedron.json"), "--out", str(out_path), "--seed-face", "2"])
    assert code == 0
    assert "seed 2" in capsys.readouterr().out


def test_layout_spherical_rejected(tmp_path):
    code = cli.run(["layout", FIX("tetrahedron_spherical.json"), "--out", str(tmp_path / "x.svg")])
    assert code == 3


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert cli.run(["check", str(bad)]) == 2


def test_check_rejects_nan_target(tmp_path, capsys):
    p = tmp_path / "m.json"
    files.write_mesh(p, meshes.tetrahedron(), geometry=cf.Geometry.EUCLIDEAN)
    doc = json.loads(p.read_text())
    doc["targets"] = [float("nan"), 1.0, 1.0, 1.0]
    p.write_text(json.dumps(doc))
    code = cli.run(["check", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert "overall: holds" not in captured.out
    assert "targets must be finite" in captured.out + captured.err


def test_validation_error_exit(tmp_path, capsys):
    p = tmp_path / "m.json"
    files.write_mesh(p, meshes.tetrahedron(), geometry=cf.Geometry.EUCLIDEAN)
    doc = json.loads(p.read_text())
    doc["edges"][0]["a"] = doc["edges"][0]["b"]
    p.write_text(json.dumps(doc))
    code = cli.run(["check", str(p)])
    out = capsys.readouterr().out + capsys.readouterr().err
    assert code == 3


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 2
