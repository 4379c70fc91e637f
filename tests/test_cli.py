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
