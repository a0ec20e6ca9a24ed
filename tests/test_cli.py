"""Configuration schema, report writers and the batch front end."""

import csv
import json
import math
import re
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from horocap import cli
from horocap.cli import DEFICIT_CONTROL_TOL, DEFICIT_ZERO_TOL, main, run
from horocap.config import (ConfigError, Numerics, OutputSpec, RunConfig,
                            SurfaceEntry, SweepSpec, load_config,
                            parse_config)
from horocap.families import (BumpedCapSurface, CapKind, CapSpec,
                              PerturbationSpec)
from horocap.reports import (STATUSES, config_hash, fmt_float, format_cell,
                             grade, worst, write_csv)
from horocap.surfaces import ProfileSurface

BASE_CONFIG = {
    "schema_version": 1,
    "surfaces": [
        {"label": "cap-ortho", "kind": "sphere_cap", "n": 2, "a": 1.0,
         "r": 0.5},
        {"label": "cap-tilt", "kind": "sphere_cap", "n": 2, "a": 0.6,
         "r": 0.7},
        {"label": "control", "kind": "sphere_cap", "n": 2, "a": 1.0,
         "r": 0.5, "perturbation": {"amplitude": 0.01}},
    ],
    "numerics": {"quad_order": 64, "eig_count": 6},
    "output": {"dir": "out", "formats": ["csv", "json"]},
}

OPEN_CHARTS = [
    {"label": "plane-vertical", "kind": "vertical_plane_disk", "n": 2,
     "extent": 1.0},
    {"label": "plane-tilted", "kind": "tilted_plane_cap", "n": 2,
     "beta": 1.0, "extent": 1.0},
]


def count_jet_calls(monkeypatch) -> list:
    """[(surface, t, parameter columns)] of every profile_jet call of the
    surfaces built from now on, counted through the instance attribute,
    as the benchmark tracer counts them: a family's stacked call is one,
    on its first surface, with t of shape (surfaces, points)."""
    init, calls = ProfileSurface.__init__, []

    def counting_init(S, *args, **kwargs):
        init(S, *args, **kwargs)
        jet = S.profile_jet

        def counting(t, **params):
            calls.append((S, np.array(t, dtype=float, ndmin=2), params))
            return jet(t, **params)
        S.profile_jet = counting

    monkeypatch.setattr(ProfileSurface, "__init__", counting_init)
    return calls


def jet_rows(calls) -> dict:
    """{surface key: [points of each row]} of the recorded calls; a row
    is one surface of its call, keyed by the class and its parameters."""
    rows = {}
    for S, t, params in calls:
        for i, points in enumerate(t):
            key = (type(S), *(float(params[k][i, 0]) if params else v
                              for k, v in S.params.items()))
            rows.setdefault(key, []).append(points)
    return rows


def write_config(tmp_path, overrides=None, **kw):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["output"]["dir"] = str(tmp_path / "out")
    if overrides:
        cfg.update(overrides)
    for k, v in kw.items():
        cfg[k] = v
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


class TestConfigSchema:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert [s.label for s in cfg.surfaces] == ["cap-ortho", "cap-tilt",
                                                   "control"]
        assert cfg.surfaces[2].is_control
        assert cfg.numerics.quad_order == 64

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.json")

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config({"schema_version": 99, "surfaces": []})

    def test_empty_surfaces_named_in_error(self):
        with pytest.raises(ConfigError, match="surfaces"):
            parse_config({"schema_version": 1, "surfaces": []})

    def test_unknown_family_names_field_path(self):
        with pytest.raises(ConfigError, match=r"surfaces\[0\]\.kind"):
            parse_config({"schema_version": 1,
                          "surfaces": [{"kind": "torus"}]})

    def test_invalid_parameters_named_by_entry(self):
        with pytest.raises(ConfigError, match=r"surfaces\[0\]"):
            parse_config({"schema_version": 1,
                          "surfaces": [{"kind": "sphere_cap", "a": 9.0,
                                        "r": 0.5}]})

    def test_duplicate_labels_rejected(self):
        surf = {"label": "x", "kind": "sphere_cap", "a": 1.0, "r": 0.5}
        with pytest.raises(ConfigError, match="unique"):
            parse_config({"schema_version": 1, "surfaces": [surf, dict(surf)]})

    def test_numeric_bounds(self):
        # out of range, and of the wrong type: never truncated or coerced
        for field, value in [("quad_order", 2), ("quad_order", 7),
                             ("eig_count", 0), ("stability_tol", -1.0),
                             ("quad_order", "abc"), ("quad_order", 12.7),
                             ("quad_order", True), ("eig_count", 4.0),
                             ("eig_count", None), ("stability_tol", "1e-6"),
                             ("stability_tol", math.nan),
                             ("stability_tol", False)]:
            with pytest.raises(ConfigError, match=f"numerics.{field}"):
                parse_config({"schema_version": 1,
                              "surfaces": BASE_CONFIG["surfaces"][:1],
                              "numerics": {field: value}})

    def test_seed_must_be_integer(self):
        for value in ("x", 1.5, True, -2):
            with pytest.raises(ConfigError, match="'seed'"):
                parse_config({"schema_version": 1,
                              "surfaces": BASE_CONFIG["surfaces"][:1],
                              "seed": value})

    @pytest.mark.parametrize("label", [7, "", None, ["cap"]])
    def test_label_must_be_a_non_empty_string(self, label, tmp_path, capsys):
        surf = {"label": label, "kind": "sphere_cap", "a": 1.0, "r": 0.5}
        with pytest.raises(ConfigError, match=r"surfaces\[0\]\.label"):
            parse_config({"schema_version": 1, "surfaces": [surf]})
        p = write_config(tmp_path, surfaces=[surf])
        assert main(["verify", "--config", str(p)]) == 2
        assert "surfaces[0].label" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,value", [
        ("n", 2.0), ("n", 2.5), ("n", True), ("n", 1), ("a", math.nan),
        ("r", math.nan), ("r", "0.5"), ("beta", math.inf),
        ("extent", None)])
    def test_surface_numbers_named_by_field(self, field, value, tmp_path,
                                            capsys):
        # json reads NaN and Infinity, so a config file can hold them
        surf = {"label": "cap", "kind": "sphere_cap", "a": 1.0, "r": 0.5,
                field: value}
        with pytest.raises(ConfigError, match=rf"surfaces\[0\]\.{field}'"):
            parse_config({"schema_version": 1, "surfaces": [surf]})
        p = write_config(tmp_path, surfaces=[surf])
        assert main(["verify", "--config", str(p)]) == 2
        assert f"surfaces[0].{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["directory", "not-utf8"])
    def test_unreadable_file_is_a_config_error(self, case, tmp_path,
                                               capsys):
        p = tmp_path / "cfg.json"
        if case == "directory":
            p.mkdir()
        else:
            p.write_bytes(json.dumps(BASE_CONFIG).replace(
                "cap-ortho", "cap-\xe9").encode("latin-1"))
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(p)
        assert main(["verify", "--config", str(p)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("dir", 5), ("dir", None),
                                           ("dir", ["out"]),
                                           ("formats", "csv"),
                                           ("formats", 5),
                                           ("formats", [])])
    def test_output_section_types(self, key, value, tmp_path, capsys):
        output = {"dir": str(tmp_path / "out"), "formats": ["csv"],
                  key: value}
        with pytest.raises(ConfigError, match=f"output.{key}"):
            parse_config({"schema_version": 1,
                          "surfaces": BASE_CONFIG["surfaces"][:1],
                          "output": output})
        p = write_config(tmp_path, output=output)
        assert main(["verify", "--config", str(p)]) == 2
        assert f"output.{key}" in capsys.readouterr().err

    def test_unknown_format_rejected(self, tmp_path):
        for formats in (["xml"], ["csv", "plotscript"]):
            with pytest.raises(ConfigError, match="output.formats"):
                parse_config({"schema_version": 1,
                              "surfaces": BASE_CONFIG["surfaces"][:1],
                              "output": {"formats": formats}})
        p = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(p), "--format", "plotscript"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_sweep_section_validated(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_config({"schema_version": 1, "surfaces": [],
                          "sweep": {"thetas": []}})
        with pytest.raises(ConfigError, match=r"sweep\.kind.*'torus'"):
            parse_config({"schema_version": 1, "surfaces": [],
                          "sweep": {"kind": "torus", "thetas": [1.0],
                                    "radii": [0.5]}})

    @pytest.mark.parametrize("kind", ["vertical_plane_disk",
                                      "tilted_plane_cap"])
    def test_plane_sweep_and_perturbation_rejected(self, kind, tmp_path,
                                                   capsys):
        """A plane sweep or a perturbed plane could only give ERROR rows."""
        sweep = {"kind": kind, "thetas": [math.pi / 2], "radii": [0.5]}
        surf = dict(OPEN_CHARTS[0], kind=kind,
                    perturbation={"amplitude": 0.01})
        for raw, path, command in (({"sweep": sweep}, "sweep.kind", "sweep"),
                                   ({"surfaces": [surf]},
                                    "surfaces[0].perturbation", "verify")):
            with pytest.raises(ConfigError, match=re.escape(f"'{path}'")):
                parse_config(dict({"schema_version": 1, "surfaces": []},
                                  **raw))
            p = write_config(tmp_path, overrides=raw)
            assert main([command, "--config", str(p)]) == 2
            assert f"'{path}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,bad", [("thetas", float("nan")),
                                         ("thetas", "1.0"),
                                         ("radii", float("inf")),
                                         ("radii", None)])
    def test_sweep_values_named_by_index(self, key, bad, tmp_path, capsys):
        sweep = {"thetas": [0.5, 1.0], "radii": [0.5, 0.8]}
        sweep[key] = [sweep[key][0], bad]
        with pytest.raises(ConfigError, match=rf"sweep\.{key}\[1\]"):
            parse_config({"schema_version": 1, "surfaces": [],
                          "sweep": sweep})
        p = write_config(tmp_path, sweep=sweep)
        assert main(["sweep", "--config", str(p)]) == 2
        assert f"sweep.{key}[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("path,raw", [
        ("numeric", {"numeric": {"grid": 32}}),
        ("surfaces[0].radius", {"surfaces": [
            {"label": "cap", "kind": "sphere_cap", "a": 1.0, "radius": 0.7}]}),
        ("surfaces[0].perturbation.amp", {"surfaces": [
            {"kind": "sphere_cap", "perturbation": {"amp": 0.01}}]}),
        ("numerics.grd", {"numerics": {"grd": 32}}),
        ("sweep.radius", {"sweep": {"thetas": [1.0], "radii": [0.5],
                                    "radius": [0.7]}}),
        ("output.directory", {"output": {"directory": "elsewhere"}}),
    ], ids=["top", "surface", "perturbation", "numerics", "sweep", "output"])
    def test_unknown_keys_named_by_path(self, path, raw, tmp_path, capsys):
        # a misspelt key must not fall back to a default silently
        p = write_config(tmp_path, overrides=raw)
        with pytest.raises(ConfigError, match=re.escape(f"'{path}'")):
            load_config(p)
        assert main(["verify", "--config", str(p)]) == 2
        assert f"'{path}': unknown field" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", [32, 4, "abc"])
    def test_retired_grid_key_is_ignored(self, grid):
        # numerics.grid counted the nodes of the deleted field spline; it
        # is read and ignored, and a misspelt numerics key stays an error
        raw = {"schema_version": 1, "surfaces": BASE_CONFIG["surfaces"][:1],
               "numerics": {"quad_order": 16}}
        want = parse_config(json.loads(json.dumps(raw)))
        raw["numerics"]["grid"] = grid
        assert parse_config(raw) == want
        assert "grid" not in {f.name for f in fields(Numerics)}
        raw["numerics"]["grd"] = grid
        with pytest.raises(ConfigError, match=re.escape("'numerics.grd'")):
            parse_config(raw)

    @pytest.mark.parametrize("field,value", [
        ("amplitude", math.nan), ("amplitude", True), ("amplitude", "0.01"),
        ("amplitude", None), ("support", "0.1,0.9"), ("support", [0.2]),
        ("support", [0.1, 0.5, 0.9]), ("support", [0.2, "0.8"]),
        ("support", [0.2, math.inf]), ("support", [0.8, 0.2]),
        ("support", [0.0, 0.9]), ("support", [0.45, 0.46])])
    def test_perturbation_named_by_field(self, field, value, tmp_path,
                                         capsys):
        pert = {"amplitude": 0.01, field: value}
        surf = dict(BASE_CONFIG["surfaces"][0], perturbation=pert)
        path = f"surfaces[0].perturbation.{field}"
        with pytest.raises(ConfigError, match=re.escape(f"'{path}")):
            parse_config({"schema_version": 1, "surfaces": [surf]})
        p = write_config(tmp_path, surfaces=[surf])
        assert main(["verify", "--config", str(p)]) == 2
        assert f"'{path}" in capsys.readouterr().err

    def test_a_support_as_wide_as_the_clearance_is_valid(self):
        # 0.5 - 0.4 is 0.1 less one ulp: the width check keeps 1e-12 slack
        surf = dict(BASE_CONFIG["surfaces"][0], perturbation={
            "amplitude": 0.01, "support": [0.4, 0.5]})
        cfg = parse_config({"schema_version": 1, "surfaces": [surf]})
        assert cfg.surfaces[0].perturbation.support == (0.4, 0.5)

    @pytest.mark.parametrize("key,values", [
        ("thetas", [1.0, 1.0000000001]), ("radii", [0.5, 0.5])])
    def test_sweep_labels_must_not_collide(self, key, values, tmp_path,
                                           capsys):
        # members whose labels agree would share one manifest status, so
        # an earlier FAIL row could exit 0
        sweep = {"thetas": [1.0], "radii": [0.5], key: values}
        p = write_config(tmp_path, sweep=sweep)
        with pytest.raises(ConfigError, match=re.escape(f"'sweep.{key}'")):
            run(load_config(p), "sweep")
        assert main(["sweep", "--config", str(p)]) == 2
        assert f"'sweep.{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_perturbation_must_be_an_object_with_an_amplitude(self):
        surf = dict(BASE_CONFIG["surfaces"][0])
        for pert, path in [(0.01, "perturbation'"),
                           ({"support": [0.2, 0.8]}, "amplitude'")]:
            with pytest.raises(ConfigError, match=re.escape(path)):
                parse_config({"schema_version": 1,
                              "surfaces": [dict(surf, perturbation=pert)]})

    def test_records_hold_checked_values(self):
        cfg = parse_config({
            "schema_version": 1,
            "surfaces": [{"label": "c", "kind": "sphere_cap", "a": 1,
                          "r": 0.5, "perturbation": {
                              "amplitude": 0.02, "support": [0.2, 0.8]}}],
            "sweep": {"thetas": [1], "radii": [0.5, 0.75], "n": 3}})
        spec, pert = cfg.surfaces[0].spec, cfg.surfaces[0].perturbation
        assert spec == CapSpec(CapKind.SPHERE_CAP, 2, a=1.0, r=0.5)
        assert pert == PerturbationSpec(0.02, (0.2, 0.8))
        assert cfg.sweep == SweepSpec((1.0,), (0.5, 0.75),
                                      CapKind.SPHERE_CAP, 3)
        assert [e.label for e in cfg.sweep.members()] == [
            "sweep-theta-1.000000-r-0.500000",
            "sweep-theta-1.000000-r-0.750000"]


class TestRecordsInCode:
    """A record built in code, or rebuilt with dataclasses.replace, is
    checked as one read from a config file."""

    def test_duplicate_labels_rejected(self, tmp_path):
        # a plane and a cap under one label: the manifest's one status
        # would hide the plane's ERROR row
        plane = SurfaceEntry("x", CapSpec(CapKind.VERTICAL_PLANE_DISK))
        cap = SurfaceEntry("x", CapSpec(CapKind.SPHERE_CAP))
        with pytest.raises(ConfigError, match="'surfaces'"):
            run(RunConfig((plane, cap), Numerics(),
                          OutputSpec(tmp_path / "out")), "spectrum")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("formats", [(), ("xml",), ("csv", "plotscript")])
    def test_output_formats(self, formats, tmp_path):
        with pytest.raises(ConfigError, match=re.escape("'output.formats'")):
            OutputSpec(tmp_path / "out", formats)
        with pytest.raises(ConfigError, match=re.escape("'output.formats'")):
            replace(OutputSpec(tmp_path / "out"), formats=formats)

    @pytest.mark.parametrize("kind", [CapKind.VERTICAL_PLANE_DISK,
                                      CapKind.TILTED_PLANE_CAP])
    def test_plane_sweep_and_perturbed_plane(self, kind):
        with pytest.raises(ConfigError, match=re.escape("'sweep.kind'")):
            SweepSpec((1.0,), (0.5,), kind)
        with pytest.raises(ConfigError, match="'perturbation'"):
            SurfaceEntry("plane", CapSpec(kind), PerturbationSpec(0.01))

    def test_sweep_values_distinct_at_six_decimals(self):
        sweep = SweepSpec((1.0, 2.0), (0.5, 0.6))
        with pytest.raises(ConfigError, match=re.escape("'sweep.radii'")):
            replace(sweep, radii=(0.5, 0.5000001))
        with pytest.raises(ConfigError, match=re.escape("'sweep.thetas'")):
            replace(sweep, thetas=(1.0, 1.0000000001))

    @pytest.mark.parametrize("args,kw,path", [
        (((1.0,), (0.5,)), {"n": 1}, "sweep.n"),
        (((), (0.5,)), {}, "sweep.thetas"),
        (((1.0,), ()), {}, "sweep.radii")])
    def test_sweep_dimension_and_axes(self, args, kw, path):
        with pytest.raises(ConfigError, match=re.escape(f"'{path}'")):
            SweepSpec(*args, **kw)

    @pytest.mark.parametrize("label", ["", None])
    def test_label_must_be_a_non_empty_string(self, label):
        with pytest.raises(ConfigError, match="'label'"):
            SurfaceEntry(label, CapSpec(CapKind.SPHERE_CAP))


class TestReports:
    def test_grade_and_worst(self):
        assert [grade(ok, expected) for ok, expected in
                ((True, False), (True, True), (False, True), (False, False))
                ] == ["PASS", "PASS", "EXPECTED_FAIL", "FAIL"]
        assert grade(False) == "FAIL"
        order = ["PASS", "EXPECTED_FAIL", "FAIL", "ERROR"]
        assert list(STATUSES) == order
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                assert worst(a, b) == order[max(i, j)]
        assert [s for s in order if STATUSES[s]] == ["FAIL", "ERROR"]

    def test_float_format_round_trips(self):
        for x in (math.pi, 1e-300, -2.5, 0.1 + 0.2):
            assert float(fmt_float(x)) == x

    def test_cell_formats(self):
        assert format_cell(True) == "true"
        assert format_cell(False) == "false"
        assert format_cell(3) == "3"
        assert format_cell(0.5) == "5.0000000000000000e-01"

    def test_csv_body_deterministic(self, tmp_path):
        rows = [["a", 1.0 / 3.0, True], ["b", -0.0, False]]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ["k", "v", "ok"], rows)
        write_csv(p2, ["k", "v", "ok"], rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_quotes_cells_that_hold_a_comma(self, tmp_path):
        rows = [["a", 'say "hi", then\nleave', 0.5], ["b", "plain", 1]]
        p = tmp_path / "q.csv"
        write_csv(p, ["k", "message", "v"], rows)
        with p.open(newline="") as fh:
            back = list(csv.reader(fh))
        assert back == [["k", "message", "v"]] + [
            [format_cell(v) for v in row] for row in rows]
        # rows without a comma, quote or line break are written bare
        assert p.read_text().endswith("\nb,plain,1\n")

    def test_csv_cells_are_format_cell(self, tmp_path):
        row = ["a", 1, 0.25, True, np.float64(1 / 3), np.int64(7),
               np.bool_(False), None]
        p = tmp_path / "cells.csv"
        write_csv(p, [f"c{i}" for i in range(len(row))], [row])
        with p.open(newline="") as fh:
            assert list(csv.reader(fh))[1] == [format_cell(v) for v in row]
        assert format_cell(np.float64(0.5)) == format_cell(0.5)
        assert format_cell(np.int64(3)) == "3"

    def test_config_hash_of_the_records_is_that_of_asdict(self):
        """A workload-like config: caps of both kinds, a control, a sweep."""
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["surfaces"].append({"label": "eq-3d", "n": 3, "a": -0.5,
                                "r": 2.0, "kind": "equidistant_sphere_cap"})
        raw.update(sweep={"kind": "sphere_cap", "n": 2, "thetas": [0.8, 1.6],
                          "radii": [0.5, 1.0]}, seed=7)
        cfg = parse_config(raw)
        assert config_hash(cfg) == config_hash(asdict(cfg))

    def test_config_hash_is_order_insensitive(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"x": 2, "y": [1, 2]})

    @staticmethod
    def manifest_hash(tmp_path, raw, *flags):
        """config_hash of a deficit run's manifest."""
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        main(["deficit", "--config", str(p), *flags])
        return json.loads((tmp_path / "out" / "manifest.json")
                          .read_text())["config_hash"]

    def test_config_hash_covers_every_field(self, tmp_path):
        raw = {"schema_version": 1,
               "surfaces": [{"label": "c", "kind": "sphere_cap", "a": 1.0,
                             "r": 0.5, "perturbation": {"amplitude": 0.01}}],
               "sweep": {"thetas": [1.0], "radii": [0.5]},
               "numerics": {"quad_order": 16},
               "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]},
               "seed": 0}
        base = self.manifest_hash(tmp_path, raw)

        def reordered(value):
            if isinstance(value, dict):
                return {k: reordered(value[k]) for k in reversed(value)}
            return value
        assert self.manifest_hash(tmp_path, reordered(raw)) == base

        def changed(*path, value):
            new = json.loads(json.dumps(raw))
            node = new
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            return new
        variants = [changed("surfaces", 0, "r", value=0.6),
                    changed("surfaces", 0, "perturbation", "amplitude",
                            value=0.02),
                    changed("output", "formats", value=["csv", "json"]),
                    changed("seed", value=1),
                    changed("sweep", "radii", value=[0.6])]
        hashes = {base, self.manifest_hash(tmp_path, raw, "--quad", "24")}
        hashes.update(self.manifest_hash(tmp_path, v) for v in variants)
        assert len(hashes) == 2 + len(variants)


class TestRun:
    def test_verify_reports_and_manifest(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        manifest = run(cfg, "verify")
        assert set(manifest.statuses) == {"cap-ortho", "cap-tilt", "control"}
        assert manifest.statuses["cap-ortho"] == "PASS"
        assert manifest.statuses["control"] == "EXPECTED_FAIL"
        assert manifest.ok
        out = cfg.output.directory
        body = (out / "verify.csv").read_text().splitlines()
        assert len(body) == 1 + 5 * 3  # header + five identities per surface
        data = json.loads((out / "manifest.json").read_text())
        assert data["config_hash"] == config_hash(asdict(cfg))
        assert len(data["statuses"]) == 3

    def test_numeric_failure_recorded_not_raised(self, tmp_path):
        cfg_path = write_config(tmp_path, surfaces=[
            {"label": "good", "kind": "sphere_cap", "a": 1.0, "r": 0.5},
            {"label": "bad", "kind": "sphere_cap", "a": 1.0, "r": 0.5,
             "perturbation": {"amplitude": -40.0}},
        ])
        cfg = load_config(cfg_path)
        manifest = run(cfg, "verify")
        assert manifest.statuses["good"] == "PASS"
        assert manifest.statuses["bad"] == "ERROR"
        assert not manifest.ok
        errors = (cfg.output.directory / "verify_errors.csv").read_text()
        assert "bad" in errors
        # the ERROR row's full traceback is kept in the manifest only
        saved = json.loads(
            (cfg.output.directory / "manifest.json").read_text())
        assert saved["tracebacks"] == manifest.tracebacks
        assert list(manifest.tracebacks) == ["bad"]
        tb = manifest.tracebacks["bad"]
        assert tb.startswith("Traceback (most recent call last):")
        message = errors.splitlines()[1].split(",", 2)[2]
        assert tb.rstrip().endswith(message)  # after the module path
        assert "Traceback" not in errors

    def test_infeasible_sweep_member_is_an_error_row(self, tmp_path):
        # radius 2 reaches no angle below arccos(1/2) on the a > 0 branch
        cfg = load_config(write_config(
            tmp_path, surfaces=[],
            sweep={"kind": "sphere_cap", "thetas": [0.2, 1.5],
                   "radii": [2.0]},
            numerics={"quad_order": 32, "eig_count": 4}))
        manifest = run(cfg, "sweep")
        assert manifest.statuses == {
            "sweep-theta-0.200000-r-2.000000": "ERROR",
            "sweep-theta-1.500000-r-2.000000": "PASS"}
        out = cfg.output.directory
        errors = (out / "sweep_errors.csv").read_text().splitlines()
        assert len(errors) == 2
        assert "InfeasibleError" in errors[1] and "contact angles" in errors[1]
        assert len((out / "sweep.csv").read_text().splitlines()) == 2

    def test_error_message_with_a_comma_round_trips(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, surfaces=[],
            sweep={"kind": "equidistant_sphere_cap", "thetas": [1.2],
                   "radii": [0.6]},
            numerics={"quad_order": 32, "eig_count": 4}))
        manifest = run(cfg, "sweep")
        assert manifest.statuses == {
            "sweep-theta-1.200000-r-0.600000": "ERROR"}
        with (cfg.output.directory / "sweep_errors.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and None not in rows[0]
        message = rows[0]["message"]
        assert message.startswith("InfeasibleError: equidistant sphere caps "
                                  "need |a| < r (got a=0.78")
        assert message.endswith(", r=0.6)")

    def test_deficit_on_open_charts(self, tmp_path, monkeypatch):
        cfg = load_config(write_config(
            tmp_path, surfaces=OPEN_CHARTS,
            numerics={"quad_order": 16, "eig_count": 4}))
        # D vanishes, but the boundary integral misses the artificial cut
        manifest = run(cfg, "deficit")
        assert set(manifest.statuses.values()) == {"EXPECTED_FAIL"}
        assert manifest.ok
        # a deficit at the zero tolerance still fails an open chart
        monkeypatch.setattr(cli, "umbilicity_deficit",
                            lambda S, Q: DEFICIT_ZERO_TOL)
        manifest = run(cfg, "deficit")
        assert set(manifest.statuses.values()) == {"FAIL"}
        assert not manifest.ok

    def test_variation_check_on_open_charts_is_a_grid_error(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, surfaces=OPEN_CHARTS,
            numerics={"quad_order": 16, "eig_count": 4}))
        manifest = run(cfg, "variation-check")
        assert set(manifest.statuses.values()) == {"ERROR"}
        out = cfg.output.directory
        rows = (out / "variation_check_errors.csv").read_text().splitlines()
        cells = [row.split(",", 2) for row in rows[1:]]
        assert [c[0] for c in cells] == ["plane-vertical", "plane-tilted"]
        for _, _, message in cells:
            assert message == ("GridError: the modes are spherical harmonics "
                               "of a rotation orbit and a translation orbit "
                               "has none"), message

    def test_variation_check_ignores_the_retired_grid(self, tmp_path):
        """A config with and without numerics.grid writes the same
        reports, plane ERROR rows included, and the same config hash."""
        bodies, hashes = [], set()
        for numerics in ({"quad_order": 32}, {"quad_order": 32, "grid": 16},
                         {"quad_order": 32, "grid": 1024}):
            cfg = load_config(write_config(
                tmp_path, surfaces=BASE_CONFIG["surfaces"] + OPEN_CHARTS[:1],
                numerics=numerics))
            hashes.add(run(cfg, "variation-check").config_hash)
            bodies.append([(cfg.output.directory / report).read_bytes()
                           for report in ("variation_check.csv",
                                          "variation_check_errors.csv")])
        assert bodies[0] == bodies[1] == bodies[2]
        assert len(hashes) == 1

    def test_variation_check_passes_the_minimal_cap(self, tmp_path):
        # H = 0: the ENERGY formula is a cancellation of O(1) boundary terms
        # down to ~1e-17, so it is graded against those terms
        cfg = load_config(write_config(
            tmp_path, surfaces=[{"label": "minimal",
                                 "kind": "equidistant_sphere_cap",
                                 "a": 0.0, "r": 1.5}]))
        manifest = run(cfg, "variation-check")
        assert manifest.statuses == {"minimal": "PASS"}
        rows = (cfg.output.directory
                / "variation_check.csv").read_text().splitlines()
        assert [row.rsplit(",", 1)[1] for row in rows[1:]] == ["PASS"] * 5
        energy = rows[4].split(",")
        assert energy[8] == "ENERGY"
        assert abs(float(energy[10])) < 1e-15 < float(energy[11]) < 1e-6

    def test_deficit_boundary_term_fails_closed_caps(self, tmp_path,
                                                     monkeypatch):
        cfg = load_config(write_config(tmp_path))
        assert run(cfg, "deficit").statuses["cap-ortho"] == "PASS"
        monkeypatch.setattr(cli, "boundary_cancellation",
                            lambda S: DEFICIT_ZERO_TOL)
        statuses = run(cfg, "deficit").statuses
        assert statuses["cap-ortho"] == statuses["cap-tilt"] == "FAIL"
        assert statuses["control"] == "PASS"

    @pytest.mark.parametrize("D", [0.0, DEFICIT_CONTROL_TOL])
    def test_deficit_control_without_deficit_fails(self, tmp_path,
                                                   monkeypatch, D):
        cfg = load_config(write_config(
            tmp_path, surfaces=BASE_CONFIG["surfaces"][2:]))
        assert run(cfg, "deficit").statuses == {"control": "PASS"}
        monkeypatch.setattr(cli, "umbilicity_deficit", lambda S, Q: D)
        manifest = run(cfg, "deficit")
        assert manifest.statuses == {"control": "FAIL"}
        assert not manifest.ok

    def test_one_boundary_frame_per_fresh_surface(self, tmp_path,
                                                  monkeypatch):
        """Each command evaluates the frame of each surface it reads once:
        one row of one profile_jet call starts with (t1/2, t1)."""
        calls = count_jet_calls(monkeypatch)
        cfg = load_config(write_config(
            tmp_path, sweep={"kind": "sphere_cap", "thetas": [1.2],
                             "radii": [0.6]},
            numerics={"quad_order": 32, "eig_count": 4}))
        for command in ("verify", "deficit", "spectrum", "variation-check",
                        "sweep"):
            calls.clear()
            assert run(cfg, command).ok
            frames = {key: sum(p[1] == 2.0 * p[0] for p in rows)
                      for key, rows in jet_rows(calls).items()}
            # the three configured surfaces, or the one sweep member, whose
            # angle solve built the frame the suite reads
            assert len(frames) == (1 if command == "sweep" else 3), command
            assert set(frames.values()) == {1}, command

    def test_one_bumped_surface_per_control(self, tmp_path, monkeypatch):
        """perturb returns the bumped surface whose immersion it checked,
        so each command builds one per control."""
        init, built = BumpedCapSurface.__init__, []

        def counting(S, *args, **kwargs):
            init(S, *args, **kwargs)
            built.append(S)

        monkeypatch.setattr(BumpedCapSurface, "__init__", counting)
        cfg = load_config(write_config(
            tmp_path, numerics={"quad_order": 32, "eig_count": 4}))
        for command in ("verify", "deficit", "spectrum", "variation-check"):
            built.clear()
            assert run(cfg, command).ok
            assert len(built) == 1, command

    def test_rerun_leaves_no_stale_reports(self, tmp_path):
        """A rerun into one output directory deletes its command's reports
        that it does not write: the errors of a surface the config no
        longer has, and a format it no longer writes."""
        numerics = {"quad_order": 32, "eig_count": 4}
        cap = BASE_CONFIG["surfaces"][:1]
        cfg = load_config(write_config(tmp_path, surfaces=OPEN_CHARTS[:1]
                                       + cap, numerics=numerics))
        out = cfg.output.directory
        assert not run(cfg, "spectrum").ok
        assert "ERROR" in (out / "spectrum_errors.csv").read_text()
        (out / "verify.csv").write_text("another command's report\n")
        cfg = load_config(write_config(tmp_path, surfaces=cap,
                                       numerics=numerics))
        assert run(cfg, "spectrum").ok
        assert not (out / "spectrum_errors.csv").exists()
        assert (out / "spectrum.json").exists()
        cfg = load_config(write_config(
            tmp_path, surfaces=cap, numerics=numerics,
            output={"dir": str(out), "formats": ["csv"]}))
        assert run(cfg, "spectrum").ok
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "spectrum.csv", "verify.csv"]

    def test_one_profile_jet_call_per_node_array(self, tmp_path,
                                                 monkeypatch):
        """verify and deficit make one profile_jet call per (family, n)
        group, on the probe, t1 and every node set the command integrates
        on, plus the lone calls: the control's immersion check (probe,
        t1 and the quad_order nodes) and, in verify, its doubled nodes.
        No surface evaluates a point twice.  Counted through the instance
        attribute, as the benchmark tracer counts them."""
        calls = count_jet_calls(monkeypatch)
        cfg = load_config(write_config(tmp_path))
        # the control's check while it is built, then the two caps, n = 2,
        # in one call, and the control's remaining nodes
        for command, shapes in (("verify", [(1, 2 + 64), (2, 2 + 64 + 128),
                                            (1, 128)]),
                                ("deficit", [(1, 2 + 64), (2, 2 + 64)])):
            calls.clear()
            assert run(cfg, command).ok
            assert [t.shape for _, t, _ in calls] == shapes, command
            for rows in jet_rows(calls).values():
                points = np.concatenate(rows)
                assert len(np.unique(points)) == len(points), command

    def test_variation_check_reads_three_jets_per_surface(self, tmp_path,
                                                          monkeypatch):
        """variation-check reads the profile jet once per group, on the
        probe, t1 and the node set, whose Meridian and frame give Y and
        Y', plus the control's immersion check on the same points."""
        calls = count_jet_calls(monkeypatch)
        cfg = load_config(write_config(tmp_path))
        assert run(cfg, "variation-check").ok
        assert [t.shape for _, t, _ in calls] == [(1, 2 + 256),
                                                   (2, 2 + 256)]
        assert len(jet_rows(calls)) == 3

    def test_build_error_is_its_entry_row(self, tmp_path):
        """A control whose build raises (AmplitudeError) is one ERROR row;
        the other surfaces, built and evaluated with it, keep theirs."""
        cfg = load_config(write_config(tmp_path, surfaces=[
            *BASE_CONFIG["surfaces"],
            {"label": "bad", "kind": "sphere_cap", "a": 1.0, "r": 0.5,
             "perturbation": {"amplitude": -40.0}}]))
        manifest = run(cfg, "verify")
        assert manifest.statuses == {"cap-ortho": "PASS", "cap-tilt": "PASS",
                                     "control": "EXPECTED_FAIL",
                                     "bad": "ERROR"}
        out = cfg.output.directory
        errors = (out / "verify_errors.csv").read_text().splitlines()[1:]
        assert len(errors) == 1
        assert errors[0].startswith("bad,ERROR,AmplitudeError: amplitude -40")
        labels = [row.split(",")[0] for row in
                  (out / "verify.csv").read_text().splitlines()[1:]]
        assert labels == [label for label in ("cap-ortho", "cap-tilt",
                                              "control") for _ in range(5)]

    def test_infeasible_sweep_member_is_its_row(self, tmp_path):
        """An infeasible sweep member is one ERROR row; the member solved
        beside it is evaluated with the others and keeps its row."""
        cfg = load_config(write_config(tmp_path, sweep={
            "kind": "equidistant_sphere_cap", "thetas": [1.2],
            "radii": [0.6, 1.5]}))
        manifest = run(cfg, "sweep")
        assert sorted(manifest.statuses.values()) == ["ERROR", "PASS"]
        out = cfg.output.directory
        with open(out / "sweep_errors.csv", newline="") as fh:
            errors = list(csv.reader(fh))[1:]
        assert len(errors) == 1
        label, status, message = errors[0]
        assert (label, status) == ("sweep-theta-1.200000-r-0.600000", "ERROR")
        assert message.startswith("InfeasibleError: ")
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(row[0], row[-1]) for row in rows] == [
            ("sweep-theta-1.200000-r-1.500000", "PASS")]

    def test_sweep_requires_section(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match="sweep"):
            run(cfg, "sweep")

    def test_unknown_command(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        with pytest.raises(ValueError):
            run(cfg, "prove")


class TestMain:
    def test_exit_zero_and_output(self, tmp_path, capsys):
        rc = main(["verify", "--config", str(write_config(tmp_path))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "EXPECTED_FAIL" in out

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["verify", "--config", str(p)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value,field",
                             [("spectrum", "--quad", "7",
                               "numerics.quad_order"),
                              ("verify", "--quad", "0",
                               "numerics.quad_order"),
                              ("variation-check", "--seed", "-2", "'seed'")])
    def test_overrides_are_validated(self, tmp_path, capsys, command, flag,
                                     value, field):
        p = write_config(tmp_path)
        assert main([command, "--config", str(p), flag, value]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grid_option_is_gone(self, tmp_path, capsys):
        # --grid is an unknown option (argparse exits 2), and a misspelt
        # numerics key is still a configuration error
        p = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(p), "--grid", "32"])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err
        p = write_config(tmp_path, numerics={"quad_order": 64, "gird": 32})
        assert main(["verify", "--config", str(p)]) == 2
        assert "'numerics.gird': unknown field" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exit_one_on_error_status(self, tmp_path, capsys):
        p = write_config(tmp_path, surfaces=[
            {"label": "bad", "kind": "sphere_cap", "a": 1.0, "r": 0.5,
             "perturbation": {"amplitude": -40.0}}])
        assert main(["verify", "--config", str(p)]) == 1

    def test_determinism_across_runs(self, tmp_path):
        p = write_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["verify", "--config", str(p), "--out", str(d1)]) == 0
        assert main(["verify", "--config", str(p), "--out", str(d2)]) == 0
        assert (d1 / "verify.csv").read_bytes() == (d2 / "verify.csv").read_bytes()

    def test_sweep_end_to_end(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "surfaces": [],
            "sweep": {"kind": "sphere_cap", "n": 2,
                      "thetas": [math.pi / 3, math.pi / 2],
                      "radii": [0.5, 0.8]},
            "numerics": {"quad_order": 32, "eig_count": 4},
            "output": {"dir": str(tmp_path / "sw"), "formats": ["csv"]},
        }
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(p)]) == 0
        rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 4
