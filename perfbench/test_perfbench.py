"""Tests of the benchmark itself: metric names, generator and gate.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import math
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from gate import check_command
from tracer import layer_metrics, pair_metrics
from workloads import CAP, CONTROL, OPEN, WORKLOADS, make_config

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

SPEC = "kind,n,a,r,beta,extent,perturbed"
VERIFY_HEAD = (f"label,{SPEC},identity,lhs,rhs,abs_residual,rel_residual,"
               "requires_cmc,cmc_ok,tolerance,quad_order,status")
IDENTITIES = ("I_BOUNDARY_MINK", "I_COR", "I_HX_NU", "I_MINK1", "I_X_NU")


def verify_rows(label, statuses, cmc_ok="true"):
    rows = []
    for iid, status in zip(IDENTITIES, statuses):
        cmc = "true" if iid == "I_COR" else "false"
        rows.append(f"{label},sphere_cap,2,1,0.5,1.5,1,false,{iid},0,0,0,0,"
                    f"{cmc},{cmc_ok},1e-8,128,{status}")
    return rows


def verify_csv(*blocks):
    return "\n".join([VERIFY_HEAD] + [r for b in blocks for r in b]) + "\n"


# -- metric names -------------------------------------------------------

def test_end_to_end_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    assert declared["setup_s"] == "s"


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER_UNITS


def test_traced_run_produces_every_per_layer_metric():
    produced = set(layer_metrics([], Counter(), 1))
    produced |= set(pair_metrics([("verify", "cap-00", 0.1)]))
    produced |= {f"cmd.{c.replace('-', '_')}_s" for c in
                 ("verify", "deficit", "spectrum", "variation-check",
                  "sweep")}
    produced |= {"accuracy.kernel_eig", "trace.overhead_s"}
    assert produced == set(run.PER_LAYER_UNITS)


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


def test_self_time_excludes_children():
    # (id, parent, trace, name, start, end, self)
    spans = [(0, None, "t", "stability.spectrum", 0.0, 1.0, 0.25),
             (1, 0, "t", "stability.grid", 0.0, 0.5, 0.5),
             (2, 0, "t", "stability.eigh", 0.5, 0.75, 0.25)]
    m = layer_metrics(spans, Counter(), 1)
    assert m["stability.assembly_s"] == pytest.approx(0.25)
    assert m["stability.grid_s"] == pytest.approx(0.5)
    assert m["stability.eigh_calls"] == 1


# -- generator ----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_config(name):
    assert make_config(name, 7) == make_config(name, 7)
    assert make_config(name, 7) != make_config(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_size_does_not_depend_on_seed(name):
    def shape(seed):
        cfg, roles = make_config(name, seed)
        sweep = cfg.get("sweep", {})
        return ([(s["kind"], s["n"]) for s in cfg["surfaces"]], roles,
                cfg["numerics"], len(sweep.get("thetas", [])),
                len(sweep.get("radii", [])))
    assert all(shape(seed) == shape(0) for seed in range(1, 20))


def test_caps_are_feasible():
    for seed in range(200):
        for name in ("caps-identities", "caps-stability"):
            cfg, _ = make_config(name, seed)
            for s in cfg["surfaces"]:
                assert abs(1.0 - s["a"]) < s["r"]
                if s["kind"] == "equidistant_sphere_cap":
                    assert abs(s["a"]) < s["r"]
                else:
                    assert s["a"] > 0.0
        sweep = make_config("caps-stability", seed)[0]["sweep"]
        for th in sweep["thetas"]:
            for r in sweep["radii"]:
                assert 0.0 < th < math.pi and 0.0 < r <= 1.0
                assert 1.0 - r * math.cos(th) >= 0.0  # the a >= 0 branch


def test_seed_reaches_the_variation_field():
    assert make_config("caps-stability", 5)[0]["seed"] == 5
    assert make_config("caps-stability", -1)[0]["seed"] == 2**32 - 1


# -- gate -----------------------------------------------------------------

ROLES = {"cap-00": CAP, "control": CONTROL, "plane": OPEN}
STATUSES = {"cap-00": "PASS", "control": "EXPECTED_FAIL",
            "plane": "EXPECTED_FAIL"}
GOOD_CONTROL = ["PASS", "EXPECTED_FAIL", "PASS", "PASS", "PASS"]


def test_gate_accepts_declared_statuses():
    body = verify_csv(verify_rows("cap-00", ["PASS"] * 5),
                      verify_rows("control", GOOD_CONTROL, cmc_ok="false"),
                      verify_rows("plane", ["EXPECTED_FAIL"] * 5))
    v = check_command("verify", STATUSES, body, "", ROLES)
    assert v.gate_errors == [] and v.failed == [] and v.pairs == 3


def test_gate_rejects_failing_cap():
    body = verify_csv(verify_rows("cap-00", ["PASS"] * 4 + ["FAIL"]),
                      verify_rows("control", GOOD_CONTROL, cmc_ok="false"),
                      verify_rows("plane", ["PASS"] * 5))
    v = check_command("verify", dict(STATUSES, **{"cap-00": "FAIL"}), body,
                      "", ROLES)
    assert v.failed == ["cap-00"] and len(v.gate_errors) == 1


@pytest.mark.parametrize("statuses,cmc_ok", [
    (["EXPECTED_FAIL"] + ["PASS"] * 4, "false"),   # not the CMC identity
    (GOOD_CONTROL, "true"),                       # CMC not broken
    (["PASS"] * 5, "false"),                      # control not caught
])
def test_gate_rejects_undeclared_control_status(statuses, cmc_ok):
    body = verify_csv(verify_rows("cap-00", ["PASS"] * 5),
                      verify_rows("control", statuses, cmc_ok=cmc_ok),
                      verify_rows("plane", ["PASS"] * 5))
    v = check_command("verify", STATUSES, body, "", ROLES)
    assert v.failed == ["control"] and v.gate_errors


def test_gate_counts_open_chart_failures_without_breaking():
    report = ("label,kind,n,a,r,beta,extent,perturbed,theta,constraint,"
              "resolution,lowest_eigenvalue,morse_index,zero_modes,"
              "modes_used,eigenvalues,status\n"
              "cap-00,sphere_cap,2,1,0.5,1.5,1,false,1.5,VOLUME,128,2e-6,0,"
              "0,6,2e-6;-3e-6;5.1,PASS\n"
              "control,sphere_cap,2,1,0.5,1.5,1,true,1.5,VOLUME,128,-0.1,1,"
              "0,6,-0.1;2.0,EXPECTED_FAIL\n")
    errors = "label,status,message\nplane,ERROR,GridError: profile only\n"
    statuses = {"cap-00": "PASS", "control": "EXPECTED_FAIL",
                "plane": "ERROR"}
    v = check_command("spectrum", statuses, report, errors, ROLES)
    assert v.gate_errors == []
    assert v.failed == ["plane"]
    assert v.kernel_eigs == [2e-6]


def test_gate_requires_a_verdict_per_surface():
    body = verify_csv(verify_rows("cap-00", ["PASS"] * 5))
    v = check_command("verify", {"cap-00": "PASS"}, body, "", ROLES)
    assert any("no verdict for control" in e for e in v.gate_errors)


def test_gate_rejects_error_without_error_row():
    statuses = dict(STATUSES, plane="ERROR")
    body = verify_csv(verify_rows("cap-00", ["PASS"] * 5),
                      verify_rows("control", GOOD_CONTROL, cmc_ok="false"))
    v = check_command("verify", statuses, body, "", ROLES)
    assert v.failed == ["plane"] and v.gate_errors


def test_gate_on_a_real_cli_report(tmp_path):
    cli = run.import_horocap()
    from horocap.config import parse_config
    raw = {"schema_version": 1, "numerics": {"quad_order": 32, "grid": 32},
           "output": {"dir": str(tmp_path), "formats": ["csv"]},
           "surfaces": [
               {"label": "cap-00", "kind": "sphere_cap", "a": 0.8, "r": 0.6},
               {"label": "control", "kind": "sphere_cap", "a": 1.0,
                "r": 0.5, "perturbation": {"amplitude": 0.02}}]}
    manifest = cli.run(parse_config(raw), "verify")
    v = check_command("verify", manifest.statuses,
                      (tmp_path / "verify.csv").read_text(), "",
                      {"cap-00": CAP, "control": CONTROL})
    assert v.gate_errors == [] and v.failed == []


# -- statistics -----------------------------------------------------------

def test_high_percentile_keeps_ten_samples_above():
    assert run.high_percentile(list(range(10))) is None
    p, value = run.high_percentile(list(range(20)))
    assert p == 50 and sum(v > value for v in range(20)) >= 10
    p, value = run.high_percentile(list(range(100)))
    assert p == 90 and sum(v > value for v in range(100)) == 10


@pytest.mark.parametrize("messages,differs", [
    (("a", "b"), True),        # a repeat changes the report
    (("a", "a", "a"), False),  # repeats count each pair once
])
def test_passes_count_each_pair_once(tmp_path, messages, differs):
    bench = run.Bench(run.import_horocap(), "open-charts", 0, tmp_path)
    manifest = SimpleNamespace(statuses={label: "ERROR"
                                         for label in bench.roles})
    errors = tmp_path / "spectrum_errors.csv"
    for message in messages:
        errors.write_text("label,status,message\n" + "".join(
            f"{label},ERROR,GridError: {message}\n"
            for label in bench.roles))
        bench._check("spectrum", manifest, tmp_path)
    assert [e for e in bench.gate_errors if "differs" in e] == (
        ["spectrum: report differs from the first pass"] if differs else [])
    assert bench.attempted == bench.failed == len(bench.roles)


VARIATION_HEAD = (f"label,{SPEC},functional,fd_value,formula_value,"
                  "rel_error,step,richardson_order,status")


@pytest.mark.parametrize("fd,gated", [
    ("1.9792883302708711e-04", False),  # 3e-9 off a near-zero reference
    ("2.0192597853662830e-04", True),   # 4e-6 off: a real mismatch
])
def test_gate_counts_near_zero_first_variation(fd, gated):
    formula = "1.9792597853662830e-04"
    rel = abs(float(fd) - float(formula)) / float(formula)
    rows = [f"cap-00,sphere_cap,2,1,0.5,1.5,1,false,{f},{v},{v},0,1e-3,4,PASS"
            for f, v in (("WETTING_AREA", "1.6"), ("VOLUME", "0.15"),
                         ("ENERGY", "0.73"), ("ENERGY_SECOND", "19.9"))]
    rows.insert(0, f"cap-00,sphere_cap,2,1,0.5,1.5,1,false,AREA,{fd},"
                   f"{formula},{rel},1e-3,4,FAIL")
    body = "\n".join([VARIATION_HEAD] + rows) + "\n"
    v = check_command("variation-check", {"cap-00": "FAIL"}, body, "",
                      {"cap-00": CAP})
    assert v.failed == ["cap-00"]
    assert bool(v.gate_errors) is gated
    assert bool(v.known_defects) is not gated

