"""Start-up cost: which modules each command loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import horocap

SCRIPT = """
import json, sys
import horocap, horocap.cli
from horocap.config import load_config

def loaded():
    return [m for m in ("scipy", "scipy.linalg", "scipy.interpolate")
            if m in sys.modules]

seen = {"import": loaded()}
cfg = load_config(sys.argv[1])
seen["load_config"] = loaded()
for command in ("verify", "deficit", "spectrum", "variation-check",
                "sweep"):
    horocap.cli.run(cfg, command)
    seen[command] = loaded()
print(json.dumps(seen))
"""


def test_scipy_submodules_load_only_where_used(tmp_path):
    cfg = {
        "schema_version": 1,
        "surfaces": [{"label": "cap", "kind": "sphere_cap", "n": 2,
                      "a": 1.0, "r": 0.5}],
        "sweep": {"kind": "sphere_cap", "n": 2, "thetas": [1.2],
                  "radii": [0.5]},
        "numerics": {"quad_order": 16, "grid": 16, "eig_count": 4},
        "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    src = str(Path(horocap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # the eigensolves are numpy.linalg's and the variation fields'
    # spline solves its slopes in numpy: no command needs scipy, and
    # horocap.stability imports it only when it is read (by the benchmark
    # tracer)
    assert seen == {"import": [], "load_config": [], "verify": [],
                    "deficit": [], "spectrum": [], "variation-check": [],
                    "sweep": []}


HALFSPACE_SCRIPT = """
import json, sys
import horocap.cli
from horocap.config import load_config

seen = {"import": "horocap.halfspace" in sys.modules}
cfg = load_config(sys.argv[1])
for command in horocap.cli.COMMANDS:
    horocap.cli.run(cfg, command)
    seen[command] = "horocap.halfspace" in sys.modules
print(json.dumps(seen))
"""


def test_no_command_loads_the_halfspace_records(tmp_path):
    cfg = {
        "schema_version": 1,
        "surfaces": [{"label": "cap", "kind": "sphere_cap", "n": 2,
                      "a": 1.0, "r": 0.5}],
        "sweep": {"kind": "sphere_cap", "n": 2, "thetas": [1.2],
                  "radii": [0.5]},
        "numerics": {"quad_order": 16, "grid": 16, "eig_count": 4},
        "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    src = str(Path(horocap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", HALFSPACE_SCRIPT, str(path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": False, "verify": False, "spectrum": False,
                    "variation-check": False, "deficit": False,
                    "sweep": False}


TRACED_MODULES = ("cli", "config", "families", "halfspace", "identities",
                  "quadrature", "reports", "stability", "surfaces")


def _attributes() -> dict:
    """Every attribute of the horocap modules and of the classes they
    define, and the entries of the CLI's suite table, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name != "horocap" and not name.startswith("horocap."):
            continue
        for attr, value in vars(mod).items():
            seen[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    seen[name, attr, key] = member
    cli = sys.modules["horocap.cli"]
    seen.update((("_SUITES", k), v) for k, v in cli._SUITES.items())
    return seen


def test_benchmark_tracer_patches_existing_targets_and_restores_them(
        monkeypatch):
    """The benchmark's tracer (perfbench/tracer.py) rebinds module functions
    and patches class attributes by name; each one it names must exist, and
    uninstall must put every one back, over repeated rounds."""
    root = Path(horocap.__file__).resolve().parents[2]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    tracer = importlib.import_module("tracer")
    for name in TRACED_MODULES:
        importlib.import_module(f"horocap.{name}")
    stability = sys.modules["horocap.stability"]
    linalg = stability.scipy.linalg
    eigh = linalg.eigh
    before = _attributes()
    pairs = tracer.PairTimer()
    trace = tracer.Tracer()
    for _ in range(2):  # perfbench/run.py installs once per traced round
        trace.install()
        patched = _attributes()
        for _, targets in tracer.METHOD_SPANS.items():
            for mod, cls, attr in targets:
                key = (f"horocap.{mod}", cls, attr)
                assert patched[key] is not before[key], key
        trace.uninstall()
    pairs.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    moved = [key for key in before if after[key] is not before[key]]
    assert moved == []
    assert linalg.eigh is eigh
