"""Start-up cost: which modules each command loads."""

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
    return [m for m in ("scipy.linalg", "scipy.interpolate")
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
    # the eigensolves call numpy's bundled LAPACK and the variation
    # fields use a numpy spline: no command needs a scipy submodule
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
