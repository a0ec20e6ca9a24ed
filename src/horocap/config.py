"""Run-configuration schema: validation with field-path error messages.

Schema (JSON, versioned):

    {
      "schema_version": 1,
      "surfaces": [
        {"label": "cap-1", "kind": "sphere_cap", "n": 2, "a": 1.0, "r": 0.5,
         "perturbation": {"amplitude": 0.01, "support": [0.1, 0.9]}},
        ...
      ],
      "sweep": {                       # optional, used by the sweep command
        "kind": "sphere_cap", "n": 2,
        "thetas": [...], "radii": [...]
      },
      "numerics": {"quad_order": 128, "grid": 128, "eig_count": 10,
                   "stability_tol": 1e-6, "constraint": "VOLUME"},
      "output": {"dir": "out", "formats": ["csv", "json"]}
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .families import CapKind, CapSpec, PerturbationSpec

__all__ = ["ConfigError", "SurfaceEntry", "Numerics", "OutputSpec",
           "RunConfig", "load_config", "parse_config"]

SCHEMA_VERSION = 1
VALID_FORMATS = ("csv", "json", "plotscript")
VALID_CONSTRAINTS = ("VOLUME", "WETTING", "NONE")


class ConfigError(ValueError):
    """Schema violation; the message names the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config field '{path}': {message}")
        self.path = path


@dataclass(frozen=True)
class SurfaceEntry:
    label: str
    spec: CapSpec
    perturbation: Optional[PerturbationSpec] = None

    @property
    def is_control(self) -> bool:
        """Declared non-CMC negative control (perturbed)."""
        return (self.perturbation is not None
                and self.perturbation.amplitude != 0.0)

    def to_dict(self) -> dict:
        d = {"label": self.label, **self.spec.to_dict()}
        if self.perturbation is not None:
            d["perturbation"] = self.perturbation.to_dict()
        return d


def _integer(path: str, value, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return value


def _kind(path: str, value) -> None:
    try:
        CapKind(value)
    except ValueError:
        raise ConfigError(path, f"unknown family {value!r}; valid: "
                          + ", ".join(k.value for k in CapKind)) from None


def _finite(path: str, value) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(path, f"must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Numerics:
    """Numerical resolution; every instance, overrides included, is checked."""

    quad_order: int = 128
    grid: int = 128
    eig_count: int = 10
    stability_tol: float = 1e-6
    constraint: str = "VOLUME"

    def __post_init__(self):
        _integer("numerics.quad_order", self.quad_order, 8)
        _integer("numerics.grid", self.grid, 16)
        _integer("numerics.eig_count", self.eig_count, 1)
        tol = _finite("numerics.stability_tol", self.stability_tol)
        if tol <= 0:
            raise ConfigError("numerics.stability_tol", "must be positive")
        object.__setattr__(self, "stability_tol", tol)
        if self.constraint not in VALID_CONSTRAINTS:
            raise ConfigError("numerics.constraint",
                              f"must be one of {VALID_CONSTRAINTS}")

    def to_dict(self) -> dict:
        return {
            "quad_order": self.quad_order,
            "grid": self.grid,
            "eig_count": self.eig_count,
            "stability_tol": self.stability_tol,
            "constraint": self.constraint,
        }


@dataclass(frozen=True)
class OutputSpec:
    directory: Path = Path("out")
    formats: tuple = ("csv",)

    def to_dict(self) -> dict:
        return {"dir": str(self.directory), "formats": list(self.formats)}


@dataclass(frozen=True)
class RunConfig:
    surfaces: tuple
    numerics: Numerics
    output: OutputSpec
    sweep: Optional[dict] = None
    seed: int = 0

    def __post_init__(self):
        _integer("seed", self.seed, 0)

    def to_dict(self) -> dict:
        d = {
            "schema_version": SCHEMA_VERSION,
            "surfaces": [s.to_dict() for s in self.surfaces],
            "numerics": self.numerics.to_dict(),
            "output": self.output.to_dict(),
            "seed": self.seed,
        }
        if self.sweep is not None:
            d["sweep"] = self.sweep
        return d


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return d[key]


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "configuration must be a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version",
                          f"expected {SCHEMA_VERSION}, got {version!r}")

    raw_surfaces = raw.get("surfaces", [])
    if not isinstance(raw_surfaces, list):
        raise ConfigError("surfaces", "must be a list")
    if not raw_surfaces and "sweep" not in raw:
        raise ConfigError("surfaces", "at least one surface spec is required")
    surfaces = []
    for i, s in enumerate(raw_surfaces):
        path = f"surfaces[{i}]"
        if not isinstance(s, dict):
            raise ConfigError(path, "must be an object")
        kind_name = _require(s, "kind", path)
        _kind(f"{path}.kind", kind_name)
        if "n" in s:
            _integer(f"{path}.n", s["n"], 2)
        for key in ("a", "r", "beta", "extent"):
            if key in s:
                _finite(f"{path}.{key}", s[key])
        try:
            spec = CapSpec.from_dict(s)
            spec.validate()
        except (ValueError, TypeError) as exc:
            raise ConfigError(path, str(exc)) from exc
        pert = None
        if "perturbation" in s:
            try:
                pert = PerturbationSpec.from_dict(s["perturbation"])
                pert.validate()
            except (ValueError, TypeError, KeyError) as exc:
                raise ConfigError(f"{path}.perturbation", str(exc)) from exc
        label = s.get("label", f"{kind_name}-{i}")
        if not isinstance(label, str) or not label:
            raise ConfigError(f"{path}.label",
                              f"must be a non-empty string, got {label!r}")
        surfaces.append(SurfaceEntry(label=label, spec=spec, perturbation=pert))
    labels = [s.label for s in surfaces]
    if len(set(labels)) != len(labels):
        raise ConfigError("surfaces", "surface labels must be unique")

    num_raw = raw.get("numerics", {})
    if not isinstance(num_raw, dict):
        raise ConfigError("numerics", "must be an object")
    numerics = Numerics(**{f.name: num_raw[f.name] for f in fields(Numerics)
                           if f.name in num_raw})

    out_raw = raw.get("output", {})
    if not isinstance(out_raw, dict):
        raise ConfigError("output", "must be an object")
    formats = out_raw.get("formats", ["csv"])
    if not isinstance(formats, list):
        raise ConfigError("output.formats", f"must be a list, got {formats!r}")
    for f in formats:
        if f not in VALID_FORMATS:
            raise ConfigError("output.formats",
                              f"unknown format {f!r}; valid: {VALID_FORMATS}")
    out_dir = out_raw.get("dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("output.dir", f"must be a string, got {out_dir!r}")
    output = OutputSpec(directory=Path(out_dir), formats=tuple(formats))

    sweep = raw.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError("sweep", "must be an object")
        _kind("sweep.kind", sweep.get("kind", "sphere_cap"))
        _integer("sweep.n", sweep.get("n", 2), 2)
        for key in ("thetas", "radii"):
            vals = _require(sweep, key, "sweep")
            if not isinstance(vals, list) or not vals:
                raise ConfigError(f"sweep.{key}", "must be a non-empty list")
            for i, v in enumerate(vals):
                _finite(f"sweep.{key}[{i}]", v)

    return RunConfig(surfaces=tuple(surfaces), numerics=numerics,
                     output=output, sweep=sweep, seed=raw.get("seed", 0))


def load_config(path: Path | str) -> RunConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError("", f"config file not found: {p}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8
        raise ConfigError("", f"cannot read config file {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from exc
    return parse_config(raw)
