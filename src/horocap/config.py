"""Run-configuration schema: validation with field-path error messages.

The frozen records below, with ``CapSpec`` and ``PerturbationSpec`` of
``families``, are the schema: a section's keys are its record's fields,
and any other key is an error.  Each record checks its own fields, so
the rules hold for records read from a file, built in code or rebuilt
with ``dataclasses.replace``; the reader maps keys, checks types and
puts an entry's path in front of its record's error.  Schema (JSON,
versioned):

    {
      "schema_version": 1,
      "surfaces": [
        {"label": "cap-1", "kind": "sphere_cap", "n": 2, "a": 1.0, "r": 0.5,
         "perturbation": {"amplitude": 0.01, "support": [0.1, 0.9]}},
        ...
      ],
      "sweep": {                       # optional, used by the sweep command
        "kind": "sphere_cap", "n": 2,  # a sphere kind
        "thetas": [...], "radii": [...]
      },
      "numerics": {"quad_order": 128, "grid": 128, "eig_count": 10,
                   "stability_tol": 1e-6, "constraint": "VOLUME"},
      "output": {"dir": "out", "formats": ["csv", "json"]},
      "seed": 0
    }

A surface takes the ``CapSpec`` fields plus ``label`` and, on a sphere
kind only, ``perturbation``.  A perturbation's optional ``support`` is
its bump window [lo, hi], in fractions of the chart range:
0.1 <= lo < hi <= 0.9 and hi - lo >= 0.1.  A sweep's ``kind`` is a
sphere kind (``sphere_cap`` or ``equidistant_sphere_cap``), and its
``thetas`` and ``radii`` must stay distinct at the six decimals of the
sweep labels.
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional

from .families import (SPHERE_KINDS, CapKind, CapSpec, ConstructionError,
                       PerturbationSpec)

__all__ = ["ConfigError", "SurfaceEntry", "SweepSpec", "Numerics",
           "OutputSpec", "RunConfig", "load_config", "parse_config"]

SCHEMA_VERSION = 1
VALID_FORMATS = ("csv", "json")
VALID_CONSTRAINTS = ("VOLUME", "WETTING", "NONE")


class ConfigError(ValueError):
    """Schema violation; the message names the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config field '{path}': {message}")
        self.path, self.message = path, message


@dataclass(frozen=True)
class SurfaceEntry:
    """One configured surface; its errors name the field in the entry."""

    label: str
    spec: CapSpec
    perturbation: Optional[PerturbationSpec] = None

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ConfigError("label", "must be a non-empty string, got "
                              f"{self.label!r}")
        if (self.perturbation is not None
                and self.spec.kind not in SPHERE_KINDS):
            raise ConfigError("perturbation",
                              "only sphere kinds take a perturbation")

    @property
    def is_control(self) -> bool:
        """Declared non-CMC negative control (perturbed)."""
        return (self.perturbation is not None
                and self.perturbation.amplitude != 0.0)


def _integer(path: str, value, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return value


_dimension = functools.partial(_integer, minimum=2)


def _kind(path: str, value) -> CapKind:
    try:
        return CapKind(value)
    except ValueError:
        raise ConfigError(path, f"unknown family {value!r}; valid: "
                          + ", ".join(k.value for k in CapKind)) from None


def _finite(path: str, value) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(path, f"must be a finite number, got {value!r}")
    return float(value)


def _finite_list(path: str, value) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(path, f"must be a list, got {value!r}")
    return tuple(_finite(f"{path}[{i}]", v) for i, v in enumerate(value))


SweepMember = namedtuple("SweepMember", "label theta r")


@dataclass(frozen=True)
class SweepSpec:
    """The angle x radius grid of the sweep command over a sphere kind."""

    thetas: tuple
    radii: tuple
    kind: CapKind = CapKind.SPHERE_CAP
    n: int = 2

    def __post_init__(self):
        if self.kind not in SPHERE_KINDS:
            raise ConfigError("sweep.kind", "a sweep takes sphere kinds only: "
                              + ", ".join(k.value for k in SPHERE_KINDS))
        _dimension("sweep.n", self.n)
        # a label keeps six decimals; members under one label would share
        # one manifest status, so an earlier FAIL could exit 0
        for key in ("thetas", "radii"):
            values = getattr(self, key)
            if not values:
                raise ConfigError(f"sweep.{key}", "must not be empty")
            if len({f"{v:.6f}" for v in values}) < len(values):
                raise ConfigError(f"sweep.{key}", "two values agree to the "
                                  "six decimals of the sweep labels")

    def members(self) -> list:
        """The sweep points (label, theta, r), angle-major."""
        return [SweepMember(f"sweep-theta-{th:.6f}-r-{r:.6f}", th, r)
                for th in self.thetas for r in self.radii]


@dataclass(frozen=True)
class Numerics:
    """Numerical resolution; every instance, overrides included, is checked.
    grid counts the uniform intervals on [0, t1] of the variation fields:
    a field has grid + 1 nodes."""

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


@dataclass(frozen=True)
class OutputSpec:
    directory: Path = Path("out")  # the key "dir" in the file
    formats: tuple = ("csv",)

    def __post_init__(self):
        if not self.formats:
            raise ConfigError("output.formats", "must not be empty")
        for f in self.formats:
            if f not in VALID_FORMATS:
                raise ConfigError("output.formats", f"unknown format {f!r}; "
                                  f"valid: {VALID_FORMATS}")


@dataclass(frozen=True)
class RunConfig:
    surfaces: tuple
    numerics: Numerics
    output: OutputSpec
    sweep: Optional[SweepSpec] = None
    seed: int = 0

    def __post_init__(self):
        _integer("seed", self.seed, 0)
        if not self.surfaces and self.sweep is None:
            raise ConfigError("surfaces",
                              "at least one surface spec is required")
        labels = [s.label for s in self.surfaces]
        if len(set(labels)) != len(labels):
            raise ConfigError("surfaces", "surface labels must be unique")


def _names(record) -> tuple:
    return tuple(f.name for f in fields(record))


def _section(path: str, raw, keys: tuple) -> dict:
    """raw, checked to be an object whose keys are all in keys."""
    if not isinstance(raw, dict):
        raise ConfigError(path, "must be an object")
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{path}.{key}" if path else key,
                              "unknown field; valid: " + ", ".join(keys))
    return raw


def _record(cls, path: str, raw, checks: dict, extra: tuple = (),
            at: str = ""):
    """cls from the object raw: checks[name] (default _finite) reads each
    field it holds.  A field without a default is required.  A families
    record's ConstructionError is placed at path + at."""
    _section(path, raw, _names(cls) + extra)
    values = {}
    for f in fields(cls):
        if f.name in raw:
            check = checks.get(f.name, _finite)
            values[f.name] = check(f"{path}.{f.name}", raw[f.name])
        elif f.default is MISSING:
            raise ConfigError(f"{path}.{f.name}", "missing required field")
    try:
        return cls(**values)
    except ConstructionError as exc:
        raise ConfigError(path + at, str(exc)) from exc


def _surface(i: int, raw) -> SurfaceEntry:
    path = f"surfaces[{i}]"
    spec = _record(CapSpec, path, raw, {"kind": _kind, "n": _dimension},
                   extra=("label", "perturbation"))
    pert = None
    if "perturbation" in raw:
        pert = _record(PerturbationSpec, f"{path}.perturbation",
                       raw["perturbation"], {"support": _finite_list},
                       at=".support")
    try:
        return SurfaceEntry(raw.get("label", f"{spec.kind.value}-{i}"),
                            spec, pert)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc.path}", exc.message) from None


def _output(raw) -> OutputSpec:
    out = _section("output", raw, ("dir", "formats"))
    formats, out_dir = out.get("formats", ["csv"]), out.get("dir", "out")
    if not isinstance(formats, list):
        raise ConfigError("output.formats", f"must be a list, got {formats!r}")
    if not isinstance(out_dir, str):
        raise ConfigError("output.dir", f"must be a string, got {out_dir!r}")
    return OutputSpec(directory=Path(out_dir), formats=tuple(formats))


def parse_config(raw: dict) -> RunConfig:
    _section("", raw, ("schema_version",) + _names(RunConfig))
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version",
                          f"expected {SCHEMA_VERSION}, got {version!r}")
    raw_surfaces = raw.get("surfaces", [])
    if not isinstance(raw_surfaces, list):
        raise ConfigError("surfaces", "must be a list")
    num_raw = _section("numerics", raw.get("numerics", {}), _names(Numerics))
    sweep = raw.get("sweep")
    if sweep is not None:
        # SweepSpec checks n and that neither axis is empty
        sweep = _record(SweepSpec, "sweep", sweep, {
            "kind": _kind, "n": lambda path, n: n, "thetas": _finite_list,
            "radii": _finite_list})
    return RunConfig(
        surfaces=tuple(_surface(i, s) for i, s in enumerate(raw_surfaces)),
        numerics=Numerics(**num_raw), output=_output(raw.get("output", {})),
        sweep=sweep, seed=raw.get("seed", 0))


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
