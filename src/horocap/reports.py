"""Report persistence: deterministic CSV/JSON writers, the status rule and
the run manifest.

Floats serialize with 17 significant digits in scientific notation,
locale-independent, so identical runs produce byte-identical CSV bodies.
A cell that holds a comma, a quote or a line break is quoted.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path

__all__ = [
    "fmt_float",
    "format_cell",
    "write_csv",
    "write_json",
    "STATUSES",
    "worst",
    "grade",
    "RunManifest",
    "config_hash",
]


def fmt_float(x: float) -> str:
    """17-significant-digit scientific notation (round-trip exact)."""
    return "%.16e" % float(x)


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_cell(v) for v in row] for row in rows)


def _jsonable(value):
    if isinstance(value, float):
        return float(fmt_float(value))
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return _jsonable(value.tolist())
    return value


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def config_hash(config) -> str:
    """SHA-256 of the canonical JSON of a configuration (its records as
    ``asdict`` would give them); enums and paths are written with ``str``."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"),
                      default=lambda v: vars(v) if is_dataclass(v) else str(v))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# every status, from best to worst, and whether it makes a run fail
STATUSES = {"PASS": False, "EXPECTED_FAIL": False, "FAIL": True,
            "ERROR": True}


def worst(*statuses: str) -> str:
    """The worst of the given statuses in the order of ``STATUSES``."""
    return max(statuses, key=list(STATUSES).index)


def grade(ok: bool, expected: bool = False) -> str:
    """The status of one check: PASS if it holds, else EXPECTED_FAIL where
    its failure is declared (a control, an artificial cut), else FAIL."""
    return "PASS" if ok else "EXPECTED_FAIL" if expected else "FAIL"


@dataclass
class RunManifest:
    """One status per configured surface plus run provenance."""

    config_hash: str
    tool_version: str
    statuses: dict = field(default_factory=dict)  # label -> status string
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not any(STATUSES[s] for s in self.statuses.values())

