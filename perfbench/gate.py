"""Correctness gate over the CSV reports of one horocap command.

A (surface x command) pair fails when the CLI's own exit rule fails it
(status FAIL or ERROR) or when its rows break the gate:

* an umbilical cap (role ``cap``) must PASS every row;
* the declared non-CMC control (role ``control``) may be EXPECTED_FAIL
  only where the CLI declares it -- the CMC-bound identity in ``verify``,
  the eigenvalue sign in ``spectrum`` and the second variation in
  ``variation-check`` -- and it must be caught by ``verify``, which
  means its CMC-bound identity is EXPECTED_FAIL;
* every surface has a verdict with the expected number of rows;
* open charts (role ``open``) have no status rule: their FAIL/ERROR rows
  are the program's known defects and are counted, not masked.

One more known defect is counted but does not break the gate: a
``variation-check`` first-variation row that FAILs only because its
reference value nearly vanishes.  The CLI grades |fd - formula| / |formula|
against 1e-6, so when the seeded test field makes the formula value tiny
(e.g. 2e-4), an absolute error at the finite-difference floor (3e-9)
fails; about one drawn (cap, field) pair in 150 does.  The row must still
agree to 1e-6 in absolute terms.

The caller adds the last rule: a command's report bodies are
byte-identical between repeats of the same workload.  Any broken rule
makes the whole run incorrect.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from workloads import CAP, CONTROL

BAD_STATUSES = ("FAIL", "ERROR")
FIRST_VARIATION_TOL = 1e-6  # the CLI's gate, applied here as absolute

# rows each surface gets in each report
ROWS_PER_SURFACE = {"verify": 5, "spectrum": 1, "variation-check": 5,
                    "deficit": 1, "sweep": 1}


@dataclass
class CommandVerdict:
    """Outcome of one command over all surfaces of a workload."""

    pairs: int = 0
    failed: list = field(default_factory=list)     # labels of failed pairs
    gate_errors: list = field(default_factory=list)  # why the gate broke
    kernel_eigs: list = field(default_factory=list)  # per non-control cap
    known_defects: list = field(default_factory=list)  # counted, not gated


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text))) if text else []


def _control_row_ok(command: str, row: dict) -> bool:
    status = row["status"]
    if status == "PASS":
        # the negative control has to fail its CMC-bound identity
        return not (command == "verify" and row["requires_cmc"] == "true")
    if status != "EXPECTED_FAIL":
        return False
    if command == "verify":
        return row["requires_cmc"] == "true" and row["cmc_ok"] == "false"
    if command == "variation-check":
        return row["functional"] == "ENERGY_SECOND"
    return command == "spectrum"


def _near_zero_reference(command: str, row: dict) -> bool:
    """First-variation row failing only on relative error against ~0."""
    return (command == "variation-check" and row["status"] == "FAIL"
            and row["functional"] != "ENERGY_SECOND"
            and abs(float(row["fd_value"]) - float(row["formula_value"]))
            < FIRST_VARIATION_TOL)


def _kernel_eig(command: str, row: dict) -> float | None:
    """Smallest |eigenvalue| in a spectrum or sweep row."""
    if command == "spectrum":
        return min(abs(float(v)) for v in row["eigenvalues"].split(";"))
    if command == "sweep":
        return abs(float(row["lowest_eigenvalue"]))
    return None


def check_command(command: str, statuses: dict, report: str, errors: str,
                  roles: dict) -> CommandVerdict:
    """Gate one command's reports.

    statuses is the CLI manifest's label -> status map; report and errors
    are the bodies of ``<command>.csv`` and ``<command>_errors.csv`` (empty
    when absent); roles maps the labels that need a verdict to
    cap/control/open, and labels it lacks (sweep members) are caps.
    """
    verdict = CommandVerdict(pairs=len(statuses))
    by_label: dict = {}
    for row in _rows(report):
        by_label.setdefault(row["label"], []).append(row)
    errored = {row["label"] for row in _rows(errors)}
    unknown = (set(by_label) | errored) - set(statuses)
    if unknown:
        verdict.gate_errors.append(f"{command}: rows for unconfigured "
                                   f"surfaces {sorted(unknown)}")
    for label in roles:
        if label not in statuses:
            verdict.gate_errors.append(f"{command}: no verdict for {label}")
    for label, status in sorted(statuses.items()):
        role = roles.get(label, CAP)
        rows = by_label.get(label, [])
        expected = ROWS_PER_SURFACE[command]
        broken = []
        if status == "ERROR":
            if label not in errored:
                broken.append("ERROR without an error row")
        elif len(rows) != expected:
            broken.append(f"{len(rows)} rows, expected {expected}")
        known = [r for r in rows if _near_zero_reference(command, r)]
        gated = [r for r in rows if r not in known]
        verdict.known_defects.extend(
            f"{command}/{label}/{r['functional']}: relative error "
            f"{float(r['rel_error']):.2g} against a near-zero first variation"
            for r in known)
        if role == CAP and ((status != "PASS" and not known) or any(
                r["status"] != "PASS" for r in gated)):
            broken.append(f"umbilical cap reported {status}")
        elif role == CONTROL and ((status in BAD_STATUSES and not known)
                                  or not all(_control_row_ok(command, r)
                                             for r in gated)):
            broken.append("control status not declared by the CLI")
        verdict.gate_errors.extend(f"{command}/{label}: {why}"
                                   for why in broken)
        if broken or status in BAD_STATUSES:
            verdict.failed.append(label)
        if role == CAP and rows:
            eig = _kernel_eig(command, rows[0])
            if eig is not None:
                verdict.kernel_eigs.append(eig)
    return verdict
