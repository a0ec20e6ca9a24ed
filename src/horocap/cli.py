"""Batch front end: named verification suites over configured surfaces.

Subcommands: verify (integral identities), spectrum (constrained
eigenvalues), variation-check (exact s-derivatives against the variation
formulas), deficit (umbilicity deficit functional), sweep (angle x radius
family grid).  Each run writes one CSV and/or JSON report per suite plus a
manifest.  ``reports.grade`` decides every PASS, FAIL and EXPECTED_FAIL;
a surface whose suite raises is an ERROR row.  The exit status is 0 iff no
surface reports FAIL or ERROR (EXPECTED_FAIL is allowed: it marks declared
negative controls and artificial cuts; see ``reports.STATUSES``).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import traceback
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, SurfaceEntry, load_config
from .families import build, perturb, solve_for_angle
from .identities import suite as identity_suite
from .quadrature import QuadratureSpec
from .reports import (RunManifest, config_hash, grade, worst, write_csv,
                      write_json)
from .stability import (DEGREE, FIELD_RULE, GALERKIN_ORDER, ZERO_MODE_TOL,
                        ScalarField, boundary_cancellation,
                        constrained_spectrum, energy_second_difference,
                        fd_variation_check, umbilicity_deficit)
from .surfaces import GridSurface, evaluate, integrate_M

__all__ = ["main", "run"]

COMMANDS = ("verify", "spectrum", "variation-check", "deficit", "sweep")

FIRST_VARIATION_TOL = 1e-6
SECOND_VARIATION_TOL = 1e-3
DEFICIT_ZERO_TOL = 1e-8
DEFICIT_CONTROL_TOL = 1e-6

# label -> the surface, or its build error, of the run in progress: the
# suites take (entry, config) only, the signature perfbench's timers wrap
_built: dict = {}


def _build_surface(entry):
    """The entry's surface, built by ``run``; a build error is raised
    here, in the entry's own suite."""
    if isinstance(S := _built[entry.label], Exception):
        raise S
    return S


def _build_all(entries: list, cfg: RunConfig, command: str) -> None:
    """Build every surface once (solve every sweep member) into
    ``_built``, then evaluate each family on the rules the command
    integrates on, the first of which checks a control's immersion."""
    _built.clear()
    Q = QuadratureSpec(cfg.numerics.quad_order)
    doubled = [Q, Q.refined()]
    modes, field = (QuadratureSpec(max(Q.order, least))
                    for least in (GALERKIN_ORDER, FIELD_RULE.order))
    rules = {"verify": doubled, "deficit": [Q], "spectrum": [Q, modes],
             "variation-check": [field], "sweep": doubled + [modes]}[command]
    for entry in entries:
        try:
            if command == "sweep":
                S = solve_for_angle(cfg.sweep.kind, entry.theta,
                                    n=cfg.sweep.n, r=entry.r)
            else:
                S = build(entry.spec)
                if entry.perturbation is not None:
                    S = perturb(S, entry.perturbation, rules[0])
        except Exception as exc:  # raised again in the entry's suite
            S = exc
        _built[entry.label] = S
    built = [S for S in _built.values() if not isinstance(S, Exception)]
    if command in ("spectrum", "variation-check"):  # rotation orbits only
        built = [S for S in built if not isinstance(S, GridSurface)]
    evaluate(built, rules)


def _spec_columns(entry: SurfaceEntry) -> list:
    s = entry.spec
    return [entry.label, s.kind.value, s.n, s.a, s.r, s.beta, s.extent,
            entry.is_control]


SPEC_HEADER = ["label", "kind", "n", "a", "r", "beta", "extent", "perturbed"]


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def _suite_verify(entry: SurfaceEntry, cfg: RunConfig):
    Q = QuadratureSpec(cfg.numerics.quad_order)
    S = _build_surface(entry)
    reports = identity_suite(S, Q)
    rows = [_spec_columns(entry) + [
        rep.identity_id, rep.lhs, rep.rhs, rep.abs_residual, rep.rel_residual,
        rep.requires_cmc, rep.cmc_ok, rep.tolerance, rep.quad_order,
        rep.status] for rep in reports]
    return rows, worst(*(rep.status for rep in reports))


VERIFY_HEADER = SPEC_HEADER + [
    "identity", "lhs", "rhs", "abs_residual", "rel_residual",
    "requires_cmc", "cmc_ok", "tolerance", "quad_order", "status"]


def _suite_spectrum(entry: SurfaceEntry, cfg: RunConfig):
    num = cfg.numerics
    Q = QuadratureSpec(num.quad_order)
    S = _build_surface(entry)
    res = constrained_spectrum(S, num.constraint, num.eig_count, Q=Q)
    lowest = float(res.eigenvalues[0])
    # a declared non-CMC control may legitimately be unstable
    status = grade(lowest >= -num.stability_tol, entry.is_control)
    theta = S.boundary_frame_at().theta
    row = _spec_columns(entry) + [
        theta, res.constraint, DEGREE, lowest, res.morse_index,
        res.zero_modes, res.modes_used,
        ";".join("%.16e" % v for v in res.eigenvalues), status,
    ]
    return [row], status


SPECTRUM_HEADER = SPEC_HEADER + [
    "theta", "constraint", "degree", "lowest_eigenvalue", "morse_index",
    "zero_modes", "modes_used", "eigenvalues", "status"]


def _variation_field(S, seed: int) -> ScalarField:
    """Seeded smooth axisymmetric test field, a cosine series in t/t1
    (flat at the pole), with its closed-form derivative."""
    k = math.pi * np.arange(4) / S.t1
    c = 0.2 * np.random.default_rng(seed).standard_normal(4)
    return ScalarField(S, lambda t: np.cos(np.multiply.outer(t, k)) @ c,
                       lambda t: -np.sin(np.multiply.outer(t, k)) @ (k * c))


def _suite_variation(entry: SurfaceEntry, cfg: RunConfig):
    num = cfg.numerics
    Q = QuadratureSpec(max(num.quad_order, FIELD_RULE.order))
    S = _build_surface(entry)
    phi = _variation_field(S, cfg.seed)
    # the second difference of the volume Lagrangian needs a mean-zero field
    mean = phi.integral_M(Q) / integrate_M(S, 1.0, Q)
    phi0 = ScalarField(S, lambda t: phi.f(t) - mean, phi.df)
    checks = [*fd_variation_check(S, phi, Q=Q).values(),
              energy_second_difference(S, phi0, Q=Q)]
    rows = []
    for chk in checks:
        second = chk.functional == "ENERGY_SECOND"
        # a first variation whose summands cancel is graded against the
        # largest of them, not against their near-zero sum
        scale = max(abs(chk.formula_value), *map(abs, chk.terms), 1e-12)
        rel = abs(chk.fd_value - chk.formula_value) / scale
        tol = SECOND_VARIATION_TOL if second else FIRST_VARIATION_TOL
        # the identity needs a critical point; non-CMC controls are not one
        st = grade(rel < tol, second and entry.is_control)
        rows.append(_spec_columns(entry) + [
            chk.functional, chk.fd_value, chk.formula_value, rel, st])
    return rows, worst(*(row[-1] for row in rows))


VARIATION_HEADER = SPEC_HEADER + [
    "functional", "fd_value", "formula_value", "rel_error", "status"]


def _suite_deficit(entry: SurfaceEntry, cfg: RunConfig):
    Q = QuadratureSpec(cfg.numerics.quad_order)
    S = _build_surface(entry)
    D = umbilicity_deficit(S, Q)
    bc = boundary_cancellation(S)
    if entry.is_control:
        status = grade(D > DEFICIT_CONTROL_TOL)
    else:
        # on an open chart the boundary integral misses the artificial cut
        zero = abs(D) < DEFICIT_ZERO_TOL
        status = grade(zero and abs(bc) < DEFICIT_ZERO_TOL,
                       zero and S.artificial_cut)
    row = _spec_columns(entry) + [D, bc, status]
    return [row], status


DEFICIT_HEADER = SPEC_HEADER + ["deficit", "boundary_cancellation", "status"]


def _suite_sweep(entry, cfg: RunConfig):
    """One sweep member, solved for (kind, n, r) and theta by ``run``: an
    infeasible member is an ERROR row, not a failed run."""
    num, sw = cfg.numerics, cfg.sweep
    Q = QuadratureSpec(num.quad_order)
    S = _build_surface(entry)
    theta = S.boundary_frame_at().theta
    reports = identity_suite(S, Q)
    max_res = max(rep.rel_residual for rep in reports)
    # the row prints the lowest value and the counts of values <= the
    # zero-mode tolerance: the scan stops above it
    res = constrained_spectrum(S, num.constraint, num.eig_count,
                               upto=ZERO_MODE_TOL, Q=Q)
    lowest = float(res.eigenvalues[0])
    status = worst(grade(lowest >= -num.stability_tol),
                   *(rep.status for rep in reports))
    row = [entry.label, sw.kind.value, sw.n, theta, entry.r, S.a,
           max_res, lowest, res.morse_index, res.zero_modes, status]
    return [row], status


SWEEP_HEADER = ["label", "kind", "n", "theta", "r", "a",
                "max_identity_rel_residual", "lowest_eigenvalue",
                "morse_index", "zero_modes", "status"]


_SUITES = {
    "verify": (_suite_verify, VERIFY_HEADER),
    "spectrum": (_suite_spectrum, SPECTRUM_HEADER),
    "variation-check": (_suite_variation, VARIATION_HEADER),
    "deficit": (_suite_deficit, DEFICIT_HEADER),
    "sweep": (_suite_sweep, SWEEP_HEADER),
}


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------

def run(config: RunConfig, command: str) -> RunManifest:
    """Execute one suite over all configured surfaces and persist reports."""
    if command not in _SUITES:
        raise ValueError(f"unknown command {command!r}")
    suite_fn, header = _SUITES[command]
    if command == "sweep" and config.sweep is None:
        raise ConfigError("sweep", "the sweep command needs a 'sweep' section")
    entries = (config.sweep.members() if command == "sweep"
               else list(config.surfaces))
    if not entries:
        raise ConfigError("surfaces", "no surfaces to process")

    manifest = RunManifest(config_hash=config_hash(config),
                           tool_version=__version__)
    t0 = time.perf_counter()

    _build_all(entries, config, command)
    rows, errors = [], []
    for entry in entries:
        try:
            entry_rows, status = suite_fn(entry, config)
        except Exception as exc:  # numeric failure: record, keep running
            status = "ERROR"
            errors.append([entry.label, status, f"{type(exc).__name__}: {exc}"])
            manifest.tracebacks[entry.label] = traceback.format_exc()
        else:
            rows.extend(entry_rows)
        manifest.statuses[entry.label] = status
    _built.clear()
    manifest.wall_time_s = time.perf_counter() - t0

    out_dir = config.output.directory
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = command.replace("-", "_")
    # a previous run's report of this command, which this run may not write
    for suffix in (".csv", "_errors.csv", ".json"):
        (out_dir / f"{stem}{suffix}").unlink(missing_ok=True)
    if "csv" in config.output.formats:
        write_csv(out_dir / f"{stem}.csv", header, rows)
        if errors:
            write_csv(out_dir / f"{stem}_errors.csv",
                      ["label", "status", "message"], errors)
    if "json" in config.output.formats:
        write_json(out_dir / f"{stem}.json", {
            "command": command,
            "header": header,
            "rows": rows,
            "errors": errors,
        })
    write_json(out_dir / "manifest.json", asdict(manifest))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="horocap",
        description="Batch verification of capillary-hypersurface identities, "
                    "stability spectra and variation formulas.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--format", action="append", dest="formats",
                        choices=["csv", "json"],
                        help="output format (repeatable; overrides config)")
    parser.add_argument("--quad", type=int, help="quadrature order override")
    parser.add_argument("--seed", type=int, help="seed for random test fields")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        num = cfg.numerics
        # replace() re-runs the Numerics and RunConfig checks on overrides
        if args.quad is not None:
            num = replace(num, quad_order=args.quad)
        out = cfg.output
        if args.out is not None:
            out = replace(out, directory=Path(args.out))
        if args.formats:
            out = replace(out, formats=tuple(dict.fromkeys(args.formats)))
        cfg = replace(cfg, numerics=num, output=out,
                      seed=args.seed if args.seed is not None else cfg.seed)
        manifest = run(cfg, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for label, status in sorted(manifest.statuses.items()):
        print(f"{status:14s} {label}")
    print(f"wall time: {manifest.wall_time_s:.2f}s; "
          f"reports in {cfg.output.directory}")
    return 0 if manifest.ok else 1


if __name__ == "__main__":
    sys.exit(main())
