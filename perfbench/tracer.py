"""Span and counter recording around calls into the horocap modules.

Everything here wraps the package from outside, in the benchmark's own
process: it rebinds module attributes (in every horocap module that
imported them) and class attributes, and undoes that on ``uninstall``.
Nothing under ``src/`` is changed.

A span is (id, parent id, trace id, name, start, end, self seconds); the
trace id names one (surface x command) pair, or the command alone for work
outside the per-surface suites.  Self time is the span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# timed spans: name -> module-level functions
FUNCTION_SPANS = {
    "cli.config": [("config", "load_config")],
    "cli.report": [("reports", "write_csv"), ("reports", "write_json")],
    "families.build": [("families", "build")],
    "families.perturb": [("families", "perturb")],
    "families.solve": [("families", "solve_for_angle")],
    "identities.suite": [("identities", "suite")],
    "quadrature.rule": [("quadrature", "gauss_legendre")],
    "surfaces.integrate": [("surfaces", "integrate_M"),
                           ("surfaces", "integrate_dM")],
    "stability.spectrum": [("stability", "constrained_spectrum")],
    "stability.variation": [("stability", "fd_variation_check"),
                            ("stability", "energy_second_difference")],
    "stability.deficit": [("stability", "umbilicity_deficit"),
                          ("stability", "boundary_cancellation")],
}

# timed spans: name -> methods (the profile-grid build is private, but it
# is the grid-geometry layer of the stability module)
METHOD_SPANS = {
    "surfaces.shape": [("surfaces", "ProfileSurface", "shape_at"),
                       ("surfaces", "GridSurface", "shape_at")],
    "surfaces.grid_frame": [("surfaces", "GridSurface", "boundary_frame_at")],
    "stability.grid": [("stability", "_ProfileGrid", "__init__")],
}


def _module(short: str):
    return importlib.import_module(f"horocap.{short}")


class PairTimer:
    """Wall time of every (surface x command) pair.

    Wraps the entries of the CLI's suite table.  It costs one
    ``perf_counter`` pair per surface, so it also stays on in untraced runs.
    """

    def __init__(self):
        self.samples: list = []  # (command, label, seconds)
        self._cli = _module("cli")
        self._saved = dict(self._cli._SUITES)
        for command, (fn, header) in self._saved.items():
            self._cli._SUITES[command] = (self._timed(command, fn), header)

    def _timed(self, command, fn):
        @functools.wraps(fn)
        def timed(entry, config):
            start = time.perf_counter()
            try:
                return fn(entry, config)
            finally:
                self.samples.append(
                    (command, entry.label, time.perf_counter() - start))
        return timed

    def uninstall(self) -> None:
        self._cli._SUITES.update(self._saved)


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.trace = ""  # trace id given to spans that end now
        self._stack: list = []  # [span id, name, child seconds]
        self._next_id = 0
        self._undo: list = []
        self._doubled: dict = {}  # id -> QuadratureSpec made by refined()

    # -- recording ------------------------------------------------------
    def call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent[2] += end - start
            self.spans.append((frame[0], parent and parent[0], self.trace,
                               name, start, end, end - start - frame[2]))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def counted(self, key, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counting

    # -- patching -------------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Replace a function in every horocap module that holds it."""
        for name, mod in list(sys.modules.items()):
            if name == "horocap" or name.startswith("horocap."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, replacement)

    def install(self) -> None:
        for name, targets in FUNCTION_SPANS.items():
            for mod, attr in targets:
                original = getattr(_module(mod), attr)
                self._rebind(original, self.wrap(name, original))
        for name, targets in METHOD_SPANS.items():
            for mod, cls, attr in targets:
                owner = getattr(_module(mod), cls)
                self._set(owner, attr, self.wrap(name, vars(owner)[attr]))
        self._install_cli()
        self._install_counters()

    def _install_cli(self) -> None:
        cli = _module("cli")
        self._set(cli, "run", self.wrap("cli.run", cli.run))
        suites = cli._SUITES
        self._undo.append((suites, None, dict(suites)))
        for command, (fn, header) in list(suites.items()):
            suites[command] = (self._pair_span(fn), header)

    def _pair_span(self, fn):
        traced = self.wrap("cli.suite", fn)

        @functools.wraps(fn)
        def suite(entry, config):
            outer = self.trace
            self.trace = f"{outer}/{entry.label}"
            try:
                return traced(entry, config)
            finally:
                self.trace = outer
        return suite

    def _install_counters(self) -> None:
        halfspace = _module("halfspace")
        for cls in (halfspace.HPoint, halfspace.HVector):
            self._set(cls, "__post_init__", self.counted(
                "halfspace.objects", vars(cls)["__post_init__"]))

        surfaces = _module("surfaces")
        init = vars(surfaces.ProfileSurface)["__init__"]

        def profile_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            obj.profile_jet = self.counted("surfaces.jet_points",
                                           obj.profile_jet)
        self._set(surfaces.ProfileSurface, "__init__", profile_init)

        spec = _module("quadrature").QuadratureSpec
        refined, rule = vars(spec)["refined"], vars(spec)["rule"]

        def counting_refined(q):
            doubled = refined(q)
            self._doubled[id(doubled)] = doubled  # keeps the id unique
            return doubled

        def counting_rule(q, lo, hi):
            if id(q) in self._doubled:
                self.counts["identities.doubling_rule_calls"] += 1
            return rule(q, lo, hi)
        self._set(spec, "refined", counting_refined)
        self._set(spec, "rule", counting_rule)

        stability = _module("stability")
        spectrum = stability.constrained_spectrum  # already a span

        def counting_spectrum(*args, **kwargs):
            result = spectrum(*args, **kwargs)
            self.counts["stability.modes_used"] += result.modes_used
            return result
        self._rebind(spectrum, counting_spectrum)

        # eigensolves of the spectrum only; the per-node eigh in the shape
        # data of box charts stays inside its shape span
        linalg = stability.scipy.linalg
        eigh = linalg.eigh
        traced_eigh = self.wrap("stability.eigh", eigh)

        def spectrum_eigh(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1][1] == "stability.spectrum":
                return traced_eigh(*args, **kwargs)
            return eigh(*args, **kwargs)
        self._set(linalg, "eigh", spectrum_eigh)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if attr is None:
                owner.update(value)
            else:
                setattr(owner, attr, value)
        self._doubled.clear()

    # -- output ---------------------------------------------------------
    def write_spans(self, path, t0: float) -> None:
        """One JSON object per line, times in seconds from t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, trace, name, start, end, _ in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "trace": trace, "name": name,
                                     "start": start - t0,
                                     "end": end - t0}) + "\n")


def layer_metrics(spans: list, counts: Counter, passes: int) -> dict:
    """Per-layer metrics per traced pass, from the recorded spans."""
    total = defaultdict(float)    # inclusive seconds by name
    own = defaultdict(float)      # self seconds by name
    calls = Counter()
    names = {}
    for sid, _, _, name, *_ in spans:
        names[sid] = name
    spectrum_children = 0.0
    solve_builds = 0
    build_in_solve = 0.0
    for sid, parent, _, name, start, end, self_s in spans:
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
        pname = names.get(parent)
        if pname == "stability.spectrum" and name in ("stability.grid",
                                                      "stability.eigh"):
            spectrum_children += end - start
        if name == "families.build" and pname == "families.solve":
            solve_builds += 1
            build_in_solve += end - start
    per = 1.0 / passes
    return {
        "quadrature.rule_calls": calls["quadrature.rule"] * per,
        "quadrature.rule_s": total["quadrature.rule"] * per,
        "halfspace.objects": counts["halfspace.objects"] * per,
        "surfaces.jet_points": counts["surfaces.jet_points"] * per,
        "surfaces.shape_calls": calls["surfaces.shape"] * per,
        "surfaces.shape_s": own["surfaces.shape"] * per,
        "surfaces.integrate_s": own["surfaces.integrate"] * per,
        "surfaces.grid_frame_s": total["surfaces.grid_frame"] * per,
        "families.build_s": (total["families.build"] - build_in_solve
                             + total["families.perturb"]) * per,
        "families.solve_s": total["families.solve"] * per,
        "families.solve_builds": solve_builds * per,
        "identities.suite_s": own["identities.suite"] * per,
        "identities.doubling_rule_calls":
            counts["identities.doubling_rule_calls"] * per,
        "stability.grid_s": total["stability.grid"] * per,
        "stability.assembly_s": (total["stability.spectrum"]
                                 - spectrum_children) * per,
        "stability.eigh_calls": calls["stability.eigh"] * per,
        "stability.eigh_s": total["stability.eigh"] * per,
        "stability.modes_used": counts["stability.modes_used"] * per,
        "stability.variation_s": total["stability.variation"] * per,
        "stability.deficit_s": total["stability.deficit"] * per,
        "cli.config_s": total["cli.config"] * per,
        "cli.report_s": total["cli.report"] * per,
    }


def pair_metrics(samples: list) -> dict:
    """Median and worst (surface x command) latency."""
    times = [s for _, _, s in samples]
    return {"cli.surface_p50_s": statistics.median(times),
            "cli.surface_max_s": max(times)}
