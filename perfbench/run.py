"""horocap benchmark: time to verdict of the CLI commands on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload caps-identities --seed 1 \
        --seconds 20 --trace 0

Each workload is a horocap config drawn from ``--seed`` (see
``workloads.py``) and a fixed sequence of CLI commands.  The benchmark
imports the package from ``src/`` and drives the unmodified entry point
``horocap.cli.run`` in a closed loop: one process, one client, ``jobs=1``,
BLAS pinned to ``BLAS_THREADS`` threads.  After a small warm-up it repeats
the command sequence ("a pass") for about ``--seconds`` seconds, gates
every report (``gate.py``) and checks that each command's report bodies
are byte-identical across passes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (``tracer.py``), which also writes its spans and
a per-layer table under ``.perfbench_out/trace/``.  The last line of
standard output is one JSON object; the lines before it are a table for
people.  The exit status is 0 iff the correctness gate holds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

from gate import check_command  # noqa: E402
from tracer import PairTimer, Tracer, layer_metrics, pair_metrics  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "surfaces_per_s": "1/s",
                    "ok_ratio": "ratio", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "quadrature.rule_calls": "count", "quadrature.rule_s": "s",
    "halfspace.objects": "count", "surfaces.jet_points": "count",
    "surfaces.shape_calls": "count", "surfaces.shape_s": "s",
    "surfaces.integrate_s": "s", "surfaces.grid_frame_s": "s",
    "families.build_s": "s", "families.solve_s": "s",
    "families.solve_builds": "count", "identities.suite_s": "s",
    "identities.doubling_rule_calls": "count", "stability.grid_s": "s",
    "stability.assembly_s": "s", "stability.eigh_calls": "count",
    "stability.eigh_s": "s", "stability.modes_used": "count",
    "stability.variation_s": "s", "stability.deficit_s": "s",
    "cli.config_s": "s", "cli.report_s": "s", "cli.surface_p50_s": "s",
    "cli.surface_max_s": "s", "cmd.verify_s": "s", "cmd.deficit_s": "s",
    "cmd.spectrum_s": "s", "cmd.variation_check_s": "s", "cmd.sweep_s": "s",
    "accuracy.kernel_eig": "1", "trace.overhead_s": "s",
}

# a fresh interpreter, ready to run the first suite
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import horocap.cli
from horocap.config import load_config
load_config(sys.argv[2])
print(time.monotonic())
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def pin_blas_threads() -> None:
    """Fix BLAS threads for this process and its children (before numpy)."""
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the BLAS threads were set")
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)


def import_horocap():
    """The package from this checkout's src/, never an installed copy."""
    if not (SRC / "horocap" / "__init__.py").is_file():
        raise BenchError(f"no horocap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import horocap.cli
    if Path(horocap.cli.__file__).resolve().parents[1] != SRC.resolve():
        raise BenchError(f"imported horocap from {horocap.cli.__file__}")
    return horocap.cli


def high_percentile(values: list):
    """(p, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p * n / 100)
    return p, sorted(values)[rank - 1]


def measure_setup(config_path: Path) -> list:
    """Seconds from spawning a fresh interpreter to its parsed config."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


class Bench:
    """One workload in one process: passes, timings and the gate."""

    def __init__(self, cli, name: str, seed: int, run_dir: Path):
        self.cli = cli
        self.name = name
        self.seed = seed
        self.commands = WORKLOADS[name].commands
        raw, self.roles = make_config(name, seed)
        sweep = raw.get("sweep", {})
        self.sweep_size = (len(sweep.get("thetas", []))
                           * len(sweep.get("radii", [])))
        raw["output"] = {"dir": str(run_dir / "reports"), "formats": ["csv"]}
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(raw, indent=1))
        self.warm_path = run_dir / "warmup.json"
        self.warm_path.write_text(json.dumps(_warmup_config(raw)))
        self.run_dir = run_dir
        self.passes: list = []  # (traced, {command: seconds}) per pass
        self._pairs: dict = {}   # command -> pairs it gave a verdict for
        self._failed: dict = {}  # command -> labels of its failed pairs
        self.gate_errors: set = set()
        self.kernel_eigs: list = []
        self.known_defects: set = set()
        self._bodies: dict = {}

    def _run(self, config_path: Path, out: Path, command: str):
        from horocap.config import load_config
        cfg = load_config(config_path)
        cfg = replace(cfg, output=replace(cfg.output, directory=out))
        start = time.perf_counter()
        manifest = self.cli.run(cfg, command)
        return manifest, time.perf_counter() - start

    def warm_up(self) -> None:
        """Every command once on a one-surface config; outputs unchecked."""
        for command in self.commands:
            self._run(self.warm_path, self.run_dir / "warmup", command)

    def one_pass(self, tracer=None) -> None:
        out = self.run_dir / f"pass-{len(self.passes)}"
        times = {}
        for command in self.commands:
            if tracer is not None:
                tracer.trace = f"p{len(self.passes)}/{command}"
            manifest, times[command] = self._run(self.config_path, out,
                                                 command)
            self._check(command, manifest, out)
        shutil.rmtree(out, ignore_errors=True)
        self.passes.append((tracer is not None, times))

    def pass_times(self, traced: bool = False) -> list:
        return [sum(t.values()) for tr, t in self.passes if tr == traced]

    def cmd_times(self, traced: bool = False) -> dict:
        return {c: [t[c] for tr, t in self.passes if tr == traced]
                for c in self.commands}

    def _check(self, command: str, manifest, out: Path) -> None:
        """Gate one command's reports; count its pairs on the first pass.

        Every later pass must reproduce the first pass's reports byte for
        byte, so a pair has one outcome however many passes a run makes,
        and ``attempted``/``failed`` do not depend on the machine's speed.
        A report that changes fails all of that command's pairs.
        """
        stem = command.replace("-", "_")
        bodies = tuple(_read(out / f"{stem}{suffix}.csv")
                       for suffix in ("", "_errors"))
        if command in self._bodies:
            if bodies != self._bodies[command]:
                self.gate_errors.add(
                    f"{command}: report differs from the first pass")
                self._failed[command] = set(manifest.statuses)
            return
        self._bodies[command] = bodies
        sweeping = command == "sweep"
        verdict = check_command(command, manifest.statuses, *bodies,
                                {} if sweeping else self.roles)
        if verdict.pairs != (self.sweep_size if sweeping
                             else len(self.roles)):
            verdict.gate_errors.append(f"{command}: {verdict.pairs} verdicts")
        self._pairs[command] = verdict.pairs
        self._failed[command] = set(verdict.failed)
        self.gate_errors.update(verdict.gate_errors)
        self.kernel_eigs.extend(verdict.kernel_eigs)
        self.known_defects.update(verdict.known_defects)

    @property
    def attempted(self) -> int:
        """(surface x command) pairs of one pass."""
        return sum(self._pairs.values())

    @property
    def failed(self) -> int:
        return sum(len(labels) for labels in self._failed.values())

    @property
    def correct(self) -> bool:
        return not self.gate_errors


def repeat(seconds: float, min_rounds: int, one_round) -> None:
    """Call one_round until the next call would end after `seconds`."""
    start = time.perf_counter()
    durations: list = []
    while len(durations) < min_rounds or (
            time.perf_counter() - start + statistics.median(durations)
            <= seconds):
        t = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - t)


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


def _warmup_config(raw: dict) -> dict:
    warm = dict(raw, numerics={"quad_order": 16, "grid": 16},
                surfaces=raw["surfaces"][:1])
    if "sweep" in raw:
        warm["sweep"] = dict(raw["sweep"], thetas=raw["sweep"]["thetas"][:1],
                             radii=raw["sweep"]["radii"][:1])
    return warm


def _stats_line(name: str, values: list, unit: str) -> str:
    hi = high_percentile(values)
    tail = f"p{hi[0]} {hi[1]:.6g}" if hi else "p- (n<11)"
    return (f"  {name:28s} median {statistics.median(values):<12.6g} "
            f"{tail:16s} n={len(values):<4d} {unit}")


def report_table(bench: Bench, pairs: list) -> list:
    lines = [_stats_line(f"cmd.{c.replace('-', '_')}_s", t, "s")
             for c, t in bench.cmd_times().items()]
    for command in bench.commands:
        times = [s for c, _, s in pairs if c == command]
        if times:
            lines.append(_stats_line(f"  per surface ({command})", times,
                                     "s"))
    return lines


def end_to_end(bench: Bench, setups: list) -> dict:
    """The JSON metrics of an untraced run.

    ``pass_s`` is the mean pass, the measured time over the passes made.
    On a shared host the speed a process gets moves in phases of tens of
    seconds; the mean weighs each phase by its length, where the median
    of a few passes jumps to whichever phase holds most of them.
    """
    pass_s = statistics.fmean(bench.pass_times())
    return {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "surfaces_per_s": bench.attempted / pass_s,
        "ok_ratio": 1.0 - bench.failed / bench.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pin_blas_threads()
        cli = import_horocap()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    pairs = PairTimer()
    try:
        bench = Bench(cli, args.workload, args.seed, run_dir)
        lines = [f"workload {args.workload} seed {args.seed} trace "
                 f"{args.trace}: BLAS threads {BLAS_THREADS}, "
                 f"nproc {os.cpu_count()}"]
        measure = traced_run if args.trace else untraced_run
        metrics, units = measure(bench, pairs, args.seconds, lines)
    finally:
        pairs.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)

    lines.append(f"  passes {len(bench.passes)}, pairs per pass "
                 f"{bench.attempted}, "
                 f"failed {bench.failed} "
                 f"(fail_ratio {bench.failed / bench.attempted:.4g})")
    for name, value in metrics.items():
        lines.append(f"  {name:28s} {value:<14.6g} {units[name]}")
    lines += [f"  KNOWN DEFECT: {d}" for d in sorted(bench.known_defects)]
    lines += [f"  GATE: {e}" for e in sorted(bench.gate_errors)]
    print("\n".join(lines))
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if bench.correct else 1


def untraced_run(bench: Bench, pairs: PairTimer, seconds: float,
                 lines: list):
    """Set-up times, then untraced passes: the end-to-end metrics."""
    setups = measure_setup(bench.config_path)
    bench.warm_up()
    pairs.samples.clear()
    repeat(seconds, MIN_PASSES, bench.one_pass)
    lines.append(_stats_line("setup_s", setups, "s"))
    lines.append(_stats_line("pass_s", bench.pass_times(), "s"))
    lines += report_table(bench, pairs.samples)
    return end_to_end(bench, setups), END_TO_END_UNITS


def traced_run(bench: Bench, pairs: PairTimer, seconds: float,
               lines: list):
    """Untraced and traced passes in turn: the per-layer metrics."""
    bench.warm_up()
    tracer = Tracer()
    untraced_pairs: list = []

    def one_round():
        pairs.samples.clear()
        bench.one_pass()
        untraced_pairs.extend(pairs.samples)
        tracer.install()
        try:
            bench.one_pass(tracer)
        finally:
            tracer.uninstall()

    t0 = time.perf_counter()
    repeat(seconds, 1, one_round)
    untraced, traced = bench.pass_times(), bench.pass_times(traced=True)
    lines += report_table(bench, untraced_pairs)
    metrics = layer_metrics(tracer.spans, tracer.counts, len(traced))
    metrics.update(pair_metrics(untraced_pairs))
    cmd = {c: statistics.median(t) for c, t in bench.cmd_times().items()}
    for command in ("verify", "deficit", "spectrum", "variation-check",
                    "sweep"):
        metrics[f"cmd.{command.replace('-', '_')}_s"] = cmd.get(command, 0.0)
    metrics["accuracy.kernel_eig"] = max(bench.kernel_eigs, default=0.0)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))

    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    stem = trace_dir / f"{bench.name}-seed{bench.seed}"
    tracer.write_spans(stem.with_suffix(".spans.jsonl"), t0)
    table = [f"{name:32s} {value:.6g} {PER_LAYER_UNITS[name]}"
             for name, value in metrics.items()]
    stem.with_suffix(".layers.txt").write_text(
        f"# {bench.name} seed {bench.seed}: per traced pass, "
        f"{len(traced)} traced and {len(untraced)} untraced passes; "
        f"tracing overhead {metrics['trace.overhead_s']:.4g} s per pass\n"
        + "\n".join(table) + "\n")
    lines.append(f"  spans: {stem.with_suffix('.spans.jsonl')}")
    return metrics, PER_LAYER_UNITS


if __name__ == "__main__":
    sys.exit(main())
