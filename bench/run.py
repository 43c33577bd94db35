"""Benchmark of the walkbound CLI: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/``.  Each workload iteration runs its CLI commands as fresh
child processes, one at a time, with BLAS pinned to one thread.  Iterations
repeat until ``--seconds`` would be exceeded (at least ``MIN_ITERATIONS``).

``--trace 0`` reports the end-to-end metrics: medians over iterations of wall
time, child CPU time, child peak RSS and set-up time (process wall time minus
the report's own ``wall_time_s``).  ``--trace 1`` alternates untraced and
traced iterations (see ``layertrace.py``), adds one allocation-tracking pass,
and reports the per-layer metrics.  ``--workload all`` runs every workload.

Every CLI process must exit 0 with ``all_hold`` true and a report that
validates against the package's run-report schema; every report, with
``wall_time_s`` removed, must equal the iteration's first byte for byte.  A
miss fails the iteration.  A results file with the samples and the machine
description is written to ``bench/results/``; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layertrace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SCHEMA = SRC / "walkbound" / "schemas" / "run_report.schema.json"

MIN_ITERATIONS = 3
RUN_LIMIT_S = 170.0         # every child is killed once the run is this old
BLAS_THREADS = "1"

# (name, unit, better) of every end-to-end metric
END_TO_END_METRICS = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# Calling the console entry point exactly as the installed ``walkbound`` script does.
CLI = ("-c", "import sys; from walkbound.cli import main; sys.exit(main())")


@dataclass(frozen=True)
class Workload:
    """CLI argument templates run in order as one iteration.  ``{seed}`` is the
    benchmark seed; ``{beta}`` is the ``results.spectral.beta`` of the previous
    step's report."""

    name: str
    steps: tuple

    def argv(self, step: int, seed: int, prev_report) -> list:
        beta = repr(prev_report["results"]["spectral"]["beta"]) if prev_report else ""
        return [arg.format(seed=seed, beta=beta) for arg in self.steps[step]]


WORKLOADS = {
    w.name: w
    for w in (
        # expander alone: dense 4096^2 transition matrices, eigvalsh, power iteration
        Workload("spectral", (("spectral", "--m", "6"),)),
        # walk-space enumeration, reverse packing and exact success profiles (21 bits)
        Workload(
            "amplify-exact",
            (("amplify", "--construction", "walk", "--m", "3", "--t", "5", "--seed", "{seed}"),),
        ),
        # per-query oracle path: 2 x 20k Monte Carlo trials; enumeration is tiny.
        # Not in BENCHMARK.json: on a shared 2-vCPU VM its pure-Python time
        # drifted by up to 2x over minutes, beyond the largest bound allowed.
        Workload(
            "amplify-mc",
            (("amplify", "--construction", "walk", "--m", "2", "--t", "3", "--mode", "mc",
              "--trials", "20000", "--seed", "{seed}"),),
        ),
        # a measured beta fed into the tail bound: walk routes on many 64-dim
        # vectors, then prob; an operator change that helps one route shows here
        Workload(
            "beta-to-bound",
            (("verify-beta", "--m", "3", "--t", "4", "--mode", "sampled", "--trials", "100000",
              "--agree", "1000", "--seed", "{seed}"),
             ("bound", "--preset", "sweep", "--count", "2000", "--t", "4", "--psi", "6",
              "--variant", "percoord", "--beta", "{beta}", "--seed", "{seed}")),
        ),
    )
}


class CheckoutError(Exception):
    """The directory the benchmark runs in cannot run the program."""


@dataclass
class Process:
    """One finished CLI child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float = 0.0
    error: str = ""
    reports: list = field(default_factory=list)   # report bytes without wall_time_s
    traces: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.error


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_process(argv: list, deadline: float) -> Process:
    """Run one child to completion and take its own CPU time and peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        collected = {}
        readers = [threading.Thread(target=lambda s=s: collected.__setitem__(s, s.read()))
                   for s in (proc.stdout, proc.stderr)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Process(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   proc.returncode, collected[proc.stdout], collected[proc.stderr])


_WALL_LINE = re.compile(rb'\n *"wall_time_s": [^\n]*')


class Checker:
    """The output check applied to every CLI process."""

    def __init__(self):
        import jsonschema

        schema = json.loads(SCHEMA.read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    def check(self, proc: Process) -> tuple:
        """(report, report bytes without wall_time_s, error text or '')."""
        if proc.code != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return None, b"", f"exit code {proc.code}: {' '.join(tail)}"
        try:
            report = json.loads(proc.stdout)
        except ValueError as exc:
            return None, b"", f"report is not JSON: {exc}"
        errors = sorted(e.message for e in self.validator.iter_errors(report))
        if errors:
            return None, b"", f"report fails the schema: {errors[0]}"
        if report["all_hold"] is not True:
            failed = [c["name"] for c in report["checks"] if not c["holds"]]
            return None, b"", f"checks failed: {failed}"
        return report, _WALL_LINE.sub(b"", proc.stdout), ""


def run_iteration(workload: Workload, seed: int, checker: Checker, deadline: float,
                  trace_stem: str = "", alloc: bool = False) -> Iteration:
    """Run the workload's steps once, untraced unless ``trace_stem`` names the
    trace files to write (``<stem>.<step>.json``)."""
    it = Iteration()
    prev = None
    for step in range(len(workload.steps)):
        cli_args = workload.argv(step, seed, prev)
        if trace_stem:
            trace_path = RESULTS / f"{trace_stem}.{step}.json"
            cmd = [sys.executable, str(BENCH / "layertrace.py"), str(trace_path),
                   *(["--alloc"] if alloc else []), "--", *cli_args]
        else:
            cmd = [sys.executable, *CLI, *cli_args]
        proc = run_process(cmd, deadline)
        it.wall_s += proc.wall_s
        it.cpu_s += proc.cpu_s
        it.peak_rss_mb = max(it.peak_rss_mb, proc.peak_rss_mb)
        report, stable, error = checker.check(proc)
        if error:
            it.error = f"{' '.join(cli_args)}: {error}"
            return it
        it.setup_s += proc.wall_s - report["wall_time_s"]
        it.reports.append(stable)
        if trace_stem:
            it.traces.append(json.loads(trace_path.read_text()))
        prev = report
    return it


def quartiles(values: list) -> dict:
    """Median, quartiles and samples in the order they were taken."""
    out = {"n": len(values), "median": statistics.median(values), "values": values}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    if len(values) >= 20:
        # the highest percentile with at least ten samples beyond it
        out[f"p{100 * (len(values) - 10) // len(values)}"] = sorted(values)[-11]
    return out


class Run:
    """Iterations of one workload, with the shared output checks."""

    def __init__(self, workload: Workload, seed: int, seconds: float, checker: Checker):
        self.workload, self.seed, self.checker = workload, seed, checker
        self.started = time.perf_counter()
        self.stop = self.started + seconds
        self.deadline = self.started + RUN_LIMIT_S
        self.iterations: list = []
        self.reference = None

    def add(self, it: Iteration) -> Iteration:
        if it.ok:
            if self.reference is None:
                self.reference = it.reports
            elif it.reports != self.reference:
                it.error = "report differs from the first run of this seed (wall_time_s aside)"
        self.iterations.append(it)
        return it

    def time_left_for(self, iteration_s: float) -> bool:
        return time.perf_counter() + iteration_s <= self.stop

    @property
    def failed(self) -> int:
        return sum(1 for it in self.iterations if not it.ok)

    def samples(self, key: str, source=None) -> list:
        return [getattr(it, key) for it in (self.iterations if source is None else source)
                if it.ok]


def measure(run: Run) -> dict:
    """End-to-end metrics: untraced iterations until time is up."""
    while len(run.iterations) < MIN_ITERATIONS or run.time_left_for(
            statistics.median(it.wall_s for it in run.iterations)):
        run.add(run_iteration(run.workload, run.seed, run.checker, run.deadline))
        if time.perf_counter() > run.deadline:
            break
    return {name: quartiles(run.samples(name)) for name, _, _ in END_TO_END_METRICS
            if run.samples(name)}


def measure_traced(run: Run) -> dict:
    """Per-layer metrics: one allocation-tracking iteration, then
    untraced/traced iteration pairs until time is up."""
    stem = f"{run.workload.name}-seed{run.seed}"
    alloc = run.add(run_iteration(run.workload, run.seed, run.checker, run.deadline,
                                  trace_stem=f"{stem}-alloc", alloc=True))
    plain, traced = [], []
    while not traced or run.time_left_for(plain[-1].wall_s + traced[-1].wall_s):
        plain.append(run.add(run_iteration(run.workload, run.seed, run.checker, run.deadline)))
        traced.append(run.add(run_iteration(run.workload, run.seed, run.checker, run.deadline,
                                            trace_stem=f"{stem}-trace{len(traced)}")))
        if time.perf_counter() > run.deadline:
            break
    per_run = [layertrace.summarize(it.traces, alloc.traces) for it in traced if it.ok]
    if not per_run or not alloc.ok or not run.samples("wall_s", plain):
        return {}
    counts = [{k: v for k, v in m.items() if _unit(k) in ("count", "bytes", "ratio")}
              for m in per_run]
    if any(c != counts[0] for c in counts):
        traced[-1].error = "per-layer counts differ between traced runs of one seed"
        return {}
    out = {name: quartiles([m[name] for m in per_run]) for name in per_run[0]}
    overhead = (statistics.median(run.samples("wall_s", traced))
                - statistics.median(run.samples("wall_s", plain)))
    out["trace_overhead_s"] = quartiles([overhead])
    return out


def _unit(name: str) -> str:
    return next(u for n, u, _ in END_TO_END_METRICS + layertrace.PER_LAYER_METRICS if n == name)


def machine_info() -> dict:
    """The machine and software the numbers were taken on."""
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        raise CheckoutError(f"cannot import walkbound from {SRC}: {probe.stderr.strip()}")
    info = json.loads(probe.stdout)
    if not Path(info.pop("walkbound_file")).resolve().is_relative_to(SRC):
        raise CheckoutError(f"walkbound was not imported from {SRC}")
    info.update(
        nproc=len(os.sched_getaffinity(0)),
        mem_total_kb=_proc_field("/proc/meminfo", "MemTotal"),
        cpu_model=_proc_field("/proc/cpuinfo", "model name"),
        python=platform.python_version(),
        platform=platform.platform(),
        git_commit=_git_commit(),
        src_sha256=_tree_digest(SRC),
    )
    return info


_PROBE = r"""
import ctypes, json, numpy, walkbound.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for line in open("/proc/self/maps"):
    path = line.split()[-1]
    if "openblas" in path and threads is None:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = getattr(lib, sym)()
                break
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads,
                  "walkbound_file": walkbound.cli.__file__}))
"""


def _proc_field(path: str, key: str):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


def _tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bench_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                   checker: Checker, machine: dict) -> dict:
    """One benchmark run of one workload; writes its results file and returns
    the contract summary."""
    RESULTS.mkdir(exist_ok=True)
    run = Run(workload, seed, seconds, checker)
    stats = measure_traced(run) if trace else measure(run)
    names = [n for n, _, _ in (layertrace.PER_LAYER_METRICS if trace else END_TO_END_METRICS)]
    failed = run.failed
    if any(name not in stats for name in names):
        failed = max(failed, 1)
    summary = {
        "correct": failed == 0,
        "attempted": len(run.iterations),
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": _unit(name)}
                    for name in names if name in stats},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "steps": workload.steps,
        "seconds": seconds,
        "trace": trace,
        "machine": machine,
        "fail_ratio": failed / max(len(run.iterations), 1),
        "errors": [it.error for it in run.iterations if not it.ok],
        "stats": stats,
        "summary": summary,
        "elapsed_s": time.perf_counter() - run.started,
    }
    if trace:
        self_s = {layer: stats[f"{layer}.self_s"]["median"]
                  for layer in ("cli",) + layertrace.LAYERS if f"{layer}.self_s" in stats}
        total = sum(self_s.values())
        record["self_time_share"] = {k: v / total for k, v in self_s.items()} if total else {}
    out = RESULTS / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name in names:
        if name in stats:
            s = stats[name]
            spread = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}" if "q1" in s else ""
            print(f"{workload.name:14s} {name:36s} {s['median']:14.6g} {_unit(name):6s}"
                  f" median of {s['n']}{spread}")
    for error in record["errors"]:
        print(f"{workload.name:14s} FAILED {error}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if not (SRC / "walkbound" / "cli.py").is_file():
            raise CheckoutError(f"no walkbound sources under {SRC}")
        checker = Checker()
        machine = machine_info()
    except (CheckoutError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    machine["bench_argv"] = sys.argv
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {n: bench_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace),
                                   checker, machine) for n in names}
    if len(summaries) == 1:
        result = summaries[names[0]]
    else:
        result = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{k}": v for w, s in summaries.items() for k, v in s["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
