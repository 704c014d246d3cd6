"""g24verify benchmark: fresh-process CLI invocations, checked and timed.

Usage:
    python3 perfbench/run.py --workload certify|reject|export --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
``src/g24verify`` package beside this directory, run with PYTHONPATH=src.

Closed loop, one client: one child process at a time, the next started only
after the previous one has exited, until the next would overrun --seconds.
Each child is ``bench_child.py``, which times its import of ``g24verify.cli``
(set-up) and then calls ``g24verify.cli.main`` as the console script does.
Every invocation's exit code and output are checked; one that does not match
counts as failed.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: medians
over the invocations of spawn-to-exit wall time, child CPU time (wait4
rusage), import CPU time and peak RSS.

--trace 1 alternates untraced and traced children.  In a traced child every
public function of the package's modules is wrapped (see bench_trace.py);
the per-layer metrics are medians over the traced children of self times,
call counts and the report's stage table, plus static line counts of
``src/``.  Traced children run with ``-X importtime``, which splits their
import time into numpy's share and the rest.  The span list of the first
traced child is written out.

A human-readable summary (metrics with units, machine, seed, commit) goes to
stdout, then a last line of JSON: correct, attempted, failed and metrics.
The full result is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import bench_checks
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "g24verify"
CHILD = HERE / "bench_child.py"
OUT_DIR = HERE / "out"

CHILD_TIMEOUT_S = 60.0  # one invocation; `check` takes about 3 s
VERTEX_PAIRS = 416 * 415 // 2
# Functions whose every call scans all n(n-1)/2 vertex pairs.
PAIR_SCANNERS = (
    "graph.build_graph",
    "graph.intersection_size_distribution",
    "graph.verify_srg",
    "graph.verify_srg_identity",
)


class Workload(NamedTuple):
    """One workload; its reason and the layers it stresses are in BENCHMARK.json."""

    argv: Callable[[random.Random, Path], list[str]]  # (seeded rng, output path)
    check: Callable[[int, str, bytes | None], str]  # (exit code, stdout, output bytes)
    output: str | None = None  # file name of the output, in the run's tmp dir


def flip_edge_argv(rng: random.Random, out: Path) -> list[str]:
    """The pair is drawn from the seed; the program receives only the pair.
    Flipping any pair changes two degrees, so every pair must be refused."""
    i, j = rng.sample(range(416), 2)
    return ["check", "--inject-flip-edge", f"{i},{j}"]


WORKLOADS = {
    # `g24verify check` with the defaults: the product as users run it.
    "certify": Workload(
        lambda rng, out: ["check"],
        lambda code, stdout, data: bench_checks.check_certify(code, stdout),
    ),
    # `check --inject-flip-edge I,J`: the verifier must refuse the graph.
    "reject": Workload(
        flip_edge_argv,
        lambda code, stdout, data: bench_checks.check_reject(code, stdout),
    ),
    # `export-vectors --out FILE`: the pipeline plus the 348 KB vector write.
    "export": Workload(
        lambda rng, out: ["export-vectors", "--out", str(out)],
        lambda code, stdout, data: bench_checks.check_export(code, data),
        "vectors.csv",
    ),
}


@dataclass
class Invocation:
    argv: list[str]
    traced: bool
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    record: dict | None
    error: str = ""
    out_bytes: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.error)


@dataclass
class Run:
    workload: Workload
    tmp: Path
    rng: random.Random
    invocations: list[Invocation] = field(default_factory=list)

    @property
    def output(self) -> Path | None:
        return self.tmp / self.workload.output if self.workload.output else None

    def invoke(self, argv: list[str], traced: bool) -> Invocation:
        record_path = self.tmp / "record.json"
        stdout_path = self.tmp / "stdout.txt"
        stderr_path = self.tmp / "stderr.txt"
        out = self.output
        for p in (record_path, out):
            if p is not None:
                p.unlink(missing_ok=True)
        cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(CHILD),
               str(record_path), str(int(traced)), *argv]
        env = child_env()
        with open(stdout_path, "wb") as fout, open(stderr_path, "wb") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, env=env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped by wait4
        stdout = stdout_path.read_text(errors="replace")
        record = json.loads(record_path.read_text()) if record_path.exists() else None
        if record is not None and traced:
            numpy_s = numpy_import_s(stderr_path.read_text(errors="replace"))
            record["setup_numpy_s"] = numpy_s if record["numpy_imported"] else 0.0
            record["setup_g24verify_s"] = record["setup_wall_s"] - record["setup_numpy_s"]
        data = out.read_bytes() if out is not None and out.exists() else None
        error = self.workload.check(code, stdout, data)
        if wall >= CHILD_TIMEOUT_S:
            error = f"timed out after {CHILD_TIMEOUT_S:.0f} s"
        elif record is None and not error:
            error = "child wrote no timing record"
        inv = Invocation(
            argv=argv,
            traced=traced,
            code=code,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            record=record,
            error=error,
            out_bytes=len(data) if data is not None else 0,
        )
        self.invocations.append(inv)
        return inv

    def loop(self, seconds: float, traced_pattern: tuple[bool, ...]) -> None:
        """Closed loop: repeat `traced_pattern` until another round would overrun."""
        start = time.perf_counter()
        rounds: list[float] = []
        while True:
            t0 = time.perf_counter()
            for traced in traced_pattern:
                self.invoke(self.workload.argv(self.rng, self.output), traced)
            now = time.perf_counter()
            rounds.append(now - t0)
            if now - start + statistics.median(rounds) > seconds:
                return


def child_env() -> dict:
    """The package from src/, with its bytecode cached as an installed package
    has it: under perfbench/out/, even where the caller turns writing it off."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(OUT_DIR / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def warm_up(tmp: Path) -> bool:
    """One unmeasured `g24verify --version`, which writes the bytecode cache."""
    cmd = [sys.executable, str(CHILD), str(tmp / "record.json"), "0", "--version"]
    done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return done.returncode == 0


def numpy_import_s(stderr: str) -> float:
    """Cumulative wall time of the ``numpy`` import in ``-X importtime`` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            _self_us, cumulative_us, name = line[len("import time:"):].split("|")
            if name.strip() == "numpy":
                return int(cumulative_us) / 1e6
    return 0.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it (nearest rank)."""
    n = len(values)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)
    return pct, sorted(values)[rank - 1]


# --- end-to-end metrics ------------------------------------------------------

def end_to_end(invs: list[Invocation]) -> dict[str, float]:
    return {
        "wall_s": median(i.wall_s for i in invs),
        "cpu_s": median(i.cpu_s for i in invs),
        "setup_s": median(i.record["setup_s"] for i in invs if i.record),
        "peak_rss_mb": median(i.peak_rss_mb for i in invs),
    }


# --- per-layer metrics -------------------------------------------------------

def source_lines() -> dict[str, int]:
    lines = {
        f"src.{p.stem}.lines": p.read_bytes().count(b"\n")
        for p in sorted(PACKAGE.glob("*.py"))
    }
    lines["src.lines"] = sum(lines.values())
    return lines


def stage_value(record: dict, stage: str, key: str | None = None):
    """A stage's seconds (no `key`) or one of its detail counters.

    None means absent: the child kept no report, or a report that reached its
    verdict has no such stage, or the stage ran and has no such detail key.
    A skipped stage, or one not reached because the run stopped at a failure,
    counts 0.
    """
    stages = record.get("stages")
    if stages is None:
        return None
    for s in stages:
        if s["name"] == stage:
            if key is None:
                return s["elapsed_s"]
            return 0 if s["status"] == "skipped" else s["detail"].get(key)
    return None if record.get("overall") == "pass" else 0


class LayerView:
    """Per-layer values, each a median over the traced children."""

    def __init__(self, invs: list[Invocation]):
        untraced = [i for i in invs if not i.traced and i.record]
        self.traced = [i for i in invs if i.traced and i.record and "spans" in i.record]
        self.aggs = [bench_trace.aggregate(i.record["spans"]) for i in self.traced]
        self.known = {name for i in self.traced for name in i.record["traced"]}
        self.absent: list[str] = []
        self.lines = source_lines()
        self.counters = {
            "cliques.search_nodes": self._stage(
                "cliques.search_nodes", "max-clique", "search_nodes"),
            "cliques.edges_scanned": self._stage(
                "cliques.edges_scanned", "max-clique", "edges_scanned"),
            "cliques.cover_nodes": self._stage(
                "cliques.cover_nodes", "special-cover", "search_nodes"),
            "euclid.rank_mod_prime.rows": self._func("euclid.rank_mod_prime", "rows"),
            "graph.pair_scans": median(
                VERTEX_PAIRS * sum(a.get(f, {}).get("calls", 0) for f in PAIR_SCANNERS)
                for a in self.aggs
            ),
            "pipeline.bytes_written": median(i.out_bytes for i in self.traced),
            "setup.numpy_s": median(i.record["setup_numpy_s"] for i in self.traced),
            "setup.g24verify_s": median(
                i.record["setup_g24verify_s"] for i in self.traced),
            "trace.overhead_s": median(i.record["main_s"] for i in self.traced)
            - median(i.record["main_s"] for i in untraced),
            "trace.coverage": median(
                bench_trace.coverage(i.record["spans"], bench_trace.ROOT_SPAN) or 0.0
                for i in self.traced
            ),
        }

    def _func(self, func: str, key: str) -> float:
        if func not in self.known:
            self.absent.append(func)
        return median(a.get(func, {}).get(key, 0) for a in self.aggs)

    def _stage(self, metric: str, stage: str, key: str | None = None) -> float:
        values = [stage_value(i.record, stage, key) for i in self.traced]
        if None in values:
            self.absent.append(metric)
        return median(v or 0 for v in values)

    def value(self, name: str) -> float:
        if name in self.counters:
            return self.counters[name]
        if name == "src.lines" or re.fullmatch(r"src\..+\.lines", name):
            if name not in self.lines:
                self.absent.append(name)
            return self.lines.get(name, 0)
        m = re.fullmatch(r"pipeline\.stage\.(.+)_s", name)
        if m:
            return self._stage(name, m.group(1))
        m = re.fullmatch(r"(\w+\.\w+)\.(self_s|total_s|calls)", name)
        if m:
            return self._func(m.group(1), m.group(2))
        raise KeyError(f"no rule computes per-layer metric {name!r}")


# --- machine and provenance --------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def machine(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "seed": seed,
        "commit": git_commit(),
    }


# --- main --------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"perfbench: no g24verify sources at {PACKAGE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name, workload = args.workload, WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        if not warm_up(tmp):
            print("perfbench: g24verify --version failed", file=sys.stderr)
            return 2
        run = Run(workload, tmp, random.Random(args.seed))
        run.loop(args.seconds, (False, True) if args.trace else (False,))
        invs = run.invocations
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        view = LayerView(invs)
        defs = spec["per_layer"]
        metrics = {d["name"]: view.value(d["name"]) for d in defs}
    else:
        defs = spec["end_to_end"]
        values = end_to_end(invs)
        metrics = {d["name"]: values[d["name"]] for d in defs}

    failed = [i for i in invs if i.failed]
    info = machine(args.seed)
    result = {
        "correct": not failed,
        "attempted": len(invs),
        "failed": len(failed),
        "metrics": {
            d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in defs
        },
    }
    print(f"perfbench workload={name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("  why: " + next(w["why"] for w in spec["workloads"] if w["name"] == name))
    print("  machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"  failed_frac {len(failed) / len(invs):.4f} frac ({len(failed)}/{len(invs)})")
    for inv in failed[:5]:
        print(f"    failed: {' '.join(inv.argv)}: {inv.error}")
    for d in defs:
        print(f"  {d['name']:<44} {metrics[d['name']]:>14.6g} {d['unit']}")
    if not args.trace:
        print("  setup_s is the CPU time of the child's import of g24verify.cli")
        for metric in ("wall_s", "cpu_s"):
            vals = [getattr(i, metric) for i in invs]
            t = tail(vals)
            print(f"  {metric}: n={len(vals)} median={median(vals):.4f} "
                  + (f"p{t[0]}={t[1]:.4f}" if t else "(too few samples for a tail "
                     f"percentile) max={max(vals):.4f}"))
    else:
        print("  graph.pair_scans is computed: scanner calls x n(n-1)/2")
        if view.absent:
            print(f"  absent (no such function, stage, detail key or source file): "
                  f"{sorted(set(view.absent))}")

    detail = {
        "workload": name,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": info,
        "result": result,
        "invocations": [
            {"argv": i.argv, "traced": i.traced, "code": i.code, "wall_s": i.wall_s,
             "cpu_s": i.cpu_s, "peak_rss_mb": i.peak_rss_mb, "error": i.error,
             "setup_s": i.record and i.record.get("setup_s"),
             "setup_wall_s": i.record and i.record.get("setup_wall_s"),
             "main_s": i.record and i.record.get("main_s")}
            for i in invs
        ],
    }
    if args.trace:
        detail["traced_functions"] = sorted(view.known)
        detail["excluded_functions"] = sorted(bench_trace.EXCLUDED)
        detail["absent"] = sorted(set(view.absent))
        detail["functions"] = view.aggs
        detail["spans"] = view.traced[0].record["spans"] if view.traced else []
    out = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
