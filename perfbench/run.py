#!/usr/bin/env python3
"""Benchmark for the isograph package, driven through its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  Every CLI invocation is a
fresh `python3 -m isograph ...` process on the checkout's `src/`, the
same code path as the installed `isograph` entry point.  Passes run
back to back (a closed loop with one client) until the next pass would
end after `--seconds`; every output is checked against `reference.json`.

Workloads (adjacency and certificates do not depend on the seed; the
seed only changes which random points the torsion search draws):

- reciprocity: `isograph reciprocity 13 37 5` then `13 61 5`.  Heavy on
  construction at high torsion degree (F_{13^72}); subgroup pushes take
  most of the time; no spectral, Cheeger or cache work.  (37, 61, 7) is
  left out: one pass takes about two minutes.
- grid-cold: `isograph verify --grid "p in {13,37,61}, l in {3,5},
  N in {1,2,3,6}"` (18 graphs, one worker) on an empty cache: class
  tables, torsion and Velu arrows, spectra, exact Cheeger, the edge
  oracle, coverings and 18 cache writes; pushes are a few percent.
- grid-warm: the same command on a cache that untimed cold passes
  filled during set-up: cache loads replace first construction, so only
  the checks and the covering rebuilds remain.

Determinism is checked along the way: every cold pass of a run writes
the same bytes, a warm pass prints the cold pass's manifest and leaves
the cache untouched, and every seed must reproduce the adjacency and
edge digests that `reference.json` recorded with seed 0.

Host-speed correction: on a shared host each virtual CPU runs up to 1.6
times slower while a neighbour loads its physical core, in spells of a
few seconds, so raw medians of one run differ by a quarter from run to
run.  While a child runs, a probe thread of the benchmark times a fixed
pure-Python calibration unit (`cal_unit`) every PROBE_PERIOD_S on the
CPU where the child last ran, in thread CPU time, and the child's wall
and CPU time are scaled by CAL_UNIT_S over the mean reading: every time
reported below is in seconds at the host speed where one unit takes
CAL_UNIT_S.  The probe takes about 2 % of the child's CPU.  Raw times and
the readings are printed in the detail line.

With `--trace 0` the last stdout line reports the end-to-end metrics:
wall_s and cpu_s (children's user + system) per pass, peak_rss_mb (the
largest child max-RSS in a pass), each the median over passes, and
setup_s (median of interpreter start + `import isograph.cli`, plus the
median cold fill on grid-warm), all times corrected as above.  With
`--trace 1` each pass is paired with a traced pass (see tracer.py) and
the last line reports per-layer self times (raw, as the traced child
measured them), calls and ratios, the `Field.mul_t` microbenchmark and
the tracing overhead (corrected traced minus corrected untraced wall).
The line before it holds the quartiles, sample counts, fail_frac, raw
times, calibration readings and the host record (commit, versions, CPUs,
load).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from oracle import graph_key, grid_failures, load_reference, reciprocity_fails
from tracer import ROOTS, SPANS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
GRID = "p in {13,37,61}, l in {3,5}, N in {1,2,3,6}"
TRIPLES = ((13, 37, 5), (13, 61, 5))
WORKLOADS = ("reciprocity", "grid-cold", "grid-warm")
SETUP_REPS = 9
WARM_FILLS = 2  # cold fills before grid-warm; the second must match the first
RUN_LIMIT_S = 170.0  # children still running at this point are killed
PROBE_PERIOD_S = 0.1
CAL_UNIT_S = 0.002  # one calibration unit on an unloaded 2-vCPU Xeon VM, Python 3.11

# every non-root span of tracer.py, reported as <name>_s (self time) and <name>_calls
LAYER_SPANS = tuple(dict.fromkeys(n for n in SPANS.values() if n not in ROOTS))
MUL_DEGREES = (2, 4, 8, 12, 24, 72)  # every F_{p^d} the workloads use
COUNTS = (
    "supersingular.distinct_p",
    "curves.random_point_calls",
    "enhanced.builders",
    "cli.bytes_read",
    "cli.bytes_written",
)


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    speed: float  # CAL_UNIT_S / mean calibration unit time while the child ran


@dataclass
class Pass:
    children: list[Child] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    traces: list[dict] = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Raw seconds."""
        return sum(c.wall for c in self.children)

    @property
    def wall_norm(self) -> float:
        return sum(c.wall * c.speed for c in self.children)

    @property
    def cpu(self) -> float:
        """Raw seconds."""
        return sum(c.cpu for c in self.children)

    @property
    def cpu_norm(self) -> float:
        return sum(c.cpu * c.speed for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


class Bench:
    def __init__(self, workload: str, seed: int, tol: float, reference: dict):
        self.workload = workload
        self.seed = seed
        self.tol = tol
        self.reference = reference
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        # bytecode lives in the work directory, so that a start-up does not
        # compile the package every time, whatever the caller's settings
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.dirs = 0
        self.cold_files: dict[str, bytes] | None = None
        self.cold_manifest = None
        self.warm_dir: Path | None = None
        self.cal_s: list[float] = []  # every probe reading of the run

    # -- child processes

    def run_child(self, args: list[str]) -> Child:
        """Run `python3 ARGS` to completion; wall time, CPU and max-RSS of
        that one process come from wait4, the host speed from probe_speed."""
        with open(WORK / "stdout", "w+b") as out, open(WORK / "stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=WORK
            )
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            stop, readings = threading.Event(), []
            probe = threading.Thread(target=probe_speed, args=(proc.pid, stop, readings))
            probe.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                stop.set()
                probe.join()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
            if proc.returncode not in (0, 3):
                err.seek(0)
                sys.stderr.write(err.read().decode(errors="replace")[-2000:])
        self.cal_s += readings
        speed = CAL_UNIT_S / statistics.fmean(readings)
        return Child(
            proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, stdout, speed
        )

    def cli(self, argv: list[str], trace: Pass | None) -> Child:
        """One CLI invocation; with `trace`, through tracer.py, whose span
        summary is appended to trace.traces."""
        if trace is None:
            return self.run_child(["-m", "isograph", *argv])
        out = WORK / f"trace{len(trace.traces)}.json"
        out.unlink(missing_ok=True)
        child = self.run_child([str(BENCH / "tracer.py"), str(out), "--", *argv])
        try:
            with open(out) as fh:
                trace.traces.append(json.load(fh))
        except (OSError, ValueError):  # killed before it wrote; the oracle fails it
            trace.traces.append({"self_s": {}, "calls": {}, "counts": {}, "mul_calls": {}, "spans": []})
        return child

    # -- passes

    def reciprocity_pass(self, traced: bool) -> Pass:
        result = Pass()
        for triple in TRIPLES:
            child = self.cli(reciprocity_argv(triple, self.seed), result if traced else None)
            result.children.append(child)
            result.attempted += 1
            result.failed += reciprocity_fails(
                triple, child.code, _parse(child.stdout), self.reference, self.tol
            )
        return result

    def fresh_dir(self) -> Path:
        self.dirs += 1
        path = WORK / "caches" / str(self.dirs)
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def grid_pass(self, cache_dir: Path, traced: bool) -> tuple[Pass, dict, object]:
        result = Pass()
        child = self.cli(grid_argv(self.seed, cache_dir), result if traced else None)
        result.children.append(child)
        manifest = _parse(child.stdout)
        keys = list(self.reference["grid"]["graphs"])
        files = {}
        try:
            files, parsed = read_cache(cache_dir)
            failed = grid_failures(
                child.code, manifest, parsed, self.seed, self.reference, self.tol
            )
        except (KeyError, TypeError, AttributeError, ValueError):  # malformed output
            failed = keys
        result.attempted = len(keys)
        result.failed = len(failed)
        return result, files, manifest

    def cold_pass(self, traced: bool) -> Pass:
        """A pass on an empty cache; the files it writes must equal, byte
        for byte, those of the run's first cold pass."""
        cache_dir = self.fresh_dir()
        result, files, manifest = self.grid_pass(cache_dir, traced)
        if self.cold_files is None:
            self.cold_files, self.cold_manifest, self.warm_dir = files, manifest, cache_dir
        elif files != self.cold_files:
            result.failed = result.attempted
        return result

    def warm_pass(self, traced: bool) -> Pass:
        """A pass on the filled cache: same manifest as the cold fill, and
        the cache files stay untouched."""
        result, files, manifest = self.grid_pass(self.warm_dir, traced)
        if files != self.cold_files or manifest != self.cold_manifest:
            result.failed = result.attempted
        return result

    def one_pass(self, traced: bool) -> Pass:
        if self.workload == "reciprocity":
            return self.reciprocity_pass(traced)
        if self.workload == "grid-cold":
            return self.cold_pass(traced)
        return self.warm_pass(traced)

    # -- set-up and the measured loop

    def setup(self) -> tuple[float, list[Pass]]:
        shutil.rmtree(WORK / "caches", ignore_errors=True)
        times = []
        for _ in range(SETUP_REPS):
            child = self.run_child(["-c", "import isograph.cli"])
            if child.code != 0:
                raise SystemExit("error: `import isograph.cli` failed")
            times.append(child.wall * child.speed)
        setup_s = statistics.median(times)
        fills = []
        if self.workload == "grid-warm":
            fills = [self.cold_pass(traced=False) for _ in range(WARM_FILLS)]
            setup_s += statistics.median(f.wall_norm for f in fills)
        return setup_s, fills

    def measure(self, seconds: float, trace: bool) -> tuple[list[Pass], list[Pass]]:
        """Untraced passes back to back, each followed by a traced pass when
        `trace` is set, until one more would end after `seconds`."""
        plain, traced = [], []
        start = time.monotonic()
        while True:
            plain.append(self.one_pass(traced=False))
            if trace:
                traced.append(self.one_pass(traced=True))
            now = time.monotonic()
            per_pass = (now - start) / len(plain)
            if now - start + per_pass > seconds or now + per_pass > self.deadline - 5:
                return plain, traced

    def mul_bench(self) -> dict:
        out = WORK / "mul_bench.json"
        child = self.run_child([str(BENCH / "tracer.py"), str(out), "--mul-bench"])
        if child.code != 0:
            raise SystemExit("error: Field.mul_t microbenchmark failed")
        with open(out) as fh:
            return json.load(fh)


def cal_unit() -> int:
    """The calibration loop: schoolbook products of two degree-23
    polynomials mod 61, the kind of interpreter work F_{p^d} arithmetic
    does, written here so that no change to the program can move it."""
    a, b, acc = list(range(3, 27)), list(range(5, 29)), 0
    for _ in range(40):
        r = [0] * 47
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                r[i + j] = (r[i + j] + x * y) % 61
        acc += r[5]
        a[0] = (a[0] + 1) % 61
    return acc


def probe_speed(pid: int, stop: threading.Event, readings: list[float]) -> None:
    """Until `stop` is set, time one calibration unit every PROBE_PERIOD_S,
    the first at once, on the CPU where process `pid` last ran: the slow
    spells strike one virtual CPU at a time.  Thread CPU time leaves out
    the waits for that CPU."""
    cpus = os.sched_getaffinity(0)
    while True:
        try:
            with open(f"/proc/{pid}/stat") as fh:  # field 39, "processor"
                cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        except (OSError, IndexError, ValueError):  # no procfs: any CPU
            cpu = None
        if cpu in cpus:
            os.sched_setaffinity(0, {cpu})  # this thread only
        t0 = time.thread_time()
        cal_unit()
        readings.append(time.thread_time() - t0)
        if stop.wait(PROBE_PERIOD_S):
            return


def grid_argv(seed: int, cache_dir: Path) -> list[str]:
    return ["verify", "--grid", GRID, "--seed", str(seed),
            "--cache-dir", str(cache_dir), "--workers", "1"]


def reciprocity_argv(triple: tuple[int, int, int], seed: int) -> list[str]:
    return ["reciprocity", *map(str, triple), "--seed", str(seed)]


def read_cache(cache_dir: Path) -> tuple[dict[str, bytes], dict[str, dict]]:
    """Bytes and parsed content of each cached graph file, by graph key."""
    files, parsed = {}, {}
    for path in cache_dir.glob("*.json"):
        data = path.read_bytes()
        gfile = json.loads(data)
        md = gfile["metadata"]
        key = graph_key(md["p"], md["l"], md["level"])
        files[key], parsed[key] = data, gfile
    return files, parsed


def _parse(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def merge_traces(traces: list[dict]) -> dict:
    """Sum the span summaries of the children of one traced pass."""
    total = {"self_s": {}, "calls": {}, "counts": {}, "mul_calls": {}, "spans": 0}
    for t in traces:
        for part in ("self_s", "calls", "counts", "mul_calls"):
            for k, v in t[part].items():
                total[part][k] = total[part].get(k, 0) + v
        total["spans"] += len(t["spans"])
    return total


def layer_metrics(t: dict) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    self_s, calls, counts, mul = t["self_s"], t["calls"], t["counts"], t["mul_calls"]
    out = {"fields.mul_calls": sum(mul.values())}
    for d in MUL_DEGREES:
        out[f"fields.mul_calls.d{d}"] = mul.get(str(d), 0)
    for name in LAYER_SPANS:
        out[f"{name}_s"] = self_s.get(name, 0.0)
        out[f"{name}_calls"] = calls.get(name, 0)
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    push_calls = calls.get("enhanced.push", 0)
    out["enhanced.push_memo_ratio"] = (
        counts.get("enhanced.push_distinct", 0) / push_calls if push_calls else 0.0
    )
    samples = counts.get("curves.random_point_calls", 0)
    out["curves.sample_yield"] = (
        2 * calls.get("curves.torsion_basis", 0) / samples if samples else 0.0
    )
    out["trace.spans"] = t["spans"]
    return out


def host_record() -> dict:
    src = ROOT / "src" / "isograph"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _unit(name: str) -> str:
    if name.startswith("fields.mul_us."):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.startswith("cli.bytes_"):
        return "bytes"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tol", type=float, default=1e-9, help="tolerance for float outputs")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "isograph" / "cli.py").is_file():
        print(f"error: no isograph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = host_record()
    record["loadavg_start"] = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed, args.tol, load_reference())
    setup_s, fills = bench.setup()
    plain, traced = bench.measure(args.seconds, bool(args.trace))
    passes = fills + plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    wall = summarize([p.wall_norm for p in plain])
    raw_wall = summarize([p.wall for p in plain])
    detail = {
        "wall_s": wall,
        "cpu_s": summarize([p.cpu_norm for p in plain]),
        "peak_rss_mb": summarize([p.rss_mb for p in plain]),
        "setup_s": {"value": setup_s, "unit": "s"},
        "fail_frac": {"value": failed / attempted, "unit": "fraction"},
        "raw_wall_s": raw_wall,
        "raw_cpu_s": summarize([p.cpu for p in plain]),
        "cal_unit_s": summarize(bench.cal_s),
    }
    if args.trace:
        per_pass = [layer_metrics(merge_traces(p.traces)) for p in traced]
        traced_wall = summarize([p.wall_norm for p in traced])
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        for d, us in bench.mul_bench().items():
            metrics[f"fields.mul_us.d{d}"] = us
        metrics["trace.wall_s"] = traced_wall["median"]
        metrics["trace.overhead_s"] = traced_wall["median"] - wall["median"]
        units = {k: _unit(k) for k in metrics}
        detail["trace.wall_s"] = traced_wall
    else:
        metrics = {
            "wall_s": wall["median"],
            "cpu_s": detail["cpu_s"]["median"],
            "peak_rss_mb": detail["peak_rss_mb"]["median"],
            "setup_s": setup_s,
        }
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    record["loadavg_end"] = os.getloadavg()
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "host": record, "detail": detail}
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
