#!/usr/bin/env python3
"""Benchmark of the twobridge package: the scan, catalog and certify workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload catalog --seed 1 --seconds 0 --trace 0 --smoke

``--trace 0`` repeats the workload untraced for ``--seconds`` and reports
the end-to-end metrics (medians over the repetitions), with every time
scaled to the reference speed (see ``reference_loop``).  ``--trace 1``
alternates an untraced serial repetition with a traced one and reports
the per-layer metrics from the traced repetitions.  The package is
imported from ``src/`` next to this directory, never from elsewhere.
The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
SETUP_PROBES = 7

# The reference loop's wall time on a 2-vCPU Xeon (Python 3.11) when that
# host is not contended: the unit of the machine speed.
REFERENCE_LOOP_N = 2_000
REFERENCE_LOOP_S = 0.0090
REFERENCE_LOOP_RESULT = (1795, 40)
# Least time between two speed probes inside a repetition.
PROBE_INTERVAL_S = 0.2


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("scan", "catalog", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def use_checkout_sources() -> None:
    src = ROOT / "src"
    if not (src / "twobridge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no twobridge sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def reference_loop(n: int = REFERENCE_LOOP_N) -> tuple[int, int]:
    """Fixed pure-Python work, independent of the package.

    It grows a dict of tuples, sorts its keys now and then and folds them
    into a set: allocation, hashing and comparison, which slow down under
    a busy neighbour about as much as the package's own code does.
    """
    state, table, heads = 12345, {}, []
    for i in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = (state % 50021, i % 97)
        table[key] = table.get(key, ()) + (i,)
        if i % 50 == 0:
            heads.append(sorted(table)[:5])
    residues = {(k[0] * len(v)) % 10007 for k, v in table.items()}
    return len(residues), len(heads)


def machine_speed() -> float:
    """This machine's speed now, relative to the reference speed (1.0 = uncontended).

    A shared host runs the same code up to twice as slow, in spells of a
    second to minutes.  Times measured next to this probe are multiplied
    by it, so that they describe the program and not the neighbours.
    """
    collecting = gc.isenabled()
    gc.disable()  # a collection would scan the workload's heap, not the loop's
    try:
        t0 = time.perf_counter()
        result = reference_loop()
        elapsed = time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
    if result != REFERENCE_LOOP_RESULT:
        raise RuntimeError(f"reference loop returned {result}, expected {REFERENCE_LOOP_RESULT}")
    return REFERENCE_LOOP_S / elapsed


def setup_probe(args: argparse.Namespace) -> None:
    """Import the package and make the inputs in this fresh process.

    Prints the seconds taken and the mean machine speed probed before and after.
    """
    before = machine_speed()
    t0 = time.perf_counter()
    import workloads

    make_inputs = workloads.WORKLOADS[args.workload][0]
    make_inputs(args.seed, workloads.SIZES[size_name(args)][args.workload])
    elapsed = time.perf_counter() - t0
    print(elapsed, (before + machine_speed()) / 2)


def size_name(args: argparse.Namespace) -> str:
    return "smoke" if args.smoke else "full"


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Set-up times of fresh interpreters, scaled to the reference speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        elapsed, speed = map(float, done.stdout.split()[-2:])
        samples.append(elapsed * speed)
    return samples


def cpu_seconds() -> float:
    """User and system time of this process and its waited-for children (microsecond resolution)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def core_speed(_: int) -> float:
    """``machine_speed`` as a pool task."""
    return machine_speed()


class Speedometer:
    """The machine speed, probed at the ends of a repetition and at its pauses.

    A workload calls ``pause()`` between its operations; a probe runs when
    PROBE_INTERVAL_S has passed since the last one.  Time between two
    probes is scaled by the mean of their speeds.  Time spent probing is
    left out of every interval.  A workload that runs on several worker
    processes is probed on as many cores at once, through ``pool``: a
    neighbour may slow one core and not the other, and the scan waits
    for both.
    """

    def __init__(self, pool=None, cores: int = 1) -> None:
        self.pool = pool
        self.cores = cores
        self.marks: list[tuple[float, float, float, float]] = []  # start, end, speed, CPU seconds

    def probe(self) -> None:
        c0, t0 = cpu_seconds(), time.perf_counter()
        if self.pool is None:
            speed = machine_speed()
        else:
            speed = statistics.mean(self.pool.map(core_speed, range(self.cores), chunksize=1))
        self.marks.append((t0, time.perf_counter(), speed, cpu_seconds() - c0))

    def pause(self) -> None:
        if time.perf_counter() - self.marks[-1][1] >= PROBE_INTERVAL_S:
            self.probe()

    def between(self, start: float, end: float) -> tuple[float, float]:
        """Seconds in [start, end] outside the probes: as measured, and at the reference speed."""
        measured = scaled = 0.0
        for (_, after, speed0, _), (before, _, speed1, _) in zip(self.marks, self.marks[1:]):
            overlap = min(end, before) - max(start, after)
            if overlap > 0:
                measured += overlap
                scaled += overlap * (speed0 + speed1) / 2
        return measured, scaled

    def probe_cpu(self) -> float:
        return sum(mark[3] for mark in self.marks[1:-1])


@dataclass
class Timed:
    """One repetition: wall and CPU time, the mean machine speed, scaled per-op latencies."""

    rep: object
    wall: float
    cpu: float
    speed: float = 1.0
    latencies: list[float] = field(default_factory=list)


def timed(run_once, judge, inputs, *args, meter: Speedometer | None = None) -> Timed:
    """Time ``run_once(inputs, *args)``, then judge its output outside the timing.

    With a ``meter``, the machine speed is probed before, after and at the
    workload's pauses, and the probes' own time is left out.  A repetition
    that raises, or whose output cannot be judged, is one failed
    operation; the run goes on.
    """
    from workloads import Rep

    kwargs = {}
    if meter is not None:
        meter.probe()
        kwargs["pause"] = meter.pause
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        output, error = run_once(inputs, *args, **kwargs), None
    except Exception as exc:
        output, error = None, exc
    t1, cpu = time.perf_counter(), cpu_seconds() - c0
    wall, speed = t1 - t0, 1.0
    if meter is not None:
        meter.probe()
        wall, scaled = meter.between(t0, t1)
        cpu -= meter.probe_cpu()
        speed = scaled / wall
    if error is None:
        try:
            rep = judge(inputs, output)
        except Exception as exc:
            error = exc
    if error is not None:
        rep = Rep(1, 1, notes=[f"{type(error).__name__}: {error}"])
    latencies = [
        meter.between(start, start + seconds)[1] if meter is not None else seconds
        for start, seconds in zip(rep.starts_s, rep.latencies_s)
    ]
    return Timed(rep, wall, cpu, speed, latencies)


def repeat_untraced(run_once, judge, inputs, workdir: Path, jobs: int, seconds: float) -> list[Timed]:
    """One warm-up repetition, then repetitions for ``seconds``, each with its own speedometer.

    The warm-up's output is judged all the same, but its times are not
    used.  With ``jobs`` > 1 the probes run on that many idle processes,
    which are stopped before this returns.
    """
    warm_up = timed(run_once, judge, inputs, workdir, jobs)
    pool = multiprocessing.Pool(jobs) if jobs > 1 else None
    try:
        deadline = time.perf_counter() + seconds
        runs: list[Timed] = []
        while not runs or time.perf_counter() < deadline:
            runs.append(timed(run_once, judge, inputs, workdir, jobs, meter=Speedometer(pool, jobs)))
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    return [warm_up] + runs


def end_to_end(runs: list[Timed], jobs: int, setup: list[float]) -> tuple[dict, dict]:
    """Median end-to-end metrics over the repetitions, and the sample counts behind them.

    Every time is scaled by the machine speed measured around its
    repetition.  Latency percentiles are per operation where a repetition
    times its operations (certify's queries), and per repetition otherwise.
    """
    per_op_latency = any(r.latencies for r in runs)
    if per_op_latency:
        latencies = [x for r in runs for x in r.latencies]
    else:
        latencies = [r.wall * r.speed for r in runs]
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r.wall * r.speed for r in runs), "s"),
        "ops_per_s": (statistics.median(r.rep.ops / (r.wall * r.speed) for r in runs), "1/s"),
        "cpu_s": (statistics.median(r.cpu * r.speed for r in runs), "s"),
        "core_util": (statistics.median(r.cpu / (jobs * r.wall) for r in runs), "ratio"),
        "p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "p99_ms": (1000 * percentile(latencies, 99), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {
        "repetitions": len(runs),
        "rep_wall_s": [round(r.wall, 6) for r in runs],
        "rep_cpu_s": [round(r.cpu, 6) for r in runs],
        "rep_speed": [round(r.speed, 4) for r in runs],
        "latency_unit": "query" if per_op_latency else "repetition",
        "latency_samples": len(latencies),
        "setup_samples": len(setup),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, samples


def per_layer(tracer, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    stats = tracer.stats()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def get(name: str, key: str) -> float:
        return stats.get(name, empty)[key]

    cg_calls = get("casson_gordon.cg_condition", "calls")
    cg_fails = cg_calls - tracer.counts["cg_condition.passes"]
    wc_calls = get("casson_gordon.weighted_count", "calls")
    # r evaluated per obstruction check: weighted_count calls made by cg_condition itself
    cg_children = tracer.child_names("casson_gordon.cg_condition")["casson_gordon.weighted_count"]

    # orbit selection: each scanned p's own time, less its obstruction and membership children
    scanned = list(tracer.spans_named("enumeration.scan_p"))
    children = tracer.children_of("enumeration.scan_p")
    orbit_self = sum(tracer.end[i] - tracer.start[i] - children.get(i, 0.0) for i in scanned)
    last = max(scanned, key=lambda i: tracer.args[i], default=None)
    p_max_busy = tracer.end[last] - tracer.start[last] if last is not None else 0.0

    out = {
        "casson_gordon.cg_condition.calls": cg_calls,
        "casson_gordon.cg_condition.busy_s": get("casson_gordon.cg_condition", "busy_s"),
        "casson_gordon.cg_condition.self_s": get("casson_gordon.cg_condition", "self_s"),
        "casson_gordon.cg_condition.pass_ratio": tracer.counts["cg_condition.passes"] / cg_calls if cg_calls else 0.0,
        "casson_gordon.weighted_count.calls": wc_calls,
        "casson_gordon.weighted_count.busy_s": get("casson_gordon.weighted_count", "busy_s"),
        "casson_gordon.floor_sum.calls": tracer.counts["casson_gordon.floor_sum"],
        "casson_gordon.r_per_check": cg_children / cg_calls if cg_calls else 0.0,
        "casson_gordon.first_fail_r1_share": tracer.counts["cg_condition.fail_r1"] / cg_fails if cg_fails else 0.0,
        "enumeration.conjecture_scan.busy_s": get("enumeration.conjecture_scan", "busy_s"),
        "enumeration.orbit_select.self_s": orbit_self,
        "enumeration.p_max.busy_s": p_max_busy,
        "enumeration.enumerate_classes.busy_s": get("enumeration.enumerate_classes", "busy_s"),
        "enumeration.ribbon_table.busy_s": get("enumeration.ribbon_table", "busy_s"),
        "enumeration.amphicheiral_crosscheck.busy_s": get("enumeration.amphicheiral_crosscheck", "busy_s"),
        "families.is_family_member.calls": get("families.is_family_member", "calls"),
        "families.is_family_member.busy_s": get("families.is_family_member", "busy_s"),
        "families.partial_knot.busy_s": get("families.partial_knot", "busy_s"),
        "families.build_family_index.misses": tracer.counts["families.build_family_index.misses"],
        "families.build_family_index.busy_s": get("families.build_family_index", "busy_s"),
        "conway.cf_eval.calls": get("conway.cf_eval", "calls"),
        "conway.cf_eval.busy_s": get("conway.cf_eval", "busy_s"),
        "conway.canonical_class.calls": get("conway.canonical_class", "calls"),
        "conway.canonical_class.busy_s": get("conway.canonical_class", "busy_s"),
        "cli.execute.calls": get("cli.execute", "calls"),
        "cli.execute.self_s": get("cli.execute", "self_s"),
        "trace.spans": len(tracer),
    }
    # share of the traced wall time spent in each layer's own code (self time)
    for layer in ("casson_gordon", "enumeration", "families", "conway", "cli"):
        own = sum(row["self_s"] for name, row in stats.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_share"] = own / traced_wall
    return out


def run(args: argparse.Namespace) -> dict:
    import numpy
    import spans
    import workloads

    make_inputs, run_once, judge = workloads.WORKLOADS[args.workload]
    sizes = workloads.SIZES[size_name(args)]
    nproc = os.cpu_count() or 1
    jobs = min(2, nproc) if args.workload == "scan" else 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": sizes,
        "jobs": jobs,
        "machine": {
            "nproc": nproc,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
    }
    setup = [] if args.trace else measure_setup(args)
    inputs = make_inputs(args.seed, sizes[args.workload])
    workdir = WORKDIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reps: list = []
    try:
        if not args.trace:
            warm_up, *runs = repeat_untraced(run_once, judge, inputs, workdir, jobs, args.seconds)
            reps = [warm_up.rep] + [r.rep for r in runs]
            metrics, info["samples"] = end_to_end(runs, jobs, setup)
        else:
            deadline = time.perf_counter() + args.seconds
            plain: list[Timed] = []
            layers: list[dict] = []
            while not layers or time.perf_counter() < deadline:
                # serial, so that every span of the scan stays in this process
                plain.append(timed(run_once, judge, inputs, workdir, 1))
                tracer = spans.Tracer()
                with spans.patched(tracer) as missing:
                    traced = timed(run_once, judge, inputs, workdir, 1)
                row = per_layer(tracer, traced.wall)
                row["trace.untraced_wall_s"] = plain[-1].wall
                row["trace.traced_wall_s"] = traced.wall
                row["trace.overhead_s"] = traced.wall - plain[-1].wall
                layers.append(row)
                reps += [plain[-1].rep, traced.rep]
            info["unpatched"] = missing
            info["samples"] = {"traced_repetitions": len(layers), "untraced_serial_repetitions": len(plain)}
            trace_file = WORKDIR / f"trace-{args.workload}-seed{args.seed}.txt.gz"
            tracer.write(trace_file)
            info["trace_file"] = str(trace_file.relative_to(ROOT))
            metrics = {
                name: {"value": statistics.median(row[name] for row in layers), "unit": unit_of(name)}
                for name in layers[0]
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    info["error_rate"] = failed / attempted
    info["failures"] = [note for r in reps for note in r.notes][:20]
    return {"info": info, "result": {"correct": failed == 0, "attempted": attempted,
                                     "failed": failed, "metrics": metrics}}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("calls", "misses", "spans")):
        return "count"
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # The package does no linear algebra.  OpenBLAS starts a thread per core
    # when numpy is imported, which added 0 or 45 ms to set-up depending on
    # the other core's load; one thread makes setup_s measure the package.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    use_checkout_sources()
    if args.setup_probe:
        setup_probe(args)
        return 0
    out = run(args)
    for name, m in out["result"]["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"info": out["info"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
