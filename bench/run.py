"""calabi-lab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A run record (versions, seed, thread settings, pass and
latency figures, and the spans of a traced run) is written to
``.bench_out/``.

A run is: set-up (import plus input generation, repeated and timed), the
expected outputs derived once, then passes over the workload's fixed list of
operations until ``--seconds`` have elapsed (at least one pass).  The
end-to-end times come from each operation's mean latency over the passes;
on the workloads marked ``host_scaled`` they are scaled to the reference
host by ``hostspeed.HostSpeed``.  With ``--trace 1`` untraced and traced
passes alternate; their difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("CALABI_LAB_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_REPEATS = 7
SETUP_REPEATS = 5
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import calabi_lab.cli; "
                  "print(time.perf_counter() - t)")


def use_source_tree() -> None:
    """Import calabi_lab from src/ with one thread everywhere, the plain
    single-threaded baseline; call before anything imports numpy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _import_seconds() -> float:
    """Median time to import the package in a fresh interpreter (after one
    untimed import, so bytecode compilation is not counted)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(IMPORT_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _passes(wl, ops, seconds, tracer, tally, speed=None):
    """Run passes over ops until `seconds` have elapsed (at least one).

    Returns each operation's latencies in ms, one per pass, and each pass's
    (first, last) span index; adds attempts, failures and the residual
    headroom of every checked output to `tally`.  With `speed`, the
    host-speed reference runs after every operation, outside its latency.
    """
    from spans import clear_caches
    from workloads import headroom

    latency_ms = [[] for _ in ops]
    pass_spans = []
    deadline = time.perf_counter() + seconds
    while True:
        first = len(tracer.spans) if tracer else 0
        for i, op in enumerate(ops):
            if wl.cold_caches:
                clear_caches()
            span = tracer.begin("bench.op", f"op{i}") if tracer else None
            t = time.perf_counter()
            try:
                checks = wl.run_op(op)
            except Exception:  # a failed operation is counted, never retried
                traceback.print_exc(file=sys.stderr)
                checks = [(False, None, None)]
            latency_ms[i].append((time.perf_counter() - t) * 1e3)
            if span is not None:
                tracer.end(span)
            if speed is not None:
                speed.sample(i, latency_ms[i][-1])
            tally["attempted"] += 1
            tally["failed"] += not all(ok for ok, _, _ in checks)
            for _, resid, tol in checks:
                h = headroom(resid, tol)
                if h is not None:
                    tally["headrooms"].append(h)
        pass_spans.append((first, len(tracer.spans) if tracer else 0))
        if time.perf_counter() >= deadline:
            return latency_ms, pass_spans


def _mean_ms(latency_ms):
    """Each operation's mean latency over the run's passes."""
    return [statistics.fmean(lat) for lat in latency_ms]


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run; returns (metrics, run record).  metrics maps a
    name to its value; the record holds everything else worth keeping."""
    from hostspeed import HostSpeed
    from spans import Tracer, clear_caches
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](tiny=tiny)
    OUT.mkdir(exist_ok=True)
    record = run_record(workload, seed, seconds, trace)
    tally = {"attempted": 0, "failed": 0, "headrooms": []}
    tracer = Tracer() if trace else None
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        clear_caches()
        t = time.perf_counter()
        with tracer or contextlib.nullcontext():
            ops = wl.setup(seed, OUT)
        setup_times.append(time.perf_counter() - t)
    setup_spans = len(tracer.spans) if tracer else 0
    wl.reference(ops)

    if not trace:
        speed = HostSpeed(len(ops)) if wl.host_scaled else None
        latency_ms, _ = _passes(wl, ops, seconds, None, tally, speed)
        mean_ms = _mean_ms(latency_ms)
        cuts = statistics.quantiles(mean_ms, n=10, method="inclusive")
        factor = speed.factor() if speed else 1.0  # raw to reference-host times
        metrics = {
            "setup_s": _import_seconds() + statistics.median(setup_times),
            "wall_s": sum(mean_ms) / 1e3 * factor,
            "op_p50_ms": cuts[4] * factor,
            "op_p90_ms": cuts[8] * factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_share": 1.0 - tally["failed"] / tally["attempted"],
            "residual_headroom_dec": statistics.median(tally["headrooms"] or [16.0]),
        }
        record.update(setup_times_s=setup_times, latency_ms=latency_ms,
                      host_speed_factor=factor,
                      host_kernel_ms=speed.kernel_ms if speed else None,
                      raw_wall_s=sum(mean_ms) / 1e3,
                      raw_op_p50_ms=cuts[4], raw_op_p90_ms=cuts[8])
    else:
        # untraced and traced passes alternate, so both see the same host
        plain_ms, traced_ms, pass_spans = [[] for _ in ops], [[] for _ in ops], []
        deadline = time.perf_counter() + seconds
        while not pass_spans or time.perf_counter() < deadline:
            for lat, new in zip(plain_ms, _passes(wl, ops, 0, None, tally)[0]):
                lat += new
            with tracer:
                new_ms, new_spans = _passes(wl, ops, 0, tracer, tally)
            for lat, new in zip(traced_ms, new_ms):
                lat += new
            pass_spans += new_spans
        setup_totals = tracer.layer_totals(0, setup_spans)
        per_pass = [tracer.layer_totals(a, b) for a, b in pass_spans]
        metrics = {}
        for key, value in setup_totals.items():
            if key.endswith("_s"):  # mean over passes, as for the end-to-end times
                value += statistics.fmean(p[key] for p in per_pass)
            elif key.endswith("_max"):
                value = max(value, per_pass[0][key])
            else:
                value += per_pass[0][key]
            metrics[key] = value
        metrics["trace.overhead_share"] = sum(_mean_ms(traced_ms)) / sum(_mean_ms(plain_ms)) - 1.0
        counts = [{k: v for k, v in p.items() if not k.endswith("_s")} for p in per_pass]
        record.update(latency_ms=plain_ms, traced_latency_ms=traced_ms,
                      counts_repeat_across_passes=all(c == counts[0] for c in counts),
                      spans=tracer.spans)
    record.update(ops_per_pass=len(ops), passes=len(record["latency_ms"][0]), **tally)
    return metrics, record


def _declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def result_object(metrics: dict, record: dict, trace: bool) -> dict:
    """The result line: exactly the metrics BENCHMARK.json declares for the
    mode, with its units."""
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in _declared("per_layer" if trace else "end_to_end")}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("verify-scaling", "acceptance-loops", "certify-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "calabi_lab" / "__init__.py").is_file():
        print(f"error: no calabi_lab package under {SRC}", file=sys.stderr)
        return 2
    use_source_tree()
    metrics, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = result_object(metrics, record, bool(args.trace))
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
