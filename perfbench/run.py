"""Run the surfsat benchmark.

    python3 perfbench/run.py                  # all workloads, default seed
    python3 perfbench/run.py --trace 1        # per-layer metrics instead
    python3 perfbench/run.py --workload fibre-cycles --seed 7 --seconds 20 --trace 0

A run first checks the 42 sample/command pairs once (the smoke check).  Then,
for each workload, it writes the seeded documents (``gen.py``), times
``import surfsat.cli`` in fresh interpreters, and runs the closed loop in
one worker process (``worker.py``).  It prints every metric by name and
unit.  ``--trace 1`` reports the per-layer metrics of a traced run
(``layertrace.py``) in place of the end-to-end ones.

The last line is one JSON object with ``correct``, ``attempted`` and
``failed``.  With ``--workload`` it also has ``metrics``, keyed by the metric
names of BENCHMARK.json; without it, ``workloads`` maps each workload name
to such a ``metrics`` object.  The run length is BENCHMARK.json's
``run_seconds``; ``--seconds`` is accepted only with that value.

The checkout is built from source: the package is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gen
import layertrace

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = ROOT / ".perfbench-work"
SAMPLES = ROOT / "docs" / "samples"
DEFAULT_SEED = 1
MIN_OPS = 100
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170.0
# Reported times are wall times scaled to the speed at which the reference
# computation (reference.reference_work) takes the listed time; see README.md.
# Its parts follow the arithmetic that dominates the workload: big-integer
# fractions slow down less than small ones when the machine is busy.
REFERENCE = {"elliptic-points": ("fractions,group-law", 0.010)}
DEFAULT_REFERENCE = ("fractions", 0.005)
# An operation's time is scaled by the median of the reference timings next
# to it: the two that bracket it and LOCAL_REFS more on each side.
LOCAL_REFS = 2

E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchmarkError(Exception):
    pass


def child_env() -> dict:
    paths = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_child(args, deadline) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion; subprocess.run kills and reaps
    it if the deadline passes."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchmarkError("out of time before starting a child process")
    try:
        done = subprocess.run(
            [sys.executable, *args], env=child_env(), cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child {args[:2]} passed the run's time limit") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"child {args[:2]} exited with {done.returncode}")
    return done


def run_worker(args, out: Path, deadline) -> dict:
    run_child([str(HERE / "worker.py"), *args, "--out", str(out)], deadline)
    return json.loads(out.read_text())


def setup_seconds(deadline) -> tuple:
    """Median time of ``import surfsat.cli`` in fresh interpreters, after one
    discarded import that leaves the bytecode cache warm: (wall seconds,
    seconds at reference speed).  Each import is scaled by the mean of the
    two fractions reference timings made around it in the same interpreter."""
    probes = [
        json.loads(run_child([str(HERE / "reference.py"), "import-probe"], deadline).stdout)
        for _ in range(SETUP_SAMPLES + 1)
    ][1:]
    nominal = DEFAULT_REFERENCE[1]
    return (
        statistics.median(p["import_s"] for p in probes),
        statistics.median(p["import_s"] * nominal / statistics.mean(p["reference_s"])
                          for p in probes),
    )


def timings(latencies: list) -> dict:
    return {
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
        "ops_per_s": len(latencies) / sum(latencies),
    }


def at_reference_speed(latencies: list, refs: list, reference_s: float) -> list:
    """Each latency at reference speed: scaled by ``reference_s`` over the
    median of the reference timings next to the operation (refs[i] and
    refs[i + 1] bracket operation i)."""
    return [
        t * reference_s / statistics.median(refs[max(0, i - LOCAL_REFS): i + LOCAL_REFS + 2])
        for i, t in enumerate(latencies)
    ]


def print_properties(workload: str, cases: list) -> None:
    """The input properties the cost depends on, as value:count per document
    (list-valued properties are counted per element)."""
    keys = sorted({k for case in cases for k in case["props"]})
    for key in keys:
        counts = Counter()
        for case in cases:
            value = case["props"].get(key)
            if value is None:
                continue
            counts.update(value if isinstance(value, list) else [value])
        shown = " ".join(f"{v}:{c}" for v, c in sorted(counts.items()))
        print(f"{workload} property {key} (value:count over {len(cases)} docs) {shown}")


def fresh_dir(name: str) -> Path:
    work = WORK / f"{name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return work


def smoke_check(deadline) -> bool:
    """Every sample with every command once; True if all exit codes match."""
    work = fresh_dir("smoke")
    try:
        smoke = run_worker(["smoke", "--samples", str(SAMPLES)], work / "smoke.json", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"smoke check: {smoke['attempted']} sample/command pairs, "
          f"{len(smoke['failures'])} failed")
    for note in smoke["failures"]:
        print(f"SMOKE FAIL {note}")
    return not smoke["failures"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline):
    """One workload; returns (correct, attempted, failed, {metric: (value, unit)})."""
    work = fresh_dir(f"{workload}-{seed}")
    try:
        cases = gen.generate(workload, seed)
        index = []
        for case in cases:
            path = work / f"{case['name']}.json"
            path.write_text(json.dumps(case["doc"]))
            index.append({"name": case["name"], "path": str(path), "ops": case["ops"]})
        (work / "index.json").write_text(json.dumps(index))
        print_properties(workload, cases)

        setup = None if trace else setup_seconds(deadline)
        parts, reference_s = REFERENCE.get(workload, DEFAULT_REFERENCE)
        args = ["measure", "--index", str(work / "index.json"), "--seconds", str(seconds),
                "--min-ops", str(MIN_OPS), "--trace", str(int(trace)),
                "--reference", parts]
        if trace:
            args += ["--spans", str(WORK / f"spans-{workload}.csv")]
        result = run_worker(args, work / "result.json", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    latencies = result["latencies"]
    failures = result["failures"]
    for note in failures[:20]:
        print(f"{workload} FAIL {note}")
    attempted = len(latencies) + result.get("traced_ops", 0)
    ref_ms = statistics.median(result["refs"]) * 1000
    print(f"{workload} reference_ms {ref_ms:.6g} median of {len(result['refs'])} samples")
    if trace:
        scale = reference_s / statistics.median(result["traced_refs"])
        units = layertrace.metric_units()
        metrics = {k: (v * scale if units[k] == "ms" else v, units[k])
                   for k, v in result["layers"].items()}
    else:
        wall = dict(timings(latencies), setup_s=setup[0])
        for name, value in wall.items():
            print(f"{workload} wall {name} {value:.6g}")
        metrics = dict(
            timings(at_reference_speed(latencies, result["refs"], reference_s)),
            peak_rss_mb=result["peak_rss_kb"] / 1024,
            setup_s=setup[1],
        )
        metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
        print(f"{workload} ops_attempted {attempted} count")
        print(f"{workload} ops_failed_ratio {len(failures) / attempted} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    return not failures, attempted, len(failures), metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the surfsat benchmark.")
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS),
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="must equal BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "surfsat" / "cli.py").is_file() or not SAMPLES.is_dir():
        print("error: no surfsat source tree (src/surfsat) or docs/samples next to "
              "the benchmark", file=sys.stderr)
        return 2
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g}, but BENCHMARK.json's run_seconds "
              f"is {seconds}", file=sys.stderr)
        return 2

    # Every process of the run shares one CPU: the worker and its reference
    # process then run at the same speed, and none migrates between CPUs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = [args.workload] if args.workload else list(gen.WORKLOADS)
    total = {"correct": True, "attempted": 0, "failed": 0}
    per_workload = {}
    try:
        # Each workload gets RUN_LIMIT_S; the first one's counts from the
        # start of the run, smoke check included.
        deadline = time.monotonic() + RUN_LIMIT_S
        total["correct"] = smoke_check(deadline)
        for i, workload in enumerate(workloads):
            if i:
                deadline = time.monotonic() + RUN_LIMIT_S
            correct, attempted, failed, metrics = run_workload(
                workload, args.seed, seconds, bool(args.trace), deadline)
            total["correct"] = total["correct"] and correct
            total["attempted"] += attempted
            total["failed"] += failed
            per_workload[workload] = {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            }
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        total["metrics"] = per_workload[args.workload]
    else:
        total["workloads"] = per_workload
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
