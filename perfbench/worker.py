"""Closed-loop worker: one client, one thread, one process.

    python3 perfbench/worker.py measure --index FILE --seconds S --min-ops N \
        --trace 0|1 --reference PARTS [--spans FILE] --out FILE
    python3 perfbench/worker.py smoke --samples DIR --out FILE

``measure``: each operation is one in-process ``surfsat.cli.main([command,
path])`` call with stdout and stderr captured.  The loop makes whole passes
over the case list until the time budget is spent and at least ``--min-ops``
operations are done.  Every output is checked against the expectation the
generator derived by construction, outside the timed window.  A reference
process (``reference.Sibling``) times the reference computation before the
first operation and right after each one.

``smoke``: every sample document runs with every command once, and the exit
codes are compared with the ones pinned in ``SMOKE_EXIT``.

``run.py`` passes every argument; none has a default here.  Results go to
the JSON file named by ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
from pathlib import Path
from statistics import mean, median
from time import perf_counter

from reference import Sibling

OP_CAP_S = 30.0
# The loop stops mid-pass at this age of the worker, so that a run ends
# within its time limit even on a much slower program.
HARD_LIMIT_S = 110.0
STARTED = perf_counter()
COMMANDS = ("analyze", "saturate", "affdim", "fibre", "mumford", "hironaka", "validate")

# Exit codes of the sample documents; every pair not listed exits 0.
SMOKE_EXIT = {
    ("ruled_two_sections", "hironaka"): 1,
    ("serre_like", "hironaka"): 1,
    ("three_disjoint_claims", "hironaka"): 1,
    ("three_disjoint_claims", "affdim"): 1,
    ("three_disjoint_claims", "analyze"): 1,
    ("three_disjoint_claims", "validate"): 1,
    ("serre_like", "affdim"): 2,
    ("serre_like", "analyze"): 2,
}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def run_op(main, command, path):
    """One timed operation: (seconds, exit code or None, stdout, problem)."""
    out, err = io.StringIO(), io.StringIO()
    problem = None
    code = None
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path])
    except OpTimeout:
        problem = f"over the {OP_CAP_S:.0f} s cap"
    except Exception as exc:  # an uncaught error is a failed operation
        problem = f"raised {exc!r}"
    finally:
        seconds = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return seconds, code, out.getvalue(), problem


def check(expect, code, stdout) -> str | None:
    """Compare exit code, expected lines and criterion tags; None if right.
    Where pullbacks are expected, the printed set of ``pullbacks.*`` lines
    must be exactly the expected one."""
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    for key, want in expect["lines"].items():
        if lines.get(key) != want:
            return f"{key}: {lines.get(key)!r}, expected {want!r}"
    want_pulls = {k for k in expect["lines"] if k.startswith("pullbacks.")}
    if want_pulls:
        extra = sorted({k for k in lines if k.startswith("pullbacks.")} - want_pulls)
        if extra:
            return f"unexpected pullback lines {extra}"
    tags = sorted(v for k, v in lines.items()
                  if k == "criterion" or k.endswith(".criterion"))
    if tags != expect["criteria"]:
        return f"criteria {tags}, expected {expect['criteria']}"
    return None


def closed_loop(main, cases, reference, seconds, min_ops, tracer=None):
    """Whole passes over ``cases`` until ``seconds`` are spent, stopping at
    the pass boundary nearest to that time once ``min_ops`` operations are
    done.  Returns the latencies, the failure notes and the reference
    timings (one more than latencies: refs[i] and refs[i + 1] bracket
    operation i)."""
    latencies, failures, refs = [], [], [reference()]
    start = perf_counter()
    passes = 0
    while True:
        for case in cases:
            for expect in case["ops"]:
                if tracer is not None:
                    tracer.begin_op()
                took, code, stdout, problem = run_op(main, expect["command"], case["path"])
                refs.append(reference())
                if tracer is not None:
                    tracer.end_op(took)
                latencies.append(took)
                problem = problem or check(expect, code, stdout)
                if problem:
                    failures.append(f"{case['name']} {expect['command']}: {problem}")
                if perf_counter() - STARTED >= HARD_LIMIT_S:
                    failures.append(f"stopped mid-pass after {HARD_LIMIT_S:.0f} s")
                    return latencies, failures, refs
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (1 + 0.5 / passes) >= seconds and len(latencies) >= min_ops:
            return latencies, failures, refs


def smoke(samples: Path) -> dict:
    from surfsat.cli import main

    failures, attempted = [], 0
    for path in sorted(samples.glob("*.json")):
        for command in COMMANDS:
            attempted += 1
            _, code, _, problem = run_op(main, command, str(path))
            want = SMOKE_EXIT.get((path.stem, command), 0)
            if problem or code != want:
                failures.append(f"{path.name} {command}: {problem or f'exit {code}, expected {want}'}")
    return {"attempted": attempted, "failures": failures}


def measure(index: Path, reference, seconds: float, min_ops: int, trace: bool,
            spans: Path | None) -> dict:
    from surfsat.cli import main

    cases = json.loads(index.read_text())
    budget = seconds / 2 if trace else seconds
    latencies, failures, refs = closed_loop(
        main, cases, reference, budget, 1 if trace else min_ops)
    result = {
        "latencies": latencies,
        "failures": failures,
        "refs": refs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
        traced, traced_failures, traced_refs = closed_loop(
            main, cases, reference, budget, 1, tracer)
        result["layers"] = tracer.metrics(mean(latencies) / median(refs), median(traced_refs))
        result["traced_refs"] = traced_refs
        result["traced_ops"] = len(traced)
        result["failures"] += traced_failures
        if spans is not None:
            tracer.write(spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    run = modes.add_parser("measure", help="the closed loop over one workload")
    run.add_argument("--index", type=Path, required=True, help="case list written by run.py")
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--min-ops", type=int, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--reference", required=True,
                     help="comma-separated parts of the reference computation")
    run.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    run.add_argument("--out", type=Path, required=True)
    check_samples = modes.add_parser("smoke", help="every sample with every command")
    check_samples.add_argument("--samples", type=Path, required=True)
    check_samples.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    if args.mode == "smoke":
        result = smoke(args.samples)
    else:
        with Sibling(args.reference.split(",")) as reference:
            result = measure(args.index, reference, args.seconds, args.min_ops,
                             bool(args.trace), args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
