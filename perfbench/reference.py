"""The reference computation: fixed work of the kind the package does, timed
to estimate the machine's speed at a given moment (see README.md).

Its parts:
- "fractions": the exact inverse of the 9 x 9 Hilbert matrix, small
  Fraction arithmetic run by the interpreter;
- "group-law": the chord addition P + 300P on y^2 + y = x^3 - x, three
  times: Fraction arithmetic on integers of about 10^4 bits, run mostly
  in C.
The two slow down by different amounts when the machine is busy.

The worker times the reference in a process of its own (``Sibling``), so
that nothing the measured program does to its interpreter (gc settings,
trace hooks, growing caches) changes the divisor of its times.

    python3 perfbench/reference.py serve PARTS   # one timing per input line
    python3 perfbench/reference.py import-probe  # time `import surfsat.cli`
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from gen import ec_add, multiple, solve_columns

HILBERT = [[Fraction(1, i + j + 1) for j in range(9)] for i in range(9)]
IDENTITY = [[Fraction(int(i == j)) for j in range(9)] for i in range(9)]
GROUP_LAW_MULTIPLE = 300
SIBLING_EXIT_S = 10.0


def reference_work(parts: list):
    """The reference computation made of ``parts``, as a timing function."""
    steps = []
    if "fractions" in parts:
        steps.append(lambda: solve_columns(HILBERT, IDENTITY))
    if "group-law" in parts:
        far, near = multiple(GROUP_LAW_MULTIPLE), multiple(1)
        steps += [lambda: ec_add(far, near)] * 3

    def reference() -> float:
        t0 = perf_counter()
        for step in steps:
            step()
        return perf_counter() - t0

    return reference


class Sibling:
    """A reference process beside the caller; each call makes it time the
    reference once and returns the seconds.  The caller blocks meanwhile,
    so the two never run at once.  Use as a context manager: leaving it
    closes the pipe and waits for the process to end."""

    def __init__(self, parts: list):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "serve", ",".join(parts)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process ended early")
        return float(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=SIBLING_EXIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve(parts: list) -> None:
    """Time the reference once per line read, until end of input."""
    reference = reference_work(parts)
    reference()  # warm-up
    for _ in sys.stdin:
        sys.stdout.write(f"{reference()!r}\n")
        sys.stdout.flush()


def import_probe() -> None:
    """Time ``import surfsat.cli``, bracketed by two timings of the
    fractions reference in the same interpreter."""
    reference = reference_work(["fractions"])
    reference()  # warm-up
    before = reference()
    t0 = perf_counter()
    import surfsat.cli  # noqa: F401

    import_s = perf_counter() - t0
    after = reference()
    print(json.dumps({"import_s": import_s, "reference_s": [before, after]}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["serve"] and len(sys.argv) == 3:
        serve(sys.argv[2].split(","))
    elif sys.argv[1:] == ["import-probe"]:
        import_probe()
    else:
        sys.exit(__doc__)
