"""Byte-for-byte CLI output on the sample documents.

``golden/cli_samples.json`` records the stdout, stderr and exit code of
every command on every ``docs/samples`` document, in both output formats.
A refactor must leave all of them unchanged.  After an intended change of
output, regenerate the file with ``PYTHONPATH=src python
tests/test_golden_cli.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from surfsat.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "docs" / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_samples.json"
FORMATS = ("human", "json")


def cases():
    return [
        (sample.name, command, fmt)
        for sample in sorted(SAMPLES.glob("*.json"))
        for command in sorted(COMMANDS)
        for fmt in FORMATS
    ]


def key(sample, command, fmt) -> str:
    return f"{sample} {command} {fmt}"


def run_case(sample, command, fmt) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(SAMPLES / sample), "--format", fmt])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(key(*case) for case in cases())


@pytest.mark.parametrize(
    "sample,command,fmt", cases(), ids=[key(*case) for case in cases()]
)
def test_output_is_byte_identical(golden, sample, command, fmt):
    assert run_case(sample, command, fmt) == golden[key(sample, command, fmt)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {key(*case): run_case(*case) for case in cases()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
