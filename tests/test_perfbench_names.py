"""The benchmark's per-layer trace names functions of the package; each one
must still exist, or ``perfbench/run.py --trace 1`` fails when it wraps them.

``perfbench/layertrace.py`` is run from its source text, which neither
writes bytecode next to it nor wraps anything.
"""

import importlib
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def traced_names():
    namespace = {"__name__": "layertrace"}
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), namespace)
    return [
        (module_name, attr)
        for module_name, attrs in namespace["TRACED"].values()
        for attr in ([attrs] if isinstance(attrs, str) else attrs)
    ]


@pytest.mark.parametrize(
    "module_name, attr", traced_names(), ids=lambda value: str(value)
)
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module_name} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)
