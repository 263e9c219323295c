"""The README's library example runs as documented."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first python block after the ``## Library`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_example_prints_its_comments():
    # each print line ends in "# value", or "# value: why"
    code = library_block()
    expected = [
        line.rsplit("  # ", 1)[1]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 4
    for got, comment in zip(printed, expected):
        assert comment == got or comment.startswith(got + ": "), (got, comment)
