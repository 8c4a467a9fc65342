"""The public surface: the export list and the README's library
example."""

import contextlib
import io
import re
from pathlib import Path

import aoikit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in aoikit.__all__ if not hasattr(aoikit, name)]
    assert missing == []


def test_readme_library_snippet_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    simulated, analytic = (float(v) for v in out.getvalue().split())
    assert abs(simulated - analytic) < 0.01 * analytic
