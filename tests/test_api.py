"""The public surface: the export list and the README's library
example."""

import contextlib
import io
import re
from pathlib import Path

import aoikit
from helpers import imported_by, run_child

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in aoikit.__all__ if not hasattr(aoikit, name)]
    assert missing == []


# a fresh interpreter's package: `import aoikit` loads no submodule
FRESH = """
import sys
import aoikit
assert [m for m in sys.modules if m.startswith("aoikit.")] == []
"""


def test_star_import_binds_every_export_of_the_lazy_package():
    run_child("-c", FRESH + """
from aoikit import *
missing = [name for name in aoikit.__all__ if name not in globals()]
assert missing == [], missing
assert simulate is sys.modules["aoikit.queuesim"].simulate
""")


def test_dir_lists_every_export_before_it_loads():
    run_child("-c", FRESH + """
missing = set(aoikit.__all__) - set(dir(aoikit))
assert missing == set(), missing
assert [m for m in sys.modules if m.startswith("aoikit.")] == []
""")


def test_importing_one_module_loads_only_what_it_uses():
    loaded = imported_by("-c", "from aoikit import scheduler")
    assert {m for m in loaded if m.startswith("aoikit.")} == {
        "aoikit.errors", "aoikit.records", "aoikit.scheduler"}


def test_importing_the_cli_compiles_no_generated_code():
    # numpy and argparse first: only what aoikit itself compiles counts
    run_child("-c", """
import sys
import argparse, numpy
generated = []
sys.addaudithook(lambda event, args: generated.append(args[1])
                 if event == "compile" and args[1] == "<string>" else None)
import aoikit.cli
assert generated == [], f"{len(generated)} compiles of generated source"
""")
    # heapq and array load only when a run starts
    assert imported_by("-m", "aoikit.cli", "--version") & {
        "dataclasses", "json", "csv", "heapq", "array"} == set()
    assert "dataclasses" not in imported_by("-c", "from aoikit import scheduler")


def test_readme_library_snippet_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    simulated, analytic = (float(v) for v in out.getvalue().split())
    assert abs(simulated - analytic) < 0.01 * analytic
