"""The public surface: the export list and the README's library
example."""

import contextlib
import gc
import io
import re
from pathlib import Path

import aoikit
from helpers import imported_by, run_child

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.parent / "pyproject.toml"


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


def test_the_process_entry_freezes_what_the_imports_loaded():
    # a module run as __main__, as `python -m aoikit.cli` runs it; the
    # hook reads the count after the entry's `sys.exit`
    proc = run_child("-c", """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
sys.argv = ["aoikit", "--version"]
runpy.run_module("aoikit.cli", run_name="__main__")
""")
    assert proc.stdout.splitlines()[0] == aoikit.__version__
    assert int(proc.stdout.split("frozen")[1]) > 0
    # the import alone freezes nothing
    run_child("-c", "import gc, aoikit.cli; assert gc.get_freeze_count() == 0")


def test_the_console_script_names_the_freezing_entry():
    scripts = PYPROJECT.read_text(encoding="utf-8").split("[project.scripts]\n", 1)[1]
    module, _, name = re.match(r'aoikit = "(.+)"\n', scripts).group(1).partition(":")
    assert (module, name) == ("aoikit.cli", "entry")
    proc = run_child("-c", """
import gc, sys
from aoikit.cli import entry
sys.argv = ["aoikit", "--version"]
assert entry() == 0
print(gc.get_freeze_count())
""")
    assert int(proc.stdout.split()[-1]) > 0


def test_main_in_process_leaves_the_collector_as_it_was(tmp_path):
    # a caller that runs main() many times keeps none of its garbage
    from aoikit import cli

    before = gc.get_freeze_count()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--version"]) == 0
        assert cli.main(["sim", "--model", "mm1", "--rho", "0.5", "--arrivals", "100",
                         "--out", str(tmp_path / "t.csv")]) == 0
    assert gc.get_freeze_count() == before


def test_readme_library_snippet_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    simulated, analytic = (float(v) for v in out.getvalue().split())
    assert abs(simulated - analytic) < 0.01 * analytic
