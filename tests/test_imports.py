"""Import hygiene: every name a module imports is read in it or exported.

No linter is part of the toolchain, so this test does the one check that
catches an import left behind when the code that read it goes, in the
package, the scripts and the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# perfbench/tracing.py patches these names in these modules to count calls,
# and its tests expect every patched name to exist, so they stay imported
# although nothing in the module calls them; a traced run reports zero calls.
TRACER_ONLY = {
    ("verify", "classify_window"),
    ("verify", "core"),
    ("verify", "anchor_windows"),
    ("verify", "occurrences"),
    ("verify", "cyclic_occurrences"),
    ("verify", "ProcessPoolExecutor"),
    ("locate", "build"),
    ("locate", "core"),
    ("locate", "power_prefix"),
}


def imported_names(tree):
    """The names the module's top-level import statements bind."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree):
    """The strings listed in the module's __all__, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    tree = ast.parse(path.read_text())
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    kept = read | exported_names(tree)
    return {(path.stem, name) for name in imported_names(tree) if name not in kept}


def test_every_import_is_read_or_exported():
    modules = [
        *ROOT.glob("src/repcore/*.py"),
        *ROOT.glob("scripts/*.py"),
        *ROOT.glob("tests/*.py"),
    ]
    assert {p.stem for p in modules} >= {"verify", "locate", "oracles", "test_words"}
    unused = set().union(*(unused_imports(p) for p in modules))
    assert unused == TRACER_ONLY


def test_unused_import_is_caught(tmp_path):
    module = tmp_path / "verify.py"
    module.write_text(
        "from operator import itemgetter\n"
        "from typing import Callable\n"
        "import os.path\n"
        "def f(g: Callable) -> str:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(module) == {("verify", "itemgetter")}
