"""perfbench's traced run reads its per-layer spans through the functions that
``WRAPPED`` in ``perfbench/run.py`` names.  A name that no longer resolves
prints an ``absent`` line and drops its metrics from the result, so the
names are checked here, reading run.py's source without importing it."""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _wrapped():
    """(module, attribute) of each ``WRAPPED`` entry, and the modules run.py
    imports from ``ladlasso``."""
    tree = ast.parse(RUN.read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "ladlasso"
        for alias in node.names
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            entries = [(e.elts[0].id, ast.literal_eval(e.elts[1])) for e in node.value.elts]
            return entries, imported
    raise AssertionError("perfbench/run.py assigns no WRAPPED")


def test_every_wrapped_name_resolves():
    entries, imported = _wrapped()
    assert entries
    for module, attr in entries:
        assert module in imported, module
        assert callable(getattr(importlib.import_module(f"ladlasso.{module}"), attr, None)), (
            f"{module}.{attr}"
        )
