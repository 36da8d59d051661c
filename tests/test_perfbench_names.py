"""The names the benchmark's traced replay imports or wraps stay public."""

import ast
from pathlib import Path

import veriscore
import veriscore.cli
import veriscore.evaluation

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


def test_trace_child_imports_public_names_and_wraps_existing_ones():
    tree = ast.parse(TRACE_CHILD.read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "veriscore"
        for alias in node.names
    ]
    assert imported, "no `from veriscore import (...)` found"
    assert sorted(set(imported) - set(veriscore.__all__)) == []
    assert callable(veriscore.cli.crps)
    assert callable(veriscore.evaluation.score_components)
