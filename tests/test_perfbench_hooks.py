"""perfbench wraps mlrf functions by name; every name it traces must exist."""

import ast
import importlib
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def traced_entries() -> dict:
    """The ``TRACED`` literal of perfbench/worker.py, read without importing it."""
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {WORKER}")


TRACED = traced_entries()


@pytest.mark.parametrize("span", sorted(TRACED))
def test_traced_hook_resolves(span):
    module, path = TRACED[span]
    owner = importlib.import_module(f"mlrf.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"{span}: mlrf.{module}.{path} is missing"
        owner = getattr(owner, part)
    assert callable(owner)
