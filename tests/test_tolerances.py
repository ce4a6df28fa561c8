"""Every float tolerance of the package sits in ``metrics``' tolerance block, named, documented and pinned.

The block is the module-level assignments of ``metrics.py`` that carry a
docstring. Outside it no module writes a float literal below 1e-3, except
the thresholds in ``PROVEN``: each is set by a proof, not as room for
float noise.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "calparity"
TESTS = Path(__file__).parent

# (module, top-level name) -> the small literals it holds.
PROVEN = {
    ("cli", "_encode_records"): {1e-4, 1e-11},  # bound the values whose "%.12g" text equals their repr
    ("synthetic", "_MIN_MEAN_PROB"): {1e-300},  # margins of the degenerate-spec check's error bound
    ("synthetic", "_MAX_MEAN_PROB"): {1e-6},
}

PINNED_BY = re.compile(r"``(test_\w+\.py)::([\w:]+)``")


def _small_floats(node: ast.AST) -> set[float]:
    return {
        n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and type(n.value) is float and 0 < n.value < 1e-3
    }


def _name(statement: ast.stmt) -> str | None:
    """The name a top-level statement defines: a function's, a class's, or a single assignment target's."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return statement.name
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return targets[0].id if len(targets) == 1 and isinstance(targets[0], ast.Name) else None


def _tolerance_block() -> dict[str, tuple[ast.stmt, str]]:
    """``metrics``' module-level assignments that carry a docstring: name -> (assignment, docstring)."""
    body = ast.parse((SRC / "metrics.py").read_text()).body
    return {
        _name(statement): (statement, doc.value.value)
        for statement, doc in zip(body, body[1:])
        if isinstance(statement, ast.Assign)
        and isinstance(doc, ast.Expr)
        and isinstance(doc.value, ast.Constant)
        and isinstance(doc.value.value, str)
    }


def _defines(path: Path, qualname: str) -> bool:
    scope = ast.parse(path.read_text()).body
    for part in qualname.split("::"):
        node = next((n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part), None)
        if node is None:
            return False
        scope = node.body
    return True


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_tolerance_outside_the_block(path):
    module = path.stem
    block = {statement.lineno for statement, _ in _tolerance_block().values()} if module == "metrics" else set()
    for statement in ast.parse(path.read_text()).body:
        if statement.lineno in block:
            continue
        small = _small_floats(statement)
        allowed = PROVEN.get((module, _name(statement)), set())
        assert small <= allowed, f"{module}.{_name(statement)} (line {statement.lineno}) holds {small - allowed}"


def test_proven_thresholds_are_where_named():
    for (module, name), literals in PROVEN.items():
        body = ast.parse((SRC / f"{module}.py").read_text()).body
        statement = next(s for s in body if _name(s) == name)
        assert _small_floats(statement) == literals, (module, name)


def test_each_tolerance_says_which_test_pins_it():
    block = _tolerance_block()
    assert {"COORD_SLACK", "PIVOT_TOL", "RATE_MATCH_TOL", "VERTEX_TOL", "DIAGNOSE_TOL"} <= set(block)
    for name, (_, doc) in block.items():
        pins = PINNED_BY.findall(doc)
        assert pins, f"{name}'s docstring names no test"
        for filename, qualname in pins:
            assert _defines(TESTS / filename, qualname), f"{name} names {filename}::{qualname}, which is not defined"
