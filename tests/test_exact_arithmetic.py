"""The package computes with exact integers, decimals and rationals only."""

import ast
from pathlib import Path

import metroent

SOURCES = sorted(Path(metroent.__file__).parent.glob("*.py"))


def _float_uses(tree):
    """(line, what) of each float literal, ``float`` name and math use other than isqrt."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "float"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr != "isqrt"
        ):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name != "isqrt":
                    yield node.lineno, f"from math import {alias.name}"


def test_no_binary_float_in_the_package():
    assert {"bounds.py", "oracle.py", "witness.py"} <= {path.name for path in SOURCES}
    found = {
        path.name: uses
        for path in SOURCES
        if (uses := list(_float_uses(ast.parse(path.read_text(encoding="utf-8")))))
    }
    assert found == {}


def test_the_scan_sees_each_kind_of_float_use():
    source = "x = 0.5\ny = float(z)\nimport math\nw = math.sqrt(2)\nfrom math import log\nv = math.isqrt(9)\n"
    assert sorted(_float_uses(ast.parse(source))) == [
        (1, "0.5"),
        (2, "float"),
        (4, "math.sqrt"),
        (5, "from math import log"),
    ]
