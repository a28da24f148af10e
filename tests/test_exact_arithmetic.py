"""The package computes with exact integers, decimals and rationals only.

Its decimals are computed in fixed contexts: none reads the thread's current
decimal context or ``decimal.DefaultContext``.
"""

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


# the eight fields of a decimal.Context, in the order of its positional parameters
CONTEXT_FIELDS = ("prec", "rounding", "Emin", "Emax", "capitals", "clamp", "flags", "traps")
# the names that reach the ambient decimal context
AMBIENT = {"localcontext", "getcontext", "setcontext", "DefaultContext"}


def _named(node, names):
    """The name ``node`` refers to if it is one of ``names``, as a Name or an attribute."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in names else None


def _context_uses(tree):
    """(line, what) of each use of ambient decimal state.

    That is any name of AMBIENT, imported or read; a ``Context`` call inside a
    function or lambda, which builds a context per call; a ``Context`` call
    that leaves a field to ``decimal.DefaultContext``; and a ``Decimal`` call
    with no context, whose conversion signals in the current one.  Decimal
    operators also read the current context; the scan cannot see those, so
    the package calls the context's methods instead.
    """
    def walk(node, in_function):
        if isinstance(node, ast.ImportFrom) and node.module == "decimal":
            for alias in node.names:
                if alias.name in AMBIENT:
                    yield node.lineno, f"from decimal import {alias.name}"
        elif name := _named(node, AMBIENT):
            yield node.lineno, name
        elif isinstance(node, ast.Call) and _named(node.func, {"Context"}):
            fields = {*CONTEXT_FIELDS[: len(node.args)], *(k.arg for k in node.keywords)}
            if in_function:
                yield node.lineno, "Context() in a function"
            if fields != set(CONTEXT_FIELDS):
                yield node.lineno, "Context() without " + ", ".join(
                    f for f in CONTEXT_FIELDS if f not in fields)
        elif (isinstance(node, ast.Call) and _named(node.func, {"Decimal"}) and len(node.args) < 2
              and not any(k.arg == "context" for k in node.keywords)):
            yield node.lineno, "Decimal() without a context"
        scope = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)

    yield from walk(tree, False)


def test_no_ambient_decimal_context_in_the_package():
    assert {"cli.py", "squeezing.py", "witness.py"} <= {path.name for path in SOURCES}
    found = {
        path.name: uses
        for path in SOURCES
        if (uses := list(_context_uses(ast.parse(path.read_text(encoding="utf-8")))))
    }
    assert found == {}


def test_the_scan_sees_each_kind_of_ambient_decimal_use():
    source = (
        "from decimal import Context, Decimal, localcontext\n"
        "import decimal\n"
        "A = Context(prec=3, rounding=R, Emin=-9, Emax=9, capitals=1, clamp=0, flags=[], traps=[])\n"
        "B = Context(3, R, -9, 9, 1, 0, [], [])\n"
        "C = decimal.Context(prec=3, traps=[])\n"
        "def f(x):\n"
        "    D = Context(3, R, -9, 9, 1, 0, [], traps=[])\n"
        "    with localcontext() as ctx:\n"
        "        return decimal.getcontext().prec + Decimal(x, A) + Decimal(x, context=B)\n"
        "g = lambda kw: decimal.Context(**kw)\n"
        "h = Decimal('1')\n"
        "decimal.DefaultContext.prec = 3\n"
    )
    assert sorted(_context_uses(ast.parse(source))) == [
        (1, "from decimal import localcontext"),
        (5, "Context() without rounding, Emin, Emax, capitals, clamp, flags"),
        (7, "Context() in a function"),
        (8, "localcontext"),
        (9, "getcontext"),
        (10, "Context() in a function"),
        (10, "Context() without prec, rounding, Emin, Emax, capitals, clamp, flags, traps"),
        (11, "Decimal() without a context"),
        (12, "DefaultContext"),
    ]


def _decimal_calls(tree):
    """The dotted name of the class and function around each use of ``decimal``.

    That is each ``Decimal(...)`` call, and each import from ``decimal`` or
    from ``_exact``, the package's module of decimal contexts.
    """
    def walk(node, scope):
        if isinstance(node, ast.Call) and _named(node.func, {"Decimal"}):
            yield scope
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if {"decimal", "_exact"} & {name.rpartition(".")[2] for name in names}:
                yield scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)

    yield from walk(tree, "")


def test_decimal_loads_only_for_a_db_value():
    # Measurement reads a value's text once, as an integer ratio, no
    # Decimal(...) call reads text, and report.json's q_advantage is worked
    # out in integers; decimal and the contexts of _exact are imported by
    # _exact itself and by squeezing's one accessor, at the first dB value
    found = sorted(path.stem + scope for path in SOURCES
                   for scope in _decimal_calls(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == ["_exact", "squeezing._contexts"]


def test_the_scan_sees_each_decimal_call():
    source = (
        "import decimal\n"
        "A = Decimal('1', C)\n"
        "class M:\n"
        "    def f(self, x):\n"
        "        g = lambda: decimal.Decimal(x, C)\n"
        "        return Decimal\n"
        "    def g(self):\n"
        "        from ._exact import EXACT\n"
        "        import os, decimal as d\n"
        "        from . import bounds\n"
        "        from .witness import Decimal\n"
        "        from . import _exact\n"
    )
    assert list(_decimal_calls(ast.parse(source))) == ["", "", ".M.f", ".M.g", ".M.g", ".M.g"]
