"""Which ``src/metroent`` functions the commands reach, and which they never enter.

Every subcommand runs in process under ``sys.setprofile`` (CI also runs
Python 3.10, which has no ``sys.monitoring``), and each function entered
is matched by its code object.  The functions never entered must be
exactly :data:`UNREACHED`: code that only tests or the benchmark use is
a deletion candidate, so deleting it shortens the ledger, and new code
that no command reaches needs an entry and a reason.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import typing

import metroent
from metroent import cli, squeezing

N = "14"
ARGVS = [
    *(["bounds", "--n", N, "--class", cls, *simple]
      for cls in ("w", "h", "r", "wh") for simple in ([], ["--simple"])),
    *(["analyze", "--n", N, flag, value, *simple, *out]
      for flag, value in (("--fq", "40.4"), ("--xi2", "0.5"), ("--xi2-db", "-4.5"))
      for simple in ([], ["--simple"]) for out in ([], ["--out", "out"])),
    ["analyze", "--dataset", "bundled.csv"],
    ["analyze", "--dataset", "bundled.csv", "--out", "out"],
    ["rank-summary", "--dataset", "bundled.csv"],
    ["verify", "--nmax", "12"],
    # an abbreviation, which argparse reads and cli's plain reader leaves to it
    ["verify", "--nm", "12"],
]

# function -> why no command enters it
UNREACHED = {
    "bounds._wh_rows": "the rows of a (w, h) maximizer; only max_qfi_wh reads them,"
    " until an explained report prints them",
    "bounds.max_qfi_wh": "the per-tuple (w, h) limit, the tests' reference for"
    " wh_limit_column; the benchmark counts its calls",
    "cli.grid_csv_text": "a str view of the grid.csv bytes write_report streams;"
    " tests use it, and the benchmark spans its name",
    "tuples.all_tuples": "the whole tuple list, a reference for tests and the benchmark",
    "tuples.count_width_leq": "an O(n) count, the reference the benchmark's checker"
    " and tests compare witness.count_widths with",
    "tuples.count_height_geq": "an O(n) count, a reference as count_width_leq",
    "tuples.count_rank_leq": "an O(n**2) count, a reference as count_width_leq",
    "tuples.count_rank_leq_closed": "a closed-form rank count, a cross-check in tests",
    "witness.TupleGrid.__len__": "the tuple count, only for the benchmark's witness.grid_cells",
    "witness.TupleGrid.cells": "the grid itself, only for the benchmark's witness.grid_cells",
    "witness.Measurement.__eq__": "a record compares by its six fields: the record"
    " contract, pinned by tests",
    "witness.Measurement.__hash__": "hashed by the same six fields, as __eq__",
    "witness.Measurement.__repr__": "the six fields as text, as __eq__",
    "witness.Measurement.exclusion_threshold": "the Fraction view of T, which tests compare"
    " with and the benchmark spans by name",
    "witness.Measurement._fields": "the six fields that __eq__, __hash__ and __repr__ read",
    "witness._Record.__setattr__": "the read-only guard, also __delattr__: it only"
    " refuses a change, and no command makes one",
}


def package_functions() -> dict[str, typing.Callable]:
    """Every function a ``metroent`` module or class defines, by ``module.qualname``.

    Cached functions are unwrapped, and a property stands for its getter.
    """
    found = {}
    for info in pkgutil.iter_modules(metroent.__path__):
        module = importlib.import_module(f"metroent.{info.name}")
        members = list(vars(module).values())
        for cls in [m for m in members if inspect.isclass(m)]:
            if cls.__module__ == module.__name__:
                members += [getattr(m, "fget", m) for m in vars(cls).values()]
        for member in members:
            func = inspect.unwrap(member) if callable(member) else member
            if inspect.isfunction(func) and func.__module__ == module.__name__:
                found.setdefault(f"{info.name}.{func.__qualname__}", func)
    return found


def code_names() -> dict[typing.Any, str]:
    """The code object of every package function, nested named ones too, to its name."""
    names = {}

    def add(code, name):
        names[code] = name
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                add(const, f"{name}.<locals>.{const.co_name}")

    for name, func in package_functions().items():
        add(func.__code__, name)
    return names


def test_unreached_functions_are_the_ledger(capsys, tmp_path, monkeypatch):
    # no file of that name here, so bundled.csv reads the packaged data
    monkeypatch.chdir(tmp_path)
    # a call an earlier test cached would never be entered here
    squeezing.db_text_to_linear.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in ARGVS]
    finally:
        sys.setprofile(before)
    capsys.readouterr()
    assert codes == [0] * len(ARGVS)
    names = code_names()
    assert sorted(name for code, name in names.items() if code not in entered) == sorted(UNREACHED)


def test_every_function_has_resolvable_hints():
    # each annotation names something its module binds at import time
    functions = package_functions()
    assert "cli.write_report" in functions and "witness._Record.__setattr__" in functions
    for name, func in functions.items():
        try:
            typing.get_type_hints(func)
        except Exception as exc:
            raise AssertionError(f"{name}: {exc!r}") from exc
