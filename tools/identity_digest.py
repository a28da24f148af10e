"""One sha256 over the CLI's observable behaviour, to show two source trees agree.

Usage::

    python tools/identity_digest.py [ROOT]

ROOT is a checkout whose ``src/`` holds the ``metroent`` package (default:
this checkout).  The script runs ``metroent.cli.main`` in process over a
fixed sweep of inputs and hashes, for each call, its argv, exit code,
stdout, stderr and every file it wrote under ``--out``.  It prints the case
count and the digest; two trees print the same digest exactly when every
call behaved byte-identically.

The sweep, for every n = 1..NMAX and both bound modes:

- ``analyze --fq V --out`` at every width, height, Dyson-rank and (w, h)
  limit V of n, tight and simple, offset by -1, -1/4, 0, 1/8 and +1;
- ``analyze --xi2`` / ``--xi2-db --out`` at a few fixed values;
- ``bounds`` tables of every class;

plus the bundled dataset through ``analyze --out`` and ``rank-summary``,
and a few inputs that every version refuses.  All calls share one ``--out``
directory, emptied after each call is hashed, so the disk holds one
record's files at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

NMAX = 30
OFFSETS = (Fraction(-1), Fraction(-1, 4), Fraction(0), Fraction(1, 8), Fraction(1))
XI2_LINEAR = ("0.05", "0.354813", "0.9", "1", "1.5")
XI2_DB = ("-1000", "-20", "-4.5", "-0.5", "0", "3", "1000")
REFUSED = (
    ["analyze", "--n", "0", "--fq", "1"],
    ["analyze", "--n", "1000001", "--fq", "5"],
    ["analyze", "--n", "5", "--fq", "abc"],
    ["analyze", "--n", "5", "--fq", "-3"],
    ["analyze", "--n", "5", "--fq", "1e5000", "--out", "out"],
    ["analyze", "--n", "5", "--xi2-db", "NaN"],
    ["analyze", "--n", "5", "--xi2", "0"],
    ["analyze", "--n", "14"],
    ["analyze", "--dataset", "no-such-file.csv"],
    ["bounds", "--n", "2001", "--class", "wh"],
)


def _limits(bounds, n: int, simple: bool) -> set[Fraction]:
    """Every class limit of n in one bound mode, as exact rationals."""
    f_w = bounds.max_qfi_width_simple if simple else bounds.max_qfi_width
    limits = {Fraction(f_w(n, w)) for w in range(1, n + 1)}
    limits |= {Fraction(bounds.max_qfi_height(n, h)) for h in range(1, n + 1)}
    for r in bounds.valid_ranks(n):
        if simple:
            limits.add(Fraction(bounds.rank_limit_simple_quarters(n, r), 4))
        else:
            limits.add(Fraction(bounds.max_qfi_rank(n, r)))
    for w in range(1, n + 1):
        limits |= set(map(Fraction, bounds.wh_limit_column(n, w, simple=simple)))
    return limits


def _decimal_text(value: Fraction) -> str:
    """Exact decimal text of a value in quarters or eighths."""
    return str(Decimal(value.numerator) / Decimal(value.denominator))


def cases(bounds):
    """Every argv of the sweep, in a fixed order."""
    for n in range(1, NMAX + 1):
        for simple in (False, True):
            mode = ["--simple"] if simple else []
            values = {v + d for v in _limits(bounds, n, simple) for d in OFFSETS}
            for value in sorted(v for v in values if v > 0):
                yield ["analyze", "--n", str(n), "--fq", _decimal_text(value), "--out", "out", *mode]
            for value in XI2_LINEAR:
                yield ["analyze", "--n", str(n), "--xi2", value, "--out", "out", *mode]
            for value in XI2_DB:
                yield ["analyze", "--n", str(n), f"--xi2-db={value}", "--out", "out", *mode]
            for cls in ("w", "h", "r", "wh"):
                yield ["bounds", "--n", str(n), "--class", cls, *mode]
    yield ["analyze", "--dataset", "bundled.csv", "--out", "out"]
    yield ["analyze", "--dataset", "bundled.csv", "--out", "out", "--simple"]
    yield ["rank-summary", "--dataset", "bundled.csv"]
    yield from REFUSED


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(root / "src"))
    from metroent import bounds, cli

    if not Path(cli.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"metroent was imported from {cli.__file__}, not from {root}")
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        out_dir = Path("out")
        for case in cases(bounds):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(case)
                except SystemExit as exc:
                    code = exc.code
            digest.update(repr((case, code, stdout.getvalue(), stderr.getvalue())).encode())
            if out_dir.exists():
                for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
                    data = path.read_bytes()
                    digest.update(f"{path.as_posix()}\0{len(data)}\0".encode())
                    digest.update(data)
                shutil.rmtree(out_dir)
            count += 1
    print(f"cases: {count}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
