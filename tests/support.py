"""Independent reference implementations used to pin expected test values.

Deliberately different algorithms from the package: partitions come from
Kelleher's ascending-composition generator (the package runs ZS1 over
descending parts), counts come from the classic bounded-part recurrence,
the inferred w, h and r come from linear scans instead of bisection, and
the per-tuple exclusion grid compares every tuple with its own class
limits instead of solving the (w, h) staircase per width, and the oracle's
per-shape tables, which strip 1-rows off one enumeration of n_max, come
from one pass over each n's own partitions.  The oracle's band fold is
checked against a fold of every whole row, and ``analyze``'s whole answer
against one read off the oracle's tables alone, counted by bisection over
sorted class maxima where ``analyze`` sums widths in blocks.  The counts
are also checked against a walk that solves every width up to n - h, and
the O(1) (w, h) inverse against a bisection of each width's limit column.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from bisect import bisect_left
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from metroent import bounds, cli, oracle, tuples, witness
from metroent.oracle import iter_partition_rows


def accel_asc(n):
    """Kelleher's ascending-composition enumeration of the partitions of n."""
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        yield tuple(a[: k + 1])


def partitions_desc(n):
    """All partitions of n as non-increasing tuples, in no particular order."""
    for p in accel_asc(n):
        yield tuple(sorted(p, reverse=True))


def count_partitions(n: int) -> int:
    """Partition count p(n) via the bounded-largest-part recurrence."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][k] if m >= k else 0)
    return table[n][n]


def matches(rows, max_width=None, min_height=None, max_rank=None) -> bool:
    if max_width is not None and rows[0] > max_width:
        return False
    if min_height is not None and len(rows) < min_height:
        return False
    if max_rank is not None and rows[0] - len(rows) > max_rank:
        return False
    return True


def filtered_partitions(n, max_width=None, min_height=None, max_rank=None):
    """Post-filtered enumeration, the reference for constrained generation."""
    return [
        p
        for p in partitions_desc(n)
        if matches(p, max_width=max_width, min_height=min_height, max_rank=max_rank)
    ]


def brute_max_squares(n, max_width=None, min_height=None, max_rank=None):
    """(max squared-row sum, largest maximizer) over a filtered class, or None when empty."""
    return max(
        (
            (sum(x * x for x in p), p)
            for p in filtered_partitions(
                n, max_width=max_width, min_height=min_height, max_rank=max_rank
            )
        ),
        default=None,
    )


def shape_table(n: int) -> list[list[int]]:
    """The largest squared-row sum of each (width, height) shape of n, from one pass over n alone.

    Entry ``[w][h]``, for 1 <= w <= n and 0 <= h <= n + 1, is the largest
    squared-row sum over the partitions of n with width w and height h, or 0
    when there is no such shape.  The reference for the oracle's tables,
    which read every n <= n_max off the partitions of n_max.
    """
    best = [[0] * (n + 2) for _ in range(n + 1)]
    square = [k * k for k in range(n + 1)].__getitem__
    for rows in iter_partition_rows(n):
        s = sum(map(square, rows))
        by_height = best[rows[0]]
        h = len(rows)
        if s > by_height[h]:
            by_height[h] = s
    return best


def reference_fold(table: list[list[int]]) -> list[list[int]]:
    """The oracle's prefix table ``corner[w][h]``, folded over every whole row.

    Row w is the element-wise max of row w - 1 and the suffix maxima of
    width w's whole row of shapes, where a missing shape is 0; the oracle
    folds only each width's band of real shapes.
    """
    corner = [[0] * len(table[0])]
    for row in table[1:]:
        suffix = list(accumulate(reversed(row), max))
        suffix.reverse()
        corner.append(list(map(max, corner[-1], suffix)))
    return corner


def brute_answer(table, corner, ranks):
    """Integer QFI threshold -> (w, h, r, counts), read off the oracle's tables of n alone.

    ``table`` is n's per-shape table, and ``corner`` and ``ranks`` are its
    prefix table and rank column (``oracle.brute_force_max``).  At threshold
    T, w is the first width whose class maximum reaches T (n + 1 if none), h
    the last height (0 if none) and r the first realizable rank (n if none);
    each count is the number of shapes of n whose width, height, rank or
    (width, height) class maximum is below T.  A rank is realizable when a
    shape lies on its diagonal.  Each family's class maxima over the shapes
    are sorted once, so a count is one bisection.
    """
    n = len(corner) - 1
    shapes = [(w, h) for w, row in enumerate(table) for h, s in enumerate(row) if s]
    realizable = sorted({w - h for w, h in shapes})
    maxima = {
        "by_w": sorted(corner[w][0] for w, _ in shapes),
        "by_h": sorted(corner[n][h] for _, h in shapes),
        "by_r": sorted(ranks[w - h + n - 1] for w, h in shapes),
        "by_wh": sorted(corner[w][h] for w, h in shapes),
    }

    def answer(threshold):
        w = next((w for w in range(1, n + 1) if corner[w][0] >= threshold), n + 1)
        h = next((h for h in range(n, 0, -1) if corner[n][h] >= threshold), 0)
        r = next((r for r in realizable if ranks[r + n - 1] >= threshold), n)
        counts = {family: bisect_left(values, threshold) for family, values in maxima.items()}
        return w, h, r, counts

    return answer


def _answer_disagreements(ns: range, cases) -> tuple[int, list[tuple]]:
    """``analyze``'s tight answer against :func:`brute_answer` for every n in ``ns``.

    ``cases(n, limits)`` yields, from the sorted distinct (w, h) limits of
    n, ``(measurement, threshold)`` pairs: what ``analyze`` reads and the
    integer threshold brute force reads.  Returns the number of cases
    checked and the disagreements, each ``(n, value text, analyze's answer,
    brute force's answer)``.
    """
    n_max = ns[-1]
    tables = oracle._shape_tables(n_max)
    checked = 0
    disagreements = []
    for n in ns:
        table = tables[n_max - n]
        corner, ranks = oracle.brute_force_max(table)
        answer = brute_answer(table, corner, ranks)
        limits = {s for w, row in enumerate(corner) for h, s in enumerate(row) if table[w][h]}
        for m, threshold in cases(n, sorted(limits)):
            report = witness.analyze(m)
            got = (report.depth, report.separability, report.rank, report.counts)
            expected = answer(threshold)
            checked += 1
            if got != expected:
                disagreements.append((n, m.value, got, expected))
    return checked, disagreements


def answer_disagreements(n_max: int) -> tuple[int, list[tuple]]:
    """:func:`_answer_disagreements` for every n <= n_max, at QFI thresholds.

    The thresholds are every distinct (w, h) limit L of n and L + 1: each one
    where some class turns excluded.
    """

    def cases(n, limits):
        for threshold in sorted({*limits, *(limit + 1 for limit in limits)}):
            yield witness.Measurement("brute", n, "fq", str(threshold)), threshold

    return _answer_disagreements(range(1, n_max + 1), cases)


def linear_xi2_disagreements(ns: range) -> tuple[int, list[tuple]]:
    """:func:`_answer_disagreements` for every n in ``ns``, at linear squeezing values.

    Each distinct (w, h) limit L of n is met by xi**2 = 2n/(L + 2n), written
    at 15 significant digits rounded down and rounded up.  Brute force reads
    the ceiling of the exact threshold 2n(1 - xi**2)/xi**2 of that text: an
    integer limit is below the threshold exactly when it is below its
    ceiling.
    """

    def cases(n, limits):
        for limit in limits:
            for rounding in (ROUND_FLOOR, ROUND_CEILING):
                text = str(Context(prec=15, rounding=rounding).divide(2 * n, limit + 2 * n))
                q = Fraction(text)
                threshold = 2 * n * (1 - q) / q
                m = witness.Measurement("brute", n, "xi2", text, "linear")
                yield m, -(-threshold.numerator // threshold.denominator)

    return _answer_disagreements(ns, cases)


def walk_exclusion_counts(
    m, depth: int, separability: int, rank: int, *, simple: bool = False
) -> dict[str, int]:
    """The four excluded-tuple counts, tallied width by width over 1..n - separability.

    The reference for ``witness.exclusion_counts``, which sums whole widths
    in floor-division blocks and solves only the band depth..n - h: here
    every width up to n - separability is solved and its W, H, R and (w, h)
    cuts are added one by one.
    """
    n, f_max = m.n, m._cut1 - 1
    by_w = by_h = by_r = by_wh = 0
    for w in range(1, n - separability + 1):
        lo, hi = -(-n // w), n + 1 - w
        p = bounds.wh_first_height_at_most(n, w, f_max, simple=simple)
        if w < depth:
            by_w += hi - lo + 1
        by_h += hi - max(lo, separability + 1) + 1
        by_r += max(0, hi - max(lo, w - rank + 1) + 1)
        by_wh += hi + 1 - p
    return {"by_w": by_w, "by_h": by_h, "by_r": by_r, "by_wh": by_wh}


def first_height_disagreements(cases) -> tuple[int, list[tuple]]:
    """``bounds.wh_first_height_at_most`` against a search of the column it inverts.

    ``cases`` yields ``(n, w, simple, f_maxes)``: each f_max is one case.
    The first height whose limit is at most f_max is found by bisecting
    ``bounds.wh_limit_column(n, w, simple=simple)``, which falls as h rises,
    and is n + 2 - w when there is none.  Returns the number of cases and
    the disagreements, each ``(n, w, simple, f_max, the inverse's height,
    the column's height)``.
    """
    checked = 0
    disagreements = []
    for n, w, simple, f_maxes in cases:
        column = bounds.wh_limit_column(n, w, simple=simple)
        for f_max in f_maxes:
            expected = -(-n // w) + bisect_left(column, True, key=lambda f: f <= f_max)
            got = bounds.wh_first_height_at_most(n, w, f_max, simple=simple)
            checked += 1
            if got != expected:
                disagreements.append((n, w, simple, f_max, got, expected))
    return checked, disagreements


def count_disagreements(ms, *, simple: bool) -> list[tuple]:
    """``witness.exclusion_counts`` against :func:`walk_exclusion_counts` for each of ``ms``.

    Both read the same inferred w, h and r.  Returns the disagreements, each
    ``(n, value text, exclusion_counts' answer, the walk's answer)``.
    """
    disagreements = []
    for m in ms:
        answer = (
            witness.infer_depth(m, simple=simple),
            witness.infer_separability(m),
            witness.infer_rank(m, simple=simple),
        )
        got = witness.exclusion_counts(m, *answer, simple=simple)
        expected = walk_exclusion_counts(m, *answer, simple=simple)
        if got != expected:
            disagreements.append((m.n, m.value, got, expected))
    return disagreements


def fraction_to_decimal_text(value: Fraction) -> str:
    """Exact decimal text of a rational whose denominator divides a power of ten."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{value} has no terminating decimal form")
    scale = max(twos, fives)
    scaled = abs(value.numerator) * 10**scale // value.denominator
    digits = str(scaled).rjust(scale + 1, "0")
    text = digits if scale == 0 else f"{digits[:-scale]}.{digits[-scale:]}"
    return f"-{text}" if value < 0 else text


def quantity(m) -> Decimal:
    """The measured quantity of ``m`` on linear scale, the exact ``Decimal`` it keeps."""
    return m._quantity


def wh_limit(n: int, w: int, h: int, simple: bool = False) -> int:
    """The limit of a valid (w, h): ``bounds.max_qfi_wh``, or the simple w*(n - h) + n above it.

    ``bounds.wh_limit_column(n, w, simple=simple)`` is this limit at every
    valid height of width w.
    """
    return w * (n - h) + n if simple else bounds.max_qfi_wh(n, w, h)


def rank_limit(n, r, simple: bool = False) -> Fraction:
    """The rank limit as an exact rational, from its integer quarters."""
    return Fraction(bounds.rank_limit_quarters(n, r, simple=simple), 4)


def scan_depth(m, simple: bool) -> int:
    """The first compatible width by a linear scan, n + 1 when there is none."""
    threshold = m.exclusion_threshold()
    widths = range(1, m.n + 1)
    return next((w for w in widths if bounds.max_qfi_width(m.n, w, simple) >= threshold), m.n + 1)


def scan_separability(m) -> int:
    """The last compatible height by a linear scan down from n, 0 when there is none."""
    threshold = m.exclusion_threshold()
    heights = range(m.n, 0, -1)
    return next((h for h in heights if bounds.max_qfi_height(m.n, h) >= threshold), 0)


def scan_rank(m, simple: bool) -> int:
    """The first compatible realizable rank by a linear scan, n when there is none."""
    threshold = m.exclusion_threshold()
    ranks = bounds.valid_ranks(m.n)
    return next((r for r in ranks if rank_limit(m.n, r, simple) >= threshold), m.n)


class ReferenceCell(NamedTuple):
    """One (w, h) tuple with its QFI limit and per-criterion exclusion flags."""

    w: int
    h: int
    f: int
    excluded_w: bool
    excluded_h: bool
    excluded_r: bool
    excluded_wh: bool

    def status(self) -> str:
        """The grid.csv status: violated projections as W, H, R, else WH or OK."""
        flags = "W" * self.excluded_w + "H" * self.excluded_h + "R" * self.excluded_r
        return flags or ("WH" if self.excluded_wh else "OK")


def reference_grid_rows(m, simple: bool) -> list[ReferenceCell]:
    """Every valid tuple of ``m``, each flag read from its own class limit.

    A class is excluded when its limit is below ``m.exclusion_threshold()``;
    no inferred w, h or r and no staircase pointer is involved.
    """
    n, threshold = m.n, m.exclusion_threshold()
    out_w = {w: bounds.max_qfi_width(n, w, simple) < threshold for w in range(1, n + 1)}
    out_h = {h: bounds.max_qfi_height(n, h) < threshold for h in range(1, n + 1)}
    out_r = {r: rank_limit(n, r, simple) < threshold for r in bounds.valid_ranks(n)}
    rows = []
    for w, h in tuples.all_tuples(n):
        f = wh_limit(n, w, h, simple)
        rows.append(ReferenceCell(w, h, f, out_w[w], out_h[h], out_r[w - h], f < threshold))
    return rows


def reference_csv_text(rows) -> str:
    """The grid.csv text of reference rows."""
    return "w,h,f_wh,status\n" + "".join(f"{c.w},{c.h},{c.f},{c.status()}\n" for c in rows)


def grid_counts(rows) -> dict[str, int]:
    """The four exclusion counts tallied row by row over reference rows."""
    return {
        "by_w": sum(c.excluded_w for c in rows),
        "by_h": sum(c.excluded_h for c in rows),
        "by_r": sum(c.excluded_r for c in rows),
        "by_wh": sum(c.excluded_wh for c in rows),
    }


def grid_cells(grid) -> list[tuple[int, int, int, str]]:
    """The ``(w, h, f, status)`` rows of ``grid`` as ``grid.csv`` writes them."""
    lines = cli.grid_csv_text(grid).splitlines()
    assert lines[0] == "w,h,f_wh,status"
    rows = []
    for line in lines[1:]:
        w, h, f, status = line.split(",")
        rows.append((int(w), int(h), int(f), status))
    return rows


def cell_flags(cell, threshold) -> tuple[bool, bool, bool, bool]:
    """The (W, H, R, (w, h)) flags of one ``(w, h, f, status)`` grid cell.

    W and H together force R, so a WH status names the (w, h) flag alone.
    """
    _, _, f, status = cell
    letters = "" if status in ("OK", "WH") else status
    return "W" in letters, "H" in letters, "R" in letters, f < threshold


# the differential check of cli._read_plain against argparse: values that fit
# some option, values argparse reads by its own rules (negative numbers, "-5."
# and "-1e3" that it does not, a non-ASCII digit that its \d takes, "" and
# "a b"), and tokens that only argparse reads: help, "--", abbreviations, junk
PLAIN_VALUES = ("14", "6", "0", "+7", "-3", "-4.5", "-.5", "-5.", "-1e3", "-٣", "٣", "1_0", " 7",
                "-5\n", "40.4", "bundled.csv", "w", "wh", "q", "", "a b", "-a b", "x=y", "-", "--",
                "-h", "--n", "--fq=1")
PLAIN_ODD = ("-h", "--help", "--he", "--", "x", "-x", "-5", "--bogus", "--nm", "--d", "--x",
             "--xi2-", "--si", "--cl", "--o", "--n ")


def plain_reader_argvs(seed: int, per_command: int):
    """``per_command`` seeded argvs per command, drawn from ``PLAIN_VALUES`` and ``PLAIN_ODD``.

    Each is the command's name, each required flag with a fitting value half
    the time, then up to five words, each a flag of some command or a
    ``PLAIN_ODD`` token, alone, with a value joined by ``=`` or with one as
    the next word.  A value fits the flag's choices or type 7 times in 10,
    else is drawn from ``PLAIN_VALUES``.
    """
    rng = random.Random(seed)
    flags = sorted({flag for _, _, options in cli._COMMANDS.values() for flag, _ in options})

    def value(kw):
        fits = kw.get("choices") or (("14", "6", "-3") if "type" in kw else ("-4.5", "a b"))
        return rng.choice(fits if rng.random() < 0.7 else PLAIN_VALUES)

    for command, (_, _, options) in cli._COMMANDS.items():
        own = dict(options)
        for _ in range(per_command):
            argv = [command]
            for flag, kw in options:
                if kw.get("required") and rng.random() < 0.5:
                    argv += [flag, value(kw)]
            for _ in range(rng.randint(0, 5)):
                flag = rng.choice(list(own) if rng.random() < 0.85 else flags + list(PLAIN_ODD))
                text = value(own.get(flag, {}))
                argv += rng.choice([[flag], [flag, text], [f"{flag}={text}"]])
            yield argv


def plain_reader_disagreements(seed: int, per_command: int) -> tuple[int, int, list[list[str]]]:
    """Argvs of :func:`plain_reader_argvs` that ``cli._read_plain`` reads otherwise than argparse.

    The reader either declines an argv or gives argparse's namespace: an argv
    it reads must parse under the top parser to the same namespace, value
    types included, but for its ``command``.  Returns how many argvs were
    read and declined, and the argvs that disagree.
    """
    parser = cli._build_parser()
    read = declined = 0
    disagreements = []
    for argv in plain_reader_argvs(seed, per_command):
        got = cli._read_plain(argv)
        if got is None:
            declined += 1
            continue
        read += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                expected = vars(parser.parse_args(argv))
        except SystemExit:
            expected = None
        else:
            del expected["command"]
        typed = {name: (type(v), v) for name, v in vars(got).items()}
        if expected is None or typed != {name: (type(v), v) for name, v in expected.items()}:
            disagreements.append(argv)
    return read, declined, disagreements


def main_escapes(seed: int, per_command: int, workdir) -> tuple[int, list[tuple[list[str], str]]]:
    """The argvs of :func:`plain_reader_argvs` that ``cli._read_plain`` declines and ``cli.main`` raises on.

    Each declined argv runs through ``cli.main`` in ``workdir``, so that a
    relative ``--out`` or ``--dataset`` lands there, with its output
    discarded.  An int return and ``SystemExit`` are the two ends a command
    line may have.  Returns how many argvs were declined, and each other end
    as ``(argv, repr)``.
    """
    declined, escapes = 0, []
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in plain_reader_argvs(seed, per_command):
            if cli._read_plain(argv) is not None:
                continue
            declined += 1
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
            except SystemExit:
                continue
            except Exception as exc:
                code = exc
            if type(code) is not int:
                escapes.append((argv, repr(code)))
    finally:
        os.chdir(home)
    return declined, escapes
