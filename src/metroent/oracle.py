"""Brute-force ground truth for every closed-form sensitivity limit.

The oracle keeps, as a plain int, the largest squared-row sum of every
(width, height) shape of n.  It folds those into one prefix table over
width of suffix maxima over height, ``corner``, so a width, height or
(width, height) class maximum is one table entry, and the (width, height)
maxima of one width, read as a slice of the table, are checked against
that width's closed-form column in one comparison.  A Dyson-rank class is
the union of the (width, height) classes along its diagonal, so its
maximum, :func:`brute_force_max`, is one ``max`` over a diagonal of the
table.  One enumeration of the partitions of n_max gives the shapes of
every n <= n_max: stripping j of a partition's 1-rows leaves a partition of
n_max - j of the same width, j fewer rows and a squared-row sum j lower,
and every partition of n_max - j arises so exactly once.  It returns values
only: the diagram attaining a limit comes from the closed form
(:func:`metroent.bounds._wh_rows`), which the values check.  It never
shares code with the closed forms it checks, and keeps no state between
calls.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest

from . import bounds, tuples
from .partitions import iter_partition_rows

# Largest n_max verify_closed_forms accepts.  The sweep walks the p(n_max)
# partitions of n_max once and strips their 1-rows for every smaller n, and
# p(n) grows like exp(pi * sqrt(2n/3)): n_max = 60 (p(60) = 966467) takes
# about 3.2 s (3.1 to 3.3 s over three runs) on a 2-vCPU x86 machine with
# Python 3.11, while n_max = 200 would walk p(200), about 4e12 partitions.
MAX_NMAX = 60


def _shape_tables(top: int) -> list[list[list[int]]]:
    """The per-shape tables of every n in 1..top, from one pass over the partitions of top.

    ``tables[j]`` is the table of n = top - j: entry ``[w][h]``, for
    1 <= w <= n and 0 <= h <= n + 1, is the largest squared-row sum over the
    partitions of n with width w and height h, or 0 when there is no such
    shape; every real entry is at least n >= 1.  A partition of top with c
    1-rows also stands for the partitions of top - j, for j = 0..c, left by
    stripping j of them.
    """
    tables = [[[0] * (n + 2) for _ in range(n + 1)] for n in range(top, 0, -1)]
    square = [k * k for k in range(top + 1)].__getitem__
    for rows in iter_partition_rows(top):
        s = sum(map(square, rows))
        h = len(rows)
        w = rows[0]
        for table in tables:
            by_height = table[w]
            if s > by_height[h]:
                by_height[h] = s
            # strip the last row if it is a 1: one row fewer, a squared-row sum 1 lower
            h -= 1
            if rows[h] != 1:
                break
            s -= 1
    return tables


def _fold(table: list[list[int]]) -> list[list[int]]:
    """Fold the per-shape table of n into one prefix table ``corner[w][h]``.

    ``corner[w][h]`` is the largest squared-row sum over the partitions of n
    with width <= w and height >= h, for 0 <= w <= n and 0 <= h <= n + 1; 0
    where there is none.  Row w is the element-wise max of row w - 1 and the
    suffix maxima of width w's whole row of shapes, where a missing shape is
    0.  The fold costs O(n**2), and the table answers every class.
    """
    corner = [[0] * len(table[0])]
    for row in table[1:]:
        suffix = list(accumulate(reversed(row), max))
        suffix.reverse()
        corner.append(list(map(max, corner[-1], suffix)))
    return corner


def brute_force_max(corner: list[list[int]], max_rank: int) -> int:
    """The largest squared-row sum over the partitions of n with Dyson rank <= max_rank.

    ``corner`` is the :func:`_fold` of n's per-shape table, and n is
    ``len(corner) - 1``.  The class is the union over the widths w of the
    (w, h) classes with h = max(w - max_rank, 0): every partition such an
    entry counts has rank <= max_rank, and one of width w in the rank class
    lies in the entry of w.  ``corner`` grows with w, so the widths up to
    max_rank, which read height 0, are matched by the next width's entry at
    height 1 (every partition has a row); their entry stands alone only when
    no width is wider.  So the answer is one ``max`` over the diagonal, O(n).
    Raises ValueError when the class is empty (max_rank < 1 - n).
    """
    n = len(corner) - 1
    flat = min(max(max_rank, 0), n)
    # each wider width w reads height w - max_rank, up to height n
    diagonal = map(list.__getitem__, corner[flat + 1 :], range(flat + 1 - max_rank, n + 1))
    found = max(diagonal, default=corner[flat][0])
    if not found:
        raise ValueError(f"no partition of n={n} has Dyson rank <= {max_rank}")
    return found


def verify_closed_forms(n_max: int) -> list[dict]:
    """Compare every closed form against brute force for all n <= n_max.

    One enumeration of the partitions of n_max, with their 1-rows stripped,
    gives the per-shape table of every n <= n_max, and each is folded once;
    neither outlives the call.  Each family of one n is then compared as one
    list, and only a family whose lists differ is walked class by class: the
    width classes (``corner[w][0]``) against
    :func:`metroent.bounds.max_qfi_width`, the height classes
    (``corner[n][h]``) against :func:`metroent.bounds.max_qfi_height`, the
    valid (w, h) tuples one width at a time, the ``corner`` entries at width
    w's heights against :func:`metroent.bounds.wh_limit_column` (the limits
    ``grid.csv`` and ``bounds --class wh`` print), and every realizable
    Dyson rank r, one ``brute_force_max(corner, r)`` call, against both
    :func:`metroent.bounds.max_qfi_rank` (the scalar inference bisects) and
    :func:`metroent.bounds.rank_limit_column` (the column
    ``bounds --class r`` prints).  After the fold a width or height class
    costs O(1), and a rank class or a width's column O(n).  Returns the
    (possibly empty) list of mismatches, each a dict with keys "n", "class",
    "closed" and "brute"; within one n the (w, h) tuples come first, by w
    then h, then the width, height and rank classes, the scalar's rank
    mismatches before the column's.
    Mismatches are data, not errors, and a class label is formatted only for
    a mismatch.  n_max >= 18 covers both two-full-row rank special cases
    (n + r = 10 and 16) and the n + r = 4 corner.  n_max must lie in
    2..MAX_NMAX, checked before any enumeration starts.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if n_max > MAX_NMAX:
        raise ValueError(
            f"n_max must be <= {MAX_NMAX}, got {n_max}: "
            "the exhaustive sweep enumerates all p(n_max) partitions of n_max"
        )
    found: list[dict] = []

    def compare(closed, brute, label, keys):
        if closed != brute:
            for key, c, b in zip_longest(keys, closed, brute):
                if c != b:
                    found.append({"n": n, "class": label.format(key), "closed": c, "brute": b})

    tables = _shape_tables(n_max)
    for n in range(1, n_max + 1):
        corner = _fold(tables[n_max - n])
        for w in range(1, n + 1):
            hs = tuples.heights(n, w)
            compare(bounds.wh_limit_column(n, w), corner[w][hs.start : hs.stop], f"wh({w},{{}})", hs)
        classes = range(1, n + 1)
        compare(
            [bounds.max_qfi_width(n, w) for w in classes],
            [row[0] for row in corner[1:]],
            "w({})",
            classes,
        )
        compare([bounds.max_qfi_height(n, h) for h in classes], corner[n][1 : n + 1], "h({})", classes)
        ranks = list(bounds.valid_ranks(n))
        brute = [brute_force_max(corner, r) for r in ranks]
        compare([bounds.max_qfi_rank(n, r) for r in ranks], brute, "r({})", ranks)
        compare(list(bounds.rank_limit_column(n)), brute, "r({})", ranks)
    return found
