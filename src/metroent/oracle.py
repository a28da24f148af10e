"""Brute-force ground truth for every closed-form sensitivity limit.

The oracle enumerates the partitions of each n once and keeps, as a plain
int, the largest squared-row sum of every (width, height) shape.  It folds
those into one prefix table over width of suffix maxima over height, so a
width, height or (width, height) class maximum is one table entry.  A
Dyson-rank class is the union of the (width, height) classes along its
diagonal, so its maximum is one entry per width; the (width, height) maxima
of one width, read as a slice of the same table, are checked against that
width's closed-form column in one comparison.  It returns values only: the
diagram attaining a limit comes from the closed form
(:func:`metroent.bounds._wh_rows`), which the values check.  It never
shares code with the closed forms it checks.
"""

from __future__ import annotations

import functools
from itertools import accumulate, zip_longest

from . import bounds, tuples
from .partitions import iter_partition_rows

# Largest n_max verify_closed_forms accepts.  The sweep enumerates all p(n)
# partitions of each n, and p(n) grows like exp(pi * sqrt(2n/3)): n_max = 60
# (p(60) = 966467) takes about 11 s (10.7 to 11.9 s over four runs) on a
# 2-vCPU x86 machine with Python 3.11, while n_max = 200 would walk p(200),
# about 4e12 partitions.
MAX_NMAX = 60


class EmptyClassError(ValueError):
    """Raised when a class admits no partition of the given n."""


def _shape_table(n: int) -> list[list[int]]:
    """The largest squared-row sum of each (width, height) shape, from one pass over partitions.

    Entry ``[w][h]``, for 1 <= w <= n and 0 <= h <= n + 1, is the largest
    squared-row sum over the partitions of n with width w and height h, or 0
    when there is no such shape; every real entry is at least n >= 1.
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


@functools.lru_cache(maxsize=1)
def _shape_maxima(n: int) -> list[list[int]]:
    """Fold the per-shape table of n into one prefix table ``corner[w][h]``.

    ``corner[w][h]`` is the largest squared-row sum over the partitions of n
    with width <= w and height >= h, for 0 <= w <= n and 0 <= h <= n + 1; 0
    where there is none.  Row w is the element-wise max of row w - 1 and the
    suffix maxima of width w's whole row of shapes, where a missing shape is
    0.  The fold costs O(n**2), and the table answers every class.
    """
    corner = [[0] * (n + 2)]
    for row in _shape_table(n)[1:]:
        suffix = list(accumulate(reversed(row), max))
        suffix.reverse()
        corner.append(list(map(max, corner[-1], suffix)))
    return corner


def brute_force_max(
    n: int,
    *,
    max_width: int | None = None,
    min_height: int | None = None,
    max_rank: int | None = None,
) -> int:
    """Exhaustively maximize the squared-row sum over one class of partitions.

    The class holds the partitions of n with width <= max_width, height >=
    min_height and Dyson rank <= max_rank; a limit left at None cuts
    nothing.  One prefix table, ``_shape_maxima(n)``, answers every class.
    Without max_rank the answer is one entry, and a call costs O(1).  With
    max_rank the class is the union, over the admitted widths w, of the
    entries at (w, max(min_height, w - max_rank)), and a call costs O(n):
    every partition those entries count has rank <= max_rank, and a
    partition of width w' in the class lies in the entry of w'.
    """
    corner = _shape_maxima(n)
    widths = n if max_width is None else max_width
    least_h = 0 if min_height is None else min_height
    # heights start at 1 and end at n, so 0 and n + 1 stand for any lower or higher limit
    if not 0 <= widths <= n:
        widths = 0 if widths < 0 else n
    if not 0 <= least_h <= n + 1:
        least_h = 0 if least_h < 0 else n + 1
    if max_rank is None:
        found = corner[widths][least_h]
    else:
        found = 0
        for w in range(1, widths + 1):
            # max(least_h, w - max_rank) inlined: this loop is most of a rank query
            h = w - max_rank
            if h < least_h:
                h = least_h
            if h <= n:
                entry = corner[w][h]
                if entry > found:
                    found = entry
    if not found:
        raise EmptyClassError(
            f"no partition of n={n} satisfies max_width={max_width}, "
            f"min_height={min_height}, max_rank={max_rank}"
        )
    return found


def verify_closed_forms(n_max: int) -> list[dict]:
    """Compare every closed form against brute force for all n <= n_max.

    Sweeps every marginal width/height class and every realizable Dyson
    rank, one ``brute_force_max`` call per class, and the valid (w, h)
    tuples one width at a time: the ``corner`` entries at width w's heights
    are compared as one list with :func:`metroent.bounds.wh_limit_column`,
    the limits ``grid.csv`` and ``bounds --class wh`` print, and only a
    width whose lists differ is walked tuple by tuple.  All classes of one n
    share one enumeration and one fold, after which a width or height class
    costs O(1), and a rank class or a width's column O(n).  Returns the
    (possibly empty) list of mismatches, each a dict with keys "n", "class",
    "closed" and "brute"; within one n the (w, h) tuples come first, by w
    then h.  Mismatches are data, not errors, and a class label is formatted
    only for a mismatch.  n_max >= 18 covers both two-full-row rank special
    cases (n + r = 10 and 16) and the n + r = 4 corner.  n_max must lie in
    2..MAX_NMAX, checked before any enumeration starts.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if n_max > MAX_NMAX:
        raise ValueError(
            f"n_max must be <= {MAX_NMAX}, got {n_max}: "
            "the exhaustive sweep enumerates all p(n) partitions of each n"
        )
    found: list[dict] = []

    def check(brute, closed, label, *args):
        if closed != brute:
            found.append({"n": n, "class": label.format(*args), "closed": closed, "brute": brute})

    for n in range(1, n_max + 1):
        corner = _shape_maxima(n)
        for w in range(1, n + 1):
            hs = tuples.heights(n, w)
            column = bounds.wh_limit_column(n, w)
            brute = corner[w][hs.start : hs.stop]
            if column != brute:
                for h, closed, value in zip_longest(hs, column, brute):
                    check(value, closed, "wh({},{})", w, h)
        for w in range(1, n + 1):
            check(brute_force_max(n, max_width=w), bounds.max_qfi_width(n, w), "w({})", w)
        for h in range(1, n + 1):
            check(brute_force_max(n, min_height=h), bounds.max_qfi_height(n, h), "h({})", h)
        for r in bounds.valid_ranks(n):
            check(brute_force_max(n, max_rank=r), bounds.max_qfi_rank(n, r), "r({})", r)
    return found
