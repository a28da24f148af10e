"""Brute-force ground truth for every closed-form sensitivity limit.

The oracle keeps, as a plain int, the largest squared-row sum of every
(width, height) shape of n.  It folds those into one prefix table over
width of suffix maxima over height, ``corner``, so a width, height or
(width, height) class maximum is one table entry, and the (width, height)
maxima of one width, read as a slice of the table, are checked against
that width's closed-form column in one comparison.  A shape of rank r lies
on the diagonal w - h = r, so every Dyson-rank class maximum of n,
:func:`brute_force_max`, comes from one pass over n's shapes, keeping each
diagonal's largest, and a running maximum over the diagonals.  Both passes
read only each width's band of real shapes.  One enumeration of the
partitions of n_max gives the shapes of every n <= n_max: stripping j of a
partition's 1-rows leaves a partition of n_max - j of the same width, j
fewer rows and a squared-row sum j lower, and every partition of n_max - j
arises so exactly once.  It returns values only: the diagram attaining a
limit comes from the closed form (:func:`metroent.bounds._wh_rows`), which
the values check.  It never shares code with the closed forms it checks,
and keeps no state between calls.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest

from . import bounds, tuples
from .partitions import iter_partition_rows

# Largest n_max verify_closed_forms accepts.  The sweep walks the p(n_max)
# partitions of n_max once and strips their 1-rows for every smaller n, and
# p(n) grows like exp(pi * sqrt(2n/3)): n_max = 60 (p(60) = 966467) takes
# about 2.4 s in process (2.3 to 2.5 s over three runs; 2.5 to 3.1 s as a
# subprocess) on a 2-vCPU x86 machine with Python 3.11, while n_max = 200
# would walk p(200), about 4e12 partitions.
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
    where there is none.  Row w is a copy of row w - 1, raised over width w's
    band, the heights ceil(n/w)..n + 1 - w that hold all of its shapes, to
    the band's running suffix maxima.  Heights below the band take the entry
    at its lower edge: no partition of width <= w has fewer rows than
    ceil(n/w), so those classes are the same.  The fold costs O(n**2), and
    the table answers every width, height and (width, height) class.
    """
    n = len(table) - 1
    row = [0] * (n + 2)
    corner = [row]
    for w in range(1, n + 1):
        row = row.copy()
        shapes = table[w]
        lo = -(-n // w)
        best = 0
        for h in range(n + 1 - w, lo - 1, -1):
            s = shapes[h]
            if s > best:
                best = s
            if best > row[h]:
                row[h] = best
        row[:lo] = [row[lo]] * lo
        corner.append(row)
    return corner


def brute_force_max(table: list[list[int]]) -> list[int]:
    """The largest squared-row sum over the partitions of n with Dyson rank <= r, for every r.

    ``table`` is n's per-shape table, and n is ``len(table) - 1``.  Entry
    r + n - 1 of the result is the maximum of rank class r, for
    r = 1 - n..n - 1; every class is nonempty, and none exists below 1 - n.
    A shape (w, h) lies on the diagonal of rank w - h, so one pass over each
    width's band, ceil(n/w)..n + 1 - w, keeps each diagonal's largest shape,
    and a running maximum over the diagonals, r ascending, gives the classes.
    The diagonals +-(n - 2) hold no shape, so their classes read the rank
    below.  O(n**2) for all 2n - 1 classes.
    """
    n = len(table) - 1
    diagonal = [0] * (2 * n - 1)
    for w in range(1, n + 1):
        lo = -(-n // w)
        # height h of width w lies on rank w - h, at index w - h + n - 1
        k = w + n - 1 - lo
        for s in table[w][lo : n + 2 - w]:
            if s > diagonal[k]:
                diagonal[k] = s
            k -= 1
    return list(accumulate(diagonal, max))


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
    Dyson rank r, read off one ``brute_force_max(table)`` call per n, against
    both :func:`metroent.bounds.max_qfi_rank` (the scalar inference bisects)
    and :func:`metroent.bounds.rank_limit_column` (the column
    ``bounds --class r`` prints).  After the fold a width or height class
    costs O(1), a width's column O(n), and the rank classes of n together
    O(n**2).  Returns the (possibly empty) list of mismatches, each a dict
    with keys "n", "class", "closed" and "brute"; within one n the (w, h)
    tuples come first, by w then h, then the width, height and rank classes,
    the scalar's rank mismatches before the column's.
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
        table = tables[n_max - n]
        corner = _fold(table)
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
        column = brute_force_max(table)
        brute = [column[r + n - 1] for r in ranks]
        compare([bounds.max_qfi_rank(n, r) for r in ranks], brute, "r({})", ranks)
        compare(list(bounds.rank_limit_column(n)), brute, "r({})", ranks)
    return found
