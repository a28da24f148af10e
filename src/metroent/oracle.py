"""Brute-force ground truth for every closed-form sensitivity limit.

A Young diagram of n is a partition of n, a non-increasing tuple of
positive rows.  Its width is the largest row (the biggest entangled block),
its height the number of rows (of separable blocks), and its Dyson rank
the width less the height.  The oracle keeps the largest squared-row sum
of every (width, height) shape of n, and :func:`brute_force_max` reads
every class maximum of n off them in one walk down each width's band of
real shapes: a prefix table, ``corner``, in which a width, height or
(width, height) class maximum is one entry, and the column of Dyson-rank
class maxima.  One enumeration of the partitions of n_max
(:func:`iter_partition_rows`, the ZS1 of Zoghbi and Stojmenovic, 1998)
gives the shapes of every n <= n_max: stripping j of a partition's 1-rows
leaves a partition of n_max - j of the same width, j fewer rows and a
squared-row sum j lower, and every partition of n_max - j arises so
exactly once.  It returns values only: the diagram attaining a limit comes
from the closed form (:func:`metroent.bounds._wh_rows`), which the values
check.  It shares no code with the closed forms it checks, not even the
keys: :func:`verify_closed_forms` picks its own bands and ranks.  It keeps
no state between calls.
"""

from collections.abc import Iterator
from itertools import accumulate, zip_longest

from . import bounds

# Largest n_max verify_closed_forms accepts.  The sweep walks the p(n_max)
# partitions of n_max once and strips their 1-rows for every smaller n, and
# p(n) grows like exp(pi * sqrt(2n/3)): n_max = 60 (p(60) = 966467) took
# 1.33 to 1.74 s in process over six runs (1.44 to 1.50 s as a subprocess,
# 2.05 to 2.47 s in slower spells) on a 2-vCPU Xeon VM with Python 3.11.7,
# while n_max = 200 would walk p(200), about 4e12 partitions.
MAX_NMAX = 60


def iter_partition_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Stream the row tuples of every partition of ``n``, exactly once.

    Yields plain tuples in reverse-lexicographic order, generated by
    Zoghbi and Stojmenovic's ZS1 algorithm ("Fast algorithms for generating
    integer partitions", Int. J. Comput. Math. 70, 1998) over one row
    buffer: ``x[1..m]`` holds the current rows, ``h`` indexes its last row
    larger than 1, and every entry past ``h`` is 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x = [1] * (n + 1)
    x[1] = n
    m = h = 1
    yield (n,)
    while x[1] != 1:
        if x[h] == 2:
            # split the last 2 into 1 + 1
            m += 1
            x[h] = 1
            h -= 1
        else:
            # lower the last row above 1 by one and refill with parts of that size
            r = x[h] - 1
            t = m - h + 1
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h
            else:
                m = h + 1
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[1 : m + 1])


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


def brute_force_max(table: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Every class maximum of n, from one walk down each width's band of n's per-shape table.

    ``table`` is n's per-shape table, and n is ``len(table) - 1``.  Returns
    ``(corner, ranks)``.  ``corner[w][h]`` is the largest squared-row sum over
    the partitions of n with width <= w and height >= h, for 0 <= w <= n and
    0 <= h <= n + 1; 0 where there is none.  Entry r + n - 1 of ``ranks`` is
    the maximum of the Dyson-rank class r, rank <= r, for r = 1 - n..n - 1;
    every such class is nonempty, and none exists below 1 - n.

    Width w's shapes all lie in its band, the heights ceil(n/w)..n + 1 - w,
    walked from the top.  Row w of ``corner`` is a copy of row w - 1, raised
    to the band's running suffix maxima; heights below the band take the
    entry at its lower edge, since no partition of width <= w has fewer rows
    than ceil(n/w).  The shape (w, h) lies on the diagonal of rank w - h, and
    the same walk keeps each diagonal's largest shape; a running maximum over
    the diagonals, r ascending, gives the rank classes.  The diagonals
    +-(n - 2) hold no shape, so their classes read the rank below.  O(n**2)
    for the whole table and all 2n - 1 rank classes.
    """
    n = len(table) - 1
    row = [0] * (n + 2)
    corner = [row]
    diagonal = [0] * (2 * n - 1)
    for w in range(1, n + 1):
        row = row.copy()
        shapes = table[w]
        lo = -(-n // w)
        best = 0
        # height h of width w lies on rank w - h, at index w - h + n - 1
        for k, h in enumerate(range(n + 1 - w, lo - 1, -1), 2 * w - 2):
            s = shapes[h]
            if s > diagonal[k]:
                diagonal[k] = s
            if s > best:
                best = s
            if best > row[h]:
                row[h] = best
        row[:lo] = [row[lo]] * lo
        corner.append(row)
    return corner, list(accumulate(diagonal, max))


def verify_closed_forms(n_max: int) -> list[dict]:
    """Compare every closed form against brute force for all n <= n_max.

    One enumeration of the partitions of n_max, with their 1-rows stripped,
    gives the per-shape table of every n <= n_max, and one
    :func:`brute_force_max` call per n reads its prefix table ``corner`` and
    its rank column off it; none of them outlives the call.  Each family of
    one n is then compared as one list, and only a family whose lists differ
    is walked class by class: the width classes (``corner[w][0]``) against
    :func:`metroent.bounds.max_qfi_width`, the height classes
    (``corner[n][h]``) against :func:`metroent.bounds.max_qfi_height`, the
    ``corner`` entries of width w's band against
    :func:`metroent.bounds.wh_limit_column` (the limits ``grid.csv`` and
    ``bounds --class wh`` print), and the rank column at every rank but the
    shapeless +-(n - 2) against both :func:`metroent.bounds.max_qfi_rank`
    (the scalar inference bisects) and
    :func:`metroent.bounds.rank_limit_column` (the column ``bounds --class r``
    prints).  The bands and the ranks are the oracle's own keys, so a closed
    form that misses one is a mismatch there.  After that O(n**2) walk a
    width or height class costs O(1), a width's column O(n) and a rank class
    O(1).  Returns the (possibly empty) list of mismatches, each a dict with
    keys "n", "class", "closed" and "brute"; within one n the (w, h) tuples
    come first, by w then h, then the width, height and rank classes, the
    scalar's rank mismatches before the column's.  Mismatches are data, not
    errors, and a class label is formatted only for a mismatch.  n_max >= 18
    covers both two-full-row rank special cases (n + r = 10 and 16) and the
    n + r = 4 corner.  n_max must lie in 2..MAX_NMAX, checked before any
    enumeration starts.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if n_max > MAX_NMAX:
        raise ValueError(
            f"n_max must be <= {MAX_NMAX}, got {n_max}: "
            "the exhaustive sweep enumerates all p(n_max) partitions of n_max"
        )
    found: list[dict] = []

    def compare(closed, brute, label, keys, *head):
        if closed != brute:
            for key, c, b in zip_longest(keys, closed, brute):
                if c != b:
                    found.append({"n": n, "class": label.format(*head, key), "closed": c, "brute": b})

    tables = _shape_tables(n_max)
    for n in range(1, n_max + 1):
        corner, column = brute_force_max(tables[n_max - n])
        for w in range(1, n + 1):
            hs = range(-(-n // w), n + 2 - w)
            compare(bounds.wh_limit_column(n, w), corner[w][hs.start : hs.stop], "wh({},{})", hs, w)
        classes = range(1, n + 1)
        compare(
            [bounds.max_qfi_width(n, w) for w in classes],
            [row[0] for row in corner[1:]],
            "w({})",
            classes,
        )
        compare([bounds.max_qfi_height(n, h) for h in classes], corner[n][1 : n + 1], "h({})", classes)
        ranks = [r for r in range(1 - n, n) if abs(r) != n - 2]
        brute = [column[r + n - 1] for r in ranks]
        compare([bounds.max_qfi_rank(n, r) for r in ranks], brute, "r({})", ranks)
        compare(list(bounds.rank_limit_column(n)), brute, "r({})", ranks)
    return found
