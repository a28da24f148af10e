"""The (w, h) limit is a majorization maximum: a certificate for every class.

The class C(n, w, h) holds the partitions of n with width (largest row)
at most w and height (number of rows) at least h, for the valid pairs
ceil(n/w) <= h <= n + 1 - w.  Its limit is the largest squared-row sum
over C.

- Bound.  A member's partial row sums S_j = mu_1 + ... + mu_j obey
  S_j <= j*w, as each row holds at most w boxes, and
  S_j <= n - max(h - j, 0), as at least h - j rows of one box or more
  follow row j.  So S_j <= B_j = min(j*w, n - max(h - j, 0)).
- Extremal shape.  B is the minimum of j*w and n - max(h - j, 0), both
  concave in j, so B is concave and the steps lambda*_j = B_j - B_(j-1),
  j = 1..h, never increase.  B_0 = 0 and B_h = n, as h >= ceil(n/w).
  So lambda* is a partition of n.  When lambda*_1 <= w and each of its h
  rows is positive, lambda* lies in C, and its partial sums are the B_j
  themselves: lambda* majorizes every member of C.
- Maximum.  The squared-row sum is convex and symmetric, so Schur-convex,
  and by Karamata's inequality (Marshall, Olkin and Arnold, *Inequalities:
  Theory of Majorization*, ch. 3) no member of C exceeds the sum of
  lambda*_j**2.  lambda* attains it, so that sum is the class limit.

The concavity holds at every n; the per-class check below asserts it
anyway, with the two membership conditions.  Then it asserts that
``bounds.wh_limit_column``, the column ``grid.csv`` and
``bounds --class wh`` print, reads the sum of lambda*_j**2 at height h,
and that its simple column is at least that.  The checks import no test
framework, so a script can run :func:`certificate_disagreements` on a
patched ``bounds`` too, and on classes past tier-1's range.
"""

from __future__ import annotations

import random
from itertools import accumulate

from metroent import bounds


def extremal_rows(n: int, w: int, h: int) -> list[int]:
    """lambda*: the steps of B_j = min(j*w, n - max(h - j, 0)), j = 0..h."""
    partial = [min(j * w, n - max(h - j, 0)) for j in range(h + 1)]
    return [b - a for a, b in zip(partial, partial[1:])]


def certify(n: int, w: int, heights) -> list[tuple]:
    """The classes (n, w, h), h in ``heights``, whose certificate fails.

    Each entry is (n, w, h, tight, simple, sum of lambda*_j**2), with the
    two column entries at h; it is listed when lambda* is not a member of
    C(n, w, h) that never increases, or when the tight entry differs from
    the sum or the simple one falls below it.
    """
    lo = -(-n // w)
    tight, simple = bounds.wh_limit_column(n, w), bounds.wh_limit_column(n, w, simple=True)
    found = []
    for h in heights:
        rows = extremal_rows(n, w, h)
        member = rows[0] <= w and rows[-1] > 0
        ordered = all(a >= b for a, b in zip(rows, rows[1:]))
        square_sum = sum(x * x for x in rows)
        entries = tight[h - lo], simple[h - lo]
        if not (member and ordered and entries[0] == square_sum <= entries[1]):
            found.append((n, w, h, *entries, square_sum))
    return found


def all_classes(n_max: int) -> list[tuple[int, int, range]]:
    """(n, w, heights) for every width of every n <= n_max, with all its valid heights."""
    return [(n, w, range(-(-n // w), n + 2 - w))
            for n in range(1, n_max + 1) for w in range(1, n + 1)]


def sampled_classes(rng: random.Random, ns) -> list[tuple[int, int, range]]:
    """One class (n, w, range(h, h + 1)) per n of ``ns``: w, then h, drawn uniformly by ``rng``."""
    classes = []
    for n in ns:
        w = rng.randint(1, n)
        h = rng.randint(-(-n // w), n + 1 - w)
        classes.append((n, w, range(h, h + 1)))
    return classes


def certificate_disagreements(classes) -> tuple[int, list[tuple]]:
    """(the number of classes checked, every :func:`certify` failure among them)."""
    found = [entry for n, w, heights in classes for entry in certify(n, w, heights)]
    return sum(len(heights) for _, _, heights in classes), found


def test_every_class_up_to_n_60_is_certified():
    assert certificate_disagreements(all_classes(60)) == (31060, [])


def test_seeded_classes_at_large_n_are_certified():
    rng = random.Random(2012)
    ns = [rng.randint(10**4, 10**5) for _ in range(40)]
    assert certificate_disagreements(sampled_classes(rng, ns)) == (40, [])


def test_extremal_rows_of_small_classes():
    # C(7, 3, 3): rows 3, 3, 1; the hook of width 3, h = 5: 3, 1, 1, 1, 1
    assert extremal_rows(7, 3, 3) == [3, 3, 1]
    assert extremal_rows(7, 3, 5) == [3, 1, 1, 1, 1]
    # the partial sums are the bound B_j itself
    assert list(accumulate(extremal_rows(60, 7, 9))) == [7, 14, 21, 28, 35, 42, 49, 56, 60]


def test_a_lowered_column_entry_is_caught(monkeypatch):
    # the entry CI's band-fold step lowers: (60, 7, 9), the band's lower edge
    exact = bounds.wh_limit_column

    def lowered(n, w, *, simple=False):
        column = exact(n, w, simple=simple)
        if (n, w) == (60, 7) and not simple:
            column = list(column)
            column[0] -= 1
        return column

    monkeypatch.setattr(bounds, "wh_limit_column", lowered)
    assert certificate_disagreements(all_classes(60)) == (31060, [(60, 7, 9, 407, 417, 408)])
