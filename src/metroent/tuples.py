"""Reference counts of the (w, h) tuple domain for a fixed particle number.

A tuple (w, h) is valid for n when some partition of n has width exactly w
and height exactly h, i.e. ceil(n/w) <= h <= n + 1 - w.  No command runs
these exact-integer counts; tests and the benchmark's checker compare with them.
"""


import math

from . import bounds
from .bounds import _ceil_div


def all_tuples(n: int) -> list[tuple[int, int]]:
    """Every valid (w, h) pair for n, ordered by (w ascending, h ascending)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [(w, h) for w in range(1, n + 1) for h in bounds.heights(n, w)]


def count_width_leq(n: int, w: int) -> int:
    """Number of valid tuples with width at most w.

    For each width there are n + 2 - w_i - ceil(n / w_i) admissible heights.
    """
    if not 1 <= w <= n:
        raise ValueError(f"width must satisfy 1 <= w <= n; got w={w}, n={n}")
    return sum(n + 2 - wi - _ceil_div(n, wi) for wi in range(1, w + 1))


def count_height_geq(n: int, h: int) -> int:
    """Number of valid tuples with height at least h."""
    if not 1 <= h <= n:
        raise ValueError(f"height must satisfy 1 <= h <= n; got h={h}, n={n}")
    return sum(n + 2 - hi - _ceil_div(n, hi) for hi in range(h, n + 1))


def count_rank_leq(n: int, r: int) -> int:
    """Number of valid tuples with Dyson rank w - h at most r.

    Counts by direct enumeration over :func:`all_tuples`; the closed form
    :func:`count_rank_leq_closed` is kept as an in-range cross-check only.
    """
    bounds._require_valid_rank(n, r)
    return sum(1 for w, h in all_tuples(n) if w - h <= r)


def count_rank_leq_closed(n: int, r: int) -> int:
    """Closed-form tuple count for rank <= r, valid for 3 - n <= r <= n - 3.

    For fixed rank r_i the admissible widths are
    ceil((sqrt(r_i**2 + 4n) + r_i)/2) <= w <= floor((n + 1 + r_i)/2); the
    ceiling is evaluated with integer square roots so the result is exact.
    """
    bounds._require_valid_rank(n, r)
    if not 3 - n <= r <= n - 3:
        raise ValueError(f"closed form only covers 3 - n <= r <= n - 3; got r={r}, n={n}")
    total = n + r - 1
    for ri in range(3 - n, r + 1):
        hi = (n + 1 + ri) // 2
        disc = ri * ri + 4 * n
        s = math.isqrt(disc)
        if s * s == disc:
            lo = -(-(s + ri) // 2)
        else:
            # sqrt(disc) is irrational and lies in (s, s + 1)
            lo = (s + ri) // 2 + 1
        total += hi - lo
    return total
