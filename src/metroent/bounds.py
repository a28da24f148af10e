"""Exact sensitivity limits of separability classes.

For each class of partitions -- bounded width w (producibility), minimum
height h (separability), bounded Dyson rank r, or a (w, h) pair -- these
closed forms give the exact maximum of the quantum Fisher information over
the class, and under a family's ``simple`` argument a simpler non-tight
limit (the height family has none).  Everything is integer arithmetic: each
limit is an int, and the one non-integer limit, the simple rank limit, is an
integer number of quarters, or exact ``"%d.75"`` text built from an int in
the simple rank column.  No floats and no rationals enter any computation
here, so exclusion decisions built on these values are bit-reproducible.
"""


from itertools import accumulate, chain, compress, cycle, islice, repeat
from math import isqrt
from collections.abc import Iterator

# {n + r: (least n, limit - n)} of the rank classes whose maximizer has two full rows
_TWO_FULL_ROWS = {10: (8, 24), 16: (12, 60)}
# {n + r: (least n, limit - n)} of the simple rank limit's corner, as _TWO_FULL_ROWS
_SIMPLE_CORNER = {4: (3, 4)}


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _wh_rows(n: int, w: int, h: int) -> tuple[int, int, int]:
    """(k, u, v) of the square-sum maximizer at a valid width w and height h.

    The maximizer has k full rows of width w, one partial row of u boxes
    (1 <= u <= w) and v singleton rows.  For w == 1 the only diagram is all
    singletons.  The quotient (n - h) // (w - 1) is capped at h - 1: the cap
    only binds when n == w*h, where the maximizer is the full w-by-h
    rectangle and the uncapped quotient would produce a negative singleton
    count.
    """
    if w == 1:
        return 0, 1, n - 1
    k = min((n - h) // (w - 1), h - 1)
    return k, n - h + 1 - (w - 1) * k, h - k - 1


def wh_limit_column(n: int, w: int, *, simple: bool = False) -> range | list[int]:
    """:func:`max_qfi_wh` (or the simple w*(n - h) + n) at every valid height of width w.

    The heights ascend from ceil(n/w) to n + 1 - w.  The simple limit
    dominates the tight one and falls by w per height.  With t = n - h and
    k, j = divmod(t, w - 1) the tight limit is n + k*w*(w - 1) + j*(j + 1),
    so going from t to t + 1 adds 2*(j + 1), also across a block end.  The
    column is therefore n + w*(w - 1), the limit at the largest height, plus
    a running sum of the steps 2, 4, ..., 2*(w - 1) repeated, read backwards.
    For w == 1 there are no steps and the column is [n].  The tight column is
    what ``grid.csv`` and ``bounds --class wh`` print, and what
    :func:`metroent.oracle.verify_closed_forms` compares with brute force,
    one column per width.
    """
    lo = _ceil_div(n, w)
    if simple:
        return range(w * (n - lo) + n, n + w * (w - 1) - 1, -w)
    steps = islice(cycle(range(2, 2 * w, 2)), n + 1 - w - lo)
    column = list(accumulate(steps, initial=n + w * (w - 1)))
    column.reverse()
    return column


def wh_first_height_at_most(n: int, w: int, f_max: int, *, simple: bool = False) -> int:
    """The first valid height of width w whose (w, h) limit is at most f_max.

    Returns n + 2 - w, one past the largest valid height, when there is none:
    the final clamp's bound, which a negative t (f_max < n) reaches.  The
    inverse of :func:`wh_limit_column`'s running sum, in O(1): with t = n - h
    the limit is n + w*t (simple, or w == 1, whose one height n has limit n)
    or n + k*w*(w - 1) + j*(j + 1) for k, j = divmod(t, w - 1) (tight), rising
    with t, so the largest t with limit <= f_max is a floor division, or for
    the tight limit blocks of w - 1 heights and an integer square root in one.
    """
    excess = f_max - n
    if simple or w == 1:
        t = excess // w
    else:
        k, d = divmod(excess, w * (w - 1))
        # the largest j with j*(j + 1) <= d; d < w*(w - 1) keeps it below w - 1
        t = (w - 1) * k + (isqrt(4 * d + 1) - 1) // 2
    return min(max(n - t, _ceil_div(n, w)), n + 2 - w)


def max_qfi_wh(n: int, w: int, h: int) -> int:
    """Largest quantum Fisher information of any (w, h)-separable state.

    The closed form k*w**2 + u**2 + v from the maximizing rows of
    :func:`_wh_rows`.  Exact integer; equals the true maximum of the
    squared-row sum over partitions of n with width <= w and height >= h,
    attained at width exactly w and height exactly h.  ``verify`` checks
    :func:`wh_limit_column`, which the tests tie to this function.  Refused
    unless 1 <= w <= n (so n >= 1) and ceil(n/w) <= h <= n + 1 - w (so h <= n).
    """
    if not (1 <= w <= n and _ceil_div(n, w) <= h <= n + 1 - w):
        raise ValueError(
            f"(w={w}, h={h}) is not a realizable width/height pair for n={n}"
        )
    k, u, v = _wh_rows(n, w, h)
    return k * w * w + u * u + v


def max_qfi_width(n: int, w: int, simple: bool = False) -> int:
    """Largest QFI of any w-producible state: s*w**2 + t**2 with n = s*w + t.

    Under ``simple``, the non-tight limit w*n, which dominates it.
    """
    if not 1 <= w <= n:
        raise ValueError(f"width must satisfy 1 <= w <= n; got w={w}, n={n}")
    if simple:
        return w * n
    s, t = divmod(n, w)
    return s * w * w + t * t


def max_qfi_height(n: int, h: int) -> int:
    """Largest QFI of any h-separable state: (n + 1 - h)**2 + h - 1."""
    if not 1 <= h <= n:
        raise ValueError(f"height must satisfy 1 <= h <= n; got h={h}, n={n}")
    return (n + 1 - h) ** 2 + h - 1


def valid_ranks(n: int) -> Iterator[int]:
    """Iterate over the Dyson ranks realizable by partitions of n, in increasing order.

    These are the integers from -(n - 1) to n - 1 with +-(n - 2) removed;
    for n = 1 that is just 0 and for n = 2 it is -1, 1.  n is checked at
    the call and the ranks are generated lazily.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return compress(range(1 - n, n), _rank_flags(n))


def _rank_flags(n: int) -> Iterator[int]:
    """abs(r) != n - 2 for each r from -(n - 1) to n - 1, lazily, as 1 or 0.

    Only the second and the second-to-last r fail, one and the same r at n == 2.
    """
    if n < 3:
        return iter((1, 0, 1)[: 2 * n - 1])
    return chain((1, 0), repeat(1, 2 * n - 5), (0, 1))


def _require_valid_rank(n: int, r: int) -> None:
    if abs(r) > n - 1 or abs(r) == n - 2:
        raise ValueError(f"r={r} is not a realizable Dyson rank for n={n}")


def max_qfi_rank(n: int, r: int) -> int:
    """Largest QFI of any state with Dyson rank at most r (exact integer).

    The n + r odd and even branches are quadratic in (n + r)/2, except in
    the classes of ``_TWO_FULL_ROWS``, whose maximizer has two full-width
    rows instead of one.  The even branch self-consistently yields n + 4 at
    n + r == 4.  Inference bisects this scalar;
    :func:`metroent.oracle.verify_closed_forms` checks it, and
    :func:`rank_limit_column`, against brute force.  At every n the limit
    is n + Phi(n + r), Phi(s) the largest tight (w, h) limit less n over the
    shapes with w <= (s + 1)/2 and n - h <= s - w.  Phi is the quadratic at
    every s but 10 and 16, and each of those two applies from the least n
    at which its maximizer is a valid shape: the proof is in
    ``tests/test_rank_theorem.py``, which checks its finite steps.
    """
    _require_valid_rank(n, r)
    s = n + r
    if s % 2 == 1:
        return (s + 1) ** 2 // 4 + (n - r - 1) // 2
    if s in _TWO_FULL_ROWS and n >= _TWO_FULL_ROWS[s][0]:
        return n + _TWO_FULL_ROWS[s][1]
    return s * s // 4 + (n - r) // 2 + 2


def rank_limit_column(n: int, *, simple: bool = False) -> Iterator[int | str]:
    """The rank limit at every rank of :func:`valid_ranks`, lazily, in the same order.

    Tight it is :func:`max_qfi_rank`; simple, the limit of
    :func:`rank_limit_quarters`, an int if whole, else ``"%d.75"``
    text.  ``bounds --class r`` prints it and ``verify`` checks it.  With
    s = n + r both limits are n + k*(k - 1) at odd s = 2k - 1, a running sum
    (steps 2, 4, 6, ...) as s rises by 2.  At even s = 2k the tight limit is
    2 more, and the simple one n + k*k - 1 and 3/4 (steps 3, 5, 7, ...); the
    two parities interleave.  The tight ``_TWO_FULL_ROWS`` values and the
    simple ``_SIMPLE_CORNER`` (n + 4 at s == 4) overwrite their entries,
    outside both sums, in ``head``, the entries s <= 16: by the theorem in
    :func:`max_qfi_rank`, no exception lies past s = 16.  n is not checked.
    """
    steps = range(2, 2 * n, 2)
    if simple:
        even = map("%d.75".__mod__, accumulate(range(3, 2 * n + 1, 2), initial=n))
        fixed = _SIMPLE_CORNER
    else:
        even = accumulate(steps, initial=n + 2)
        fixed = _TWO_FULL_ROWS
    # s = 1, 2, ..., 2*n; _rank_flags ends it at s = 2*n - 1, r = n - 1
    column = chain.from_iterable(zip(accumulate(steps, initial=n), even))
    head = list(islice(column, 16))
    for s, (least, extra) in fixed.items():
        if n >= least:
            head[s - 1] = n + extra
    return compress(chain(head, column), _rank_flags(n))


def rank_limit_quarters(n: int, r: int, *, simple: bool = False) -> int:
    """Four times the rank limit at a realizable rank r: an integer in both bound modes.

    Tight, 4 * :func:`max_qfi_rank`; simple, (n + r)**2 - 1 + 4*n, or
    4*(n + 4) at the corner n + r == 4 of ``_SIMPLE_CORNER``.  The simple
    limit ((n + r)**2 - 1)/4 + n is thus an integer or ends in .75, and is
    at least the tight one, with equality when n + r is odd.
    """
    if not simple:
        return 4 * max_qfi_rank(n, r)
    _require_valid_rank(n, r)
    s = n + r
    if s in _SIMPLE_CORNER and n >= _SIMPLE_CORNER[s][0]:
        return 4 * (n + _SIMPLE_CORNER[s][1])
    return s * s - 1 + 4 * n
