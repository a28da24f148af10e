"""Brute-force ground truth for every closed-form sensitivity limit.

The oracle enumerates the partitions of each n once, keeps the largest
squared-row sum of every (width, height) shape, folds those into per-width
suffix maxima over height, and reads each class maximum as one suffix entry
per width.  It never shares code with the closed forms it checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import bounds, tuples
from .partitions import iter_partition_rows

# Largest n_max verify_closed_forms accepts.  The sweep enumerates all p(n)
# partitions of each n, and p(n) grows like exp(pi * sqrt(2n/3)): n_max = 60
# (p(60) = 966467) takes about 15 s on a 2-vCPU x86 machine, while
# n_max = 200 would walk p(200), about 4e12 partitions.
MAX_NMAX = 60


class EmptyClassError(ValueError):
    """Raised when a class admits no partition of the given n."""


@dataclass(frozen=True)
class BruteForceResult:
    """The class maximum and the row tuple of its first maximizer."""

    value: int
    argmax: tuple[int, ...]


@dataclass(frozen=True)
class Mismatch:
    """One disagreement between a closed form and the brute-force maximum."""

    n: int
    label: str
    closed: int
    brute: int

    def as_dict(self) -> dict:
        return {"n": self.n, "class": self.label, "closed": self.closed, "brute": self.brute}


@functools.lru_cache(maxsize=1)
def _shape_maxima(n: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Per-width suffix maxima over height of the best (sum, rows) of each shape.

    One pass over the partitions of n keeps, for each (width, height) shape,
    the best squared-row sum and the first rows attaining it.  Width w has
    every height from ceil(n/w) to n + 1 - w, and entry ``[w][h - ceil(n/w)]``
    is the largest (sum, rows) over the shapes of width w and height >= h.
    Every class is a union of such height runs, one per width.
    """
    best = [[None] * (n + 2) for _ in range(n + 1)]
    for rows in iter_partition_rows(n):
        s = sum(r * r for r in rows)
        by_height = best[rows[0]]
        h = len(rows)
        if by_height[h] is None or s > by_height[h][0]:
            by_height[h] = (s, rows)
    suffix = [[]]
    for w in range(1, n + 1):
        run = [best[w][n + 1 - w]]
        for h in range(n - w, -(-n // w) - 1, -1):
            run.append(max(best[w][h], run[-1]))
        run.reverse()
        suffix.append(run)
    return suffix


def brute_force_max(
    n: int,
    *,
    max_width: int | None = None,
    min_height: int | None = None,
    max_rank: int | None = None,
) -> BruteForceResult:
    """Exhaustively maximize the squared-row sum over one class of partitions.

    The class holds the partitions of n with width <= max_width, height >=
    min_height and Dyson rank <= max_rank; a limit left at None cuts
    nothing.  Each admitted width w keeps the heights from
    max(ceil(n/w), min_height, w - max_rank) up to n + 1 - w, so the best
    shape is one suffix entry of ``_shape_maxima(n)``, and a call costs O(n).
    Ties are broken by enumeration order (first maximizer in
    reverse-lexicographic order, i.e. the largest rows, wins), so results
    are deterministic.
    """
    table = _shape_maxima(n)
    widths = n if max_width is None else min(max_width, n)
    # heights start at 1 and ranks end at n - 1, so these defaults cut nothing
    least_h = 1 if min_height is None else min_height
    most_r = n if max_rank is None else max_rank
    found = None
    for w in range(1, widths + 1):
        lo = -(-n // w)
        # first admitted height, max(lo, least_h, w - most_r), inlined: this
        # loop is most of a verify run, and the builtin call costs half of it
        h = lo if lo > least_h else least_h
        if w - most_r > h:
            h = w - most_r
        if h <= n + 1 - w:
            entry = table[w][h - lo]
            if found is None or entry > found:
                found = entry
    if found is None:
        raise EmptyClassError(
            f"no partition of n={n} satisfies max_width={max_width}, "
            f"min_height={min_height}, max_rank={max_rank}"
        )
    value, rows = found
    return BruteForceResult(value=value, argmax=rows)


def verify_closed_forms(n_max: int) -> list[Mismatch]:
    """Compare every closed form against brute force for all n <= n_max.

    Sweeps every valid (w, h) tuple, every realizable Dyson rank, and every
    marginal width/height class, one ``brute_force_max`` call per class; all
    classes of one n share one enumeration.  Returns the (possibly empty)
    list of mismatches; mismatches are data, not errors.  n_max >= 18 covers
    both two-full-row rank special cases (n + r = 10 and 16) and the
    n + r = 4 corner.  n_max must lie in 2..MAX_NMAX, checked before any
    enumeration starts.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if n_max > MAX_NMAX:
        raise ValueError(
            f"n_max must be <= {MAX_NMAX}, got {n_max}: "
            "the exhaustive sweep enumerates all p(n) partitions of each n"
        )
    found: list[Mismatch] = []

    def check(n, label, closed, brute):
        if closed != brute:
            found.append(Mismatch(n=n, label=label, closed=closed, brute=brute))

    for n in range(1, n_max + 1):
        for w, h in tuples.all_tuples(n):
            brute = brute_force_max(n, max_width=w, min_height=h)
            check(n, f"wh({w},{h})", bounds.max_qfi_wh(n, w, h), brute.value)
        for w in range(1, n + 1):
            brute = brute_force_max(n, max_width=w)
            check(n, f"w({w})", bounds.max_qfi_width(n, w), brute.value)
        for h in range(1, n + 1):
            brute = brute_force_max(n, min_height=h)
            check(n, f"h({h})", bounds.max_qfi_height(n, h), brute.value)
        for r in bounds.valid_ranks(n):
            brute = brute_force_max(n, max_rank=r)
            check(n, f"r({r})", bounds.max_qfi_rank(n, r), brute.value)
    return found
