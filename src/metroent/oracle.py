"""Brute-force ground truth for every closed-form sensitivity limit.

The oracle enumerates the partitions of each n once, keeps the largest
squared-row sum of every (width, height) shape, and reads each class maximum
from that table.  It never shares code with the closed forms it checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import bounds, tuples
from .partitions import YoungDiagram, iter_partition_rows


class EmptyClassError(ValueError):
    """Raised when a predicate admits no partition of the given n."""


@dataclass(frozen=True)
class ClassPredicate:
    """Constraints selecting a partition class; an empty predicate selects all."""

    max_width: int | None = None
    min_height: int | None = None
    max_rank: int | None = None

    def admits(self, w: int, h: int) -> bool:
        """Whether diagrams of width w and height h belong to the class."""
        return (
            (self.max_width is None or w <= self.max_width)
            and (self.min_height is None or h >= self.min_height)
            and (self.max_rank is None or w - h <= self.max_rank)
        )


@dataclass(frozen=True)
class BruteForceResult:
    value: int
    argmax: YoungDiagram


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
def _shape_maxima(n: int) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
    """Map each (width, height) shape of n to (best sum, first rows attaining it).

    Every class is a union of shapes, so this one pass over the partitions
    of n decides every class of n.
    """
    table = {}
    for rows in iter_partition_rows(n):
        s = sum(r * r for r in rows)
        shape = (rows[0], len(rows))
        if shape not in table or s > table[shape][0]:
            table[shape] = (s, rows)
    return table


def brute_force_max(n: int, pred: ClassPredicate = ClassPredicate()) -> BruteForceResult:
    """Exhaustively maximize the squared-row sum over the predicate's class.

    Ties are broken by enumeration order (first maximizer in
    reverse-lexicographic order, i.e. the largest rows, wins), so results
    are deterministic.
    """
    admitted = [best for shape, best in _shape_maxima(n).items() if pred.admits(*shape)]
    if not admitted:
        raise EmptyClassError(f"no partition of n={n} satisfies {pred}")
    value, rows = max(admitted)
    return BruteForceResult(value=value, argmax=YoungDiagram(rows))


def verify_closed_forms(n_max: int) -> list[Mismatch]:
    """Compare every closed form against brute force for all n <= n_max.

    Sweeps every valid (w, h) tuple, every realizable Dyson rank, and every
    marginal width/height class.  Returns the (possibly empty) list of
    mismatches; mismatches are data, not errors.  n_max >= 18 covers both
    two-full-row rank special cases (n + r = 10 and 16) and the n + r = 4
    corner.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    found: list[Mismatch] = []

    def check(n, label, closed, brute):
        if closed != brute:
            found.append(Mismatch(n=n, label=label, closed=closed, brute=brute))

    for n in range(1, n_max + 1):
        for w, h in tuples.all_tuples(n):
            brute = brute_force_max(n, ClassPredicate(max_width=w, min_height=h))
            check(n, f"wh({w},{h})", bounds.max_qfi_wh(n, w, h), brute.value)
        for w in range(1, n + 1):
            brute = brute_force_max(n, ClassPredicate(max_width=w))
            check(n, f"w({w})", bounds.max_qfi_width(n, w), brute.value)
        for h in range(1, n + 1):
            brute = brute_force_max(n, ClassPredicate(min_height=h))
            check(n, f"h({h})", bounds.max_qfi_height(n, h), brute.value)
        for r in bounds.valid_ranks(n):
            brute = brute_force_max(n, ClassPredicate(max_rank=r))
            check(n, f"r({r})", bounds.max_qfi_rank(n, r), brute.value)
    return found
