"""Young diagrams (integer partitions) and their reverse-lexicographic enumeration.

A diagram is a non-increasing tuple of positive row sizes.  Its width is the
largest row (size of the biggest entangled block), its height the number of
rows (number of separable blocks), and its Dyson rank the difference of the
two.  Enumeration is reverse-lexicographic on the row tuples so that reports
and tests are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class YoungDiagram:
    """An integer partition, stored as non-increasing positive row sizes."""

    rows: tuple[int, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("a diagram needs at least one row")
        if any(r < 1 for r in self.rows):
            raise ValueError(f"row sizes must be positive: {self.rows}")
        if any(a < b for a, b in zip(self.rows, self.rows[1:])):
            raise ValueError(f"rows must be non-increasing: {self.rows}")

    @classmethod
    def from_rows(cls, rows) -> "YoungDiagram":
        return cls(tuple(rows))

    @property
    def n(self) -> int:
        """Total number of boxes (particles)."""
        return sum(self.rows)

    def width(self) -> int:
        return self.rows[0]

    def height(self) -> int:
        return len(self.rows)

    def dyson_rank(self) -> int:
        return self.rows[0] - len(self.rows)

    def sum_squares(self) -> int:
        """Sum of squared row sizes; each block of size m can contribute m**2."""
        return sum(r * r for r in self.rows)

    def __str__(self) -> str:
        # bit-exact CLI/report text form: no spaces, non-increasing order
        return ",".join(str(r) for r in self.rows)


def iter_partition_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Stream the row tuples of every partition of ``n``, exactly once.

    Yields plain tuples in reverse-lexicographic order.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    yield from _descending_rows(n, n, ())


def _descending_rows(remaining, bound, prefix):
    if remaining == 0:
        yield prefix
        return
    for part in range(min(remaining, bound), 0, -1):
        yield from _descending_rows(remaining - part, part, prefix + (part,))
