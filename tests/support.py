"""Independent reference implementations used to pin expected test values.

Deliberately different algorithms from the package: partitions come from
Kelleher's ascending-composition generator (the package runs ZS1 over
descending parts), counts come from the classic bounded-part recurrence,
the inferred w, h and r come from linear scans instead of bisection, and
the per-tuple exclusion grid compares every tuple with its own class
limits instead of solving the (w, h) staircase per width.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from metroent import bounds, cli, tuples


def accel_asc(n):
    """Kelleher's ascending-composition enumeration of the partitions of n."""
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        yield tuple(a[: k + 1])


def partitions_desc(n):
    """All partitions of n as non-increasing tuples, in no particular order."""
    for p in accel_asc(n):
        yield tuple(sorted(p, reverse=True))


def count_partitions(n: int) -> int:
    """Partition count p(n) via the bounded-largest-part recurrence."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][k] if m >= k else 0)
    return table[n][n]


def matches(rows, max_width=None, min_height=None, max_rank=None) -> bool:
    if max_width is not None and rows[0] > max_width:
        return False
    if min_height is not None and len(rows) < min_height:
        return False
    if max_rank is not None and rows[0] - len(rows) > max_rank:
        return False
    return True


def filtered_partitions(n, max_width=None, min_height=None, max_rank=None):
    """Post-filtered enumeration, the reference for constrained generation."""
    return [
        p
        for p in partitions_desc(n)
        if matches(p, max_width=max_width, min_height=min_height, max_rank=max_rank)
    ]


def brute_max_squares(n, max_width=None, min_height=None, max_rank=None):
    """(max squared-row sum, largest maximizer) over a filtered class, or None when empty."""
    return max(
        (
            (sum(x * x for x in p), p)
            for p in filtered_partitions(
                n, max_width=max_width, min_height=min_height, max_rank=max_rank
            )
        ),
        default=None,
    )


def rank_limit_simple(n, r) -> Fraction:
    """The simple rank limit as an exact rational, from its integer quarters."""
    return Fraction(bounds.rank_limit_simple_quarters(n, r), 4)


def scan_depth(m, simple: bool) -> int:
    """The first compatible width by a linear scan, n + 1 when there is none."""
    f = bounds.max_qfi_width_simple if simple else bounds.max_qfi_width
    threshold = m.exclusion_threshold()
    return next((w for w in range(1, m.n + 1) if f(m.n, w) >= threshold), m.n + 1)


def scan_separability(m) -> int:
    """The last compatible height by a linear scan down from n, 0 when there is none."""
    threshold = m.exclusion_threshold()
    heights = range(m.n, 0, -1)
    return next((h for h in heights if bounds.max_qfi_height(m.n, h) >= threshold), 0)


def scan_rank(m, simple: bool) -> int:
    """The first compatible realizable rank by a linear scan, n when there is none."""
    f = rank_limit_simple if simple else bounds.max_qfi_rank
    threshold = m.exclusion_threshold()
    return next((r for r in bounds.valid_ranks(m.n) if f(m.n, r) >= threshold), m.n)


class ReferenceCell(NamedTuple):
    """One (w, h) tuple with its QFI limit and per-criterion exclusion flags."""

    w: int
    h: int
    f: int
    excluded_w: bool
    excluded_h: bool
    excluded_r: bool
    excluded_wh: bool

    def status(self) -> str:
        """The grid.csv status: violated projections as W, H, R, else WH or OK."""
        flags = "W" * self.excluded_w + "H" * self.excluded_h + "R" * self.excluded_r
        return flags or ("WH" if self.excluded_wh else "OK")


def reference_grid_rows(m, simple: bool) -> list[ReferenceCell]:
    """Every valid tuple of ``m``, each flag read from its own class limit.

    A class is excluded when its limit is below ``m.exclusion_threshold()``;
    no inferred w, h or r and no staircase pointer is involved.
    """
    n, threshold = m.n, m.exclusion_threshold()
    f_wh = bounds.wh_limit_simple if simple else bounds.max_qfi_wh
    f_w = bounds.max_qfi_width_simple if simple else bounds.max_qfi_width
    f_r = rank_limit_simple if simple else bounds.max_qfi_rank
    out_w = {w: f_w(n, w) < threshold for w in range(1, n + 1)}
    out_h = {h: bounds.max_qfi_height(n, h) < threshold for h in range(1, n + 1)}
    out_r = {r: f_r(n, r) < threshold for r in bounds.valid_ranks(n)}
    rows = []
    for w, h in tuples.all_tuples(n):
        f = f_wh(n, w, h)
        rows.append(ReferenceCell(w, h, f, out_w[w], out_h[h], out_r[w - h], f < threshold))
    return rows


def reference_csv_text(rows) -> str:
    """The grid.csv text of reference rows."""
    return "w,h,f_wh,status\n" + "".join(f"{c.w},{c.h},{c.f},{c.status()}\n" for c in rows)


def grid_counts(rows) -> dict[str, int]:
    """The four exclusion counts tallied row by row over reference rows."""
    return {
        "by_w": sum(c.excluded_w for c in rows),
        "by_h": sum(c.excluded_h for c in rows),
        "by_r": sum(c.excluded_r for c in rows),
        "by_wh": sum(c.excluded_wh for c in rows),
    }


def grid_cells(grid) -> list[tuple[int, int, int, str]]:
    """The ``(w, h, f, status)`` rows of ``grid`` as ``grid.csv`` writes them."""
    lines = cli.grid_csv_text(grid).splitlines()
    assert lines[0] == "w,h,f_wh,status"
    rows = []
    for line in lines[1:]:
        w, h, f, status = line.split(",")
        rows.append((int(w), int(h), int(f), status))
    return rows


def cell_flags(cell, threshold) -> tuple[bool, bool, bool, bool]:
    """The (W, H, R, (w, h)) flags of one ``(w, h, f, status)`` grid cell.

    W and H together force R, so a WH status names the (w, h) flag alone.
    """
    _, _, f, status = cell
    letters = "" if status in ("OK", "WH") else status
    return "W" in letters, "H" in letters, "R" in letters, f < threshold
