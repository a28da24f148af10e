"""Independent reference implementations used to pin expected test values.

Deliberately different algorithms from the package: partitions come from
Kelleher's ascending-composition generator (the package recurses on
descending parts) and counts come from the classic bounded-part recurrence.
"""

from __future__ import annotations


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


def grid_counts(cells) -> dict[str, int]:
    """The four exclusion counts tallied cell by cell over a materialised grid."""
    return {
        "by_w": sum(c.excluded_w for c in cells),
        "by_h": sum(c.excluded_h for c in cells),
        "by_r": sum(c.excluded_r for c in cells),
        "by_wh": sum(c.excluded_wh for c in cells),
    }
