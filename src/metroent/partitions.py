"""Reverse-lexicographic enumeration of Young diagrams (integer partitions).

A diagram is a non-increasing tuple of positive row sizes.  Its width is the
largest row (size of the biggest entangled block), its height the number of
rows (number of separable blocks), and its Dyson rank the difference of the
two.  Enumeration is reverse-lexicographic on the row tuples so that reports
and tests are reproducible.
"""


from collections.abc import Iterator


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
