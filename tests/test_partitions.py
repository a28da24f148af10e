"""Tests for the partition enumeration."""

import pytest
from support import count_partitions, partitions_desc

from metroent.oracle import iter_partition_rows


@pytest.mark.parametrize("n", [1, 5, 9])
def test_rank_extremes(n):
    # the order runs from the single row, of rank n - 1, to the column of
    # singletons, of rank 1 - n
    rows = list(iter_partition_rows(n))
    assert rows[0] == (n,) and rows[-1] == (1,) * n


def test_enumeration_counts_match_recurrence():
    # independent oracle: bounded-largest-part counting recurrence
    for n in range(1, 41):
        assert sum(1 for _ in iter_partition_rows(n)) == count_partitions(n)


def test_enumeration_order_is_reverse_lexicographic():
    expected = [
        (7,),
        (6, 1),
        (5, 2),
        (5, 1, 1),
        (4, 3),
        (4, 2, 1),
        (4, 1, 1, 1),
        (3, 3, 1),
        (3, 2, 2),
        (3, 2, 1, 1),
        (3, 1, 1, 1, 1),
        (2, 2, 2, 1),
        (2, 2, 1, 1, 1),
        (2, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1),
    ]
    assert list(iter_partition_rows(7)) == expected
    # against Kelleher's ascending generator, sorted independently
    for n in range(1, 31):
        assert list(iter_partition_rows(n)) == sorted(partitions_desc(n), reverse=True)


def test_single_particle():
    assert list(iter_partition_rows(1)) == [(1,)]


def test_yielded_diagrams_are_valid_and_unique():
    for n in (6, 11, 17):
        diagrams = list(iter_partition_rows(n))
        assert len(diagrams) == len(set(diagrams))
        for rows in diagrams:
            assert type(rows) is tuple and rows
            assert all(r >= 1 for r in rows)
            assert all(a >= b for a, b in zip(rows, rows[1:]))
            assert sum(rows) == n


def test_bad_n_rejected():
    with pytest.raises(ValueError):
        list(iter_partition_rows(0))
