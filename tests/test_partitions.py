"""Tests for Young diagram values and partition enumeration."""

import pytest
from support import count_partitions, partitions_desc

from metroent.partitions import YoungDiagram, iter_partition_rows


def test_width_height_rank_examples():
    d = YoungDiagram((4, 2, 1))
    assert d.width() == 4
    assert d.height() == 3
    assert d.dyson_rank() == 1
    assert d.n == 7
    assert YoungDiagram((1,)).width() == 1
    assert YoungDiagram((3, 3, 1)).width() == 3
    assert YoungDiagram((1, 1, 1, 1)).height() == 4
    assert YoungDiagram((4, 3)).height() == 2
    assert YoungDiagram((4, 3)).dyson_rank() == 2
    assert YoungDiagram((3, 3, 1)).dyson_rank() == 0


@pytest.mark.parametrize("n", [1, 5, 9])
def test_rank_extremes(n):
    assert YoungDiagram((1,) * n).dyson_rank() == 1 - n
    assert YoungDiagram((n,)).dyson_rank() == n - 1


def test_sum_squares():
    assert YoungDiagram((4, 2, 1)).sum_squares() == 21
    assert YoungDiagram((5,)).sum_squares() == 25


def test_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram(())
    with pytest.raises(ValueError):
        YoungDiagram((3, 0))
    with pytest.raises(ValueError):
        YoungDiagram((2, 3))
    with pytest.raises(ValueError):
        YoungDiagram((1, -1))


def test_text_form_round_trip():
    d = YoungDiagram((4, 2, 1))
    assert str(d) == "4,2,1"
    for rows in ((4, 2, 1), (7,), (1, 1, 1)):
        text = str(YoungDiagram(rows))
        assert YoungDiagram.from_rows(int(part) for part in text.split(",")).rows == rows


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
        diagrams = [YoungDiagram(rows) for rows in iter_partition_rows(n)]
        assert len(diagrams) == len(set(diagrams))
        for d in diagrams:
            assert d.n == n
            assert d.dyson_rank() == d.width() - d.height()
            assert all(a >= b for a, b in zip(d.rows, d.rows[1:]))


def test_bad_n_rejected():
    with pytest.raises(ValueError):
        list(iter_partition_rows(0))
