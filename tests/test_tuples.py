"""Tests for the (w, h) tuple domain and class counting."""

import pytest
from support import partitions_desc

from metroent import tuples
from metroent.bounds import valid_ranks


def _ceil_div(a, b):
    return -(-a // b)


def test_all_tuples_match_enumeration():
    for n in range(1, 21):
        achieved = {(p[0], len(p)) for p in partitions_desc(n)}
        assert set(tuples.all_tuples(n)) == achieved, n


def test_all_tuples_examples():
    assert tuples.all_tuples(2) == [(1, 2), (2, 1)]
    t14 = tuples.all_tuples(14)
    assert len(t14) == 68
    pairs = set(tuples.all_tuples(7))
    assert (4, 3) in pairs and (4, 5) not in pairs


def test_all_tuples_ordering_and_length():
    for n in (1, 5, 14, 30):
        ts = tuples.all_tuples(n)
        assert ts == sorted(ts)
        assert len(ts) == tuples.count_width_leq(n, n)


def test_count_width_leq_examples():
    assert tuples.count_width_leq(14, 3) == 16
    assert tuples.count_width_leq(8, 5) == 16
    assert tuples.count_width_leq(14, 14) == 68
    with pytest.raises(ValueError):
        tuples.count_width_leq(14, 0)


def test_count_height_geq_examples():
    assert tuples.count_height_geq(14, 10) == 11
    assert tuples.count_height_geq(8, 3) == 15
    assert tuples.count_height_geq(14, 1) == 68


def test_count_rank_leq_examples():
    assert tuples.count_rank_leq(14, -4) == 20
    assert tuples.count_rank_leq(14, 1 - 14) == 1
    assert tuples.count_rank_leq(8, 3) == 17
    with pytest.raises(ValueError):
        tuples.count_rank_leq(14, 12)


def test_counts_match_enumeration():
    for n in range(1, 61):
        ts = tuples.all_tuples(n)
        for w in range(1, n + 1):
            assert tuples.count_width_leq(n, w) == sum(1 for ww, _ in ts if ww <= w)
        for h in range(1, n + 1):
            assert tuples.count_height_geq(n, h) == sum(1 for _, hh in ts if hh >= h)


def test_count_widths_matches_the_per_width_sums():
    # the floor-division blocks against the O(n) sums, on every prefix and
    # suffix of widths, and every range a..b (a > b is empty) of the smaller n
    for n in range(1, 201):
        for w in range(1, n + 1):
            assert tuples.count_widths(n, 1, w) == tuples.count_width_leq(n, w), (n, w)
            assert tuples.count_widths(n, w, n) == tuples.count_height_geq(n, w), (n, w)
        assert tuples.count_widths(n, n + 1, n) == 0
        if n <= 40:
            prefix = [0] + [tuples.count_width_leq(n, w) for w in range(1, n + 1)]
            for a in range(1, n + 2):
                for b in range(a - 1, n + 1):
                    assert tuples.count_widths(n, a, b) == prefix[b] - prefix[a - 1], (n, a, b)


def test_count_rank_closed_form_in_range():
    for n in range(6, 41):
        ts = tuples.all_tuples(n)
        for r in range(3 - n, n - 2):
            if abs(r) == n - 2:
                continue
            enum = sum(1 for w, h in ts if w - h <= r)
            assert tuples.count_rank_leq(n, r) == enum
            assert tuples.count_rank_leq_closed(n, r) == enum, (n, r)
    with pytest.raises(ValueError):
        tuples.count_rank_leq_closed(14, 13)
    with pytest.raises(ValueError):
        tuples.count_rank_leq_closed(14, -13)


def test_total_count_identities():
    # the three family totals agree; the endpoint with a plus sign in front of
    # the ceiling sum would overcount the enumerated total by twice that sum
    for n in range(1, 61):
        total = len(tuples.all_tuples(n))
        ceil_sum = sum(_ceil_div(n, w) for w in range(1, n + 1))
        assert total == n * (n + 3) // 2 - ceil_sum
        assert tuples.count_width_leq(n, n) == total
        assert tuples.count_height_geq(n, 1) == total
        assert tuples.count_rank_leq(n, n - 1) == total
        plus_variant = n * (n + 3) // 2 + ceil_sum
        assert plus_variant == total + 2 * ceil_sum


def test_count_monotonicity():
    for n in (7, 14, 33):
        w_counts = [tuples.count_width_leq(n, w) for w in range(1, n + 1)]
        assert all(a <= b for a, b in zip(w_counts, w_counts[1:]))
        h_counts = [tuples.count_height_geq(n, h) for h in range(1, n + 1)]
        assert all(a >= b for a, b in zip(h_counts, h_counts[1:]))
        r_counts = [tuples.count_rank_leq(n, r) for r in valid_ranks(n)]
        assert all(a <= b for a, b in zip(r_counts, r_counts[1:]))


def test_tuple_ranks_are_always_realizable():
    # no valid tuple carries one of the +-(n - 2) rank gaps
    for n in range(1, 41):
        ranks = {w - h for w, h in tuples.all_tuples(n)}
        assert ranks == set(valid_ranks(n))
