"""Tests for spin-squeezing floors and the exact dB-text snapshot."""

from decimal import Decimal
from fractions import Fraction

import pytest

from metroent import squeezing
from metroent.bounds import (
    max_qfi_height,
    max_qfi_rank,
    max_qfi_rank_simple,
    max_qfi_wh,
    max_qfi_width,
    max_qfi_width_simple,
    valid_ranks,
)
from metroent.tuples import all_tuples


def test_db_text_to_linear_is_exact_30_digit_snapshot():
    got = squeezing.db_text_to_linear("-4.5")
    assert got == Fraction(Decimal("0.354813389233575458433218702264"))
    assert squeezing.db_text_to_linear("0") == 1
    assert squeezing.db_text_to_linear("10") == 10
    assert squeezing.db_text_to_linear("20") == 100


def test_db_cache_is_bounded():
    assert squeezing.db_text_to_linear.cache_info().maxsize is not None


def test_floor_from_qfi_examples():
    assert squeezing.xi2_floor_from_qfi(max_qfi_width(470, 3), 470) == Fraction(940, 2348)
    assert max_qfi_width(470, 3) == 1408
    for n in (3, 14, 470):
        assert squeezing.xi2_floor_from_qfi(n, n) == Fraction(2, 3)
    # the h = 436 floor sits above the measured -4.5 dB value, h = 435 below
    measured = squeezing.db_text_to_linear("-4.5")
    assert max_qfi_height(470, 436) == 1660
    assert squeezing.xi2_floor_from_qfi(1660, 470) == Fraction(940, 2600)
    assert measured < squeezing.xi2_floor_from_qfi(1660, 470)
    assert measured > squeezing.xi2_floor_from_qfi(max_qfi_height(470, 435), 470)


def test_floor_range_and_monotonicity():
    floors = [squeezing.xi2_floor_from_qfi(f, 20) for f in (1, 20, 50, 400)]
    assert all(0 < fl <= 1 for fl in floors)
    assert all(a > b for a, b in zip(floors, floors[1:]))
    with pytest.raises(ValueError):
        squeezing.xi2_floor_from_qfi(0, 20)


def test_floor_wh_simple():
    assert squeezing.xi2_floor_wh_simple(7, 4, 3) == Fraction(14, 37)
    for n in (2, 9, 31):
        assert squeezing.xi2_floor_wh_simple(n, 1, n) == Fraction(2, 3)
    # simple floors never exceed the tight ones
    for n in range(1, 31):
        for w, h in all_tuples(n):
            tight = squeezing.xi2_floor_from_qfi(max_qfi_wh(n, w, h), n)
            assert squeezing.xi2_floor_wh_simple(n, w, h) <= tight


def test_floor_width():
    assert squeezing.xi2_floor_width(1) == Fraction(2, 3)
    assert squeezing.xi2_floor_width(2) == Fraction(1, 2)
    for n in range(1, 61):
        for w in range(1, n + 1):
            simple = squeezing.xi2_floor_width(w)
            assert simple == squeezing.xi2_floor_from_qfi(max_qfi_width_simple(n, w), n)
            assert simple <= squeezing.xi2_floor_from_qfi(max_qfi_width(n, w), n)


def test_floor_height():
    for n in (5, 14, 470):
        assert squeezing.xi2_floor_height(n, n) == Fraction(2, 3)
        assert squeezing.xi2_floor_height(n, 1) == Fraction(2, n + 2)
        for h in range(1, min(n, 40) + 1):
            assert squeezing.xi2_floor_height(n, h) == squeezing.xi2_floor_from_qfi(
                max_qfi_height(n, h), n
            )


def test_floor_rank():
    assert squeezing.xi2_floor_rank(14, -3) == Fraction(112, 288)
    for n in (2, 14, 470):
        assert squeezing.xi2_floor_rank(n, 1 - n) == Fraction(2, 3)
    # reproduces the published n=470 exclusion boundary between -400 and -399
    measured = squeezing.db_text_to_linear("-4.5")
    tight_399 = squeezing.xi2_floor_from_qfi(max_qfi_rank(470, -399), 470)
    tight_400 = squeezing.xi2_floor_from_qfi(max_qfi_rank(470, -400), 470)
    assert tight_399 == Fraction(940, 2670)
    assert tight_400 == Fraction(940, 2602)
    assert tight_399 <= measured < tight_400
    # agrees with the floor built from the simplified rank limit off-corner
    for n in range(1, 41):
        for r in valid_ranks(n):
            if n + r == 4:
                continue
            assert squeezing.xi2_floor_rank(n, r) == squeezing.xi2_floor_from_qfi(
                max_qfi_rank_simple(n, r), n
            )


def test_tight_floor_dominates_simplified_for_every_class():
    for n in range(1, 61):
        for w, h in all_tuples(n):
            assert squeezing.xi2_floor_from_qfi(
                max_qfi_wh(n, w, h), n
            ) >= squeezing.xi2_floor_wh_simple(n, w, h)
        for r in valid_ranks(n):
            tight = squeezing.xi2_floor_from_qfi(max_qfi_rank(n, r), n)
            simple = squeezing.xi2_floor_from_qfi(max_qfi_rank_simple(n, r), n)
            assert tight >= simple
