"""Tests for the squeezing criterion and the exact dB-text snapshot.

A measured xi**2 strictly below the floor 2n / (f + 2n) excludes a class
with QFI limit f.  The package holds that criterion in ``Measurement``,
whose ``exclusion_threshold`` gives T; ``floor`` below is the paper's form,
kept here as the reference it is checked against.
"""

import random
from decimal import ROUND_FLOOR, Context, Decimal, DefaultContext, Inexact, Overflow, Underflow, localcontext
from fractions import Fraction

import pytest
from support import quantity

from metroent import squeezing, witness
from metroent.bounds import (
    max_qfi_height,
    max_qfi_rank,
    max_qfi_wh,
    max_qfi_width,
    valid_ranks,
)
from metroent.tuples import all_tuples
from metroent.witness import Measurement


def floor(f, n):
    return Fraction(2 * n, f + 2 * n)


def xi2(n, value, unit="linear"):
    return Measurement(label="m", n=n, kind="xi2", value=value, unit=unit)


def test_db_text_to_linear_is_exact_30_digit_snapshot():
    # the converter takes the dB value's ratio in lowest terms: -4.5 is (-9, 2)
    got = squeezing.db_text_to_linear(-9, 2)
    assert got == Fraction(Decimal("0.354813389233575458433218702264"))
    assert squeezing.db_text_to_linear(0, 1) == 1
    assert squeezing.db_text_to_linear(10, 1) == 10
    assert squeezing.db_text_to_linear(20, 1) == 100


def test_db_cache_is_bounded():
    assert squeezing.db_text_to_linear.cache_info().maxsize is not None


def test_db_power_past_the_exponent_range_raises_and_is_not_cached():
    # no command reaches these, as a dB value past +-1000 is refused first;
    # an underflow once gave and cached 0E-1000000000000000028
    squeezing.db_text_to_linear.cache_clear()
    for u, signal in ((10**30, Overflow), (-(10**30), Underflow)):
        with pytest.raises(signal):
            squeezing.db_text_to_linear(u, 1)
    assert squeezing.db_text_to_linear.cache_info().currsize == 0


def test_db_snapshot_ignores_the_callers_decimal_context():
    # the snapshot is cached and handed to every later caller, so no setting of
    # the context it was first made in may move it, nor refuse the value; the
    # long text's exact threshold lies just above the w = 3 limit 1408, and a
    # floor rounding would move its width cut to 1409
    texts = ("-3.9757023897587820686307879387200615", "-4.5")
    callers = {"floor": Context(rounding=ROUND_FLOOR), "inexact-trapped": Context(traps=[Inexact]),
               "prec-5": Context(prec=5)}

    def answers():
        squeezing.db_text_to_linear.cache_clear()
        ms = [xi2(470, text, unit="db") for text in texts]
        return [(m._quantity, m._cut1, m._cut4) for m in ms]

    try:
        expected = answers()
        for name, context in callers.items():
            with localcontext(context):
                got = answers()
            assert got == expected, name
        # nor decimal.DefaultContext, which a Context() given only some fields
        # copies the rest from: with Inexact trapped, a per-call context of prec
        # and rounding alone refused -4.5 dB
        saved = DefaultContext.copy()
        DefaultContext.traps[Inexact] = True
        DefaultContext.Emin, DefaultContext.Emax = -9, 9
        try:
            got = answers()
        finally:
            DefaultContext.traps = saved.traps
            DefaultContext.Emin, DefaultContext.Emax = saved.Emin, saved.Emax
        assert got == expected, "DefaultContext"
    finally:
        squeezing.db_text_to_linear.cache_clear()


def test_floor_from_qfi_examples():
    assert max_qfi_width(470, 3) == 1408
    assert floor(1408, 470) == Fraction(940, 2348)
    # the h = 436 floor sits above the measured -4.5 dB value, h = 435 below
    m = xi2(470, "-4.5", unit="db")
    measured, threshold = quantity(m), m.exclusion_threshold()
    assert max_qfi_height(470, 436) == 1660
    assert floor(1660, 470) == Fraction(940, 2600)
    assert measured < floor(1660, 470) and 1660 < threshold
    f435 = max_qfi_height(470, 435)
    assert measured > floor(f435, 470) and not f435 < threshold
    assert witness.infer_separability(m) == 435
    # for every class limit, xi**2 < floor(f) exactly when f < threshold
    rng = random.Random(2012)
    for n in (1, 2, 7, 30):
        limits = [max_qfi_wh(n, w, h) for w, h in all_tuples(n)]
        limits += [max_qfi_rank(n, r) for r in valid_ranks(n)]
        for value in [f"{rng.uniform(2 / (n + 2), 1):.6f}" for _ in range(20)] + ["1", "0.5"]:
            m = xi2(n, value)
            q, threshold = quantity(m), m.exclusion_threshold()
            for f in limits:
                assert (q < floor(f, n)) == (f < threshold), (n, value, f)


def test_floor_width():
    # the floor of the simple width limit w*n is 2/(2 + w) for every n
    for n in (5, 14, 470):
        for w in range(1, min(n, 40) + 1):
            assert floor(max_qfi_width(n, w, simple=True), n) == Fraction(2, 2 + w)
    for value in ("0.5", "0.35", "0.2", "0.95"):
        for n in (40, 100, 470):
            expected = min(w for w in range(1, n + 1) if Fraction(2, 2 + w) <= Fraction(value))
            assert witness.infer_depth(xi2(n, value), simple=True) == expected, (n, value)


def test_floor_height():
    # n + 2 divides a power of ten, so the h = 1 floor 2/(n + 2) is decimal text
    for n, on_floor, below in ((3, "0.4", "0.399999"), (8, "0.2", "0.199999"),
                               (14, "0.125", "0.124999"), (498, "0.004", "0.003999")):
        # floors of the fully separable and the genuine n-partite class
        assert floor(max_qfi_height(n, n), n) == Fraction(2, 3)
        assert floor(max_qfi_height(n, 1), n) == Fraction(on_floor)
        # a value on the h = 1 floor leaves that class compatible; below, none is
        assert witness.infer_separability(xi2(n, on_floor)) == 1
        assert witness.infer_separability(xi2(n, below)) == 0
        # just above 2/3 nothing is excluded; just below, h = n is
        assert witness.infer_separability(xi2(n, "0.6667")) == n
        assert witness.infer_separability(xi2(n, "0.6666")) == n - 1


def test_floor_rank():
    for n in (2, 14, 470):
        assert floor(max_qfi_rank(n, 1 - n), n) == Fraction(2, 3)
    # reproduces the published n=470 exclusion boundary between -400 and -399
    m = xi2(470, "-4.5", unit="db")
    measured, threshold = quantity(m), m.exclusion_threshold()
    tight_399 = floor(max_qfi_rank(470, -399), 470)
    tight_400 = floor(max_qfi_rank(470, -400), 470)
    assert tight_399 == Fraction(940, 2670)
    assert tight_400 == Fraction(940, 2602)
    assert tight_399 <= measured < tight_400
    assert max_qfi_rank(470, -400) < threshold <= max_qfi_rank(470, -399)
    assert witness.infer_rank(m) == -399
