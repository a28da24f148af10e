"""Tests for measurement parsing, exclusion logic and grid construction."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from support import (
    cell_flags,
    grid_cells,
    grid_counts,
    rank_limit_simple,
    reference_csv_text,
    reference_grid_rows,
    scan_depth,
    scan_rank,
    scan_separability,
)

from metroent import bounds, tuples, witness
from metroent.bounds import max_qfi_rank, max_qfi_wh, max_qfi_width, wh_limit_simple
from metroent.cli import grid_csv_text
from metroent.witness import Measurement, fraction_to_decimal_text


def fq(n, value, label="m"):
    return Measurement(label=label, n=n, kind="fq", value=value)


def xi2_db(n, value, label="m"):
    return Measurement(label=label, n=n, kind="xi2", value=value, unit="db")


def xi2_linear(n, value, label="m"):
    return Measurement(label=label, n=n, kind="xi2", value=value, unit="linear")


def test_measurement_validation():
    with pytest.raises(ValueError):
        Measurement(label="x", n=0, kind="fq", value="1")
    with pytest.raises(ValueError):
        Measurement(label="x", n=5, kind="qfi", value="1")
    with pytest.raises(ValueError):
        Measurement(label="x", n=5, kind="fq", value="1", unit="db")
    with pytest.raises(ValueError):
        Measurement(label="x", n=5, kind="xi2", value="1")
    with pytest.raises(ValueError):
        Measurement(label="x", n=5, kind="fq", value="abc")
    with pytest.raises(ValueError):
        Measurement(label="x", n=5, kind="fq", value="-3")
    with pytest.raises(ValueError):
        Measurement(label="x", n=5, kind="xi2", value="0", unit="linear")
    # decimal text is bounded in length and in exponent
    for value in ("1e101", "1e-101", "1" * 101):
        with pytest.raises(ValueError, match="bad decimal value"):
            fq(5, value)
    assert fq(5, "1e100").quantity() == 10**100
    # n is bounded for every caller, before any value is parsed
    assert fq(witness.MAX_N, "5").n == 10**6
    with pytest.raises(ValueError, match=r"n must be <= 1000000, got 1000001"):
        fq(witness.MAX_N + 1, "abc")


def test_db_values_are_bounded_before_conversion(monkeypatch):
    # 10**(x/10) keeps its exponent within +-MAX_EXPONENT exactly when |x| <= 1000
    assert xi2_db(5, "1000").quantity() == 10**100
    assert xi2_db(5, "-1000").quantity() == Fraction(1, 10**100)

    def refuse(text):
        raise AssertionError(f"converted {text}")

    monkeypatch.setattr(witness, "db_text_to_linear", refuse)
    for value in ("-1000.0001", "1000.0001", "-9.99e6", "-1e100", "-Infinity"):
        with pytest.raises(ValueError, match="bad decimal value"):
            xi2_db(5, value)


@pytest.mark.parametrize("label", ["", ".", "..", "../outside", "a/b", "/abs", "a\\b", "a\0b"])
def test_measurement_rejects_unsafe_labels(label):
    # library callers get the same label rule as dataset files
    with pytest.raises(ValueError, match="bad label"):
        Measurement(label=label, n=5, kind="fq", value="6")


def test_quantity_is_exact():
    assert fq(14, "40.4").quantity() == Fraction(202, 5)
    assert xi2_linear(470, "0.354813").quantity() == Fraction(354813, 10**6)
    # dB values go through the 30-digit deterministic conversion
    assert xi2_db(470, "-4.5").quantity() == Fraction(
        354813389233575458433218702264, 10**30
    )


def test_each_value_is_parsed_once(monkeypatch):
    calls = []
    convert = witness.db_text_to_linear

    def counting(text):
        calls.append(text)
        return convert(text)

    monkeypatch.setattr(witness, "db_text_to_linear", counting)
    report = witness.analyze(xi2_db(470, "-4.5"))
    assert (report.depth, report.separability, report.rank) == (4, 435, -399)
    assert calls == ["-4.5"]


def test_exceeds_examples():
    # a class with QFI limit f is excluded exactly when f < T
    t14 = fq(14, "40.4").exclusion_threshold()
    assert t14 == Fraction("40.4")
    assert 40 < t14 and not 44 < t14
    assert not 14 < fq(14, "14").exclusion_threshold()  # exactly at the bound: compatible
    t470 = xi2_linear(470, "0.354813").exclusion_threshold()
    assert 1408 < t470
    assert max_qfi_width(470, 4) == 1876
    assert not 1876 < t470


def test_infer_examples():
    m14 = fq(14, "40.4")
    assert witness.infer_depth(m14) == 4
    assert witness.infer_separability(m14) == 9
    assert witness.infer_rank(m14) == -3

    m8 = fq(8, "39.6")
    assert witness.infer_depth(m8) == 6
    assert witness.infer_separability(m8) == 2
    assert witness.infer_rank(m8) == 4

    m127 = fq(127, "266.7")
    assert witness.infer_depth(m127) == 3
    assert witness.infer_separability(m127) == 115
    assert witness.infer_rank(m127) == -102

    m36 = fq(36, "54.36")
    assert witness.infer_rank(m36) == -27

    m470 = xi2_db(470, "-4.5")
    assert witness.infer_depth(m470) == 4
    assert witness.infer_separability(m470) == 435
    assert witness.infer_rank(m470) == -399


def test_infer_rank_scans_the_ranks_lazily():
    # the answer is the second realizable rank; the search builds no rank list
    m = fq(100_000, "100001")
    tracemalloc.start()
    try:
        assert witness.infer_rank(m) == 3 - 100_000
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_shot_noise_measurement_excludes_nothing():
    m = fq(10, "10")
    assert witness.infer_depth(m) == 1
    assert witness.infer_separability(m) == 10
    assert witness.infer_rank(m) == -9
    grid = witness.build_grid(witness.analyze(m))
    assert all(status == "OK" for *_, status in grid_cells(grid))


def test_beyond_heisenberg_sentinels():
    m = fq(4, "17")  # above n**2 = 16: no separable description remains
    assert witness.infer_depth(m) == 5
    assert witness.infer_separability(m) == 0
    assert witness.infer_rank(m) == 4
    grid = witness.build_grid(witness.analyze(m))
    assert all(f < 17 and status != "OK" for _, _, f, status in grid_cells(grid))


def test_grid_cells_n14():
    m = fq(14, "40.4")
    grid = witness.build_grid(witness.analyze(m))
    cells = {(w, h): (f, status) for w, h, f, status in grid_cells(grid)}
    # the shot-noise tuple is excluded by every criterion
    assert cells[(1, 14)] == (14, "WHR")
    assert cells[(14, 1)] == (196, "OK")
    # caught by the full (w, h) information only
    assert cells[(4, 7)] == (40, "WH")
    assert cells[(5, 8)][1] == "WH"
    # (4, 9) has f = 32 < 40.4 but its rank -5 class is also excluded
    assert cells[(4, 9)] == (32, "R")
    assert max_qfi_rank(14, -5) == 34


def test_grid_counts_match_report():
    m = fq(14, "40.4")
    rep = witness.analyze(m)
    assert rep.counts == {"by_w": 16, "by_h": 11, "by_r": 20, "by_wh": 24}
    assert rep.depth == 4 and rep.separability == 9 and rep.rank == -3
    assert rep.q_advantage == Fraction("26.4")
    assert rep.smallest_excluded_h == 10


def test_quantum_advantage():
    # the gain over the shot-noise limit n, reported for QFI records only
    assert witness.analyze(fq(14, "40.4")).q_advantage == Fraction("26.4")
    assert witness.analyze(fq(14, "14")).q_advantage == 0
    for n in (2, 9, 50):
        assert witness.analyze(fq(n, str(n * n))).q_advantage == n * (n - 1)
    assert witness.analyze(xi2_db(470, "-4.5")).q_advantage is None


def test_report_json_schema():
    rep = witness.analyze(fq(14, "40.4", label="ions-n14"))
    d = rep.to_json_dict()
    assert d == {
        "label": "ions-n14",
        "n": 14,
        "kind": "fq",
        "value": "40.4",
        "inferred": {"w": 4, "h": 9, "r": -3},
        "counts": {"by_w": 16, "by_h": 11, "by_r": 20, "by_wh": 24},
        "q_advantage": "26.4",
        "grid_ref": "grid.csv",
    }
    d470 = witness.analyze(xi2_db(470, "-4.5", label="bec-n470")).to_json_dict()
    assert d470["q_advantage"] is None
    assert d470["inferred"] == {"w": 4, "h": 435, "r": -399}


def _random_measurement(rng):
    n = rng.randint(2, 60)
    if rng.random() < 0.5:
        # physical QFI values live in (0, n**2]
        value = rng.randint(1, n * n * 10)
        return Measurement(label="r", n=n, kind="fq", value=f"{value / 10:.1f}")
    # squeezing beyond the genuine n-partite floor 2/(n+2) is unphysical
    lo = 2 / (n + 2)
    value = lo + (1.0 - lo) * rng.random() + 1e-6
    return Measurement(label="r", n=n, kind="xi2", value=f"{value:.6f}", unit="linear")


def test_projection_dominance_and_flag_soundness_random():
    rng = random.Random(424242)
    for _ in range(60):
        m = _random_measurement(rng)
        for c in reference_grid_rows(m, False):
            if c.excluded_w or c.excluded_h or c.excluded_r:
                assert c.excluded_wh, (m, c)
            # W and H together force R, keeping the WH status unambiguous
            if c.excluded_w and c.excluded_h:
                assert c.excluded_r, (m, c)


def test_flag_soundness_random_simple():
    # under simple bounds the W and H flags stay sound and W and H still
    # force R, but an R flag can sit on a (w, h)-compatible tuple
    rng = random.Random(424242)
    for _ in range(60):
        m = _random_measurement(rng)
        for c in reference_grid_rows(m, True):
            if c.excluded_w or c.excluded_h:
                assert c.excluded_wh, (m, c)
            if c.excluded_w and c.excluded_h:
                assert c.excluded_r, (m, c)
    # the simple rank limit ((n + r)**2 - 1)/4 + n of r = 0 is 34.75, a
    # quarter below the simple (5, 5) limit 35: the tuple reads R unexcluded,
    # and grid.csv has one more non-OK row than by_wh
    rep = witness.analyze(fq(10, "35"), simple=True)
    text = grid_csv_text(witness.build_grid(rep))
    assert "\n5,5,35,R\n" in text
    assert rep.counts["by_wh"] == 16
    assert sum(not line.endswith(",OK") for line in text.splitlines()[1:]) == 17


def test_monotonicity_in_measurement():
    rng = random.Random(31337)
    for _ in range(25):
        n = rng.randint(2, 40)
        f1 = rng.uniform(1, n * n)
        f2 = min(f1 * rng.uniform(1.0, 1.5) + 1, n * n)
        m1, m2 = fq(n, f"{f1:.2f}"), fq(n, f"{f2:.2f}")
        t1, t2 = m1.exclusion_threshold(), m2.exclusion_threshold()
        g1 = witness.build_grid(witness.analyze(m1))
        g2 = witness.build_grid(witness.analyze(m2))
        for c1, c2 in zip(grid_cells(g1), grid_cells(g2)):
            flags1, flags2 = cell_flags(c1, t1), cell_flags(c2, t2)
            assert all(b >= a for a, b in zip(flags1, flags2)), (n, c1, c2)


def _measurement_up_to(rng, n_max):
    """A QFI, linear or dB squeezing value for n log-uniform over 2..n_max."""
    n = round(math.exp(rng.uniform(math.log(2), math.log(n_max))))
    kind = rng.choice(("fq", "on-limit", "linear", "db"))
    if kind == "fq":
        return fq(n, f"{n * n ** rng.random():.2f}")
    if kind == "on-limit":
        return fq(n, str(max_qfi_width(n, rng.randint(1, n))))
    if kind == "linear":
        return xi2_linear(n, f"{rng.uniform(2 / (n + 2), 1):.6f}")
    return xi2_db(n, f"{rng.uniform(-20, -0.05):.2f}")


def test_boundary_consistency():
    # every cell's f and flags agree with the per-tuple reference, which reads
    # each flag from its own class limit
    rng = random.Random(2718)
    ms = [fq(14, "40.4"), fq(36, "54.36"), xi2_db(470, "-4.5")]
    ms += [_measurement_up_to(rng, 300) for _ in range(40)]
    for m in ms:
        for simple in (False, True):
            expected = [(c.w, c.h, c.f, c.status()) for c in reference_grid_rows(m, simple)]
            grid = witness.build_grid(witness.analyze(m, simple=simple))
            assert grid_cells(grid) == expected, (m, simple)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(n=st.integers(1, 500), simple=st.booleans())
@example(n=500, simple=False)
@example(n=500, simple=True)
def test_class_limits_are_monotone(n, simple):
    # the nesting build_grid and exclusion_counts rely on: width and rank limits never fall,
    # height limits never rise
    f_w = bounds.max_qfi_width_simple if simple else bounds.max_qfi_width
    f_r = rank_limit_simple if simple else bounds.max_qfi_rank
    widths = [f_w(n, w) for w in range(1, n + 1)]
    heights = [bounds.max_qfi_height(n, h) for h in range(1, n + 1)]
    ranks = [f_r(n, r) for r in bounds.valid_ranks(n)]
    assert all(a <= b for a, b in zip(widths, widths[1:]))
    assert all(a >= b for a, b in zip(heights, heights[1:]))
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(1, 150), simple=st.booleans())
@example(n=150, simple=False)
@example(n=150, simple=True)
def test_wh_limit_is_a_staircase(n, simple):
    # the shape exclusion_counts walks: over valid tuples the (w, h) limit
    # never rises with h and never falls with w
    f_wh = wh_limit_simple if simple else max_qfi_wh
    f = {(w, h): f_wh(n, w, h) for w, h in tuples.all_tuples(n)}
    for (w, h), value in f.items():
        assert f.get((w, h + 1), value) <= value, (n, w, h)
        assert f.get((w + 1, h), value) >= value, (n, w, h)


def test_counts_match_the_grid(monkeypatch):
    # the one-pass counts equal the row-by-row tally of the per-tuple reference
    rng = random.Random(8128)
    ms = [xi2_db(10, "-21.35"), fq(4, "17"), fq(1, "1"), fq(2, "3"), xi2_linear(3, "0.5")]
    ms += [_measurement_up_to(rng, 300) for _ in range(40)]
    for _ in range(40):
        n = rng.randint(1, 120)
        w, h = rng.choice(tuples.all_tuples(n))
        limit = rng.choice((max_qfi_wh, wh_limit_simple))(n, w, h)
        ms += [fq(n, str(limit + d)) for d in (-1, 0, 1) if limit + d > 0]
    expected = {(m, simple): grid_counts(reference_grid_rows(m, simple))
                for m in ms for simple in (False, True)}
    assert expected[xi2_db(10, "-21.35"), False]["by_wh"] == len(tuples.all_tuples(10))

    def no_grid(report):
        raise AssertionError("analyze built the grid")

    monkeypatch.setattr(witness, "build_grid", no_grid)
    for (m, simple), counts in expected.items():
        assert witness.analyze(m, simple=simple).counts == counts, (m, simple)


FAMILIES = ("w", "h", "r", "wh")
# on a limit, 1 below it, 0.5 above it and a quarter either side, where an
# integer cut for the simple rank limit must be taken in quarters
OFFSETS = (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(-1, 4), Fraction(1, 4))


def _family_limit(n, family, simple, pick):
    """One limit of a class family at n, chosen by ``pick``, in either bound mode."""
    if family == "w":
        f = bounds.max_qfi_width_simple if simple else max_qfi_width
        return f(n, 1 + pick % n)
    if family == "h":
        return bounds.max_qfi_height(n, 1 + pick % n)
    if family == "r":
        ranks = list(bounds.valid_ranks(n))
        f = rank_limit_simple if simple else max_qfi_rank
        return f(n, ranks[pick % len(ranks)])
    column = list(bounds.wh_limit_column(n, 1 + pick % n, simple=simple))
    return column[pick // n % len(column)]


def _fq_near_limit(n, family, simple, pick, offset):
    value = _family_limit(n, family, simple, pick) + offset
    assume(value > 0)
    return fq(n, fraction_to_decimal_text(value))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    n=st.integers(1, 500),
    simple=st.booleans(),
    family=st.sampled_from(FAMILIES),
    pick=st.integers(0, 10**6),
    offset=st.sampled_from(OFFSETS),
)
# the rank hole +-(n - 2) at its edges: n = 2 has the hole 0 between -1 and
# 1, n = 3 the holes -1 and 1 beside 0, n = 4 the holes next to -3 and 3
@example(n=1, simple=False, family="r", pick=0, offset=Fraction(0))
@example(n=1, simple=True, family="r", pick=0, offset=Fraction(1, 2))
@example(n=2, simple=False, family="r", pick=0, offset=Fraction(1, 2))
@example(n=2, simple=True, family="r", pick=0, offset=Fraction(0))
@example(n=3, simple=False, family="r", pick=0, offset=Fraction(1, 2))
@example(n=3, simple=True, family="r", pick=1, offset=Fraction(1, 2))
@example(n=4, simple=False, family="r", pick=0, offset=Fraction(1, 2))
@example(n=4, simple=True, family="r", pick=3, offset=Fraction(1, 2))
@example(n=4, simple=False, family="r", pick=4, offset=Fraction(1, 2))
# T = 38.5, a quarter below the simple limit 38.75 of rank -4: a cut of
# ceil(T) = 39 against the limit would answer -3
@example(n=14, simple=True, family="r", pick=8, offset=Fraction(-1, 4))
def test_inference_matches_a_linear_scan(n, simple, family, pick, offset):
    m = _fq_near_limit(n, family, simple, pick, offset)
    assert witness.infer_depth(m, simple=simple) == scan_depth(m, simple)
    assert witness.infer_separability(m) == scan_separability(m)
    assert witness.infer_rank(m, simple=simple) == scan_rank(m, simple)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    n=st.integers(1, 150),
    simple=st.booleans(),
    family=st.sampled_from(FAMILIES),
    pick=st.integers(0, 10**6),
    offset=st.sampled_from(OFFSETS),
)
@example(n=150, simple=False, family="wh", pick=149, offset=Fraction(0))
@example(n=150, simple=True, family="wh", pick=10**6, offset=Fraction(-1))
# n = 2000, the largest n a column serves, on the rectangle widths 16 and 50
@example(n=2000, simple=False, family="wh", pick=15, offset=Fraction(0))
@example(n=2000, simple=True, family="wh", pick=2049, offset=Fraction(-1))
def test_first_excluded_height_solves_each_width(n, simple, family, pick, offset):
    # each width's first excluded height is the first h in lo..hi whose (w, h)
    # limit is below the threshold, and the solver reads the limit ceil(T) - 1
    m = _fq_near_limit(n, family, simple, pick, offset)
    threshold = m.exclusion_threshold()
    num, den = threshold.numerator, threshold.denominator
    f_wh = wh_limit_simple if simple else max_qfi_wh
    for w in range(1, n + 1):
        lo, hi = -(-n // w), n + 1 - w
        p = bounds.wh_first_height_at_most(n, w, math.ceil(threshold) - 1, simple=simple)
        first = next((h for h in range(lo, hi + 1) if f_wh(n, w, h) * den < num), hi + 1)
        assert p == first, (m, simple, w)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    n=st.integers(1, 120),
    simple=st.booleans(),
    family=st.sampled_from(FAMILIES),
    pick=st.integers(0, 10**6),
    offset=st.sampled_from((Fraction(-1), Fraction(0), Fraction(1))),
)
@example(n=120, simple=False, family="wh", pick=10**6, offset=Fraction(1))
@example(n=120, simple=True, family="r", pick=7, offset=Fraction(-1))
def test_grid_csv_matches_the_reference_at_run_cuts(n, simple, family, pick, offset):
    # a crossed width, height or rank limit moves a run's W, H or R cut, and
    # a crossed (w, h) limit its width's first excluded height: on each such
    # limit and 1 either side, the text written from the runs equals the
    # per-tuple reference in both bound modes
    m = _fq_near_limit(n, family, simple, pick, offset)
    for mode in (False, True):
        text = grid_csv_text(witness.build_grid(witness.analyze(m, simple=mode)))
        assert text == reference_csv_text(reference_grid_rows(m, mode)), (m, mode)


@pytest.mark.parametrize("simple", [False, True])
def test_grid_cells_view_counts_every_tuple(simple):
    # perfbench counts len(grid.cells) as the tuples of a grid
    ms = [fq(1, "1"), fq(2, "3"), fq(14, "40.4"), fq(60, "3601"), xi2_db(470, "-4.5")]
    for m in ms:
        grid = witness.build_grid(witness.analyze(m, simple=simple))
        assert len(grid.cells) == tuples.count_width_leq(m.n, m.n) == len(grid_cells(grid)), m


def test_large_n_counts_read_no_limit_and_few_widths(monkeypatch):
    # ROADMAP item 2's guard row at n = 10**6: no per-height limit is
    # evaluated, and the walk ends at width n - h
    def refuse(n, w, h):
        raise AssertionError("per-height limit evaluated")

    monkeypatch.setattr(bounds, "max_qfi_wh", refuse)
    monkeypatch.setattr(bounds, "_wh_rows", refuse)
    monkeypatch.setattr(bounds, "wh_limit_simple", refuse)
    widths = []
    solve = bounds.wh_first_height_at_most

    def counting(n, w, f_max, *, simple=False):
        widths.append(w)
        return solve(n, w, f_max, simple=simple)

    monkeypatch.setattr(bounds, "wh_first_height_at_most", counting)
    rep = witness.analyze(fq(10**6, "30000000"))
    assert (rep.depth, rep.separability, rep.rank) == (31, 994615, -989229)
    assert rep.counts == {
        "by_w": 26004595, "by_h": 14496421, "by_r": 28992841, "by_wh": 164147146,
    }
    assert widths == list(range(1, 10**6 - 994615 + 1))  # 5385 widths


@pytest.mark.parametrize("n", range(1, 31))
def test_walk_ends_where_the_first_width_excludes_nothing(n):
    # the widths that hold an excluded tuple are exactly 1..n - h, so the
    # count walk may end at n - h: checked on every limit of every family,
    # in both bound modes, and at OFFSETS from it
    limits = {bounds.max_qfi_height(n, h) for h in range(1, n + 1)}
    for simple in (False, True):
        f_w = bounds.max_qfi_width_simple if simple else max_qfi_width
        f_r = rank_limit_simple if simple else max_qfi_rank
        limits |= {f_w(n, w) for w in range(1, n + 1)}
        limits |= {f_r(n, r) for r in bounds.valid_ranks(n)}
        for w in range(1, n + 1):
            limits |= set(bounds.wh_limit_column(n, w, simple=simple))
    values = {limit + offset for limit in limits for offset in OFFSETS}
    solve = bounds.wh_first_height_at_most
    for value in sorted(v for v in values if v > 0):
        m = fq(n, fraction_to_decimal_text(value))
        separability = witness.infer_separability(m)
        f_max = math.ceil(m.exclusion_threshold()) - 1
        for simple in (False, True):
            # the first width whose first excluded height is past its top height
            first = next(
                (w for w in range(1, n + 1) if solve(n, w, f_max, simple=simple) > n + 1 - w),
                n + 1,
            )
            assert first == n + 1 - separability, (m, simple)


@pytest.mark.parametrize("simple", [False, True])
def test_threshold_is_worked_out_once(monkeypatch, simple):
    # inference, counts and grid all read the threshold the measurement stored
    calls = []
    threshold = witness.Measurement.exclusion_threshold

    def counting(self):
        calls.append(self.label)
        return threshold(self)

    monkeypatch.setattr(witness.Measurement, "exclusion_threshold", counting)
    m = xi2_db(470, "-4.5")
    witness.build_grid(witness.analyze(m, simple=simple))
    assert calls == ["m"]


def test_rank_plus_n_stays_in_range():
    rng = random.Random(5150)
    for _ in range(50):
        m = _random_measurement(rng)
        r = witness.infer_rank(m)
        assert 1 <= r + m.n <= 2 * m.n - 1


def test_simple_bounds_mode():
    # the non-tight producibility limit w*n pushes the n=14 depth down to 3
    m = fq(14, "40.4")
    assert witness.infer_depth(m, simple=True) == 3
    rep = witness.analyze(m, simple=True)
    assert rep.counts["by_wh"] <= 24  # looser bounds never exclude more
    threshold = m.exclusion_threshold()
    grid_tight = witness.build_grid(witness.analyze(m))
    grid_simple = witness.build_grid(rep)
    for ct, cs in zip(grid_cells(grid_tight), grid_cells(grid_simple)):
        assert all(s <= t for t, s in zip(cell_flags(ct, threshold), cell_flags(cs, threshold)))


def test_fraction_to_decimal_text():
    assert fraction_to_decimal_text(Fraction(132, 5)) == "26.4"
    assert fraction_to_decimal_text(Fraction(44)) == "44"
    assert fraction_to_decimal_text(Fraction(191, 4)) == "47.75"
    assert fraction_to_decimal_text(Fraction(-9, 8)) == "-1.125"
    assert fraction_to_decimal_text(Fraction(0)) == "0"
    with pytest.raises(ValueError):
        fraction_to_decimal_text(Fraction(1, 3))
