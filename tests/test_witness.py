"""Tests for measurement parsing, exclusion logic and grid construction."""

import inspect
import json
import math
import random
import re
import textwrap
import tracemalloc
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from support import (
    adversarial_db_texts,
    cell_flags,
    count_disagreements,
    db_cuts,
    fraction_to_decimal_text,
    grid_cells,
    grid_counts,
    quantity,
    rank_limit,
    reference_csv_text,
    reference_grid_rows,
    scan_depth,
    scan_rank,
    scan_separability,
    value_reader_disagreements,
    wh_limit,
)

from metroent import _exact, bounds, squeezing, tuples, witness
from metroent.bounds import max_qfi_rank, max_qfi_width
from metroent.cli import grid_csv_text, main, parse_dataset_text, report_json_text
from metroent.witness import Measurement


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
    assert quantity(fq(5, "1e100")) == 10**100
    # n is bounded for every caller, before any value is parsed
    assert fq(witness.MAX_N, "5").n == 10**6
    with pytest.raises(ValueError, match=r"n must be <= 1000000, got 1000001"):
        fq(witness.MAX_N + 1, "abc")


def test_db_values_are_bounded_before_conversion(monkeypatch):
    # 10**(x/10) keeps its exponent within +-MAX_EXPONENT exactly when |x| <= 1000
    assert quantity(xi2_db(5, "1000")) == 10**100
    assert quantity(xi2_db(5, "-1000")) == Fraction(1, 10**100)

    def refuse(text):
        raise AssertionError(f"converted {text}")

    monkeypatch.setattr(witness, "db_text_to_linear", refuse)
    for value in ("-1000.0001", "1000.0001", "-9.99e6", "-1e100", "-Infinity"):
        with pytest.raises(ValueError, match="bad decimal value"):
            xi2_db(5, value)


@pytest.mark.parametrize(
    "value", ["4_0", "1_0.5", " 40", "40 ", "40\n", "\t-4.5", "٤٠", "４０", "40\u00a0"]
)
@pytest.mark.parametrize("kind, unit", [("fq", "none"), ("xi2", "linear"), ("xi2", "db")])
def test_measurement_refuses_loose_decimal_text(monkeypatch, value, kind, unit):
    # Decimal, Fraction and int read each of these as a number; the value reader
    # refuses each, and no dB value reaches the converter
    def refuse(text):
        raise AssertionError(f"converted {text!r}")

    monkeypatch.setattr(witness, "db_text_to_linear", refuse)
    with pytest.raises(ValueError):
        witness._read_ratio(value)
    with pytest.raises(ValueError, match=re.escape(f"bad decimal value {value!r}")):
        Measurement(label="x", n=14, kind=kind, value=value, unit=unit)


def test_measurements_compare_by_their_six_fields():
    text = "label,n,kind,value,unit,reference\nions-n14,14,fq,40.4,none,Monz 2011\n"
    (a,), (b,) = parse_dataset_text(text), parse_dataset_text(text)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a == Measurement("ions-n14", 14, "fq", "40.4", "none", "Monz 2011")
    # the parsed value and its cuts play no part, only the text does
    for name, hidden in (("_quantity", (1, 1)), ("_cut1", 0), ("_cut4", 0)):
        object.__setattr__(b, name, hidden)
    assert a == b and hash(a) == hash(b)
    assert a != Measurement("ions-n14", 14, "fq", "40.40", "none", "Monz 2011")
    assert a != Measurement("ions-n14", 14, "fq", "40.4")
    assert a != ("ions-n14", 14, "fq", "40.4", "none", "Monz 2011")
    assert repr(fq(14, "40.4", label="ions-n14")) == (
        "Measurement(label='ions-n14', n=14, kind='fq', value='40.4', unit='none', reference='')"
    )


def test_records_are_read_only():
    m = fq(14, "40.4")
    report = witness.analyze(m)
    grid = witness.build_grid(report)
    for record in (m, report, grid):
        for name in (*type(record).__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert (m.value, m._quantity, m._cut1, m._cut4) == ("40.4", (404, 10), 41, 162)
    assert (report.depth, grid.n) == (4, 14)


def test_records_take_exactly_their_fields_by_keyword():
    report = witness.analyze(fq(14, "40.4"))
    fields = {name: getattr(report, name) for name in report.__slots__}
    assert {name: getattr(witness.WitnessReport(**fields), name) for name in fields} == fields
    grid = witness.build_grid(report)
    for bad in ({**fields, "extra": 0}, {k: v for k, v in fields.items() if k != "counts"}):
        with pytest.raises(TypeError, match="takes exactly the keywords"):
            witness.WitnessReport(**bad)
    with pytest.raises(TypeError):
        witness.TupleGrid(grid.n, grid.simple, grid.runs)


def test_report_counts_are_read_only():
    report = witness.analyze(fq(14, "40.4"))
    with pytest.raises(TypeError):
        report.counts["by_w"] = 999
    assert report.counts == {"by_w": 16, "by_h": 11, "by_r": 20, "by_wh": 24}


@pytest.mark.parametrize("unit", ["none", "linear", "db", "dB"])
@pytest.mark.parametrize("kind", ["fq", "xi2", "qfi", ""])
def test_only_three_kind_unit_pairs_are_accepted(kind, unit):
    if (kind, unit) in {("fq", "none"), ("xi2", "linear"), ("xi2", "db")}:
        assert Measurement(label="x", n=5, kind=kind, value="1", unit=unit).unit == unit
        return
    with pytest.raises(ValueError, match=re.escape(repr((kind, unit)))):
        Measurement(label="x", n=5, kind=kind, value="1", unit=unit)


def test_db_value_just_above_a_width_limit_excludes_it():
    # a 200-digit evaluation puts T at 1408 + 7.5e-33, above f_3 = 1408, so w = 4;
    # the 30-digit snapshot reads it as at most 1408, and is refined
    m = Measurement("x", 470, "xi2", "-3.9757023897587820686307879387200615", "db")
    assert witness.infer_depth(m) == 4


def test_db_cuts_are_those_of_a_200_digit_evaluation():
    # a seeded slice of the texts on and two last-digit steps around each width
    # limit at n = 470, at 33 to 36 digits: the 30-digit snapshot gives about
    # half of them the wrong cuts, and the measurement refines those
    texts = random.Random(2012).sample(list(adversarial_db_texts(470, range(1, 200))), 400)
    wrong = []
    for text in texts:
        m = xi2_db(470, text)
        if (m._cut1, m._cut4) != db_cuts(text, 470):
            wrong.append(text)
    assert wrong == []


def test_whole_db_values_take_the_exact_cuts(monkeypatch):
    # x/10 whole: 10**(x/10) is exact, so T = 2n(1 - q)/q can sit on a cut, as
    # T = 18n does at -10 dB, and no precision could certify it; no rung of the
    # refinement ladder may be tried
    monkeypatch.setattr(_exact, "_LADDER", ())
    for n in (1, 14, 470, witness.MAX_N):
        for text, q in (("-10", Fraction(1, 10)), ("-20.0", Fraction(1, 100)), ("10", Fraction(10)),
                        ("0", Fraction(1)), ("-1000", Fraction(1, 10**100)), ("-1E1", Fraction(1, 10))):
            m = xi2_db(n, text)
            threshold = 2 * n * (1 - q) / q
            assert (quantity(m), m._cut1, m._cut4) == (q, math.ceil(threshold), math.ceil(4 * threshold))


def test_db_value_past_the_top_rung_is_refused(capsys, monkeypatch):
    # with no rung above the snapshot, the value cannot be decided: exit 2, no answer
    monkeypatch.setattr(_exact, "_LADDER", ())
    assert main(["analyze", "--n", "470", "--xi2-db", "-3.9757023897587820686307879387200615"]) == 2
    assert capsys.readouterr() == ("", "error: dB value -3.9757023897587820686307879387200615 lies"
                                       " too near a class limit to decide\n")
    # the bundled -4.5 dB certifies at 30 digits
    assert xi2_db(470, "-4.5")._cut1 == 1710


def test_value_reader_reads_as_decimal_did():
    # on 20 000 seeded texts, the integer reader accepts exactly the texts that
    # Decimal with its adjusted() bound accepted, with the same values; CI runs
    # 300 000 on each of two seeds
    accepted, disagreements = value_reader_disagreements(2012, 20000)
    assert disagreements == []
    assert 8000 < accepted < 16000


# deliberate faults in witness._read_ratio: (fault, source text, faulty text)
READER_FAULTS = (
    ("exponent bound loosened", "> MAX_EXPONENT", "> MAX_EXPONENT + 1"),
    ("leading zeros counted", 'len(digits.lstrip("0") or "0")', "len(digits)"),
    ("zero read as two digits", 'or "0"', 'or "00"'),
    ("infinity read as 1", "text.lower()", 'text.lower().replace("infinity", "1").replace("inf", "1")'),
    ("E refused", "text.lower()", "text"),
    ("empty exponent read as 0", "marker and not power.isdigit()", "power and not power.isdigit()"),
    ("two dots read", 'partition(".")', 'replace(".", "", 1).partition(".")'),
    ("non-ASCII digits read", "not is_plain_text(text)", "not text == text.strip()"),
    ("length cap dropped", "len(text) > MAX_VALUE_CHARS or ", ""),
)


@pytest.mark.parametrize("fault, old, new", READER_FAULTS, ids=[fault for fault, _, _ in READER_FAULTS])
def test_the_reader_check_catches_a_broken_reader(fault, old, new):
    source = textwrap.dedent(inspect.getsource(witness._read_ratio))
    assert source.count(old) == 1, fault
    namespace = dict(vars(witness))
    exec(source.replace(old, new), namespace)
    _, disagreements = value_reader_disagreements(2012, 20000, read=namespace["_read_ratio"])
    assert disagreements, fault


@pytest.mark.parametrize(
    "label",
    [
        "",
        ".",
        "..",
        "../outside",
        "a/b",
        "/abs",
        "a\\b",
        "a\0b",
        # control and line-separator characters: the summary prints a label on one line
        "ab\ncd",
        "a\tb",
        "x\x85y",
        "x\u2028y",
        # longer than a file name may be
        pytest.param("x" * 256, id="256-ascii-bytes"),
        pytest.param("\u00e9" * 128, id="256-utf8-bytes"),
    ],
)
def test_measurement_rejects_unsafe_labels(label):
    # library callers get the same label rule as dataset files
    with pytest.raises(ValueError, match="bad label"):
        Measurement(label=label, n=5, kind="fq", value="6")


def test_quantity_is_exact():
    assert quantity(fq(14, "40.4")) == Fraction(202, 5)
    assert quantity(xi2_linear(470, "0.354813")) == Fraction(354813, 10**6)
    # dB values go through the 30-digit deterministic conversion
    assert quantity(xi2_db(470, "-4.5")) == Fraction(
        354813389233575458433218702264, 10**30
    )


def test_each_value_is_parsed_once(monkeypatch):
    calls = []
    convert = witness.db_text_to_linear

    def counting(u, v):
        calls.append((u, v))
        return convert(u, v)

    monkeypatch.setattr(witness, "db_text_to_linear", counting)
    report = witness.analyze(xi2_db(470, "-4.5"))
    assert (report.depth, report.separability, report.rank) == (4, 435, -399)
    # the converter takes the integer ratio the constructor read, in lowest terms,
    # not the text again
    assert [tuple(map(type, call)) for call in calls] == [(int, int)] and calls == [(-9, 2)]


def test_spellings_of_one_value_give_one_answer(capsys):
    # the cuts, the summary row but its value column, and q_advantage read the
    # ratio the constructor read, and a dB snapshot is cached by that ratio in
    # lowest terms
    for spellings in (("-4.5", "-4.50", "-45E-1", "-450E-2", "-0.45E1", "-4500e-3"),
                      ("-10", "-1E1", "-10.00")):
        squeezing.db_text_to_linear.cache_clear()
        ms = [xi2_db(470, value) for value in spellings]
        info = squeezing.db_text_to_linear.cache_info()
        assert (info.misses, info.hits) == (1, len(spellings) - 1), spellings
        assert len({(m._quantity, m._cut1, m._cut4) for m in ms}) == 1, spellings
    # x/10 whole: the exact cuts of T = 18n
    assert (ms[0]._quantity, ms[0]._cut1, ms[0]._cut4) == ((1, 10), 18 * 470, 72 * 470)
    for n, kind, unit, option, spellings in (
            (14, "fq", "none", "--fq", ("40.4", "40.40", "4.04E1", "404E-1")),
            (470, "xi2", "db", "--xi2-db", ("-4.5", "-4.50", "-45E-1"))):
        ms = [Measurement("m", n, kind, value, unit) for value in spellings]
        assert len({(m._cut1, m._cut4) for m in ms}) == 1, option
        assert len({report_json(m)["q_advantage"] for m in ms}) == 1, option
        rows = set()
        for value in spellings:
            assert main(["analyze", "--n", str(n), f"{option}={value}"]) == 0
            header, row = capsys.readouterr().out.splitlines()
            label, n_text, kind_text, shown, *answer = row.split()
            assert shown == value
            rows.add((*header.split(), label, n_text, kind_text, *answer))
        assert len(rows) == 1, (option, rows)


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


def report_json(m):
    return json.loads(report_json_text(witness.analyze(m)))


def test_grid_counts_match_report(capsys):
    m = fq(14, "40.4")
    rep = witness.analyze(m)
    assert rep.counts == {"by_w": 16, "by_h": 11, "by_r": 20, "by_wh": 24}
    assert rep.depth == 4 and rep.separability == 9 and rep.rank == -3
    assert Fraction(report_json(m)["q_advantage"]) == Fraction("26.4")
    # the summary's h_excl is the smallest excluded group count
    assert main(["analyze", "--n", "14", "--fq", "40.4"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert dict(zip(header.split(), row.split()))["h_excl"] == "10"


def test_quantum_advantage():
    # the gain over the shot-noise limit n, reported for QFI records only
    assert Fraction(report_json(fq(14, "40.4"))["q_advantage"]) == Fraction("26.4")
    assert Fraction(report_json(fq(14, "14"))["q_advantage"]) == 0
    for n in (2, 9, 50):
        assert Fraction(report_json(fq(n, str(n * n)))["q_advantage"]) == n * (n - 1)
    assert report_json(xi2_db(470, "-4.5"))["q_advantage"] is None
    # printed without an exponent or trailing zeros
    assert report_json(fq(5, "1E+2"))["q_advantage"] == "95"
    assert report_json(fq(8, "8.000"))["q_advantage"] == "0"


def test_q_advantage_ignores_the_callers_decimal_context(tmp_path):
    # worked out in a context of its own: under a floor rounding 1 - 1 is -0,
    # and a caller's Emax of 5 overflowed 4.04e10 - 14
    with localcontext(Context(rounding=ROUND_FLOOR)):
        assert report_json(fq(1, "1"))["q_advantage"] == "0"
    with localcontext(Context(Emax=5)):
        assert main(["analyze", "--n", "14", "--fq", "4.04e10", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "fq-n14" / "report.json").read_text())
    assert report["q_advantage"] == "40399999986"


def test_report_json_schema():
    d = report_json(fq(14, "40.4", label="ions-n14"))
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
    d470 = report_json(xi2_db(470, "-4.5", label="bec-n470"))
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
    widths = [max_qfi_width(n, w, simple) for w in range(1, n + 1)]
    heights = [bounds.max_qfi_height(n, h) for h in range(1, n + 1)]
    ranks = [rank_limit(n, r, simple) for r in bounds.valid_ranks(n)]
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
    f = {(w, h): wh_limit(n, w, h, simple) for w, h in tuples.all_tuples(n)}
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
        limit = wh_limit(n, w, h, rng.choice((False, True)))
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
        return max_qfi_width(n, 1 + pick % n, simple)
    if family == "h":
        return bounds.max_qfi_height(n, 1 + pick % n)
    if family == "r":
        ranks = list(bounds.valid_ranks(n))
        return rank_limit(n, ranks[pick % len(ranks)], simple)
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
    for w in range(1, n + 1):
        lo, hi = -(-n // w), n + 1 - w
        p = bounds.wh_first_height_at_most(n, w, math.ceil(threshold) - 1, simple=simple)
        heights = range(lo, hi + 1)
        first = next((h for h in heights if wh_limit(n, w, h, simple) * den < num), hi + 1)
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


def _counting_solves(monkeypatch):
    """The widths solved from now on, in order; a per-height limit evaluated fails."""
    def refuse(n, w, h):
        raise AssertionError("per-height limit evaluated")

    monkeypatch.setattr(bounds, "max_qfi_wh", refuse)
    monkeypatch.setattr(bounds, "_wh_rows", refuse)
    widths = []
    solve = bounds.wh_first_height_at_most

    def counting(n, w, f_max, *, simple=False):
        widths.append(w)
        return solve(n, w, f_max, simple=simple)

    monkeypatch.setattr(bounds, "wh_first_height_at_most", counting)
    return widths


def _analyze_counting_solves(monkeypatch, m):
    """``analyze(m)`` with no per-height limit evaluated, and the widths it solved."""
    widths = _counting_solves(monkeypatch)
    return witness.analyze(m), widths


def test_large_n_counts_read_no_limit_and_few_widths(monkeypatch):
    # ROADMAP item 2's guard row at n = 10**6: only the widths w..n - h are
    # solved, since those below w are wholly excluded and those past n - h
    # exclude nothing
    rep, widths = _analyze_counting_solves(monkeypatch, fq(10**6, "30000000"))
    assert (rep.depth, rep.separability, rep.rank) == (31, 994615, -989229)
    assert rep.counts == {
        "by_w": 26004595, "by_h": 14496421, "by_r": 28992841, "by_wh": 164147146,
    }
    assert widths == list(range(31, 10**6 - 994615 + 1))  # 5355 widths


@pytest.mark.parametrize("simple", [False, True], ids=["tight", "simple"])
def test_build_grid_solves_only_the_band(monkeypatch, simple):
    # the widths below w are wholly excluded and those past n - h exclude
    # nothing, so build_grid solves the same widths w..n - h as the counts
    rep = witness.analyze(fq(2000, "1333333.5"), simple=simple)
    widths = _counting_solves(monkeypatch)
    witness.build_grid(rep)
    assert rep.depth == 667
    assert widths == list(range(667, 2000 - rep.separability + 1))


@pytest.mark.parametrize("value, answer, counts, solved", [
    # every width but the last is wholly excluded, and the last excludes nothing
    ("999999999999", (10**6, 1, 999999), (499986530014,) * 4, 0),
    ("500000000000", (500000, 292894, 414213),
     (374986280014, 249998846522, 414200306350, 446335928007), 207107),
])
def test_large_n_gate_rows_solve_only_the_band(monkeypatch, value, answer, counts, solved):
    # ROADMAP item 2's other two gate rows at n = 10**6
    rep, widths = _analyze_counting_solves(monkeypatch, fq(10**6, value))
    assert (rep.depth, rep.separability, rep.rank) == answer
    assert rep.counts == dict(zip(("by_w", "by_h", "by_r", "by_wh"), counts))
    assert widths == list(range(rep.depth, 10**6 - rep.separability + 1))
    assert len(widths) == solved


@pytest.mark.parametrize("simple", [False, True], ids=["tight", "simple"])
def test_counts_match_the_reference_walk(simple):
    # the block sums and the band walk against the walk over every width up
    # to n - h, at every class limit of n and 1 either side, for every n <= 60
    for n in range(1, 61):
        limits = {bounds.max_qfi_height(n, h) for h in range(1, n + 1)}
        limits |= {max_qfi_width(n, w, simple) for w in range(1, n + 1)}
        limits |= {rank_limit(n, r, simple) for r in bounds.valid_ranks(n)}
        # linear xi2 texts just below and above every whole w, h and r limit
        whole = [int(limit) for limit in limits if limit % 1 == 0]
        ms = [
            xi2_linear(n, str(Context(prec=15, rounding=rounding).divide(2 * n, limit + 2 * n)))
            for limit in whole
            for rounding in (ROUND_FLOOR, ROUND_CEILING)
        ]
        for w in range(1, n + 1):
            limits |= set(bounds.wh_limit_column(n, w, simple=simple))
        values = {limit + d for limit in limits for d in (-1, 0, 1)} | {n * n + 1}
        ms += [fq(n, fraction_to_decimal_text(Fraction(v))) for v in sorted(values) if v > 0]
        assert count_disagreements(ms, simple=simple) == [], n


@pytest.mark.parametrize("simple", [False, True], ids=["tight", "simple"])
def test_counts_at_the_threshold_edges(simple):
    # T <= n excludes nothing; T > n**2 excludes every tuple, with w = n + 1,
    # h = 0 and r = n
    for n in range(1, 61):
        total = tuples.count_width_leq(n, n)
        for value in ("0.5", "1", str(n)):
            report = witness.analyze(fq(n, value), simple=simple)
            assert report.counts == dict.fromkeys(("by_w", "by_h", "by_r", "by_wh"), 0), n
        report = witness.analyze(fq(n, str(n * n + 1)), simple=simple)
        assert (report.depth, report.separability, report.rank) == (n + 1, 0, n)
        assert report.counts == dict.fromkeys(("by_w", "by_h", "by_r", "by_wh"), total), n


@pytest.mark.parametrize("n", range(1, 31))
def test_walk_ends_where_the_first_width_excludes_nothing(n):
    # the widths that hold an excluded tuple are exactly 1..n - h, so the
    # count walk may end at n - h: checked on every limit of every family,
    # in both bound modes, and at OFFSETS from it
    limits = {bounds.max_qfi_height(n, h) for h in range(1, n + 1)}
    for simple in (False, True):
        limits |= {max_qfi_width(n, w, simple) for w in range(1, n + 1)}
        limits |= {rank_limit(n, r, simple) for r in bounds.valid_ranks(n)}
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


@st.composite
def measured_values(draw):
    """A ``(kind, unit, value, n)`` a Measurement accepts, in all three (kind, unit) pairs.

    Half the texts are any plain or exponent form.  The rest lie on or next
    to a whole or quarter limit f = k/4 of T: a QFI text is f, or f moved by
    10**-d for d from 3 to 30, and a squeezing text is 8n/(k + 8n), the
    xi**2 whose T is f, or that value in dB, rounded down or up to 1 to 30
    significant digits; a rounding that is exact lands on the limit.
    """
    kind, unit = draw(st.sampled_from([("fq", "none"), ("xi2", "linear"), ("xi2", "db")]))
    n = draw(st.integers(1, witness.MAX_N))
    if draw(st.booleans()):
        if unit != "db":
            return kind, unit, draw(qfi_value_texts()), n
        x = draw(st.decimals(-1000, 1000, allow_nan=False, allow_infinity=False))
        text = draw(st.sampled_from(["{}", "{:f}", "{:e}", "{:E}"])).format(x)
        assume(len(text) <= witness.MAX_VALUE_CHARS and abs(x.adjusted()) <= witness.MAX_EXPONENT)
        return kind, unit, text, n
    k = draw(st.integers(1, 4 * n * n))
    if kind == "fq":
        step = Fraction(draw(st.sampled_from((-1, 0, 1))), 10 ** draw(st.integers(3, 30)))
        return kind, unit, fraction_to_decimal_text(Fraction(k, 4) + step), n
    rounding = draw(st.sampled_from((ROUND_FLOOR, ROUND_CEILING)))
    context, exact = Context(prec=draw(st.integers(1, 30)), rounding=rounding), Context(prec=60)
    xi2 = exact.divide(8 * n, k + 8 * n)
    value = exact.multiply(10, exact.log10(xi2)) if unit == "db" else xi2
    return kind, unit, str(context.plus(value)), n


@settings(derandomize=True, deadline=None, max_examples=400)
@given(case=measured_values())
# on an integer limit (T = 0, 2n, 18n), on a quarter (T = 0.5, 40.25), the
# smallest and largest T, and a negative T, whose ceiling rounds toward zero
@example(case=("xi2", "linear", "1", 5))
@example(case=("xi2", "linear", "0.5", 470))
@example(case=("xi2", "db", "-10", 14))
@example(case=("xi2", "linear", "0.8", 1))
@example(case=("fq", "none", "40.25", 14))
@example(case=("fq", "none", "1E-100", 1))
@example(case=("xi2", "db", "-1000", witness.MAX_N))
@example(case=("xi2", "linear", "2.5", 3))
@example(case=("xi2", "db", "1000", 1))
@example(case=("xi2", "db", "-4.5", 470))
def test_cuts_are_the_ceilings_of_the_threshold(case):
    # the constructor's integer-ratio cuts are ceil(T) and ceil(4T) of the
    # Fraction view.  A dB value's snapshot is a Decimal of DB_DIGITS digits; the
    # measurement keeps its ratio, or a refinement within 10**-25 of it where the
    # snapshot cannot certify the cuts, and they are those of a 200-digit evaluation
    kind, unit, text, n = case
    m = Measurement(label="m", n=n, kind=kind, value=text, unit=unit)
    threshold = m.exclusion_threshold()
    assert (m._cut1, m._cut4) == (math.ceil(threshold), math.ceil(4 * threshold)), case
    if unit == "db":
        q = squeezing.db_text_to_linear(*Fraction(text).as_integer_ratio())
        assert type(q) is Decimal and len(q.as_tuple().digits) <= squeezing.DB_DIGITS, case
        kept = Fraction(*m._quantity)
        assert kept == q or abs(kept - Fraction(q)) * 10**25 < kept, case
        assert (m._cut1, m._cut4) == db_cuts(text, n), case


@pytest.mark.parametrize("simple", [False, True])
def test_threshold_is_worked_out_once(monkeypatch, simple):
    # inference, counts and grid all read the cuts the measurement stored, which
    # the constructor works out from the value's integer ratio, not from the
    # Fraction view exclusion_threshold gives
    calls = []
    threshold = witness.Measurement.exclusion_threshold

    def counting(self):
        calls.append(self.label)
        return threshold(self)

    monkeypatch.setattr(witness.Measurement, "exclusion_threshold", counting)
    m = xi2_db(470, "-4.5")
    witness.build_grid(witness.analyze(m, simple=simple))
    assert calls == []


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


DIGITS = "0123456789"


@st.composite
def qfi_value_texts(draw):
    """Decimal texts a QFI Measurement accepts: a leading '+', exponents and trailing zeros."""
    sign = draw(st.sampled_from(["", "+"]))
    whole = draw(st.text(DIGITS, max_size=40))
    if whole:
        frac = draw(st.none() | st.text(DIGITS, max_size=40))
    else:
        frac = draw(st.text(DIGITS, min_size=1, max_size=40))
    zeros = "0" * draw(st.integers(0, 20))
    mantissa = f"{whole}.{frac}{zeros}" if frac is not None else f"{whole}{zeros}"
    assume(mantissa.strip("0.") != "")
    # the exponent keeps the value's leading digit within 10**+-MAX_EXPONENT
    adjusted = Decimal(mantissa).adjusted()
    limit = witness.MAX_EXPONENT
    exponent = draw(st.none() | st.integers(-limit - adjusted, limit - adjusted))
    if exponent is not None:
        marker = draw(st.sampled_from(["E", "e"]))
        mantissa += f"{marker}{exponent:+d}" if draw(st.booleans()) else f"{marker}{exponent}"
    text = sign + mantissa
    assume(len(text) <= witness.MAX_VALUE_CHARS and abs(Decimal(text).adjusted()) <= limit)
    return text


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=qfi_value_texts(), n=st.integers(1, 200))
# the cases of the Fraction printer the report used before
@example(text="40.4", n=14)
@example(text="58", n=14)
@example(text="57.75", n=10)
@example(text="6.875", n=8)
@example(text="14", n=14)
@example(text="1E+2", n=5)
@example(text="8.000", n=8)
@example(text="1E-100", n=3)
# the widest difference: 199 digits, from 10**5 down to 10**-193
@example(text="1." + "1" * 93 + "E-100", n=10**6)
@example(text="+7.50", n=7)
@example(text="9" * 100, n=200)
def test_q_advantage_is_the_exact_decimal_difference(text, n):
    # report.json's q_advantage is F - n, printed as the Fraction printer prints it
    report = json.loads(report_json_text(witness.analyze(fq(n, text))))
    assert report["q_advantage"] == fraction_to_decimal_text(Fraction(text) - n)

