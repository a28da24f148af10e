"""Tests for the brute-force oracle and the closed-form verification sweep."""

import ast
import collections
import inspect
import itertools
import pkgutil
import random

import pytest
from support import (
    answer_disagreements,
    brute_answer,
    brute_max_squares,
    db_xi2_disagreements,
    linear_xi2_disagreements,
    reference_fold,
    shape_table,
)

import metroent
from metroent import bounds, oracle
from metroent.cli import main
from metroent.oracle import MAX_NMAX, brute_force_max, iter_partition_rows, verify_closed_forms
from metroent.tuples import all_tuples


@pytest.fixture(scope="module")
def tables():
    """{n: per-shape table of n} for every n <= 20, made as verify makes them."""
    made = oracle._shape_tables(20)
    return {n: made[20 - n] for n in range(1, 21)}


@pytest.fixture(scope="module")
def corners(tables):
    """{n: prefix table of n} for every n <= 20, made as verify makes them."""
    return {n: brute_force_max(table)[0] for n, table in tables.items()}


@pytest.fixture(scope="module")
def ranks(tables):
    """{n: rank column of n} for every n <= 20, made as verify makes them."""
    return {n: brute_force_max(table)[1] for n, table in tables.items()}


def test_brute_force_examples(ranks, corners):
    # width <= 4 and height >= 3 at n = 7 is one corner entry
    assert corners[7][4][3] == 21
    assert brute_max_squares(7, max_width=4, min_height=3) == (21, (4, 2, 1))

    assert corners[5][5][0] == 25

    # the two-full-row maximizer behind max_qfi_rank's n + r == 10 branch,
    # pinned by the independent scan: the unique one over rank <= 0 for n=10,
    # entry r + n - 1 of the rank column
    assert ranks[10][0 + 10 - 1] == 34
    assert brute_max_squares(10, max_rank=0) == (34, (4, 4, 1, 1))
    assert bounds.max_qfi_rank(10, 0) == 34


def test_unconstrained_max_is_single_row(ranks, corners):
    # the whole class of n, read as the widest corner entry and as the widest rank
    for n, corner in corners.items():
        value = ranks[n][-1]
        assert type(value) is int
        assert value == corner[n][0] == n * n


def test_empty_class_raises(ranks, corners):
    # no partition of n has rank below 1 - n, so the rank column starts there,
    # at the single column (1, ..., 1), and holds the 2n - 1 classes 1 - n..n - 1
    for n, column in ranks.items():
        assert len(column) == 2 * n - 1 and column[0] == n, n
        assert brute_max_squares(n, max_rank=-n) is None
    assert ranks[5][:2] == [5, 5]
    # an empty (w, h) class reads 0: no partition of 5 has 6 rows, or width 0
    assert corners[5][5][6] == 0
    assert corners[5][0] == [0] * 7


def test_matches_independent_filtered_brute(ranks):
    # every rank class of n <= 20 equals a filtered scan, valid ranks or not
    for n, column in ranks.items():
        for r in range(1 - n, n):
            assert column[r + n - 1] == brute_max_squares(n, max_rank=r)[0], (n, r)


def test_corner_reads_match_filtered_brute_at_every_limit(corners):
    # every entry, width <= w and height >= h, equals a filtered scan; 0 where empty
    for n in range(1, 13):
        corner = corners[n]
        assert len(corner) == n + 1 and {len(row) for row in corner} == {n + 2}
        for w, h in itertools.product(range(n + 1), range(n + 2)):
            expected = brute_max_squares(n, max_width=w, min_height=h)
            assert corner[w][h] == (0 if expected is None else expected[0]), (n, w, h)


def test_sweep_tables_match_the_per_n_reference():
    # one enumeration of 40, its 1-rows stripped, gives every n <= 40 the table
    # a pass over n's own partitions gives
    tables = oracle._shape_tables(40)
    assert len(tables) == 40
    for n in range(1, 41):
        assert tables[40 - n] == shape_table(n), n


def test_band_fold_matches_the_whole_row_fold():
    # brute_force_max reads only each width's band ceil(n/w)..n + 1 - w: every
    # shape of width w lies in it, every entry of it is a shape, and skipping
    # the rest changes no entry of the prefix table
    tables = oracle._shape_tables(40)
    for n in range(1, 41):
        table = tables[40 - n]
        assert brute_force_max(table)[0] == reference_fold(table), n
        assert not any(table[0])
        for w in range(1, n + 1):
            lo, hi = -(-n // w), n + 1 - w
            assert all(table[w][lo : hi + 1]), (n, w)
            assert not any(table[w][:lo]) and not any(table[w][hi + 1 :]), (n, w)


def test_analyze_matches_the_brute_force_answer():
    # analyze's w, h, r and four counts, tight, against the same answer read
    # off the oracle's tables alone, at and one above every distinct (w, h)
    # limit of n <= 30: each threshold where some class turns excluded.  CI
    # runs the same check up to MAX_NMAX.  Simple mode has no brute-force
    # counterpart: its limits are the paper's non-tight bounds, such as w * n
    # for width w, which no diagram need attain, so no enumeration of diagrams
    # yields them.
    assert answer_disagreements(30) == (4436, [])


def test_linear_xi2_answer_matches_the_brute_force_answer():
    # the squeezing cut: at linear xi**2 texts just below and just above each
    # distinct (w, h) limit of n <= 30, analyze's tight answer equals brute
    # force's at the ceiling of the exact threshold.  CI runs the same check
    # up to MAX_NMAX.
    assert linear_xi2_disagreements(range(1, 31)) == (4436, [])


def test_db_xi2_answer_matches_the_brute_force_answer():
    # the dB path: at 36-digit dB texts just below and just above each distinct
    # (w, h) limit of n <= 30, where T lies about 10**-35 from the limit and
    # the 30-digit snapshot cannot certify the cuts, analyze's tight answer
    # equals brute force's at the ceiling of a 200-digit T.  CI runs the same
    # check up to MAX_NMAX.
    assert db_xi2_disagreements(range(1, 31)) == (4436, [])


def test_stripping_1_rows_derives_each_diagram_once():
    # stripping j of the c 1-rows of each partition of n_max, j = 0..c, gives
    # every partition of every n <= n_max exactly once
    for n_max in range(1, 15):
        derived = collections.defaultdict(collections.Counter)
        for rows in iter_partition_rows(n_max):
            for j in range(rows.count(1) + 1):
                if j < n_max:
                    derived[n_max - j][rows[: len(rows) - j]] += 1
        assert sorted(derived) == list(range(1, n_max + 1))
        for n, counts in derived.items():
            assert counts == collections.Counter(iter_partition_rows(n)), (n_max, n)
            assert set(counts.values()) == {1}


def test_verify_enumerates_each_n_once(monkeypatch):
    # one enumeration of n_max per call, none kept for the next call, and one
    # brute_force_max query per n for its prefix table and all its rank classes
    calls = []
    queries = collections.Counter()
    original = oracle.iter_partition_rows
    original_max = oracle.brute_force_max

    def counting(n):
        calls.append(n)
        return original(n)

    def counting_max(table):
        queries[len(table) - 1] += 1
        return original_max(table)

    monkeypatch.setattr(oracle, "iter_partition_rows", counting)
    monkeypatch.setattr(oracle, "brute_force_max", counting_max)
    assert verify_closed_forms(12) == []
    assert calls == [12]
    assert queries == {n: 1 for n in range(1, 13)}
    assert verify_closed_forms(12) == []
    assert calls == [12, 12]


def test_optimal_diagram_structure_attains_maximum(corners):
    # the k-full-rows / partial-row / singletons construction is a maximizer
    for n in range(2, 17):
        for w, h in all_tuples(n):
            if w < 2:
                continue
            k, u, v = bounds._wh_rows(n, w, h)
            built = (w,) * k + (u,) + (1,) * v
            assert sum(r * r for r in built) == corners[n][w][h]


def test_box_transfer_never_decreases_square_sum():
    # moving one box from a strictly smaller row to a larger one grows the sum
    rng = random.Random(20240917)
    pools = {}
    for _ in range(300):
        n = rng.randint(2, 30)
        if n not in pools:
            pools[n] = list(iter_partition_rows(n))
        rows = list(rng.choice(pools[n]))
        if len(set(rows)) == 1:
            continue
        i = rows.index(max(rows))
        j = rows.index(min(rows))
        before = sum(r * r for r in rows)
        rows[i] += 1
        rows[j] -= 1
        after = sum(r * r for r in rows if r > 0)
        assert after > before


def test_verify_closed_forms_small():
    assert verify_closed_forms(2) == []
    assert verify_closed_forms(14) == []


def test_verify_rejects_tiny_nmax():
    with pytest.raises(ValueError):
        verify_closed_forms(1)


def test_verify_bounds_nmax(monkeypatch):
    class Enumerated(Exception):
        pass

    def refuse(n):
        raise Enumerated(n)

    monkeypatch.setattr(oracle, "iter_partition_rows", refuse)
    with pytest.raises(ValueError, match=f"n_max must be <= {MAX_NMAX}"):
        verify_closed_forms(MAX_NMAX + 1)
    # MAX_NMAX itself passes validation and reaches the enumeration
    with pytest.raises(Enumerated):
        verify_closed_forms(MAX_NMAX)


def test_verify_reports_corrupted_bound(monkeypatch):
    def wrong_rank(n, r):
        return 1

    monkeypatch.setattr(bounds, "max_qfi_rank", wrong_rank)
    mismatches = verify_closed_forms(4)
    assert mismatches
    # a plain dict; n = 1 has the one rank 0, where the limit really is 1
    assert mismatches[0] == {"n": 2, "class": "r(-1)", "closed": 1, "brute": 2}
    assert all(entry["closed"] != entry["brute"] for entry in mismatches)


def test_verify_reports_corrupted_rank_column(monkeypatch):
    # the printed column is checked, not only the bisected max_qfi_rank
    original = bounds.rank_limit_column

    def lowered(n):
        column = list(original(n))
        if n == 9:
            column[3] -= 1  # r = -4, n + r = 5: 9 + 6
        return iter(column)

    monkeypatch.setattr(bounds, "rank_limit_column", lowered)
    assert verify_closed_forms(12) == [{"n": 9, "class": "r(-4)", "closed": 14, "brute": 15}]


def test_verify_reports_corrupted_width_bound(monkeypatch):
    # width classes of n <= 3: w(1) = n, w(2) = 4 or 5, w(3) = 9
    original = bounds.max_qfi_width
    monkeypatch.setattr(bounds, "max_qfi_width", lambda n, w: 1)
    assert verify_closed_forms(3) == [
        {"n": 2, "class": "w(1)", "closed": 1, "brute": 2},
        {"n": 2, "class": "w(2)", "closed": 1, "brute": 4},
        {"n": 3, "class": "w(1)", "closed": 1, "brute": 3},
        {"n": 3, "class": "w(2)", "closed": 1, "brute": 5},
        {"n": 3, "class": "w(3)", "closed": 1, "brute": 9},
    ]
    # one class off by one: width <= 2 at n = 6 is (2, 2, 2)
    monkeypatch.setattr(bounds, "max_qfi_width", lambda n, w: original(n, w) - ((n, w) == (6, 2)))
    assert verify_closed_forms(5) == []
    assert verify_closed_forms(7) == [{"n": 6, "class": "w(2)", "closed": 11, "brute": 12}]


def test_verify_reports_corrupted_height_bound(monkeypatch):
    # height classes of n <= 3: h(1) = n**2, h(2) = 2 or 5, h(3) = 3
    original = bounds.max_qfi_height
    monkeypatch.setattr(bounds, "max_qfi_height", lambda n, h: 1)
    assert verify_closed_forms(3) == [
        {"n": 2, "class": "h(1)", "closed": 1, "brute": 4},
        {"n": 2, "class": "h(2)", "closed": 1, "brute": 2},
        {"n": 3, "class": "h(1)", "closed": 1, "brute": 9},
        {"n": 3, "class": "h(2)", "closed": 1, "brute": 5},
        {"n": 3, "class": "h(3)", "closed": 1, "brute": 3},
    ]
    # one class off by one: height >= 4 at n = 6 is (3, 1, 1, 1)
    monkeypatch.setattr(bounds, "max_qfi_height", lambda n, h: original(n, h) - ((n, h) == (6, 4)))
    assert verify_closed_forms(5) == []
    assert verify_closed_forms(7) == [{"n": 6, "class": "h(4)", "closed": 11, "brute": 12}]


def _corrupt_column(monkeypatch, at, change):
    """Patch bounds.wh_limit_column so that change(column) is returned at (n, w) == at."""
    original = bounds.wh_limit_column

    def corrupted(n, w, *, simple=False):
        column = original(n, w, simple=simple)
        return change(list(column)) if (n, w) == at else column

    monkeypatch.setattr(bounds, "wh_limit_column", corrupted)


def test_verify_reports_corrupted_limit_column(monkeypatch, capsys):
    # the (w, h) limits verify checks are the column grid.csv and bounds --class wh print;
    # n = 6, w = 2 has heights 3, 4, 5 and limits 12, 10, 8
    def off_by_one(column):
        column[1] += 1
        return column

    _corrupt_column(monkeypatch, (6, 2), off_by_one)
    assert bounds.wh_limit_column(6, 2) == [12, 11, 8]
    expected = {"n": 6, "class": "wh(2,4)", "closed": 11, "brute": 10}
    assert verify_closed_forms(6) == [expected]
    assert verify_closed_forms(5) == []
    assert main(["verify", "--nmax", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == '{"brute": 10, "class": "wh(2,4)", "closed": 11, "n": 6}\n'
    assert captured.err == ""


def test_verify_reports_a_short_limit_column(monkeypatch):
    # a column missing its last height is a mismatch there, not a shorter sweep
    _corrupt_column(monkeypatch, (6, 2), lambda column: column[:-1])
    assert verify_closed_forms(6) == [{"n": 6, "class": "wh(2,5)", "closed": None, "brute": 8}]


def test_verify_reads_each_band_from_its_own_edges(monkeypatch):
    # a lower edge one too high in the ceiling that wh_limit_column and
    # bounds.heights share, at width 3 of n = 20, shifts that column by one
    # height; verify walks the band from its own edge, ceil(20/3) = 7
    exact = bounds._ceil_div

    def raised(a, b):
        return exact(a, b) + ((a, b) == (20, 3))

    monkeypatch.setattr(bounds, "_ceil_div", raised)
    found = verify_closed_forms(20)
    assert [m["class"] for m in found] == [f"wh(3,{h})" for h in range(7, 19)]
    assert found[0] == {"n": 20, "class": "wh(3,7)", "closed": 56, "brute": 58}
    assert found[-1]["closed"] is None
    assert verify_closed_forms(19) == []


def test_verify_reads_every_rank_from_its_own_rule(monkeypatch):
    # the rank flags that valid_ranks and rank_limit_column share, with the
    # realizable rank 3 - n dropped at n = 20: the printed column loses its
    # entry there, and verify still reads every rank but +-(n - 2)
    exact = bounds._rank_flags

    def dropped(n):
        flags = list(exact(n))
        if n == 20:
            flags[2] = 0  # r = -17
        return iter(flags)

    monkeypatch.setattr(bounds, "_rank_flags", dropped)
    found = verify_closed_forms(20)
    assert len(found) == 36 and {m["n"] for m in found} == {20}
    assert found[0] == {"n": 20, "class": "r(-17)", "closed": 24, "brute": 22}
    assert found[-1]["closed"] is None
    assert verify_closed_forms(19) == []


def _global_names(code) -> set[str]:
    """Every global or attribute name a code object, or one nested in it, looks up."""
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _global_names(const)
    return names


def test_oracle_shares_no_code_with_the_closed_forms():
    # the brute-force side of verify never reaches into the module it checks
    closed_forms = {
        name
        for name, obj in vars(bounds).items()
        if inspect.isfunction(obj) and obj.__module__ == bounds.__name__
    }
    assert {"max_qfi_wh", "max_qfi_rank", "_wh_rows", "valid_ranks"} <= closed_forms
    brute_side = (
        oracle.iter_partition_rows,
        oracle._shape_tables,
        oracle.brute_force_max,
        reference_fold,
        brute_answer,
    )
    for fn in brute_side:
        names = _global_names(fn.__code__)
        assert "bounds" not in names, fn.__name__
        assert not names & closed_forms, (fn.__name__, names & closed_forms)
    # the enumeration names no module of the package
    modules = {info.name for info in pkgutil.iter_modules(metroent.__path__)}
    assert not _global_names(oracle.iter_partition_rows.__code__) & modules
    # and the one package module oracle imports is bounds, the module it checks
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("metroent")):
            module = (node.module or "").removeprefix("metroent").strip(".")
            imported |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name.removeprefix("metroent.") for a in node.names if a.name.startswith("metroent")}
    assert imported == {"bounds"}
