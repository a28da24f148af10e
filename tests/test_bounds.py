"""Tests for the closed-form class sensitivity limits."""

import ast
import inspect
import random
from itertools import accumulate, repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import first_height_disagreements, partitions_desc, wh_limit

from metroent import bounds, cli, tuples, witness


def test_max_qfi_wh_examples():
    assert bounds.max_qfi_wh(7, 4, 3) == 21
    assert bounds.max_qfi_wh(14, 1, 14) == 14
    assert bounds.max_qfi_wh(14, 14, 1) == 196
    assert bounds.max_qfi_wh(14, 4, 9) == 32


def test_max_qfi_wh_rejects_invalid_tuples():
    with pytest.raises(ValueError):
        bounds.max_qfi_wh(7, 4, 5)
    with pytest.raises(ValueError):
        bounds.max_qfi_wh(7, 2, 3)
    with pytest.raises(ValueError):
        bounds.max_qfi_wh(14, 1, 13)  # width 1 forces h == n
    with pytest.raises(ValueError):
        bounds.max_qfi_wh(5, 6, 1)
    with pytest.raises(ValueError):
        bounds.max_qfi_wh(0, 1, 1)


def test_decomposition_invariants():
    for n in range(1, 41):
        for w, h in tuples.all_tuples(n):
            k, u, v = bounds._wh_rows(n, w, h)
            assert k * w + u + v == n
            assert 1 <= u <= w
            assert v >= 0
            assert k + 1 + v == h
            rows = (w,) * k + (u,) + (1,) * v
            assert sum(rows) == n and rows[0] == w and len(rows) == h


def test_capped_quotient_matches_verbatim_arithmetic():
    # the uncapped quotient (n-h)//(w-1) gives v = -1 when n == w*h, but the
    # value k*w**2 + u**2 + v is unchanged; check the raw arithmetic agrees
    for n in range(2, 41):
        for w, h in tuples.all_tuples(n):
            if w == 1:
                continue
            k = (n - h) // (w - 1)
            u = n - h + 1 - (w - 1) * k
            v = h - k - 1
            assert k * w * w + u * u + v == bounds.max_qfi_wh(n, w, h)


def _first_height_cases(n_max):
    # f_max at n - 1 (no height), at each column entry and one below it, and
    # one past the top entry, for every width of every n <= n_max
    for n in range(1, n_max + 1):
        for w in range(1, n + 1):
            for simple in (False, True):
                column = bounds.wh_limit_column(n, w, simple=simple)
                f_maxes = {n - 1, *column, *(f - 1 for f in column), column[0] + 1}
                yield n, w, simple, sorted(f_maxes)


def test_first_height_inverse_matches_its_column():
    checked, disagreements = first_height_disagreements(_first_height_cases(60))
    assert disagreements == []
    assert checked == 131440


def test_rectangle_tuples():
    # n == w*h: maximizer is the full rectangle
    assert bounds.max_qfi_wh(6, 3, 2) == 18
    assert bounds._wh_rows(6, 3, 2) == (1, 3, 0)
    assert bounds.max_qfi_wh(12, 4, 3) == 48


def _check_limit_column(n, w):
    hs = tuples.heights(n, w)
    assert list(bounds.wh_limit_column(n, w)) == [bounds.max_qfi_wh(n, w, h) for h in hs]
    simple = list(bounds.wh_limit_column(n, w, simple=True))
    assert simple == [wh_limit(n, w, h, simple=True) for h in hs]


def test_limit_column_matches_the_per_tuple_limits():
    for n in range(1, 151):
        for w in range(1, n + 1):
            _check_limit_column(n, w)
    # the rectangles n == w*h, where the cap on k binds, further out; and w == 1
    for n in range(151, 401):
        for w in range(1, n + 1):
            if n % w == 0:
                _check_limit_column(n, w)
    for n in (401, 1000, 2000):
        _check_limit_column(n, 1)
    # n = cli.MAX_WH_TABLE_N, the largest n a column serves: every rectangle
    # width (the running sum ends exactly on a block), both ends, and a sample
    n = cli.MAX_WH_TABLE_N
    rng = random.Random(2000)
    widths = {w for w in range(1, n + 1) if n % w == 0}
    widths |= {2, 3, n - 1, n, *rng.sample(range(4, n - 1), 20)}
    for w in sorted(widths):
        _check_limit_column(n, w)


def test_max_qfi_wh_simple_examples():
    assert wh_limit(7, 4, 3, simple=True) == 23
    assert wh_limit(14, 1, 14, simple=True) == 14


def test_dominance_and_monotonicity_sweep():
    for n in range(1, 61):
        by_h = {}
        by_w = {}
        for w, h in tuples.all_tuples(n):
            f = bounds.max_qfi_wh(n, w, h)
            assert f <= wh_limit(n, w, h, simple=True)
            by_h.setdefault(h, []).append((w, f))
            by_w.setdefault(w, []).append((h, f))
        # strictly increasing in w at fixed h, strictly decreasing in h at fixed w
        for vals in by_h.values():
            vals.sort()
            assert all(a[1] < b[1] for a, b in zip(vals, vals[1:]))
        for vals in by_w.values():
            vals.sort()
            assert all(a[1] > b[1] for a, b in zip(vals, vals[1:]))


def test_extremes():
    for n in range(1, 201):
        assert bounds.max_qfi_wh(n, 1, n) == n
        assert bounds.max_qfi_wh(n, n, 1) == n * n


def test_max_qfi_width_examples():
    assert bounds.max_qfi_width(14, 3) == 40
    assert bounds.max_qfi_width(14, 1) == 14
    assert bounds.max_qfi_width(127, 2) == 253
    with pytest.raises(ValueError):
        bounds.max_qfi_width(14, 0)
    with pytest.raises(ValueError):
        bounds.max_qfi_width(14, 15)


def test_simple_width_limit_dominates():
    assert bounds.max_qfi_width(14, 3, simple=True) == 42
    assert bounds.max_qfi_width(5, 5, simple=True) == 25
    with pytest.raises(ValueError):
        bounds.max_qfi_width(14, 15, simple=True)
    for n in range(1, 101):
        for w in range(1, n + 1):
            assert bounds.max_qfi_width(n, w) <= w * n


def test_max_qfi_height_examples():
    assert bounds.max_qfi_height(14, 10) == 34
    assert bounds.max_qfi_height(14, 1) == 196
    assert bounds.max_qfi_height(14, 14) == 14
    with pytest.raises(ValueError):
        bounds.max_qfi_height(14, 0)


def test_valid_ranks():
    assert list(bounds.valid_ranks(1)) == [0]
    assert list(bounds.valid_ranks(2)) == [-1, 1]
    assert list(bounds.valid_ranks(3)) == [-2, 0, 2]
    # n is checked at the call, before any rank is asked for
    with pytest.raises(ValueError, match="n must be >= 1"):
        bounds.valid_ranks(0)
    r14 = list(bounds.valid_ranks(14))
    assert -3 in r14 and -4 in r14
    assert 12 not in r14 and -12 not in r14
    assert r14[0] == -13 and r14[-1] == 13


def test_valid_ranks_match_enumerated_ranks():
    for n in range(1, 21):
        achieved = sorted({p[0] - len(p) for p in partitions_desc(n)})
        assert achieved == list(bounds.valid_ranks(n))


def test_max_qfi_rank_examples():
    assert bounds.max_qfi_rank(14, -3) == 44
    assert bounds.max_qfi_rank(14, -3) == bounds.max_qfi_height(14, 9)
    assert bounds.max_qfi_rank(14, -4) == 38  # n + r == 10 two-full-row case
    assert bounds.max_qfi_rank(20, -4) == 80  # n + r == 16 two-full-row case
    assert bounds.max_qfi_rank(2, 1) == 4
    assert bounds.max_qfi_rank(14, 1 - 14) == 14  # fully separable corner


def test_max_qfi_rank_special_case_windows():
    # the two-full-row values only apply from n >= 8 and n >= 12 respectively
    assert bounds.max_qfi_rank(8, 2) == 32
    assert bounds.max_qfi_rank(12, 4) == 72
    assert bounds.max_qfi_rank(7, 3) == 29  # n + r == 10 but n < 8: generic branch
    assert bounds.max_qfi_rank(11, 5) == 69  # n + r == 16 but n < 12: generic branch


def test_max_qfi_rank_n_plus_r_4_corner():
    # even branch self-consistently yields n + 4 at n + r == 4
    for n in (4, 5, 8, 20):
        assert bounds.max_qfi_rank(n, 4 - n) == n + 4


@pytest.mark.parametrize("simple", [False, True], ids=["tight", "simple"])
def test_rank_limit_column_matches_max_qfi_rank(simple):
    # the running sums, the overwritten entries (tight: n + r = 10 and 16;
    # simple: the corner n + r = 4) and the skipped ranks +-(n - 2), across
    # the n where each first applies; n = 1, 2, 3 stop short of the corner
    def limit_text(n, r):
        q = bounds.rank_limit_quarters(n, r, simple=simple)
        return f"{q >> 2}.75" if q & 3 else q >> 2

    for n in range(1, 61):
        expected = [limit_text(n, r) for r in bounds.valid_ranks(n)]
        assert list(bounds.rank_limit_column(n, simple=simple)) == expected, n


def test_max_qfi_rank_rejects_invalid_ranks():
    with pytest.raises(ValueError):
        bounds.max_qfi_rank(14, 12)
    with pytest.raises(ValueError):
        bounds.max_qfi_rank(14, -12)
    with pytest.raises(ValueError):
        bounds.max_qfi_rank(14, 14)
    with pytest.raises(ValueError):
        bounds.max_qfi_rank(0, 0)
    # the rank family refuses them in both bound modes
    for simple in (False, True):
        with pytest.raises(ValueError):
            bounds.rank_limit_quarters(14, 12, simple=simple)


def test_max_qfi_rank_simple():
    # in quarters: 44, the corner n + r == 4 at 12, and 99/4 + 14
    assert bounds.rank_limit_quarters(14, -3, simple=True) == 176
    assert bounds.rank_limit_quarters(8, -4, simple=True) == 48
    assert bounds.rank_limit_quarters(14, -4, simple=True) == 155
    for n in range(1, 61):
        for r in bounds.valid_ranks(n):
            assert bounds.rank_limit_quarters(n, r, simple=True) >= 4 * bounds.max_qfi_rank(n, r)


@st.composite
def _realizable_ranks(draw):
    """(n, r): n up to witness.MAX_N, r realizable, often at n + r = 4, 10, 16 or an end."""
    n = draw(st.integers(1, witness.MAX_N))

    def realizable(r):
        return abs(r) < n and abs(r) != n - 2

    special = [r for r in (1 - n, 3 - n, 4 - n, 10 - n, 16 - n, n - 3, n - 1) if realizable(r)]
    return n, draw(st.sampled_from(special) | st.integers(1 - n, n - 1).filter(realizable))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_realizable_ranks())
@example(case=(4, 0))
@example(case=(8, 2))
@example(case=(12, 4))
@example(case=(witness.MAX_N, 4 - witness.MAX_N))
@example(case=(witness.MAX_N, 16 - witness.MAX_N))
@example(case=(witness.MAX_N, witness.MAX_N - 1))
def test_simple_rank_limit_dominates_at_every_n(case):
    # past test_max_qfi_rank_simple's n <= 60: the simple rank limit is at
    # least the tight one, and equal to it when n + r is odd
    n, r = case
    simple, tight = (bounds.rank_limit_quarters(n, r, simple=s) for s in (True, False))
    assert simple >= tight
    assert (n + r) % 2 == 0 or simple == tight


def test_simple_rank_corner_has_one_source(monkeypatch):
    # the scalar inference reads and the column bounds --class r --simple
    # prints both take the corner n + r == 4 from _SIMPLE_CORNER
    def column_at(n, r):
        return dict(zip(bounds.valid_ranks(n), bounds.rank_limit_column(n, simple=True)))[r]

    assert bounds.rank_limit_quarters(5, -1, simple=True) == 4 * 9
    assert column_at(5, -1) == 9
    monkeypatch.setattr(bounds, "_SIMPLE_CORNER", {4: (3, 5)})
    assert bounds.rank_limit_quarters(5, -1, simple=True) == 4 * 10
    assert column_at(5, -1) == 10


def _lattice_maxima(n):
    """Largest (w, h) limit over each width, height and rank class of n, from the columns.

    Returns the maxima for w = 1..n, h = 1..n and r = -(n - 1)..n - 1.  The
    width class w is the widths <= w.  The height and rank classes take, from
    each width w, the heights from the first admitted one up, max(h, ceil(n/w))
    or max(w - r, ceil(n/w)), while it is <= n + 1 - w.  As h or r moves, that
    first height moves linearly, so a width's share is its suffix maxima
    padded at both ends: O(n**2) per n in all.
    """
    widths, heights, ranks = [], [], []
    for w in range(1, n + 1):
        lo, hi = -(-n // w), n + 1 - w
        # suffix[i]: the largest limit of width w over heights >= lo + i
        suffix = list(accumulate(reversed(bounds.wh_limit_column(n, w)), max))[::-1]
        widths.append(suffix[0])
        heights.append([*repeat(suffix[0], lo - 1), *suffix, *repeat(0, n - hi)])
        # r = -(n - 1) .. n - 1: none below w - hi, then heights hi .. lo, then lo
        tail = repeat(suffix[0], n - 1 - w + lo)
        ranks.append([*repeat(0, 2 * w - 2), *reversed(suffix), *tail])
    by_w = list(accumulate(widths, max))
    return by_w, list(map(max, repeat(0), *heights)), list(map(max, repeat(0), *ranks))


def test_marginals_consistent_with_grid_maxima():
    # each marginal closed form is the maximum of the (w, h) limit over its class
    for n in [*range(1, 251), 1000, cli.MAX_WH_TABLE_N]:
        by_w, by_h, by_r = _lattice_maxima(n)
        assert by_w == [bounds.max_qfi_width(n, w) for w in range(1, n + 1)], n
        assert by_h == [bounds.max_qfi_height(n, h) for h in range(1, n + 1)], n
        for r in bounds.valid_ranks(n):
            assert by_r[r + n - 1] == bounds.max_qfi_rank(n, r), (n, r)


def test_all_bounds_are_exact_integers():
    for n in range(1, 41):
        for w, h in tuples.all_tuples(n):
            assert isinstance(bounds.max_qfi_wh(n, w, h), int)
        for w in range(1, n + 1):
            assert isinstance(bounds.max_qfi_width(n, w), int)
            assert isinstance(bounds.max_qfi_height(n, w), int)
        for r in bounds.valid_ranks(n):
            assert isinstance(bounds.max_qfi_rank(n, r), int)
            q = bounds.rank_limit_quarters(n, r, simple=True)
            assert isinstance(q, int) and q % 4 in (0, 3), (n, r)


def test_bounds_names_no_fraction():
    # bounds is integer arithmetic only: no rational enters a class limit
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(bounds))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {node.module or ""} | {alias.name for alias in node.names}
    assert not names & {"Fraction", "fractions"}
