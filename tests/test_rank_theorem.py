"""The rank limit is n + Phi(n + r) at every n: the finite steps of the proof.

The tight (w, h) limit is n + G(w, t), with t = n - h and
(k, j) = divmod(t, w - 1), where G(w, t) = k*w*(w - 1) + j*(j + 1)
= w*t - j*(w - 1 - j), and G rises with t.  (Width 1 holds one shape,
h = n, whose limit is n: G = 0.)

- The rank class r holds the shapes with w - h <= r.  Width w admits the
  heights h >= max(ceil(n/w), w - r) up to n + 1 - w, so w <= (s + 1)/2
  and t <= s - w, with s = n + r.  Hence the limit is at most n + Phi(s),
  Phi(s) = max over those w of G(w, s - w).
- Odd s: w*(s - w) <= (s**2 - 1)/4, and w = (s + 1)/2 attains it with
  j = 0, so Phi(s) = (s**2 - 1)/4.
- Even s: with d = w - s/2, G = s**2/4 - d**2 - j*(w - 1 - j).  For
  1 <= j <= w - 2 the last term is at least w - 2, and no w beats w = s/2,
  whose value is s**2/4 - s/2 + 2.  For j = 0, w - 1 divides s - 1, and
  beating w = s/2 also needs d**2 < s/2 - 2; together these force s < 22.
  So Phi is the quadratic at every s >= 22, and a finite check settles the
  rest: only s = 10 and s = 16 differ (s = 2 is n + r for no realizable
  rank r, as r = 2 - n is -(n - 2)).
- Attainment: the maximizing shape (w*, w* - r) is valid iff
  w*(w* - r) >= n.  For the quadratic's w* this fails only at the
  unrealizable r = n - 2; for s = 10 and 16 it gives the least n of
  ``bounds._TWO_FULL_ROWS``.  Below it the quadratic's shape is the best
  valid one.
- The simple rank limit in quarters is 4n + max(s**2 - 1, 4*Phi(s)): the
  simple quadratic raised to the tight limit where that is larger, which is
  at s = 4 alone, ``bounds._SIMPLE_CORNER``.
- Width and height are the (w, h) form at h = ceil(n/w) and at
  w = n + 1 - h.

So ``max_qfi_rank``, ``rank_limit_column`` and the simple rank limit are
exact at every n, and the two tables hold every exception.  The checks
here import no test framework, so a script can run
:func:`theorem_disagreements` on a patched ``bounds`` too.
"""

from __future__ import annotations

from functools import cache

from metroent import bounds

# every even s from here on has Phi(s) = s**2/4 - s/2 + 2 (see above)
FINITE_S = 22
# the s below FINITE_S that are n + r for a realizable rank r
SMALL_S = [s for s in range(1, FINITE_S) if s != 2]


def excess(w: int, t: int) -> int:
    """G(w, t): the tight (w, h) limit of a valid shape less n, with t = n - h."""
    if w == 1:
        return 0
    k, j = divmod(t, w - 1)
    return k * w * (w - 1) + j * (j + 1)


@cache
def maximizers(s: int) -> tuple[int, tuple[int, ...]]:
    """(Phi(s), the widths w <= (s + 1)/2 at which G(w, s - w) attains it)."""
    values = {w: excess(w, s - w) for w in range(2, (s + 1) // 2 + 1)}
    phi = max(values.values(), default=0)
    return phi, tuple(w for w, g in values.items() if g == phi)


def quadratic(s: int) -> int:
    """Phi(s) at every realizable s but 10 and 16."""
    return (s * s - 1) // 4 if s % 2 else s * s // 4 - s // 2 + 2


def least_n(s: int, w: int) -> int:
    """The least n from which every realizable rank r = s - n has the valid shape (w, w - r).

    n starts where r = s - n first reaches the ranks, r <= n - 1.  The
    shape's validity, w*(w - r) >= n, only improves as n rises; the one
    unrealizable r = n - 2 on the way does not count.
    """
    n = least = (s + 2) // 2
    while w * (w - s + n) < n:
        if s - n != n - 2:
            least = n + 1
        n += 1
    return least


def exceptions() -> list[int]:
    """The realizable s < FINITE_S at which Phi(s) is not the quadratic."""
    return [s for s in SMALL_S if maximizers(s)[0] != quadratic(s)]


def two_full_rows() -> dict[int, tuple[int, int]]:
    """``bounds._TWO_FULL_ROWS`` as the theorem gives it: {s: (least n, Phi(s))}."""
    table = {}
    for s in exceptions():
        phi, (w,) = maximizers(s)
        table[s] = (least_n(s, w), phi)
    return table


def simple_corner() -> dict[int, tuple[int, int]]:
    """``bounds._SIMPLE_CORNER``: the s where 4n + max(s**2 - 1, 4*Phi(s)) picks 4*Phi."""
    table = {}
    for s in SMALL_S:
        phi, ws = maximizers(s)
        if 4 * phi > s * s - 1:
            (w,) = ws
            table[s] = (least_n(s, w), phi)
    return table


def rank_excess(n: int, r: int, rows: dict[int, tuple[int, int]]) -> int:
    """The theorem's rank limit less n, given :func:`two_full_rows` as ``rows``.

    That is Phi(s), or the quadratic below an exception's least n.
    """
    s = n + r
    entry = rows.get(s)
    return quadratic(s) if entry and n < entry[0] else maximizers(s)[0]


def theorem_disagreements(n_max: int = 300) -> list[tuple]:
    """Where ``bounds`` departs from the theorem: its two tables, then its rank limits.

    The limits are read at every valid rank of every n <= n_max, and at
    every ``bounds`` table entry's own s just below and at its least n,
    where a wrong least n or extra shows.  An empty list is agreement.
    """
    found, rows = [], two_full_rows()
    for name, derived in (("_TWO_FULL_ROWS", rows),
                          ("_SIMPLE_CORNER", simple_corner())):
        table = getattr(bounds, name)
        found += [(name, s, derived.get(s), table.get(s))
                  for s in sorted(derived.keys() | table.keys()) if derived.get(s) != table.get(s)]
    cases = [(n, r) for n in range(1, n_max + 1) for r in bounds.valid_ranks(n)]
    for s, (least, _) in (*bounds._TWO_FULL_ROWS.items(), *bounds._SIMPLE_CORNER.items()):
        cases += [(n, s - n) for n in (least - 1, least)
                  if n > n_max and abs(s - n) < n and abs(s - n) != n - 2]
    for n, r in cases:
        phi = rank_excess(n, r, rows)
        tight, quarters = n + phi, 4 * n + max((n + r) ** 2 - 1, 4 * phi)
        got = (bounds.max_qfi_rank(n, r), bounds.rank_limit_quarters(n, r, simple=True))
        if got != (tight, quarters):
            found.append((n, r, got, (tight, quarters)))
    return found


def test_phi_is_the_quadratic_but_at_two_sums():
    assert exceptions() == [10, 16]
    assert [maximizers(s) for s in exceptions()] == [(24, (4,)), (60, (6,))]
    # the even-s argument, past FINITE_S: w = s/2 attains the quadratic, and at
    # s = 22, where d**2 = s/2 - 2 at w = 8, j = 0, w = 8 ties with it
    assert maximizers(22) == (112, (8, 11))
    for s in range(FINITE_S, 400):
        phi, ws = maximizers(s)
        assert phi == quadratic(s), s
        assert s % 2 or s == 22 or ws == (s // 2,), s


def test_excess_identities():
    for w in range(2, 40):
        for t in range(3 * w):
            k, j = divmod(t, w - 1)
            assert excess(w, t) == w * t - j * (w - 1 - j), (w, t)
            assert excess(w, t + 1) > excess(w, t), (w, t)


def test_width_height_and_wh_limits_are_the_excess():
    for n in range(1, 121):
        for w in range(1, n + 1):
            lo = -(-n // w)
            assert bounds.max_qfi_width(n, w) == n + excess(w, n - lo), (n, w)
            h = w
            assert bounds.max_qfi_height(n, h) == n + excess(n + 1 - h, n - h), (n, h)
            if n <= 40:
                column = [n + excess(w, n - h) for h in range(lo, n + 2 - w)]
                assert list(bounds.wh_limit_column(n, w)) == column, (n, w)


def test_tables_are_the_theorems():
    # a wrong or extra entry, such as 14: (3000, 99), fails here
    assert two_full_rows() == bounds._TWO_FULL_ROWS == {10: (8, 24), 16: (12, 60)}
    assert simple_corner() == bounds._SIMPLE_CORNER == {4: (3, 4)}


def test_rank_limits_are_n_plus_phi():
    assert theorem_disagreements() == []
    # below an exception's least n, the quadratic's shape is the best valid one
    rows = two_full_rows()
    below = [(n, r) for n in range(1, 301) for r in bounds.valid_ranks(n)
             if rank_excess(n, r, rows) != maximizers(n + r)[0]]
    assert below == [(7, 3), (10, 6), (11, 5)]


def test_rank_limit_column_is_n_plus_phi():
    rows = two_full_rows()
    for n in range(1, 121):
        phis = [(r, rank_excess(n, r, rows)) for r in bounds.valid_ranks(n)]
        assert list(bounds.rank_limit_column(n)) == [n + phi for _, phi in phis], n
        simple = [4 * n + max((n + r) ** 2 - 1, 4 * phi) for r, phi in phis]
        text = [q // 4 if q % 4 == 0 else "%d.75" % (q // 4) for q in simple]
        assert list(bounds.rank_limit_column(n, simple=True)) == text, n
