"""The dB conversion of a squeezing value, the package's one use of ``decimal``.

A measured xi**2 strictly below 2n / (f + 2n), for a class with QFI limit
f, witnesses entanglement beyond the class: the criterion that
:class:`metroent.witness.Measurement` applies.  A squeezing value given in
dB reaches it through :func:`db_text_to_linear` and
:func:`certified_db_ratio`.
"""


import functools

# significant digits of every dB conversion, a fixed part of each result
DB_DIGITS = 30
# metroent._exact, imported at the first dB value, as it loads decimal: an import
# statement run at every value costs tens of microseconds in a cold process
_exact = None


def _contexts():
    """metroent._exact, the dB contexts, imported at the first call."""
    global _exact
    if _exact is None:
        from . import _exact
    return _exact


@functools.lru_cache(maxsize=1024)
def db_text_to_linear(u: int, v: int):
    """The ``Decimal`` snapshot of 10**(x/10), for the dB value x = u/v, cached by value.

    ``u/v`` is the ratio ``Measurement`` read, in lowest terms, so ``-4.5``,
    ``-4.50`` and ``-45E-1`` share one entry, ``(-9, 2)``.  x/10 = u/(10v)
    and the power are each rounded half-even to ``DB_DIGITS`` significant
    digits in ``_exact._DB``, whatever the caller's context or
    ``DefaultContext`` holds, so the snapshot is platform-independent.  It
    can lie on the wrong side of a class boundary when the exact
    10**(x/10) is within about a unit in its 30th digit, so ``Measurement``
    keeps its cuts only when :func:`certified_db_ratio` certifies them, and
    refines the value otherwise: at n = 470, dB value
    ``-3.9757023897587820686307879387200615`` is refined at 60 digits, where
    the exact threshold 1408.000...0075 exceeds the w = 3 limit 1408, giving
    w = 4.  The bundled -4.5 dB lies 0.03 in threshold from the nearest
    quarter, and its snapshot certifies.
    """
    db = _contexts()._DB
    return db.power(10, db.divide(u, 10 * v))


def certified_db_ratio(u: int, v: int, snapshot, n: int) -> tuple[int, int] | None:
    """An integer ratio (a, b) near 10**(x/10), x = u/v, whose cuts are those of the exact value.

    ``snapshot`` is ``db_text_to_linear(u, v)``.  When x/10 is whole it is
    10**(x/10) itself, and its ratio is returned: T may then sit exactly on
    a cut, so no precision would certify it.  Otherwise a ratio a/b within
    relative delta of 10**(x/10) gives the exact cuts ceil(T) and ceil(4T),
    4T = 8n(b - a)/a, if min(r, a - r) > 16*n*b*delta, with
    r = 8n(b - a) mod a: no q within relative delta of a/b moves 4T across
    an integer.  A value worked out at P digits, the division by 10 and the
    power each rounded half-even, lies within relative 2 * 10**(3 - P) of
    the exact one for |x| <= 1000, so delta = 10**(5 - P) holds with room.
    The snapshot, the rung ``_DB``, is tried first, then each rung of
    ``_LADDER``; None if not even the top rung can decide.
    """
    if u % (10 * v) == 0:
        return snapshot.as_integer_ratio()
    exact = _contexts()
    for context in (exact._DB, *exact._LADDER):
        q = snapshot if context is exact._DB else context.power(10, context.divide(u, 10 * v))
        a, b = q.as_integer_ratio()
        r = 8 * n * (b - a) % a
        if min(r, a - r) * 10 ** (context.prec - 5) > 16 * n * b:
            return a, b
    return None
