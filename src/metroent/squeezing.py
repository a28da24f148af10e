"""The exact dB snapshot of a squeezing value.

A measured xi**2 strictly below 2n / (f + 2n), for a class with QFI limit
f, witnesses entanglement beyond the class: the criterion that
:class:`metroent.witness.Measurement` applies.  A squeezing value given in
dB reaches it through :func:`db_text_to_linear`.
"""


import functools

# significant digits of every dB conversion, a fixed part of each result
DB_DIGITS = 30
# metroent._exact, imported at the first conversion, as it loads decimal: an import
# statement run at every cache miss costs tens of microseconds in a cold process
_exact = None


@functools.lru_cache(maxsize=1024)
def db_text_to_linear(db):
    """The ``Decimal`` snapshot of 10**(db/10), cached by value.

    ``db`` is the exact ``Decimal`` of the dB value that ``Measurement``
    read, so ``-4.5``, ``-4.50`` and ``-45E-1`` share one entry.  It is
    divided by 10 and raised to the power in ``_exact._DB``, each step rounded
    half-even to ``DB_DIGITS`` significant digits whatever the caller's
    context or ``DefaultContext`` holds, so the snapshot is
    platform-independent.  It can lie on the wrong side of a class
    boundary when the exact 10**(db/10) is within about a unit in its 30th
    digit, so ``Measurement`` keeps its cuts only when
    :func:`metroent._exact.certified_db_ratio` certifies them, and refines
    the value otherwise: at n = 470, dB value
    ``-3.9757023897587820686307879387200615`` is refined at 60 digits, where
    the exact threshold 1408.000...0075 exceeds the w = 3 limit 1408, giving
    w = 4.  The bundled -4.5 dB lies 0.03 in threshold from the nearest
    quarter, and its snapshot certifies.
    """
    global _exact
    if _exact is None:
        from . import _exact
    return _exact._DB.power(10, _exact._DB.divide(db, 10))
