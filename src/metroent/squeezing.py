"""The exact dB snapshot of a squeezing value.

A measured xi**2 strictly below 2n / (f + 2n), for a class with QFI limit
f, witnesses entanglement beyond the class: the criterion that
:class:`metroent.witness.Measurement` applies.  A squeezing value given in
dB reaches it through :func:`db_text_to_linear`.
"""


import functools
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, InvalidOperation, Overflow,
                     Underflow)

# significant digits of every dB conversion, a fixed part of each result
DB_DIGITS = 30
# the dB conversions' context, every field fixed: bad text or a power past either end of
# the exponent range raises, so no 0 or infinity stands for a value and is cached
_DB = Context(prec=DB_DIGITS, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1,
              clamp=0, flags=[], traps=[InvalidOperation, Overflow, Underflow])


@functools.lru_cache(maxsize=1024)
def db_text_to_linear(db: Decimal) -> Decimal:
    """The ``Decimal`` snapshot of 10**(db/10), cached by value.

    ``db`` is the exact ``Decimal`` that ``Measurement`` read, so ``-4.5``,
    ``-4.50`` and ``-45E-1`` share one entry.  It is divided by 10 and raised
    to the power in ``_DB``, each step rounded half-even to ``DB_DIGITS``
    significant digits whatever the caller's context or ``DefaultContext``
    holds, so exclusion outcomes are platform-independent, though not always
    those of the exact 10**(db/10): a value within about a unit in the 30th
    digit of a class boundary can be decided either way.  At n = 470, dB value
    ``-3.9757023897587820686307879387200615`` answers w = 3, where the exact
    threshold 1408.000...0075 exceeds the w = 3 limit 1408, giving w = 4.
    The bundled -4.5 dB lies 0.03 in threshold from the nearest quarter.
    """
    return _DB.power(10, _DB.divide(db, 10))
