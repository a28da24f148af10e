"""The exact dB-text snapshot of a squeezing value.

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
def db_text_to_linear(text: str) -> Decimal:
    """The ``Decimal`` snapshot of 10**(db/10) for a decimal dB string.

    The text is read exactly, then divided by 10 and raised to the power in
    ``_DB``, each step rounded half-even to ``DB_DIGITS`` significant digits
    whatever the caller's context or ``decimal.DefaultContext`` holds, so
    exclusion outcomes are platform-independent.  They are not always those
    of the exact 10**(db/10): a text within about a unit in the 30th digit
    of a class boundary can be decided either way, as long texts can be.  At
    n = 470, ``-3.9757023897587820686307879387200615`` dB answers w = 3,
    where the exact threshold 1408.000...0075 exceeds the w = 3 limit 1408
    and so answers w = 4.  The bundled -4.5 dB lies far from every
    boundary: its threshold is 0.03 from the nearest quarter.
    """
    return _DB.power(10, _DB.divide(Decimal(text, _DB), 10))
