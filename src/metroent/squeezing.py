"""The exact dB-text snapshot of a squeezing value.

A measured xi**2 strictly below 2n / (f + 2n), for a class with QFI limit
f, witnesses entanglement beyond the class: the criterion that
:class:`metroent.witness.Measurement` applies.  A squeezing value given in
dB reaches it through :func:`db_text_to_linear`.
"""


import functools
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext

# significant digits of every dB conversion, a fixed part of each result
DB_DIGITS = 30


@functools.lru_cache(maxsize=1024)
def db_text_to_linear(text: str) -> Decimal:
    """The ``Decimal`` snapshot of 10**(db/10) for a decimal dB string.

    The conversion is rounded half-even to ``DB_DIGITS`` significant digits
    in a fixed context of its own, whatever the caller's decimal context; the
    ``Decimal`` returned holds that value exactly, so exclusion outcomes are
    platform-independent.  They are not always those of the exact
    10**(db/10): the text is divided by 10 and raised to the power at that
    precision, so a text whose exact value lies within about a unit in the
    30th digit of a class boundary can be decided either way.  Long texts can
    land there: at n = 470, ``-3.9757023897587820686307879387200615`` dB
    answers w = 3, where the exact threshold 1408.000...0075 exceeds the
    w = 3 limit 1408 and so answers w = 4.  The bundled -4.5 dB lies far
    from every boundary: its threshold is 0.03 from the nearest quarter.
    """
    with localcontext(Context(prec=DB_DIGITS, rounding=ROUND_HALF_EVEN)):
        return Decimal(10) ** (Decimal(text) / 10)
