"""The exact dB-text snapshot of a squeezing value.

A measured xi**2 strictly below 2n / (f + 2n), for a class with QFI limit
f, witnesses entanglement beyond the class; that criterion lives in
:meth:`metroent.witness.Measurement.exclusion_threshold`.  A squeezing value
given in dB reaches it through :func:`db_text_to_linear`.
"""

from __future__ import annotations

import functools
from decimal import Decimal, localcontext
from fractions import Fraction

# significant digits of every dB conversion, a fixed part of each result
DB_DIGITS = 30


@functools.lru_cache(maxsize=1024)
def db_text_to_linear(text: str) -> Fraction:
    """Exact-rational snapshot of 10**(db/10) for a decimal dB string.

    The conversion is rounded once to ``DB_DIGITS`` significant digits via
    the deterministic decimal library, then held exactly; decision
    boundaries in this package sit far above that precision, so exclusion
    outcomes are platform-independent.
    """
    with localcontext() as ctx:
        ctx.prec = DB_DIGITS
        linear = Decimal(10) ** (Decimal(text) / 10)
    return Fraction(linear)
