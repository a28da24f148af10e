"""The package's decimal contexts, and the certified integer ratio of a dB value.

``import metroent.cli`` loads no ``decimal``: a QFI or linear xi**2 value
needs only the integer ratio of its text, which
:class:`metroent.witness.Measurement` reads itself.  Only the dB branch of
``Measurement``, :func:`metroent.squeezing.db_text_to_linear` and the
``q_advantage`` of ``report.json`` import this module.  Each context is built
once, here, with all eight fields set, so neither a caller's decimal context
nor ``decimal.DefaultContext`` reaches any result.
"""


from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Inexact, InvalidOperation, Overflow,
                     Underflow)

from .squeezing import DB_DIGITS
from .witness import MAX_EXPONENT, MAX_VALUE_CHARS

# the context, every field fixed, that holds a value and works out F - n exactly: the digits
# of F and of n <= MAX_N lie in 10**MAX_EXPONENT..10**(1 - MAX_EXPONENT - MAX_VALUE_CHARS)
EXACT = Context(prec=MAX_VALUE_CHARS + 2 * MAX_EXPONENT, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN,
                Emax=MAX_EMAX, capitals=1, clamp=0, flags=[], traps=[InvalidOperation, Inexact])
# the dB conversions' context, every field fixed: bad text or a power past either end of
# the exponent range raises, so no 0 or infinity stands for a value and is cached
_DB = Context(prec=DB_DIGITS, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1,
              clamp=0, flags=[], traps=[InvalidOperation, Overflow, Underflow])
# the precisions a dB value is refined at when its snapshot cannot certify the cuts, each
# context _DB's but for prec
_LADDER = tuple(Context(prec=prec, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1,
                        clamp=0, flags=[], traps=[InvalidOperation, Overflow, Underflow])
                for prec in (60, 120, 240, 480, 960))


def certified_db_ratio(db, snapshot, n: int) -> tuple[int, int]:
    """An integer ratio (a, b) near 10**(db/10) whose cuts are those of the exact value.

    ``snapshot`` is ``db_text_to_linear(db)``.  When db/10 is whole it is
    10**(db/10) itself, and its ratio is returned: T may then sit exactly on
    a cut, so no precision would certify it.  Otherwise a ratio a/b within
    relative delta of 10**(db/10) gives the exact cuts ceil(T) and ceil(4T),
    4T = 8n(b - a)/a, if min(r, a - r) > 16*n*b*delta, with
    r = 8n(b - a) mod a: no q within relative delta of a/b moves 4T across
    an integer.  A value worked out at P digits, the division by 10 and the
    power each rounded half-even, lies within relative 2 * 10**(3 - P) of
    the exact one for |db| <= 1000, so delta = 10**(5 - P) holds with room.
    The snapshot, at ``DB_DIGITS``, is tried first, then each rung of
    ``_LADDER``; a ValueError refuses the value if not even the top rung
    can decide.
    """
    u, v = db.as_integer_ratio()
    if u % (10 * v) == 0:
        return snapshot.as_integer_ratio()
    q, digits = snapshot, DB_DIGITS
    for context in (None, *_LADDER):
        if context is not None:
            q, digits = context.power(10, context.divide(db, 10)), context.prec
        a, b = q.as_integer_ratio()
        r = 8 * n * (b - a) % a
        if min(r, a - r) * 10 ** (digits - 5) > 16 * n * b:
            return a, b
    raise ValueError(f"dB value {db} lies too near a class limit to decide")
