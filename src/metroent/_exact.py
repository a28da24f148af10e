"""The dB conversion's decimal contexts, the one part of the package that loads ``decimal``.

Only :mod:`metroent.squeezing` imports this module, at its first dB value.
Each context is built once, here, with all eight fields set, so neither a
caller's decimal context nor ``decimal.DefaultContext`` reaches any result.
``_DB`` rounds the snapshot to ``DB_DIGITS``; ``_LADDER`` holds the
precisions a dB value is refined at when its snapshot cannot certify the
cuts.  Bad text, or a power past either end of the exponent range, raises,
so no 0 or infinity stands for a value and is cached.
"""


from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, InvalidOperation, Overflow, Underflow

from .squeezing import DB_DIGITS

_DB, *_LADDER = (Context(prec=prec, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1,
                         clamp=0, flags=[], traps=[InvalidOperation, Overflow, Underflow])
                 for prec in (DB_DIGITS, 60, 120, 240, 480, 960))
