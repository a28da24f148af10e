"""Spin-squeezing floors per separability class, plus the exact dB-text snapshot.

Each class floor is the exact rational 2n / (f + 2n) where f is the class's
QFI limit.  Floors are necessary conditions for separability (a measured
xi**2 strictly below the floor witnesses entanglement beyond the class);
they are only asymptotically attainable, and only when every block has more
than one particle.
"""

from __future__ import annotations

import functools
from decimal import Decimal, localcontext
from fractions import Fraction


@functools.lru_cache(maxsize=1024)
def db_text_to_linear(text: str, significant_digits: int = 30) -> Fraction:
    """Exact-rational snapshot of 10**(db/10) for a decimal dB string.

    The conversion is rounded once to ``significant_digits`` digits via the
    deterministic decimal library, then held exactly; decision boundaries in
    this package sit far above that precision, so exclusion outcomes are
    platform-independent.
    """
    with localcontext() as ctx:
        ctx.prec = significant_digits
        linear = Decimal(10) ** (Decimal(text) / 10)
    return Fraction(linear)


def xi2_floor_from_qfi(f, n: int) -> Fraction:
    """Class floor on xi**2 given the class's QFI limit f: 2n / (f + 2n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if f < 1:
        raise ValueError(f"QFI limit must be >= 1, got {f}")
    return 2 * n / (Fraction(f) + 2 * n)


def xi2_floor_wh_simple(n: int, w: int, h: int) -> Fraction:
    """Non-tight (w, h) floor 2n / (w(n - h) + 3n)."""
    return Fraction(2 * n, w * (n - h) + 3 * n)


def xi2_floor_width(w: int) -> Fraction:
    """Floor for w-producible states, 1 / (1 + w/2); independent of n."""
    if w < 1:
        raise ValueError(f"width must be >= 1, got {w}")
    return Fraction(2, 2 + w)


def xi2_floor_height(n: int, h: int) -> Fraction:
    """Floor for h-separable states, 2n / ((n - h + 1)**2 + h - 1 + 2n)."""
    return Fraction(2 * n, (n - h + 1) ** 2 + h - 1 + 2 * n)


def xi2_floor_rank(n: int, r: int) -> Fraction:
    """Floor for states of Dyson rank at most r, 8n / ((n + r)**2 + 12n - 1).

    Matches the floor built from the simplified rank limit whenever
    n + r != 4; at n + r == 4 the tight floor via
    ``xi2_floor_from_qfi(max_qfi_rank(n, r), n)`` is the binding one.
    """
    return Fraction(8 * n, (n + r) ** 2 + 12 * n - 1)
