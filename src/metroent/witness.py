"""Entanglement inference from one measured sensitivity value.

A measurement is either a lower bound on the quantum Fisher information or
an upper bound on the spin-squeezing coefficient.  Both reduce to a single
exact-rational exclusion threshold: a class with QFI limit f is excluded
exactly when f < threshold.  All comparisons are exact (the measured value
is read from its decimal text as an integer ratio), so excluded-tuple
counts are bit-reproducible.

A measurement exactly at a class limit does not exclude the class: the
limits are attainable, so exclusion requires strictly exceeding them.
"""


from bisect import bisect_left
from types import MappingProxyType

import metroent

from . import bounds

KIND_QFI = "fq"
# the accepted (kind, unit) pairs, each with what its sign error calls the value
_VALUE_NAMES = {(KIND_QFI, "none"): "QFI value", ("xi2", "linear"): "linear xi**2",
                ("xi2", "db"): "linear xi**2"}
# limits on a measured value's decimal text, so that no value parses into a
# huge integer
MAX_VALUE_CHARS = 100
MAX_EXPONENT = 100
# Largest particle count accepted, so that no input starts unbounded work:
# atomic-ensemble squeezing experiments reach 10**5 to 10**6 atoms, and each
# record costs at most O(n) exact-integer work (see analyze).
MAX_N = 10**6
# Longest label, in UTF-8 bytes: it names a directory under --out, and Linux
# refuses a file name longer than NAME_MAX = 255 bytes.
MAX_LABEL_BYTES = 255
# Characters no label may hold: the path separators, and the C0 and C1
# controls and U+2028/U+2029, which hold every character str.splitlines
# breaks on, so a label prints on one line of the summary.
_LABEL_REFUSED = frozenset(
    ["/", "\\", *map(chr, [*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029])]
)


def check_n(n: int) -> None:
    """Refuse a particle count outside 1..MAX_N with a ValueError."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_N:
        raise ValueError(f"n must be <= {MAX_N}, got {n}")


def is_plain_text(text: str) -> bool:
    """True for ASCII text with no ``_`` and no leading or trailing whitespace.

    ``Decimal``, ``Fraction`` and ``int`` also accept digit-group
    underscores, surrounding whitespace and non-ASCII digits; a value or
    particle count is refused unless its text passes this check first.
    """
    return text.isascii() and "_" not in text and text == text.strip()


def _read_ratio(text: str) -> tuple[int, int]:
    """The value of decimal text as an integer ratio (a, 10**k), or a ValueError.

    The text must be at most MAX_VALUE_CHARS long and pass
    :func:`is_plain_text`: a sign, digits with at most one ``.``, and an
    optional ``e`` or ``E`` exponent, whose leading digit lies within
    10**+-MAX_EXPONENT.  That is what ``Decimal`` reads, with its
    ``adjusted()`` bounded, less the infinities and NaNs, which have no
    integer ratio.  Zero's leading digit is the one ``Decimal`` gives it:
    ``0e500`` is out of range.
    """
    if len(text) > MAX_VALUE_CHARS or not is_plain_text(text):
        raise ValueError
    mantissa, marker, exponent = text.lower().partition("e")
    sign = -1 if mantissa[:1] == "-" else 1
    # an empty text's [:1] is in "+-", and gives no digits
    whole, _, fraction = (mantissa[1:] if mantissa[:1] in "+-" else mantissa).partition(".")
    digits = whole + fraction
    power = exponent[1:] if exponent[:1] in "+-" else exponent
    if not digits.isdigit() or marker and not power.isdigit():
        raise ValueError
    # a/10**k, and Decimal's adjusted(), the power of ten of the leading digit, zero's included
    k = len(fraction) - int(exponent or 0)
    if abs(len(digits.lstrip("0") or "0") - 1 - k) > MAX_EXPONENT:
        raise ValueError
    a = sign * int(digits)
    return (a, 10**k) if k >= 0 else (a * 10**-k, 1)


def db_text_to_linear(u: int, v: int):
    """``metroent.squeezing.db_text_to_linear``, found by attribute: no import runs per value."""
    return metroent.squeezing.db_text_to_linear(u, v)


class _Record:
    """A read-only record whose fields, its ``__slots__``, are each set once, by keyword."""

    __slots__ = ()

    def __init__(self, **fields):
        if fields.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes exactly the keywords {self.__slots__}")
        self._set(**fields)

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot change {name!r}")

    __delattr__ = __setattr__


class Measurement(_Record):
    """One published sensitivity value for an n-particle state.

    ``value`` is kept as the original decimal text: ASCII, with no ``_`` and
    no surrounding whitespace.  It is read once, when the measurement is
    made, as an exact integer ratio, with no ``decimal``; the integer cuts
    every exclusion decision compares against are stored with it.  Only a
    dB value x is converted in ``decimal``, by :mod:`metroent.squeezing`, to
    10**(x/10): its 30-digit snapshot when that certifies the cuts, else a
    value refined until they are those of the exact 10**(x/10)
    (:func:`metroent.squeezing.certified_db_ratio`); a value too near a
    class limit to certify at the top precision is refused, named as
    written.  Squeezing values carry an explicit unit (``linear`` or
    ``db``), QFI values carry ``none``.  Instances are read-only; equality
    and hash read the six constructor fields only.
    """

    # _quantity is the exact linear-scale ratio (a, b) the cuts come from; _cut1 and _cut4 are
    # ceil(T) and ceil(4T): a limit f is excluded iff f < _cut1, and a rank limit iff 4f < _cut4
    __slots__ = ("label", "n", "kind", "value", "unit", "reference", "_quantity", "_cut1", "_cut4")

    def __init__(
        self, label: str, n: int, kind: str, value: str, unit: str = "none", reference: str = ""
    ):
        # the label names the record's directory under --out
        if label in ("", ".", "..") or not _LABEL_REFUSED.isdisjoint(label):
            raise ValueError(
                f"bad label {label!r}: a label must not be empty, '.' or '..',"
                " nor contain '/', '\\' or a control or line-separator character"
            )
        # surrogatepass: a lone surrogate is counted, not refused here
        if len(label.encode("utf-8", "surrogatepass")) > MAX_LABEL_BYTES:
            raise ValueError(
                f"bad label {label!r}: a label must not be longer than"
                f" {MAX_LABEL_BYTES} bytes in UTF-8"
            )
        check_n(n)
        if (kind, unit) not in _VALUE_NAMES:
            raise ValueError(f"(kind, unit) must be one of {[*_VALUE_NAMES]}, got {(kind, unit)!r}")
        try:
            a, b = _read_ratio(value)
            # 10**(db/10) keeps its exponent within +-MAX_EXPONENT too
            if unit == "db" and abs(a) > 10 * MAX_EXPONENT * b:
                raise ValueError
        except ValueError as exc:
            raise ValueError(f"bad decimal value {value!r}") from exc
        if unit == "db":
            # lowest terms, the converter's cache key: b = 10**k, so only 2 and 5 can divide both
            for p in (2, 5):
                while a % p == b % p == 0:
                    a, b = a // p, b // p
            linear = metroent.squeezing.certified_db_ratio(a, b, db_text_to_linear(a, b), n)
            if linear is None:
                raise ValueError(f"dB value {value} lies too near a class limit to decide")
            a, b = linear
        if a <= 0:
            raise ValueError(f"{_VALUE_NAMES[kind, unit]} must be positive, got {value}")
        quantity = a, b
        if kind != KIND_QFI:
            # T = a/b for a QFI value; a squeezing value a/b gives T = 2n(b - a)/a
            a, b = 2 * n * (b - a), a
        self._set(label=label, n=n, kind=kind, value=value, unit=unit, reference=reference,
                  _quantity=quantity, _cut1=-(-a // b), _cut4=-(-4 * a // b))

    def _fields(self) -> tuple:
        return (self.label, self.n, self.kind, self.value, self.unit, self.reference)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"Measurement({args})"

    def exclusion_threshold(self):
        """The exact T, a ``fractions.Fraction``: a class with QFI limit f is excluded iff f < T.

        For a QFI lower bound F this is F itself.  A squeezing upper bound
        xi**2 excludes a class when xi**2 < 2n/(f + 2n), which rearranges to
        f < 2n(1 - xi**2)/xi**2, with xi**2 the stored ratio ``_quantity``
        (for a dB value, the one its cuts were certified from).  No command
        calls this: the constructor works out the stored cuts ceil(T) and
        ceil(4T) from that ratio, so ``fractions``, which imports
        ``decimal``, is imported here, not at start-up.
        """
        from fractions import Fraction

        q = Fraction(*self._quantity)
        if self.kind == KIND_QFI:
            return q
        return 2 * self.n * (1 - q) / q


def infer_depth(m: Measurement, *, simple: bool = False) -> int:
    """Smallest producibility w compatible with the measurement.

    The width limit never falls in w, so a bisection finds the first
    compatible width in O(log n) exact-integer comparisons.  Returns n + 1
    when even the genuine n-partite limit n**2 is exceeded (an unphysical
    measurement; no separable description remains).
    """
    n, cut = m.n, m._cut1
    widths = range(1, n + 1)
    return 1 + bisect_left(widths, True, key=lambda w: bounds.max_qfi_width(n, w, simple) >= cut)


def infer_separability(m: Measurement) -> int:
    """Largest number of separable groups h compatible with the measurement.

    The height limit never rises in h, so a bisection over the heights from
    n down finds it in O(log n) exact-integer comparisons.  Returns 0 when
    no h is compatible.  The height limit has no simpler variant, so the
    same h serves both bound modes.
    """
    n, cut = m.n, m._cut1
    heights = range(n, 0, -1)
    return n - bisect_left(heights, True, key=lambda h: bounds.max_qfi_height(n, h) >= cut)


def infer_rank(m: Measurement, *, simple: bool = False) -> int:
    """Smallest Dyson rank compatible with the measurement.

    The rank limit never falls in r, so a bisection over -(n - 1)..n - 1
    finds it in O(log n) exact comparisons.  The unrealizable ranks
    +-(n - 2) read the rank below, as :func:`metroent.oracle.brute_force_max`
    does, so the search never stops on one.  Returns n, one past the largest
    realizable rank, if none is compatible.  Both bound modes read the rank
    limit in quarters: for an integer f, f >= ceil(T) iff 4f >= ceil(4T).
    """
    n, cut = m.n, m._cut4

    def key(r):
        return bounds.rank_limit_quarters(n, r - (abs(r) == n - 2), simple=simple) >= cut

    return 1 - n + bisect_left(range(1 - n, n), True, key=key)


def count_widths(n: int, a: int, b: int) -> int:
    """Number of valid tuples whose width lies in a..b, for 1 <= a <= b + 1 <= n + 1.

    Width w holds n + 1 - w - (n - 1)//w tuples.  The floor quotient is
    constant on blocks of widths, at most 2*sqrt(n) of them, so the sum
    costs O(sqrt(n)) exact-integer steps.
    """
    total = (b - a + 1) * (2 * n + 2 - a - b) // 2
    m, w = n - 1, a
    while w <= b and w <= m:
        q = m // w
        last = min(b, m // q)
        total -= q * (last - w + 1)
        w = last + 1
    return total


def exclusion_counts(
    m: Measurement, depth: int, separability: int, rank: int, *, simple: bool = False
) -> dict[str, int]:
    """The four excluded-tuple counts; only the widths depth..n - separability are solved.

    Width w's valid heights are lo = ceil(n/w) <= h <= hi = n + 1 - w.
    Each family's limits are monotone, so the W, H and R flags cut each
    width's heights once: w < depth, h > separability and h > w - rank.
    (Under simple bounds an R flag need not mean (w, h) exclusion: the
    simple rank limit can sit a quarter below a tuple's.)  by_w sums the
    widths below depth and by_h, by conjugation, those above separability,
    with :func:`count_widths`.  w - rank + 1 - lo rises with w, so a
    bisection finds the first width c whose R cut is at least lo; the
    widths below c count whole, and width w >= c counts n + 1 + rank - 2w
    while that is positive.  The (w, h) limit excludes exactly the heights
    p..hi, and :func:`bounds.wh_first_height_at_most` gives p in O(1).  A
    (w, h) limit is at most its width-class limit, so the widths below
    depth are wholly excluded.  A width's top tuple
    (w, n + 1 - w) is the hook, with the width's smallest limit
    n + w*(w - 1): in both bound modes the limit of the height class
    n + 1 - w too, and at most the limits of width class w and rank
    class 2w - 1 - n.  So exactly the widths up to n - separability hold
    an excluded tuple, and no wider width has a W, H or R flag.
    """
    n, f_max = m.n, m._cut1 - 1
    by_w = count_widths(n, 1, depth - 1)
    by_h = count_widths(n, separability + 1, n)
    c = 1 + bisect_left(range(1, n + 1), True, key=lambda w: w - rank + 1 >= -(-n // w))
    last = (n + rank) // 2
    # n + 1 + rank - 2*w over w = c..last; c <= last + 1, as the R cut holds at last + 1
    by_r = count_widths(n, 1, c - 1) + (last - c + 1) * (n + 1 + rank - c - last)
    solve, band = bounds.wh_first_height_at_most, range(depth, n - separability + 1)
    by_wh = by_w + sum(n + 2 - w - solve(n, w, f_max, simple=simple) for w in band)
    return {"by_w": by_w, "by_h": by_h, "by_r": by_r, "by_wh": by_wh}


class WitnessReport(_Record):
    """The answer for one measurement: w, h, r and four counts.  Read-only; cli formats it.

    ``depth``, ``separability`` and ``rank`` are w, h and r; ``counts`` a read-only view of
    exclusion_counts'.
    """

    __slots__ = ("measurement", "depth", "separability", "rank", "counts", "simple")


def analyze(m: Measurement, *, simple: bool = False) -> WitnessReport:
    """Full inference for one measurement: w, h, r and the four counts.

    w, h and r cost O(log n) exact comparisons each; by_w, by_h and by_r
    O(sqrt(n)), and by_wh O(1) per width of the band w..n - h, at most
    about n/4 widths.  No per-tuple grid is built here.
    :func:`build_grid` cuts every width into the runs
    ``grid.csv`` is written from when one is wanted.
    """
    depth = infer_depth(m, simple=simple)
    separability = infer_separability(m)
    rank = infer_rank(m, simple=simple)
    return WitnessReport(
        measurement=m,
        depth=depth,
        separability=separability,
        rank=rank,
        counts=MappingProxyType(exclusion_counts(m, depth, separability, rank, simple=simple)),
        simple=simple,
    )


class TupleGrid(_Record):
    """Per-tuple exclusion map for one measurement, in run-length form.

    ``runs`` holds, for each width w = 1..n in turn, ``(w, ((first, stop,
    status), ...))``: the heights ``first <= h < stop`` of that width share
    ``status``, and the runs of a width cover its valid heights in
    ascending order.  Each tuple's ``f`` is the (w, h) limit the decision
    used, read from :func:`bounds.wh_limit_column`: the tight one by
    default, the simplified one under ``simple``.  ``status`` concatenates
    the violated projections in the order W, H, R; a tuple caught only by
    the full (w, h) information reads WH, and a tuple nothing excludes reads
    OK.  (W and H together force R, so the two-letter value WH is
    unambiguous.)  Under ``simple`` a (w, h)-compatible tuple can still
    read R, so more tuples can carry a flag than ``by_wh`` counts.
    The grid holds O(n) data; cli expands it into ``grid.csv`` rows a
    width at a time, through the row writer ``bounds --class wh`` shares,
    and ``write_report`` writes each width's rows before it makes the next.
    Read-only.
    """

    __slots__ = ("n", "simple", "runs")

    def __len__(self) -> int:
        """The number of tuples, the sum of the run lengths."""
        return sum(runs[-1][1] - runs[0][0] for _, runs in self.runs)

    @property
    def cells(self) -> "TupleGrid":
        """The grid itself, kept because perfbench records ``len(grid.cells)``."""
        return self


def build_grid(report: WitnessReport) -> TupleGrid:
    """The runs of equal status of every width w = 1..n of ``report``.

    Each width's heights lo..hi and first (w, h)-excluded height p are
    found as in :func:`exclusion_counts`.  A width's status is constant
    between at most five cut points: lo, the first height above the
    inferred h (H), the first height whose rank w - h falls below the
    inferred r (R), p and hi + 1; the W flag holds for the whole width when
    w is below the inferred w.  So each width has at most four runs, and
    the grid O(n) of them; no limit is evaluated.  Only the widths from the
    inferred w to n - separability are solved: a narrower width is wholly
    excluded (p = lo), and a wider one holds no flag, so it is one OK run.
    """
    m = report.measurement
    n, f_max = m.n, m._cut1 - 1
    depth, separability, rank = report.depth, report.separability, report.rank
    runs = []
    for w in range(1, n - separability + 1):
        lo, hi = -(-n // w), n + 1 - w
        flag_w = "W" if w < depth else ""
        p = lo if flag_w else bounds.wh_first_height_at_most(n, w, f_max, simple=report.simple)
        cuts = {lo, p, hi + 1, separability + 1, w - rank + 1}
        cuts = sorted(c for c in cuts if lo <= c <= hi + 1)
        width_runs = []
        for first, stop in zip(cuts, cuts[1:]):
            flags = (
                flag_w + ("H" if first > separability else "") + ("R" if w - first < rank else "")
            )
            width_runs.append((first, stop, flags or ("WH" if first >= p else "OK")))
        runs.append((w, tuple(width_runs)))
    runs.extend((w, ((-(-n // w), n + 2 - w, "OK"),)) for w in range(n - separability + 1, n + 1))
    return TupleGrid(n=m.n, simple=report.simple, runs=tuple(runs))

