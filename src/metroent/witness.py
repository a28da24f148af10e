"""Entanglement inference from one measured sensitivity value.

A measurement is either a lower bound on the quantum Fisher information or
an upper bound on the spin-squeezing coefficient.  Both reduce to a single
exact-rational exclusion threshold: a class with QFI limit f is excluded
exactly when f < threshold.  All comparisons are exact (the measured value
is parsed from its decimal text), so excluded-tuple counts are
bit-reproducible.

A measurement exactly at a class limit does not exclude the class: the
limits are attainable, so exclusion requires strictly exceeding them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from . import bounds
from .squeezing import db_text_to_linear

KIND_QFI = "fq"
KIND_SQUEEZING = "xi2"
KINDS = (KIND_QFI, KIND_SQUEEZING)
UNITS = ("none", "linear", "db")
# limits on a measured value's decimal text, so that no value parses into a
# huge integer
MAX_VALUE_CHARS = 100
MAX_EXPONENT = 100
# Largest particle count accepted, so that no input starts unbounded work:
# atomic-ensemble squeezing experiments reach 10**5 to 10**6 atoms, and each
# record costs O(n) exact-integer work.
MAX_N = 10**6


def check_n(n: int) -> None:
    """Refuse a particle count outside 1..MAX_N with a ValueError."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_N:
        raise ValueError(f"n must be <= {MAX_N}, got {n}")


@dataclass(frozen=True)
class Measurement:
    """One published sensitivity value for an n-particle state.

    ``value`` is kept as the original decimal text and parsed exactly, once,
    when the measurement is made; squeezing values carry an explicit unit
    (``linear`` or ``db``), QFI values carry ``none``.
    """

    label: str
    n: int
    kind: str
    value: str
    unit: str = "none"
    reference: str = ""
    _quantity: Fraction = field(init=False, repr=False, compare=False)
    # ceil(T) and ceil(4T): a limit f, or 4f read in quarters, is excluded iff below its cut
    _cut1: int = field(init=False, repr=False, compare=False)
    _cut4: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the label names the record's directory under --out
        if self.label in ("", ".", "..") or any(c in self.label for c in "/\\\0"):
            raise ValueError(
                f"bad label {self.label!r}: a label must not be empty, '.' or '..',"
                " nor contain '/', '\\' or NUL"
            )
        check_n(self.n)
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.unit not in UNITS:
            raise ValueError(f"unit must be one of {UNITS}, got {self.unit!r}")
        if self.kind == KIND_QFI and self.unit != "none":
            raise ValueError("QFI measurements take unit 'none'")
        if self.kind == KIND_SQUEEZING and self.unit == "none":
            raise ValueError("squeezing measurements need unit 'linear' or 'db'")
        try:
            # bound the text before Fraction or Decimal expands its exponent
            if len(self.value) > MAX_VALUE_CHARS:
                raise ValueError
            x = Decimal(self.value)
            if abs(x.adjusted()) > MAX_EXPONENT:
                raise ValueError
            if self.unit == "db":
                # 10**(x/10) keeps its exponent within +-MAX_EXPONENT too
                if abs(x) > 10 * MAX_EXPONENT:
                    raise ValueError
                q = db_text_to_linear(self.value)
            else:
                q = Fraction(self.value)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"bad decimal value {self.value!r}") from exc
        if self.kind == KIND_QFI and q <= 0:
            raise ValueError(f"QFI value must be positive, got {self.value}")
        if self.kind == KIND_SQUEEZING and q <= 0:
            raise ValueError(f"linear xi**2 must be positive, got {self.value}")
        object.__setattr__(self, "_quantity", q)
        t = self.exclusion_threshold()
        object.__setattr__(self, "_cut1", -(-t.numerator // t.denominator))
        object.__setattr__(self, "_cut4", -(-4 * t.numerator // t.denominator))

    def quantity(self) -> Fraction:
        """The measured quantity on linear scale, as an exact rational."""
        return self._quantity

    def exclusion_threshold(self) -> Fraction:
        """The rational T such that a class with QFI limit f is excluded iff f < T.

        For a QFI lower bound F this is F itself.  A squeezing upper bound
        xi**2 excludes a class when xi**2 < 2n/(f + 2n), which rearranges to
        f < 2n(1 - xi**2)/xi**2.  Worked out once, by :meth:`__post_init__`.
        """
        q = self._quantity
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
    f = bounds.max_qfi_width_simple if simple else bounds.max_qfi_width
    n, cut = m.n, m._cut1
    return 1 + bisect_left(range(1, n + 1), True, key=lambda w: f(n, w) >= cut)


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
    +-(n - 2) read the limit of the rank one above, so a search that stops
    on one answers that rank.  Returns n (one past the largest realizable
    rank) when nothing is compatible.  The simple limit is read in quarters.
    """
    f = bounds.rank_limit_simple_quarters if simple else bounds.max_qfi_rank
    n = m.n
    cut = m._cut4 if simple else m._cut1

    def key(r):
        return f(n, r + (abs(r) == n - 2)) >= cut

    r = 1 - n + bisect_left(range(1 - n, n), True, key=key)
    return r + (abs(r) == n - 2)


def exclusion_counts(
    m: Measurement, depth: int, separability: int, rank: int, *, simple: bool = False
) -> dict[str, int]:
    """The four excluded-tuple counts, tallied width by width.

    Width w's valid heights are lo = ceil(n/w) <= h <= hi = n + 1 - w, and
    the (w, h) limit excludes exactly the heights p <= h <= hi.  A limit is
    an integer, so it is excluded iff it is below the measurement's cut
    ceil(T), and :func:`bounds.wh_first_height_at_most` gives each width's
    p in O(1), with no limit evaluated.

    Each family's limits are monotone, so the W, H and R flags cut each
    width's height interval once: w < depth, h > separability and
    h > w - rank.  (Under simple bounds an R flag need not mean (w, h)
    exclusion: the simple rank limit can sit a quarter below a tuple's.)
    The walk ends at width n - separability.  A width's top tuple
    (w, n + 1 - w) is the hook, with the width's smallest limit
    n + w*(w - 1): in both bound modes the limit of the height class
    n + 1 - w too, and at most the limits of width class w and rank
    class 2w - 1 - n.  So exactly the widths up to n - separability hold
    an excluded tuple, and no wider width has a W, H or R flag.
    """
    n, f_max = m.n, m._cut1 - 1
    by_w = by_h = by_r = by_wh = 0
    for w in range(1, n - separability + 1):
        lo, hi = -(-n // w), n + 1 - w
        p = bounds.wh_first_height_at_most(n, w, f_max, simple=simple)
        if w < depth:
            by_w += hi - lo + 1
        by_h += hi - max(lo, separability + 1) + 1
        by_r += max(0, hi - max(lo, w - rank + 1) + 1)
        by_wh += hi + 1 - p
    return {"by_w": by_w, "by_h": by_h, "by_r": by_r, "by_wh": by_wh}


@dataclass(frozen=True)
class WitnessReport:
    """Everything inferred from one measurement."""

    measurement: Measurement
    depth: int
    separability: int
    rank: int
    counts: dict
    simple: bool
    q_advantage: "Fraction | None"

    @property
    def smallest_excluded_h(self) -> "int | None":
        """The smallest excluded group count, one above the compatible maximum."""
        nxt = self.separability + 1
        return nxt if nxt <= self.measurement.n else None

    def to_json_dict(self) -> dict:
        m = self.measurement
        return {
            "label": m.label,
            "n": m.n,
            "kind": m.kind,
            "value": m.value,
            "inferred": {"w": self.depth, "h": self.separability, "r": self.rank},
            "counts": dict(self.counts),
            "q_advantage": None
            if self.q_advantage is None
            else fraction_to_decimal_text(self.q_advantage),
            "grid_ref": "grid.csv",
        }


def analyze(m: Measurement, *, simple: bool = False) -> WitnessReport:
    """Full inference for one measurement: w, h, r, counts, advantage.

    w, h and r cost O(log n) exact comparisons each and the counts O(1)
    per width for the widths 1..n - h; no per-tuple grid is built here.
    :func:`build_grid` cuts every width into the runs
    ``grid.csv`` is written from when one is wanted.
    """
    depth = infer_depth(m, simple=simple)
    separability = infer_separability(m)
    rank = infer_rank(m, simple=simple)
    # the sensitivity gain over the shot-noise limit n
    q = m.quantity() - m.n if m.kind == KIND_QFI else None
    return WitnessReport(
        measurement=m,
        depth=depth,
        separability=separability,
        rank=rank,
        counts=exclusion_counts(m, depth, separability, rank, simple=simple),
        simple=simple,
        q_advantage=q,
    )


@dataclass(frozen=True)
class TupleGrid:
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
    The grid holds O(n) data; only ``cli.grid_csv_text`` expands it into rows.
    """

    n: int
    simple: bool
    runs: tuple[tuple[int, tuple[tuple[int, int, str], ...]], ...]

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
    the grid O(n) of them; no limit is evaluated.
    """
    m = report.measurement
    n, f_max = m.n, m._cut1 - 1
    depth, separability, rank = report.depth, report.separability, report.rank
    runs = []
    for w in range(1, n + 1):
        lo, hi = -(-n // w), n + 1 - w
        p = bounds.wh_first_height_at_most(n, w, f_max, simple=report.simple)
        flag_w = "W" if w < depth else ""
        cuts = {lo, p, hi + 1, separability + 1, w - rank + 1}
        cuts = sorted(c for c in cuts if lo <= c <= hi + 1)
        width_runs = []
        for first, stop in zip(cuts, cuts[1:]):
            flags = (
                flag_w + ("H" if first > separability else "") + ("R" if w - first < rank else "")
            )
            width_runs.append((first, stop, flags or ("WH" if first >= p else "OK")))
        runs.append((w, tuple(width_runs)))
    return TupleGrid(n=m.n, simple=report.simple, runs=tuple(runs))


def fraction_to_decimal_text(value: Fraction) -> str:
    """Exact decimal text of a rational whose denominator divides a power of ten."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{value} has no terminating decimal form")
    scale = max(twos, fives)
    scaled = abs(value.numerator) * 10**scale // value.denominator
    digits = str(scaled).rjust(scale + 1, "0")
    text = digits if scale == 0 else f"{digits[:-scale]}.{digits[-scale:]}"
    return f"-{text}" if value < 0 else text
