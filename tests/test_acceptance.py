"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected number below is either published alongside the
measured datasets or was frozen from an independent brute-force computation.
"""

import random
import time
from fractions import Fraction

import ghz
from support import cell_flags, partitions_desc

from metroent import bounds, oracle, tuples, witness
from metroent.witness import Measurement

FIVE_DATAPOINTS = [
    # (label, n, kind, value, unit) -> (w, h, r, by_w, by_h, by_r, by_wh)
    (("ions-n14", 14, "fq", "40.4", "none"), (4, 9, -3, 16, 11, 20, 24)),
    (("ions-n8", 8, "fq", "39.6", "none"), (6, 2, 4, 16, 15, 17, 17)),
    (("atoms-n36", 36, "fq", "54.36", "none"), (2, 32, -27, 1, 7, 13, 18)),
    (("ions-n127", 127, "fq", "266.7", "none"), (3, 115, -102, 64, 67, 133, 236)),
    (("bec-n470", 470, "xi2", "-4.5", "db"), (4, 435, -399, 548, 596, 1191, 2941)),
]


def test_criterion_1_published_value_regression():
    start = time.monotonic()
    for (label, n, kind, value, unit), expected in FIVE_DATAPOINTS:
        m = Measurement(label=label, n=n, kind=kind, value=value, unit=unit)
        rep = witness.analyze(m)
        got = (
            rep.depth,
            rep.separability,
            rep.rank,
            rep.counts["by_w"],
            rep.counts["by_h"],
            rep.counts["by_r"],
            rep.counts["by_wh"],
        )
        assert got == expected, (label, got, expected)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"five-datapoint analysis took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 1 published-value regression (exact, {elapsed:.2f}s < 5s): PASS"
    )


def test_criterion_2_oracle_equivalence_sweep():
    start = time.monotonic()
    mismatches = oracle.verify_closed_forms(50)
    elapsed = time.monotonic() - start
    assert mismatches == []
    # the sweep ranges cover both two-full-row windows and the n + r = 4 corner
    swept = {(n, r) for n in range(1, 51) for r in bounds.valid_ranks(n)}
    assert all((n, 10 - n) in swept for n in range(8, 13))
    assert all((n, 16 - n) in swept for n in range(12, 19))
    assert all((n, 4 - n) in swept for n in range(4, 51) if abs(4 - n) != n - 2)
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 oracle equivalence n<=50 ({elapsed:.1f}s < 120s): PASS")


def test_criterion_3_saturation_and_dense_cross_check():
    for n in range(1, 41):
        for w, h in tuples.all_tuples(n):
            st = ghz.optimal_state(n, w, h)
            assert ghz.qfi_analytic(st) == bounds.max_qfi_wh(n, w, h)
    worst = 0.0
    for n in range(1, 13):
        for rows in partitions_desc(n):
            st = ghz.ghz_product(rows)
            err = abs(ghz.qfi_statevector(st, ghz.AXIS_Z) - ghz.qfi_analytic(st))
            worst = max(worst, err)
    assert worst <= 1e-9, f"dense-vs-analytic deviation {worst}"
    print(f"\nACCEPTANCE 3 saturation n<=40, dense check n<=12 (worst {worst:.1e} <= 1e-9): PASS")


def test_criterion_4_counting_formula_equivalence():
    for n in range(1, 61):
        ts = tuples.all_tuples(n)
        for w in range(1, n + 1):
            assert tuples.count_width_leq(n, w) == sum(1 for ww, _ in ts if ww <= w)
        for h in range(1, n + 1):
            assert tuples.count_height_geq(n, h) == sum(1 for _, hh in ts if hh >= h)
        for r in bounds.valid_ranks(n):
            enum = sum(1 for w, h in ts if w - h <= r)
            assert tuples.count_rank_leq(n, r) == enum
            if 3 - n <= r <= n - 3:
                assert tuples.count_rank_leq_closed(n, r) == enum
        assert tuples.count_rank_leq(n, 1 - n) == 1
    print("\nACCEPTANCE 4 counting formulas == enumeration, n<=60: PASS")


def _random_measurement(rng):
    n = rng.randint(2, 60)
    if rng.random() < 0.5:
        value = rng.randint(1, 10 * n * n)  # physical QFI in (0, n**2]
        return Measurement(label="r", n=n, kind="fq", value=f"{value / 10:.1f}")
    lo = 2 / (n + 2)  # the genuine n-partite squeezing floor
    value = lo + (1.0 - lo) * rng.random() + 1e-6
    return Measurement(label="r", n=n, kind="xi2", value=f"{value:.6f}", unit="linear")


def _strengthened(m):
    if m.kind == "fq":
        stronger = min(Fraction(m.value) + Fraction(m.n, 7), Fraction(m.n**2))
        return Measurement(label="s", n=m.n, kind="fq", value=str(float(stronger)))
    weaker_xi2 = Fraction(m.value) * Fraction(9, 10) + Fraction(1, 10**6)
    return Measurement(
        label="s", n=m.n, kind="xi2", value=f"{float(weaker_xi2):.6f}", unit="linear"
    )


def test_criterion_5_property_suites():
    rng = random.Random(20240917)
    cases = [_random_measurement(rng) for _ in range(1000)]
    for i, m in enumerate(cases):
        threshold = m.exclusion_threshold()
        grid = witness.build_grid(witness.analyze(m))
        flags = [cell_flags(c, threshold) for c in grid.cells]
        for c, (out_w, out_h, out_r, out_wh) in zip(grid.cells, flags):
            if out_w or out_h or out_r:
                assert out_wh, (m, c)
        r = witness.infer_rank(m)
        assert 1 <= r + m.n <= 2 * m.n - 1, (m, r)
        # strengthening the measurement never shrinks any excluded set
        if i % 5 == 0:
            stronger = _strengthened(m)
            g2 = witness.build_grid(witness.analyze(stronger))
            t2 = stronger.exclusion_threshold()
            for c1, c2, flags1 in zip(grid.cells, g2.cells, flags):
                assert all(b >= a for a, b in zip(flags1, cell_flags(c2, t2))), (m, c1, c2)
    for n in range(1, 201):
        assert bounds.max_qfi_wh(n, 1, n) == n
        assert bounds.max_qfi_wh(n, n, 1) == n * n
    print("\nACCEPTANCE 5 dominance/monotonicity on 1000 random cases, extremes n<=200: PASS")


def test_criterion_6_deterministic_reports(tmp_path):
    from metroent.cli import main

    outputs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        assert main(["analyze", "--dataset", "bundled.csv", "--out", str(out_dir)]) == 0
        run = {}
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                run[str(path.relative_to(out_dir))] = path.read_bytes()
        outputs.append(run)
    assert outputs[0].keys() == outputs[1].keys()
    assert len(outputs[0]) == 10  # five labels x (report.json, grid.csv)
    for key in outputs[0]:
        assert outputs[0][key] == outputs[1][key], key
    print("\nACCEPTANCE 6 byte-identical reports across runs: PASS")
