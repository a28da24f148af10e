"""Tests for the command-line interface and its file formats."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from support import rank_limit_simple, reference_csv_text, reference_grid_rows

from metroent import bounds, cli, oracle, tuples, witness
from metroent.cli import (
    bundled_dataset_text,
    grid_csv_text,
    load_dataset,
    main,
    parse_dataset_text,
)
from metroent.witness import Measurement


def test_bounds_wh_n2(capsys):
    assert main(["bounds", "--n", "2", "--class", "wh"]) == 0
    assert capsys.readouterr().out == "w,h,f\n1,2,2\n2,1,4\n"


def test_bounds_w_table(capsys):
    assert main(["bounds", "--n", "14", "--class", "w"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,f"
    assert "3,40" in lines
    assert lines[-1] == "14,196"


def test_bounds_h_table(capsys):
    assert main(["bounds", "--n", "14", "--class", "h"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "10,34" in lines and "1,196" in lines and "14,14" in lines


def test_bounds_r_table_with_special_cases(capsys):
    assert main(["bounds", "--n", "20", "--class", "r"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # 2*20 - 1 integers minus the two rank gaps, plus the header
    assert len(lines) == 1 + (2 * 20 - 1 - 2)
    assert "-10,44" in lines  # n + r = 10 two-full-row value
    assert "-4,80" in lines  # n + r = 16 two-full-row value
    assert lines[1] == "-19,20"
    assert lines[-1] == "19,400"


def test_bounds_r_simple_quarters(capsys):
    assert main(["bounds", "--n", "14", "--class", "r", "--simple"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "-3,44" in lines
    assert "-4,38.75" in lines
    assert "-10,18" in lines  # n + r = 4 corner overrides the quarter formula
    assert "-12,16.75" not in lines  # rank gap -(n - 2) emits no row


def _quarter_text(q):
    """Decimal text of a limit with denominator 1 or 4, through ``decimal``."""
    assert q.denominator in (1, 4)
    return str(Decimal(q.numerator) / q.denominator)


def _reference_bounds_table(n, cls, simple):
    """A ``bounds`` table written a row at a time from the checked closed forms."""
    if cls == "wh":
        f_wh = bounds.wh_limit_simple if simple else bounds.max_qfi_wh
        return "w,h,f\n" + "".join(f"{w},{h},{f_wh(n, w, h)}\n" for w, h in tuples.all_tuples(n))
    if cls == "w":
        f_w = bounds.max_qfi_width_simple if simple else bounds.max_qfi_width
        rows = [(w, f_w(n, w)) for w in range(1, n + 1)]
    elif cls == "h":
        rows = [(h, bounds.max_qfi_height(n, h)) for h in range(1, n + 1)]
    elif simple:
        rows = [(r, _quarter_text(rank_limit_simple(n, r))) for r in bounds.valid_ranks(n)]
    else:
        rows = [(r, bounds.max_qfi_rank(n, r)) for r in bounds.valid_ranks(n)]
    return "x,f\n" + "".join(f"{x},{f}\n" for x, f in rows)


@pytest.mark.parametrize("simple", [False, True], ids=["tight", "simple"])
@pytest.mark.parametrize("cls", ["wh", "w", "h", "r"])
def test_bounds_tables_match_a_per_row_reference(capsys, cls, simple):
    # every byte of every table, including the block and width boundaries
    for n in [*range(1, 41), 600 if cls == "wh" else 5000]:
        argv = ["bounds", "--n", str(n), "--class", cls] + ["--simple"] * simple
        assert main(argv) == 0
        assert capsys.readouterr().out == _reference_bounds_table(n, cls, simple), n


def test_bounds_rejects_bad_n(capsys):
    assert main(["bounds", "--n", "0", "--class", "w"]) == 2


def test_large_n_is_refused_before_any_work(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(tuples, "all_tuples", refuse)
    monkeypatch.setattr(tuples, "heights", refuse)
    monkeypatch.setattr(bounds, "wh_first_height_at_most", refuse)
    too_big = str(witness.MAX_N + 1)
    dataset = tmp_path / "big.csv"
    dataset.write_text(f"label,n,kind,value,unit,reference\nbig,{too_big},fq,5,none,\n")
    assert main(["analyze", "--n", too_big, "--fq", "5", "--out", str(tmp_path / "o")]) == 2
    assert main(["analyze", "--dataset", str(dataset)]) == 2
    assert main(["rank-summary", "--dataset", str(dataset)]) == 2
    assert main(["bounds", "--n", too_big, "--class", "w"]) == 2
    too_many_rows = str(cli.MAX_WH_TABLE_N + 1)
    assert main(["bounds", "--n", too_many_rows, "--class", "wh", "--simple"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: n must be <= 1000000, got 1000001"] * 4 + [
        "error: n must be <= 2000 for --class wh, got 2001: "
        "the table has one row per (w, h) tuple, about n**2 / 2 rows"
    ]
    assert not (tmp_path / "o").exists()
    # the caps themselves pass and reach the work
    with pytest.raises(AssertionError, match="work started"):
        main(["bounds", "--n", str(cli.MAX_WH_TABLE_N), "--class", "wh"])


def test_analyze_out_is_refused_above_the_table_cap(capsys, monkeypatch, tmp_path):
    # grid.csv has about n**2 / 2 rows, so --out takes n no larger than bounds --class wh
    def refuse(report):
        raise AssertionError(f"grid built for {report.measurement.label}")

    monkeypatch.setattr(witness, "build_grid", refuse)
    too_big = str(cli.MAX_WH_TABLE_N + 1)
    dataset = tmp_path / "big.csv"
    dataset.write_text(
        "label,n,kind,value,unit,reference\n"
        "small,5,fq,6,none,\n"
        f"big,{too_big},fq,5,none,\n"
    )
    out_dir = tmp_path / "out"
    assert main(["analyze", "--n", "1000000", "--fq", "5", "--out", str(out_dir)]) == 2
    assert main(["analyze", "--dataset", str(dataset), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "error: n must be <= 2000 for --out, got {}: "
    message += "grid.csv has one row per (w, h) tuple, about n**2 / 2 rows"
    assert captured.err.splitlines() == [message.format(1000000), message.format(too_big)]
    assert not out_dir.exists()
    # the cap itself passes and reaches the grid
    with pytest.raises(AssertionError, match="grid built for fq-n2000"):
        main(["analyze", "--n", str(cli.MAX_WH_TABLE_N), "--fq", "5", "--out", str(out_dir)])


def _run_dataset_commands(dataset, out_dir):
    return [
        main(["analyze", "--dataset", str(dataset), "--out", str(out_dir)]),
        main(["rank-summary", "--dataset", str(dataset)]),
    ]


def test_dataset_file_size_is_bounded(capsys, tmp_path):
    # valid records, their long references cut so that the file is the cap's size
    rows = [f"a{i},5,fq,6,none,{'x' * 100_000}\n" for i in range(11)]
    text = "label,n,kind,value,unit,reference\n" + "".join(rows)
    text = text[: cli.MAX_DATASET_BYTES - 1] + "\n"
    dataset = tmp_path / "big.csv"
    dataset.write_text(text + "\n")  # one byte over, still a valid dataset
    out_dir = tmp_path / "out"
    assert _run_dataset_commands(dataset, out_dir) == [2, 2]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: dataset file is larger than 1048576 bytes: {dataset}"
    ] * 2
    assert not out_dir.exists()
    # a file of exactly the cap is read
    dataset.write_text(text)
    assert main(["rank-summary", "--dataset", str(dataset)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 11


def test_dataset_record_count_is_bounded(capsys, tmp_path):
    header = "label,n,kind,value,unit,reference\n"
    rows = [f"r{i},5,fq,6,none,\n" for i in range(cli.MAX_DATASET_RECORDS + 1)]
    dataset = tmp_path / "many.csv"
    dataset.write_text(header + "".join(rows))
    out_dir = tmp_path / "out"
    assert _run_dataset_commands(dataset, out_dir) == [2, 2]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: dataset has more than 1000 records"] * 2
    assert not out_dir.exists()
    # exactly the cap is accepted
    dataset.write_text(header + "".join(rows[:-1]))
    assert main(["rank-summary", "--dataset", str(dataset)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + cli.MAX_DATASET_RECORDS


def test_dataset_db_values_are_bounded(capsys, monkeypatch, tmp_path):
    # each text below would convert to a linear value of millions of digits
    def refuse(text):
        raise AssertionError(f"converted {text}")

    monkeypatch.setattr(witness, "db_text_to_linear", refuse)
    rows = [f"d{i},5,xi2,-9.9{i:02d}e6,db,\n" for i in range(20)]
    dataset = tmp_path / "deep.csv"
    dataset.write_text("label,n,kind,value,unit,reference\n" + "".join(rows))
    out_dir = tmp_path / "out"
    assert _run_dataset_commands(dataset, out_dir) == [2, 2]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: bad decimal value '-9.900e6'"] * 2
    assert not out_dir.exists()


def test_dataset_total_n_is_bounded(capsys, monkeypatch, tmp_path):
    # every record passes MAX_N on its own; together they must too
    def refuse(m, **kwargs):
        raise AssertionError(f"analysed {m.label}")

    monkeypatch.setattr(witness, "analyze", refuse)
    monkeypatch.setattr(witness, "infer_rank", refuse)
    header = "label,n,kind,value,unit,reference\n"
    dataset = tmp_path / "heavy.csv"
    dataset.write_text(header + f"a,{witness.MAX_N},fq,5,none,\nb,1,fq,1,none,\n")
    out_dir = tmp_path / "out"
    assert _run_dataset_commands(dataset, out_dir) == [2, 2]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: dataset records' n must sum to <= 1000000, got 1000001"
    ] * 2
    assert not out_dir.exists()
    # exactly the budget is accepted and reaches the analysis
    dataset.write_text(header + f"a,{witness.MAX_N - 1},fq,5,none,\nb,1,fq,1,none,\n")
    assert [m.n for m in load_dataset(str(dataset))] == [witness.MAX_N - 1, 1]
    with pytest.raises(AssertionError, match="analysed a"):
        main(["analyze", "--dataset", str(dataset)])
    with pytest.raises(AssertionError, match="analysed a"):
        main(["rank-summary", "--dataset", str(dataset)])


def test_analyze_out_bounds_the_total_grid(capsys, monkeypatch, tmp_path):
    # 1200**2 + 1600**2 == 2000**2: the grids together get one largest grid's budget
    def refuse(m, **kwargs):
        raise AssertionError(f"analysed {m.label}")

    monkeypatch.setattr(witness, "analyze", refuse)
    header = "label,n,kind,value,unit,reference\n"
    dataset = tmp_path / "wide.csv"
    dataset.write_text(header + "a,1200,fq,5,none,\nb,1601,fq,5,none,\n")
    out_dir = tmp_path / "out"
    assert main(["analyze", "--dataset", str(dataset), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: n**2 must sum to <= 4000000 over the records for --out, "
        "got 4003201: each grid.csv has about n**2 / 2 rows\n"
    )
    assert not out_dir.exists()
    # exactly the budget is accepted, and without --out the sum is not checked
    dataset.write_text(header + "a,1200,fq,5,none,\nb,1600,fq,5,none,\n")
    with pytest.raises(AssertionError, match="analysed a"):
        main(["analyze", "--dataset", str(dataset), "--out", str(out_dir)])
    dataset.write_text(header + "a,1200,fq,5,none,\nb,1601,fq,5,none,\n")
    with pytest.raises(AssertionError, match="analysed a"):
        main(["analyze", "--dataset", str(dataset)])


class _CountingSink:
    """A stdout stand-in that keeps only the number of characters written."""

    size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "600", "--class", "wh"],
        ["--n", "600", "--class", "wh", "--simple"],
        ["--n", "100000", "--class", "w"],
        ["--n", "100000", "--class", "h"],
        ["--n", "100000", "--class", "r"],
    ],
    ids=["wh", "wh-simple", "w", "h", "r"],
)
def test_bounds_streams_its_rows(monkeypatch, argv):
    # rows go out a width or a block at a time: the peak stays flat while megabytes go out
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["bounds", *argv]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size >= 1_600_000
    assert peak < 1_000_000


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    # main reuses one parser, and each call prints what it prints in a fresh
    # process: parsing leaves the parser as it was, and help text reads the
    # terminal width when it is printed
    src = Path(cli.__file__).resolve().parents[1]
    calls = [
        ("80", ["analyze", "--n", "14", "--fq", "40.4"]),
        ("80", ["bounds", "--n", "6", "--class", "r", "--simple"]),
        ("80", ["analyze", "--n", "five", "--fq", "6"]),
        ("80", ["--help"]),
        ("80", ["analyze", "--help"]),
        ("120", ["analyze", "--help"]),
        ("120", ["--help"]),
        ("80", ["analyze", "--n", "14", "--fq", "40.4", "--simple"]),
    ]
    parser = cli._build_parser()
    results = []
    for columns, argv in calls:
        monkeypatch.setenv("COLUMNS", columns)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "metroent.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert cli._build_parser() is parser
        results.append((code, out, err))
    assert [code for code, _, _ in results] == [0, 0, 2, 0, 0, 0, 0, 0]
    assert results[4] != results[5]  # the usage line is wrapped to each width


def test_analyze_single_measurement(capsys):
    assert main(["analyze", "--n", "14", "--fq", "40.4"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == [
        "label", "n", "kind", "value", "w", "h", "r",
        "by_w", "by_h", "by_r", "by_wh", "h_excl",
    ]
    assert lines[1].split() == [
        "fq-n14", "14", "fq", "40.4", "4", "9", "-3", "16", "11", "20", "24", "10",
    ]


def test_analyze_xi2_db(capsys):
    assert main(["analyze", "--n", "470", "--xi2-db", "-4.5"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row == [
        "xi2-n470", "470", "xi2", "-4.5", "dB", "4", "435", "-399",
        "548", "596", "1191", "2941", "436",
    ]


def test_grid_is_built_only_under_out(capsys, monkeypatch, tmp_path):
    build_grid = witness.build_grid

    def no_grid(report):
        raise AssertionError(f"grid built for {report.measurement.label}")

    monkeypatch.setattr(witness, "build_grid", no_grid)
    assert main(["analyze", "--n", "470", "--xi2-db", "-4.5"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[5:12] == ["4", "435", "-399", "548", "596", "1191", "2941"]

    # --out builds each record's grid once, for its grid.csv
    built = []

    def counting(report):
        built.append(report.measurement.label)
        return build_grid(report)

    monkeypatch.setattr(witness, "build_grid", counting)
    assert main(["analyze", "--dataset", "bundled.csv", "--out", str(tmp_path)]) == 0
    assert built == ["ions-n8", "ions-n14", "atoms-n36", "ions-n127", "bec-n470"]


def test_analyze_input_errors(capsys, tmp_path):
    assert main(["analyze", "--n", "14"]) == 2
    assert main(["analyze", "--fq", "40.4"]) == 2
    assert main(["analyze", "--n", "14", "--fq", "40.4", "--xi2", "0.5"]) == 2
    assert main(["analyze", "--dataset", "no-such-file.csv"]) == 2
    assert main(["analyze", "--dataset", "x.csv", "--fq", "1"]) == 2
    assert main(["analyze", "--n", "14", "--fq", "abc"]) == 2
    # decimal text is bounded when parsed, before anything is written
    capsys.readouterr()
    assert main(["analyze", "--n", "5", "--fq", "1e5000", "--out", str(tmp_path / "o")]) == 2
    assert list(tmp_path.iterdir()) == []
    assert main(["analyze", "--n", "5", "--fq", "1e-5000"]) == 2
    assert main(["analyze", "--n", "5", "--xi2-db", "1e5000"]) == 2
    assert capsys.readouterr().err.count("bad decimal value") == 3


def test_analyze_bundled_dataset(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    assert main(["analyze", "--dataset", "bundled.csv", "--out", str(out_dir)]) == 0
    table = capsys.readouterr().out
    assert "ions-n14" in table and "bec-n470" in table
    for label in ("ions-n8", "ions-n14", "atoms-n36", "ions-n127", "bec-n470"):
        assert (out_dir / label / "report.json").is_file()
        assert (out_dir / label / "grid.csv").is_file()
    report = json.loads((out_dir / "ions-n14" / "report.json").read_text())
    assert report["inferred"] == {"w": 4, "h": 9, "r": -3}
    assert report["counts"] == {"by_w": 16, "by_h": 11, "by_r": 20, "by_wh": 24}
    assert report["q_advantage"] == "26.4"
    grid_lines = (out_dir / "ions-n14" / "grid.csv").read_text().splitlines()
    assert grid_lines[0] == "w,h,f_wh,status"
    assert grid_lines[1] == "1,14,14,WHR"
    assert len(grid_lines) == 1 + 68


@pytest.mark.parametrize("simple", [[], ["--simple"]])
def test_grid_csv_is_written_without_cells(monkeypatch, tmp_path, simple):
    # grid.csv is written from the grid's runs: with its cells and length
    # refusing to be read, analyze --out writes the same bytes
    argv = ["analyze", "--dataset", "bundled.csv", *simple, "--out"]
    assert main([*argv, str(tmp_path / "a")]) == 0

    def refuse(self):
        raise AssertionError("grid cells read")

    monkeypatch.setattr(witness.TupleGrid, "cells", property(refuse))
    monkeypatch.setattr(witness.TupleGrid, "__len__", refuse)
    assert main([*argv, str(tmp_path / "b")]) == 0
    files = [p for p in sorted((tmp_path / "a").rglob("*")) if p.is_file()]
    assert len(files) == 2 * 5
    for path in files:
        assert (tmp_path / "b" / path.relative_to(tmp_path / "a")).read_bytes() == path.read_bytes()


def test_write_report_peak_stays_near_the_grid_size(tmp_path):
    # the text is joined from one string per width: no cell tuples, no list of
    # lines, so the peak is the text and its encoded bytes
    for value in ("40000", "90000.5"):
        report = witness.analyze(Measurement(label=f"v{value}", n=600, kind="fq", value=value))
        tracemalloc.start()
        try:
            target = cli.write_report(report, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (target / "grid.csv").stat().st_size, value


def test_analyze_reports_are_deterministic(tmp_path):
    dirs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["analyze", "--dataset", "bundled.csv", "--out", str(out_dir)]) == 0
        dirs.append(out_dir)
    for label in ("ions-n8", "ions-n14", "atoms-n36", "ions-n127", "bec-n470"):
        for filename in ("report.json", "grid.csv"):
            a = (dirs[0] / label / filename).read_bytes()
            b = (dirs[1] / label / filename).read_bytes()
            assert a == b, (label, filename)


def test_grid_csv_statuses_cover_convention():
    report = witness.analyze(Measurement(label="m", n=14, kind="fq", value="40.4"))
    text = grid_csv_text(witness.build_grid(report))
    statuses = {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]}
    assert "OK" in statuses and "WH" in statuses and "WHR" in statuses
    assert statuses <= {"OK", "WH", "W", "H", "R", "WR", "HR", "WHR"}


def _on_limit_values():
    # every (w, h) limit +-1 for small n, and a seeded sample of larger ones
    rng = random.Random(1729)
    pairs = [(n, w, h) for n in range(1, 9) for w, h in tuples.all_tuples(n)]
    for _ in range(12):
        n = rng.randint(9, 80)
        pairs.append((n, *rng.choice(tuples.all_tuples(n))))
    for n, w, h in pairs:
        for f_wh in (bounds.max_qfi_wh, bounds.wh_limit_simple):
            limit = f_wh(n, w, h)
            for value in {limit - 1, limit, limit + 1} - {0}:
                yield Measurement(label="lim", n=n, kind="fq", value=str(value))


def test_grid_csv_matches_the_reference():
    ms = load_dataset("bundled.csv") + [
        Measurement(label="db", n=10, kind="xi2", value="-21.35", unit="db"),
        Measurement(label="above", n=4, kind="fq", value="17"),
        Measurement(label="n1", n=1, kind="fq", value="1"),
        Measurement(label="n2", n=2, kind="fq", value="3"),
        Measurement(label="n3", n=3, kind="xi2", value="0.5", unit="linear"),
    ]
    ms += _on_limit_values()
    for m in ms:
        for simple in (False, True):
            text = grid_csv_text(witness.build_grid(witness.analyze(m, simple=simple)))
            assert text == reference_csv_text(reference_grid_rows(m, simple)), (m, simple)


def test_percent_signs_in_records_reach_no_format_string(capsys, tmp_path):
    # grid.csv rows are made by % formatting; labels and references are user
    # text, and only ints and the fixed statuses may go into a format string
    dataset = tmp_path / "percent.csv"
    dataset.write_text(
        "label,n,kind,value,unit,reference\n"
        "p%s%d,14,fq,40.4,none,ref %s%d\n"
        "%d%%,36,xi2,-5.5,db,50% of %(x)s\n"
        "q%,8,xi2,0.5,linear,%\n"
    )
    records = load_dataset(str(dataset))
    for simple in (False, True):
        out_dir = tmp_path / f"out-{simple}"
        argv = ["analyze", "--dataset", str(dataset), "--out", str(out_dir)]
        assert main(argv + ["--simple"] * simple) == 0
        assert "p%s%d" in capsys.readouterr().out
        for m in records:
            text = (out_dir / m.label / "grid.csv").read_text()
            assert text == reference_csv_text(reference_grid_rows(m, simple)), (m, simple)
            grid = witness.build_grid(witness.analyze(m, simple=simple))
            statuses = {status for _, runs in grid.runs for *_, status in runs}
            assert statuses <= {"OK", "WH", "W", "H", "R", "WR", "HR", "WHR"}


def test_dataset_round_trip(tmp_path):
    records = load_dataset("bundled.csv")
    assert len(records) == 5
    path = tmp_path / "copy.csv"
    path.write_text(bundled_dataset_text())
    assert load_dataset(str(path)) == records


def test_dataset_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_dataset_text("label,n\nx,1\n")
    dup = (
        "label,n,kind,value,unit,reference\n"
        "a,5,fq,6,none,\n"
        "a,6,fq,7,none,\n"
    )
    with pytest.raises(ValueError):
        parse_dataset_text(dup)
    with pytest.raises(ValueError):
        parse_dataset_text("label,n,kind,value,unit,reference\na,x,fq,6,none,\n")
    with pytest.raises(ValueError):
        parse_dataset_text("label,n,kind,value,unit,reference\na,5,fq\n")


def test_dataset_csv_error_exits_2(capsys, tmp_path):
    # a field over the csv module's size limit is bad input, not a crash
    dataset = tmp_path / "huge.csv"
    dataset.write_text("label,n,kind,value,unit,reference\na,5,fq,6,none," + "x" * 200_000 + "\n")
    out_dir = tmp_path / "out"
    assert main(["analyze", "--dataset", str(dataset), "--out", str(out_dir)]) == 2
    assert main(["rank-summary", "--dataset", str(dataset)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: bad dataset: field larger than field limit (131072)"
    ] * 2
    assert not out_dir.exists()


@pytest.mark.parametrize("label", ["", ".", "..", "../escaped", "a/b", "/abs", "a\\b", "a\0b"])
def test_analyze_rejects_unsafe_labels(capsys, tmp_path, label):
    # a label names a directory under --out, so it must not leave it
    dataset = tmp_path / "in.csv"
    dataset.write_text(
        "label,n,kind,value,unit,reference\n"
        "safe,5,fq,6,none,\n"
        f"{label},5,fq,6,none,\n"
    )
    out_dir = tmp_path / "work" / "out"
    before = sorted(tmp_path.rglob("*"))
    assert main(["analyze", "--dataset", str(dataset), "--out", str(out_dir)]) == 2
    assert "bad label" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_rank_summary_bundled(capsys):
    assert main(["rank-summary", "--dataset", "bundled.csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label,n,r,r_plus_n"
    assert "ions-n14,14,-3,11" in lines
    assert "bec-n470,470,-399,71" in lines


def test_rank_summary_synthetic_extremes(capsys, tmp_path):
    path = tmp_path / "synthetic.csv"
    path.write_text(
        "label,n,kind,value,unit,reference\n"
        "separable,10,fq,10,none,\n"
        "genuine,10,fq,100,none,\n"
    )
    assert main(["rank-summary", "--dataset", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "separable,10,-9,1" in lines
    assert "genuine,10,9,19" in lines


def test_verify_ok(capsys):
    assert main(["verify", "--nmax", "2"]) == 0
    assert main(["verify", "--nmax", "8"]) == 0
    assert capsys.readouterr().out == ""


def test_verify_rejects_nmax_below_two():
    assert main(["verify", "--nmax", "1"]) == 2


def test_verify_rejects_nmax_above_the_cap(capsys, monkeypatch):
    calls = []

    def refuse(n):
        calls.append(n)
        raise AssertionError("enumeration started")

    oracle._shape_maxima.cache_clear()
    monkeypatch.setattr(oracle, "iter_partition_rows", refuse)
    try:
        assert main(["verify", "--nmax", "61"]) == 2
    finally:
        oracle._shape_maxima.cache_clear()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: n_max must be <= 60, got 61: "
        "the exhaustive sweep enumerates all p(n) partitions of each n\n"
    )
    assert calls == []


def test_verify_detects_corrupted_bound(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "max_qfi_height", lambda n, h: 1)
    assert main(["verify", "--nmax", "5"]) == 1
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines
    entry = json.loads(out_lines[0])
    assert set(entry) == {"brute", "class", "closed", "n"}


def test_bundled_alias_requires_known_name():
    with pytest.raises(ValueError):
        load_dataset("unknown-alias")


def test_cli_import_leaves_numpy_out():
    # numpy serves only the dense cross-check in tests/ghz.py: with it made
    # unimportable, every module of the package still imports
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['numpy'] = None\n"
        "import metroent\n"
        "names = [m.name for m in pkgutil.iter_modules(metroent.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('metroent.' + name)\n"
        "print(' '.join(sorted(names)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "bounds cli oracle partitions squeezing tuples witness\n"
