"""Tests for the command-line interface and its file formats."""

import ast
import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from support import (
    main_escapes,
    plain_reader_argvs,
    plain_reader_disagreements,
    rank_limit,
    reference_csv_text,
    reference_grid_rows,
    wh_limit,
)

from metroent import bounds, cli, oracle, tuples, witness
from metroent.cli import (
    grid_csv_text,
    load_dataset,
    main,
    parse_dataset_text,
)
from metroent.witness import Measurement


def test_bounds_wh_n2(capsys):
    assert main(["bounds", "--n", "2", "--class", "wh"]) == 0
    assert capsys.readouterr().out == "w,h,f\n1,2,2\n2,1,4\n"


@pytest.mark.parametrize("simple", [False, True], ids=["tight", "simple"])
def test_grid_csv_is_the_wh_table_plus_a_status_column(capsys, simple):
    # the two (w, h) tables share one row writer: grid.csv without its status
    # column is the body of bounds --class wh, for one measurement per n
    rng = random.Random(30)
    for n in range(1, 41):
        m = Measurement(label="m", n=n, kind="fq", value=str(rng.randint(1, n * n + 1)))
        grid_text = grid_csv_text(witness.build_grid(witness.analyze(m, simple=simple)))
        assert main(["bounds", "--n", str(n), "--class", "wh", *["--simple"] * simple]) == 0
        table = capsys.readouterr().out.splitlines()
        grid_rows = grid_text.splitlines()
        assert table[0] == "w,h,f" and grid_rows[0] == "w,h,f_wh,status"
        assert [row.rsplit(",", 1)[0] for row in grid_rows[1:]] == table[1:], n


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
        rows = "".join(f"{w},{h},{wh_limit(n, w, h, simple)}\n" for w, h in tuples.all_tuples(n))
        return "w,h,f\n" + rows
    if cls == "w":
        rows = [(w, bounds.max_qfi_width(n, w, simple)) for w in range(1, n + 1)]
    elif cls == "h":
        rows = [(h, bounds.max_qfi_height(n, h)) for h in range(1, n + 1)]
    else:
        rows = [(r, _quarter_text(rank_limit(n, r, simple))) for r in bounds.valid_ranks(n)]
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
    monkeypatch.setattr(bounds, "heights", refuse)
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
        "error: n**2 must sum to <= 4000000 over the records, got 4004001"
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
    message = "error: n**2 must sum to <= 4000000 over the records, got {}"
    assert captured.err.splitlines() == [message.format(10**12), message.format(25 + 2001**2)]
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
    # every record passes MAX_N on its own; for analyze, together they must
    # too, while rank-summary, one bisection per record, takes them
    def refuse(m, **kwargs):
        raise AssertionError(f"analysed {m.label}")

    monkeypatch.setattr(witness, "analyze", refuse)
    monkeypatch.setattr(witness, "infer_rank", refuse)
    header = "label,n,kind,value,unit,reference\n"
    dataset = tmp_path / "heavy.csv"
    dataset.write_text(header + f"a,{witness.MAX_N},fq,5,none,\nb,1,fq,1,none,\n")
    out_dir = tmp_path / "out"
    assert main(["analyze", "--dataset", str(dataset), "--out", str(out_dir)]) == 2
    assert main(["analyze", "--dataset", str(dataset)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: n must sum to <= 1000000 over the records, got 1000001"
    ] * 2
    assert not out_dir.exists()
    with pytest.raises(AssertionError, match="analysed a"):
        main(["rank-summary", "--dataset", str(dataset)])
    # exactly the budget is accepted and reaches the analysis
    dataset.write_text(header + f"a,{witness.MAX_N - 1},fq,5,none,\nb,1,fq,1,none,\n")
    assert [m.n for m in load_dataset(str(dataset))] == [witness.MAX_N - 1, 1]
    with pytest.raises(AssertionError, match="analysed a"):
        main(["analyze", "--dataset", str(dataset)])
    with pytest.raises(AssertionError, match="analysed a"):
        main(["rank-summary", "--dataset", str(dataset)])


def test_rank_summary_answers_records_past_the_sum_of_n(capsys, tmp_path):
    # two n = 600 000 records sum past MAX_N, and each gets the r it gets alone
    rows = ["a,600000,fq,123456789,none,\n", "b,600000,xi2,0.5,linear,\n"]
    header = "label,n,kind,value,unit,reference\n"
    alone = []
    for i, row in enumerate(rows):
        (tmp_path / f"{i}.csv").write_text(header + row)
        assert main(["rank-summary", "--dataset", str(tmp_path / f"{i}.csv")]) == 0
        alone.append(capsys.readouterr().out.splitlines()[1])
    (tmp_path / "both.csv").write_text(header + "".join(rows))
    assert main(["rank-summary", "--dataset", str(tmp_path / "both.csv")]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["label,n,r,r_plus_n", *alone]
    assert captured.err == ""


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
    assert captured.err == "error: n**2 must sum to <= 4000000 over the records, got 4003201\n"
    assert not out_dir.exists()
    # exactly the budget is accepted, and without --out the sum is not checked
    dataset.write_text(header + "a,1200,fq,5,none,\nb,1600,fq,5,none,\n")
    with pytest.raises(AssertionError, match="analysed a"):
        main(["analyze", "--dataset", str(dataset), "--out", str(out_dir)])
    dataset.write_text(header + "a,1200,fq,5,none,\nb,1601,fq,5,none,\n")
    with pytest.raises(AssertionError, match="analysed a"):
        main(["analyze", "--dataset", str(dataset)])


class _WorkReached(Exception):
    """Raised by the stand-ins for the work a command does once its cost is accepted."""


def _reach_work(*args, **kwargs):
    raise _WorkReached


def _old_rules_refuse(ns, *, tables):
    """The four cost checks the commands made before the one cost rule, as they were.

    ``tables`` is true for the per-tuple outputs, ``bounds --class wh`` (one
    n) and ``analyze --out``.  The n of a ``bounds`` command is at most
    ``witness.MAX_N``, so the dataset rule never refuses it.
    """
    cap = cli.MAX_WH_TABLE_N
    dataset_sum = sum(ns) > witness.MAX_N  # parse_dataset_text
    wh_table = tables and len(ns) == 1 and ns[0] > cap  # bounds --class wh
    out_each = tables and any(n > cap for n in ns)  # analyze --out, each record
    out_sum = tables and sum(n * n for n in ns) > cap**2  # analyze --out, all records
    return dataset_sum or wh_table or out_each or out_sum


@st.composite
def _record_ns(draw):
    """1 to 4 particle counts, biased to the edges of the cost caps."""
    cap = cli.MAX_WH_TABLE_N
    edges = st.sampled_from([1, cap - 1, cap, cap + 1, witness.MAX_N // 2, witness.MAX_N])
    ns = draw(st.lists(edges | st.integers(1, witness.MAX_N), min_size=1, max_size=4))
    rest = ns[:-1]
    aim = draw(st.sampled_from(["none", "n", "n**2"]))
    if aim == "n":
        # the last count takes the sum to the cap, or one past it
        last = witness.MAX_N + draw(st.integers(0, 1)) - sum(rest)
    elif aim == "n**2":
        # the last count takes the sum of squares to cap**2 or cap**2 + 1, or straddles it
        target = cap * cap + draw(st.integers(0, 1)) - sum(n * n for n in rest)
        last = math.isqrt(max(target, 0)) + draw(st.integers(0, 1))
    if aim != "none" and 1 <= last <= witness.MAX_N:
        ns[-1] = last
    return ns


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ns=_record_ns())
@example(ns=[witness.MAX_N])
@example(ns=[witness.MAX_N, 1])
@example(ns=[witness.MAX_N - 1, 1])
@example(ns=[1200, 1600])
@example(ns=[1200, 1601])
@example(ns=[2000, 1])
@example(ns=[2000])
@example(ns=[2001])
def test_cost_rule_refuses_what_the_old_rules_refused(monkeypatch, ns):
    # each command is refused, exit 2 and nothing out, exactly when the old
    # rules refused it; otherwise it reaches the work, which the stand-ins stop.
    # rank-summary, no longer held to the sum of n, always reaches it
    monkeypatch.setattr(witness, "analyze", _reach_work)
    monkeypatch.setattr(witness, "infer_rank", _reach_work)
    monkeypatch.setattr(bounds, "heights", _reach_work)
    rows = "".join(f"r{i},{n},fq,1,none,\n" for i, n in enumerate(ns))
    with tempfile.TemporaryDirectory() as work:
        dataset, out_dir = Path(work) / "records.csv", Path(work) / "out"
        dataset.write_text("label,n,kind,value,unit,reference\n" + rows)
        commands = [
            (["analyze", "--dataset", str(dataset)], ns, False),
            (["analyze", "--dataset", str(dataset), "--out", str(out_dir)], ns, True),
            (["rank-summary", "--dataset", str(dataset)], [], False),
            *((["bounds", "--n", str(n), "--class", "wh"], [n], True) for n in ns),
        ]
        for argv, cost_ns, tables in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if _old_rules_refuse(cost_ns, tables=tables):
                    assert main(argv) == 2, argv
                else:
                    with pytest.raises(_WorkReached):
                        main(argv)
                    continue
            assert stdout.getvalue() == ""
            assert stderr.getvalue().startswith("error: ")
            assert not out_dir.exists()


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
        ["--n", "100000", "--class", "w", "--simple"],
        ["--n", "100000", "--class", "r", "--simple"],
    ],
    ids=["wh", "wh-simple", "w", "h", "r", "w-simple", "r-simple"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--n=1_0", "--fq=20"],
        ["analyze", "--n= 10", "--fq=20"],
        ["bounds", "--n=\u0663", "--class", "w"],
        ["verify", "--nmax=1_2"],
    ],
    ids=["underscore", "space", "arabic-indic-digit", "nmax-underscore"],
)
def test_integer_options_refuse_what_dataset_n_refuses(capsys, argv):
    # int() takes digit-group underscores, surrounding space and non-ASCII
    # digits; the options follow witness.is_plain_text, as dataset n does
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    option, text = argv[1].split("=", 1)
    assert (exc.value.code, out) == (2, "")
    assert err.startswith(f"usage: metroent {argv[0]} ")
    assert err.endswith(f"error: argument {option}: invalid int value: {text!r}\n")


def test_each_call_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    # a process that calls main many times prints, at each call, what that
    # call prints in a fresh process, help text wrapped to the terminal width
    # of the moment
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
        ("80", []),
        ("80", ["bogus"]),
        ("80", ["verify", "--nmax", "12", "x"]),
        # verify imports oracle inside its command, here with cli run as __main__
        ("80", ["verify", "--nmax", "8"]),
    ]
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
        results.append((code, out, err))
    assert [code for code, _, _ in results] == [0, 0, 2, 0, 0, 0, 0, 0, 2, 2, 2, 0]
    assert results[4] != results[5]  # the usage line is wrapped to each width


def _exit_code(call) -> int:
    try:
        return call()
    except SystemExit as exc:
        return exc.code


# argvs whose parse is easy to get wrong: no command or not first, help
# anywhere, abbreviations, "--", extras, repeats, missing values, bad and
# negative numbers, and values that only argparse's rules read: "-1e3" and
# "-5." are flags to it, and its negative numbers take non-ASCII digits
_ODD_ARGVS = [
    [], ["-h"], ["--help"], ["--he"], ["bogus"], ["Analyze"], ["-x"], ["--help=x"],
    ["--", "analyze", "--n", "14", "--fq", "40.4"], ["--n", "5", "analyze"],
    ["analyze"], ["bounds"], ["bounds", "-h"], ["rank-summary", "--help"],
    ["analyze", "--n", "14", "--fq", "40.4", "-h"], ["analyze", "--n", "14", "--help=x"],
    ["verify", "--nm", "6"], ["analyze", "--d", "bundled.csv"],
    ["analyze", "--n", "14", "--x", "0.5"],
    ["analyze", "--", "--n", "14"], ["analyze", "--n", "14", "--fq", "40.4", "--"],
    ["verify", "--nmax", "6", "--", "x"], ["verify", "--", "--nmax", "6"],
    ["verify", "--nmax", "6", "x"], ["analyze", "--n", "14", "--fq", "40.4", "extra", "more"],
    ["analyze", "--bogus"], ["bounds", "--n", "6", "--class", "w", "--zz=1"], ["verify", "-q"],
    ["analyze", "--n", "14", "--n", "15", "--fq", "40.4"],
    ["bounds", "--n", "6", "--class", "w", "--class", "h"],
    ["analyze", "--n"], ["verify", "--nmax"], ["bounds", "--n", "6", "--class"],
    ["analyze", "--n", "14", "--fq"],
    ["analyze", "--n", "five", "--fq", "6"], ["verify", "--nmax", "1_2"],
    ["bounds", "--n", "-3", "--class", "w"], ["analyze", "--n=-3", "--fq", "5"],
    ["verify", "--nmax", "-6"],
    ["analyze", "--n", "14", "--xi2-db", "-4.5"], ["analyze", "--n", "14", "--xi2-db=-4.5"],
    ["analyze", "--n", "14", "--fq", "-5"], ["bounds", "--n", "6", "--class", "q"],
    ["analyze", "--n", "14", "--fq", "40.4", "--simple"],
    ["bounds", "--n", "6", "--class", "r", "--simple"],
    ["rank-summary", "--dataset", "bundled.csv"], ["verify", "--nmax", "6"],
    ["analyze", "--dataset", "bundled.csv", "--n", "3"],
    ["analyze", "--n", "14", "--fq", "-1e3"], ["analyze", "--n", "14", "--fq=-1e3"],
    ["analyze", "--n", "14", "--fq", "-5."], ["analyze", "--n", "14", "--xi2-db", "-\u0663"],
    ["analyze", "--n", "14", "--fq", "-.5"], ["verify", "--nmax=6", "--nmax", "7"],
    ["analyze", "--n=14", "--fq="], ["analyze", "--n", "14", "--fq", "40.4", "--simple=1"],
]


def test_main_parses_as_the_top_parser_did(capsys, monkeypatch, tmp_path):
    # main reads a plainly formed argv from cli._COMMANDS, else gives it to
    # the top parser's parse_args; that parse_args on every argv, the old
    # route, must give the same exit code, stdout and stderr, and the same
    # namespace but for its command entry.  argparse parses exactly the argvs
    # that the plain reader declines
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    parsed, built, plain = [], [], []

    def spy(func):
        def run(args):
            parsed.append(vars(args).copy())
            return func(args)
        return run

    # both routes read the spied table: _read_plain at each call, and
    # _build_parser at each build
    monkeypatch.setattr(cli, "_COMMANDS", {
        command: (help_text, spy(func), options)
        for command, (help_text, func, options) in cli._COMMANDS.items()})
    build = cli._build_parser
    parse_args = build().parse_args
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(True) or build())

    def old_route(argv):
        args = parse_args(argv)
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    for argv in _ODD_ARGVS:
        parsed.clear()
        built.clear()
        new = (_exit_code(lambda: main(argv)), *capsys.readouterr())
        read = cli._read_plain(argv) is not None
        if read:
            plain.append(argv)
        assert len(built) == (not read), argv
        old = (_exit_code(lambda: old_route(argv)), *capsys.readouterr())
        assert new == old, argv
        if parsed:
            for namespace in parsed:
                namespace.pop("command", None)
            assert len(parsed) == 2 and parsed[0] == parsed[1], argv
    assert len(plain) == 18
    assert ["analyze", "--n", "14", "--xi2-db", "-4.5"] in plain


# each value option given as --flag=--, which argparse before Python 3.13 reads
# as [] and 3.13 as the text "--"
_DOUBLE_DASH_ARGVS = [
    ["analyze", "--n", "14", "--fq=--"], ["analyze", "--n", "14", "--xi2-db=--"],
    ["analyze", "--dataset=--"], ["analyze", "--n", "14", "--fq", "40.4", "--out=--"],
    ["bounds", "--n=--", "--class", "w"], ["bounds", "--n", "4", "--class=--"],
    ["verify", "--nmax=--"], ["rank-summary", "--dataset=--"],
]


@pytest.mark.parametrize("argv", _DOUBLE_DASH_ARGVS, ids=" ".join)
def test_no_option_takes_the_value_double_dash(capsys, monkeypatch, tmp_path, argv):
    # a usage error, exit 2, on every Python, before any command work: not a
    # traceback, not the --class h table, not a directory named "--"
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: metroent") and ": error: " in err.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


def test_main_ends_every_declined_argv_in_an_exit_code(tmp_path):
    # every argv of a seeded sample that the plain reader declines runs
    # through main in tmp_path, and only an exit code leaves it; CI runs
    # 5000 argvs per command on each Python it tests
    declined, escapes = main_escapes(2012, 500, tmp_path)
    assert escapes == []
    assert declined > 1000
    assert any(word.endswith("=--") for argv in plain_reader_argvs(2012, 500) for word in argv)


def test_plain_reader_reads_as_argparse_does():
    # on 20 000 seeded argvs per command the plain reader either declines,
    # leaving the argv to argparse, or gives the namespace argparse gives it;
    # CI runs this on every Python it tests, whose argparse rules it follows
    read, declined, disagreements = plain_reader_disagreements(2012, 20000)
    assert disagreements == []
    assert read > 15000 and declined > 15000


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    # the console script calls main() with no argument
    for argv in (["analyze", "--n", "14", "--fq", "40.4"], ["verify", "--nmax", "6", "x"], []):
        expected = (_exit_code(lambda: main(argv)), *capsys.readouterr())
        monkeypatch.setattr(sys, "argv", ["metroent", *argv])
        assert (_exit_code(main), *capsys.readouterr()) == expected, argv


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


@pytest.mark.parametrize("value", ["4_0", " 40", "40 ", " 40 ", "٤٠", "40\u2009"])
def test_analyze_refuses_loose_decimal_text(capsys, value):
    # Decimal reads each as 40; the text would be echoed into the table
    for flag in ("--fq", "--xi2", "--xi2-db"):
        assert main(["analyze", "--n", "14", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad decimal value {value!r}\n"


@pytest.mark.parametrize("n_text", ["1_4", " 14", "14 ", " 1_4 ", "١٤", "14\u00a0"])
def test_dataset_refuses_loose_particle_counts(capsys, tmp_path, n_text):
    # int() reads each as 14
    dataset = tmp_path / "in.csv"
    dataset.write_text(f"label,n,kind,value,unit,reference\na,{n_text},fq,40.4,none,\n",
                       encoding="utf-8")
    assert main(["analyze", "--dataset", str(dataset)]) == 2
    assert main(["rank-summary", "--dataset", str(dataset)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad particle count {n_text!r} for 'a'\n" * 2
    dataset.write_text(f"label,n,kind,value,unit,reference\na,14,fq,{n_text}.4,none,\n",
                       encoding="utf-8")
    assert main(["analyze", "--dataset", str(dataset)]) == 2
    assert capsys.readouterr().err == f"error: bad decimal value {n_text + '.4'!r}\n"


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


def test_write_report_peak_stays_below_a_quarter_of_the_grid(tmp_path):
    # grid.csv is written a width at a time: the peak is one width's rows, the
    # write buffer and the O(n) runs, not the grid's text (about 2.9 MB here)
    for value in ("40000", "90000.5"):
        report = witness.analyze(Measurement(label=f"v{value}", n=600, kind="fq", value=value))
        tracemalloc.start()
        try:
            target = cli.write_report(report, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (target / "grid.csv").stat().st_size / 4, value


@pytest.mark.parametrize("simple", [False, True], ids=["tight", "simple"])
def test_written_grid_csv_is_the_grid_csv_text(tmp_path, simple):
    # write_report streams the chunks grid_csv_text joins: the two must not drift
    ms = load_dataset("bundled.csv")
    for n in range(1, 41):
        values = {1, n, n * (n + 3) // 4, n * n - 1, n * n + 1} - {0}
        ms += [Measurement(label=f"fq{n}-{v}", n=n, kind="fq", value=str(v)) for v in values]
        ms.append(Measurement(label=f"db{n}", n=n, kind="xi2", value="-4.5", unit="db"))
    for m in ms:
        report = witness.analyze(m, simple=simple)
        target = cli.write_report(report, tmp_path)
        text = grid_csv_text(witness.build_grid(report))
        assert (target / "grid.csv").read_bytes() == text.encode("ascii"), (m, simple)


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
        for simple in (False, True):
            limit = wh_limit(n, w, h, simple)
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
    path.write_bytes(resources.files("metroent").joinpath("data/published.csv").read_bytes())
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


def test_analyze_dataset_with_no_records_prints_the_header_alone(capsys, tmp_path):
    dataset = tmp_path / "empty.csv"
    dataset.write_text("label,n,kind,value,unit,reference\n")
    assert main(["analyze", "--dataset", str(dataset)]) == 0
    assert capsys.readouterr().out == "label  n  kind  value  w  h  r  by_w  by_h  by_r  by_wh  h_excl\n"
    out = tmp_path / "out"
    assert main(["analyze", "--dataset", str(dataset), "--out", str(out)]) == 0
    assert not out.exists()


def test_dataset_row_with_extra_fields_exits_2(capsys, tmp_path):
    # an unquoted comma splits a field: refused, not analysed with the rest dropped
    dataset = tmp_path / "unquoted.csv"
    dataset.write_text(
        "label,n,kind,value,unit,reference\nions-n8,8,fq,39.6,none,Monz et al., PRL 106\n"
    )
    out_dir = tmp_path / "out"
    assert main(["analyze", "--dataset", str(dataset), "--out", str(out_dir)]) == 2
    assert main(["rank-summary", "--dataset", str(dataset)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: dataset row 'ions-n8' has 7 fields, not 6; quote a field that holds a comma"
    ] * 2
    assert not out_dir.exists()
    # quoted, the same reference is one field
    dataset.write_text(
        'label,n,kind,value,unit,reference\nions-n8,8,fq,39.6,none,"Monz et al., PRL 106"\n'
    )
    (record,) = load_dataset(str(dataset))
    assert record.reference == "Monz et al., PRL 106"


def test_dataset_blank_lines_are_skipped():
    rows = ["a,5,fq,6,none,\n", "b,7,xi2,0.5,linear,\n", "c,9,fq,10,none,ref\n"]
    header = "label,n,kind,value,unit,reference\n"
    spaced = header + "\n".join(rows) + "\n\n\n"
    assert parse_dataset_text(spaced) == parse_dataset_text(header + "".join(rows))
    assert [m.label for m in parse_dataset_text(spaced)] == ["a", "b", "c"]


@pytest.mark.parametrize(
    "row, count", [("a,5,fq\n", 3), ("a,5,fq,6,none,ref,extra\n", 7)], ids=["short", "long"]
)
def test_dataset_rows_have_six_fields(capsys, tmp_path, row, count):
    dataset = tmp_path / "rows.csv"
    dataset.write_text("label,n,kind,value,unit,reference\n" + row)
    out_dir = tmp_path / "out"
    assert _run_dataset_commands(dataset, out_dir) == [2, 2]
    captured = capsys.readouterr()
    assert captured.out == ""
    # one message names the count, and no longer echoes the row
    assert captured.err.splitlines() == [
        f"error: dataset row 'a' has {count} fields, not 6; quote a field that holds a comma"
    ] * 2
    assert not out_dir.exists()


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


@pytest.mark.parametrize(
    "label",
    [
        "",
        ".",
        "..",
        "../escaped",
        "a/b",
        "/abs",
        "a\\b",
        "a\0b",
        # control and line-separator characters: the summary prints a label on one line
        "ab\ncd",
        "a\tb",
        "x\x85y",
        "x\u2028y",
        # longer than a file name may be
        pytest.param("x" * 256, id="256-ascii-bytes"),
        pytest.param("\u00e9" * 128, id="256-utf8-bytes"),
    ],
)
def test_analyze_rejects_unsafe_labels(capsys, tmp_path, label):
    # a label names a directory under --out, so it must not leave it
    dataset = tmp_path / "in.csv"
    # quoted, so that a line break stays inside the label field
    dataset.write_text(
        "label,n,kind,value,unit,reference\n"
        "safe,5,fq,6,none,\n"
        f'"{label}",5,fq,6,none,\n',
        encoding="utf-8",
    )
    out_dir = tmp_path / "work" / "out"
    before = sorted(tmp_path.rglob("*"))
    assert main(["analyze", "--dataset", str(dataset), "--out", str(out_dir)]) == 2
    assert "bad label" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_analyze_writes_a_label_of_255_bytes(tmp_path):
    # the longest file name a label may make, in ASCII and in two-byte UTF-8
    labels = ["x" * 255, "\u00e9" * 127 + "x"]
    dataset = tmp_path / "in.csv"
    dataset.write_text(
        "label,n,kind,value,unit,reference\n" + "".join(f"{label},5,fq,6,none,\n" for label in labels),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert main(["analyze", "--dataset", str(dataset), "--out", str(out_dir)]) == 0
    for label in labels:
        assert (out_dir / label / "report.json").is_file()


def test_dataset_is_read_as_utf8_in_any_locale(capsys, tmp_path):
    # UTF-8 is the format's encoding: under the C locale, with neither UTF-8
    # mode nor locale coercion, the process answers as one under a UTF-8 locale
    dataset = tmp_path / "in.csv"
    dataset.write_text(
        "label,n,kind,value,unit,reference\n"
        'ions\u2013n14,14,fq,40.4,none,"Monz \u00e9t al."\n'
        "bec\u00e9-n470,470,xi2,-4.5,db,Strobel\u2019s\n",
        encoding="utf-8",
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONIOENCODING": "utf-8", "PYTHONPATH": str(src)}
    for command in ("analyze", "rank-summary"):
        argv = [command, "--dataset", str(dataset)]
        result = subprocess.run([sys.executable, "-m", "metroent.cli", *argv],
                                env=env, capture_output=True)
        assert main(argv) == 0
        here = capsys.readouterr().out
        assert (result.returncode, result.stderr) == (0, b""), command
        assert result.stdout.decode("utf-8") == here and "ions\u2013n14" in here, command


def test_a_byte_order_mark_is_not_part_of_the_header(capsys, tmp_path):
    # spreadsheets' "CSV UTF-8" export starts the file with U+FEFF; without it
    # the file reads the same, records and stdout alike
    data = resources.files("metroent").joinpath("data/published.csv").read_bytes()
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(data)
    marked.write_bytes(b"\xef\xbb\xbf" + data)
    assert load_dataset(str(marked)) == load_dataset(str(plain))
    for command in ("analyze", "rank-summary"):
        outs = []
        for path in (plain, marked):
            assert main([command, "--dataset", str(path)]) == 0, (command, path)
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "bec-n470" in outs[0], command


def test_a_bundled_csv_file_is_read_before_the_packaged_data(capsys, tmp_path, monkeypatch):
    # the name bundled.csv reads the packaged data only where no file of that name exists
    monkeypatch.chdir(tmp_path)
    assert len(load_dataset("bundled.csv")) == 5
    (tmp_path / "bundled.csv").write_text(
        "label,n,kind,value,unit,reference\nlocal,14,fq,40.4,none,\n", encoding="utf-8"
    )
    assert [m.label for m in load_dataset("bundled.csv")] == ["local"]
    assert main(["rank-summary", "--dataset", "bundled.csv"]) == 0
    assert capsys.readouterr().out == "label,n,r,r_plus_n\nlocal,14,-3,11\n"


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

    monkeypatch.setattr(oracle, "iter_partition_rows", refuse)
    assert main(["verify", "--nmax", "61"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: n_max must be <= 60, got 61: "
        "the exhaustive sweep enumerates all p(n_max) partitions of n_max\n"
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
    # bundled.csv is the one name for the packaged data
    for name in ("unknown-alias", "bundled", "published", "published.csv"):
        with pytest.raises(ValueError, match="dataset file not found"):
            load_dataset(name)


_FRESH_RUN = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from metroent import cli

def loaded(*names):
    return [name for name in names if name in sys.modules]

results = [loaded("__future__", "dataclasses", "inspect", "json", "csv", "importlib.resources",
                  "typing", "pathlib", "fractions", "decimal", "numbers", "metroent.squeezing",
                  "metroent.oracle", "metroent.tuples")]
for argv in ARGVS:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append((code, out.getvalue(), err.getvalue(), loaded("json", "csv"), loaded("fractions"),
                    loaded("argparse", "gettext", "re"), loaded("decimal", "numbers", "metroent.squeezing"),
                    loaded("metroent.oracle", "metroent.tuples")))
print(repr(results))
"""


def test_fresh_interpreter_defers_unused_modules(capsys, tmp_path):
    # json, csv, pathlib and the rest are imported where they are used, and
    # fractions by no command; argparse, with gettext and re, only for a
    # command line the plain reader leaves to it (verify's abbreviated --nm
    # here).  csv, json and pathlib import re themselves.  decimal, with
    # numbers, loads only for a dB value: a QFI or linear xi**2 value is read
    # as an integer ratio, and q_advantage is worked out in integers.  Of the
    # package, squeezing loads with decimal, oracle only for verify, and tuples,
    # the reference counts, for no command.  This process has them loaded
    # already, so only a fresh interpreter shows a missing import
    src = Path(cli.__file__).resolve().parents[1]

    def interpreters(out_dir):
        # each list runs in one fresh interpreter: the first runs every other
        # command before verify, the second shows that verify loads no decimal
        # and that a QFI report loads none either
        return [
            [
                ["analyze", "--n", "14", "--fq", "40.4"],
                ["analyze", "--n", "14", "--xi2", "0.5"],
                ["bounds", "--n", "6", "--class", "wh"],
                ["analyze", "--n", "470", "--xi2-db", "-4.5"],
                ["analyze", "--dataset", "bundled.csv", "--out", str(out_dir)],
                ["rank-summary", "--dataset", "bundled.csv"],
                ["verify", "--nm", "8"],
            ],
            [
                ["verify", "--nmax=8"],
                ["analyze", "--n", "14", "--fq", "40.4", "--out", str(out_dir / "qfi")],
            ],
        ]

    runs = []
    for argvs in interpreters(tmp_path / "fresh"):
        script = _FRESH_RUN.replace("ARGVS", repr(argvs))
        result = subprocess.run(
            [sys.executable, "-I", "-S", "-c", script, str(src)],
            capture_output=True,
            text=True,
            check=True,
        )
        first, *batch = ast.literal_eval(result.stdout)
        assert first == []
        runs += batch
    assert [run[3] for run in runs[:4] + runs[7:8]] == [[]] * 5
    assert [run[4] for run in runs] == [[]] * 9
    assert [run[5] for run in runs] == [[]] * 4 + [["re"], ["re"], ["argparse", "gettext", "re"], [], ["re"]]
    assert [run[6] for run in runs] == [[]] * 3 + [["decimal", "numbers", "metroent.squeezing"]] * 4 + [[], []]
    assert [run[7] for run in runs] == [[]] * 6 + [["metroent.oracle"]] * 3
    expected = []
    for argvs in interpreters(tmp_path / "here"):
        for argv in argvs:
            code = main(argv)
            expected.append((code, *capsys.readouterr()))
    assert [run[:3] for run in runs] == expected
    assert [code for code, _, _ in expected] == [0] * 9

    def written(out_dir):
        return {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*.*")}

    assert len(written(tmp_path / "here")) == 12
    assert written(tmp_path / "fresh") == written(tmp_path / "here")


_TRACER_RUN = """
import sys
sys.path[:0] = sys.argv[1:]
import metroent.cli
import tracing

wrapped = tracing.SPANNED + tracing.COUNTED + (tracing.ROWS,)
for _, owner, attr in wrapped:
    getattr(tracing._resolve(metroent, owner), attr)
deferred = "metroent.squeezing" in sys.modules
metroent.squeezing.db_text_to_linear.cache_info()
print(len(wrapped), deferred, "metroent.squeezing" in sys.modules)
"""


def test_perfbench_tracer_resolves_every_name_after_importing_cli():
    # perfbench's worker imports metroent.cli alone, then its tracer looks up
    # each wrapped function by attribute, oracle's and tuples' too, and its loop
    # reads the dB converter's cache, which imports squeezing, absent until
    # then; this process has every module loaded already, so only a fresh
    # interpreter shows a name that does not resolve
    src = Path(cli.__file__).resolve().parents[1]
    perfbench = src.parent / "perfbench"
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _TRACER_RUN, str(src), str(perfbench)],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "24 False True\n"


def test_identity_digest_is_pinned(tmp_path):
    # byte-identity in small: every call of the n <= 8 sweep hashes to the
    # recorded digest; a subprocess, as the tool changes the working directory.
    # The same with a copy of the package as ROOT, as when two trees are compared
    repo = Path(__file__).resolve().parents[1]
    shutil.copytree(repo / "src" / "metroent", tmp_path / "src" / "metroent",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for root in ([], [str(tmp_path)]):
        result = subprocess.run(
            [sys.executable, str(repo / "tools" / "identity_digest.py"), "--nmax", "8", *root],
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout == (
            "cases: 847\n"
            "sha256: 7955c98e1886e7d99df1ceca2eff87e4d960bb8abad1536be47f1ff59c7bb9c3\n"
        ), root
    # and under a hostile decimal context, with every signal trapped and with
    # none: no answer, report or refusal may read the caller's context or
    # decimal.DefaultContext
    for mode in ("trap", "none"):
        result = subprocess.run(
            [sys.executable, str(repo / "tools" / "hostile_digest.py"), mode, "--nmax", "8"],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stderr) == (0, ""), mode
        assert result.stdout == (
            "cases: 847\n"
            "sha256: 7955c98e1886e7d99df1ceca2eff87e4d960bb8abad1536be47f1ff59c7bb9c3\n"
        ), mode


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
    assert result.stdout == "bounds cli oracle squeezing tuples witness\n"
