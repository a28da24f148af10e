"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_perfbench.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import checks
import loop
import run
import tracing
import workloads

import metroent
from metroent import bounds, cli, tuples


def _dataset_op():
    records = tuple(workloads.Record(*fields, expect=expect)
                    for fields, expect in workloads.PUBLISHED[:2])
    return workloads.Op("t.0", ("analyze",), records=records,
                        dataset=workloads.dataset_text(records), writes=True)


def _small_ops():
    published = workloads.Record(*workloads.PUBLISHED[1][0], expect=workloads.PUBLISHED[1][1])
    db = workloads.Record("db", 40, "xi2", "-3.25", "db")
    return [
        workloads.Op("s.0", ("analyze", *published.cli_args()), records=(published,)),
        workloads.Op("s.1", ("analyze", *db.cli_args()), records=(db,)),
        _dataset_op(),
        workloads.Op("v.0", ("verify", "--nmax=9")),
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.block_ops(workload, 7, 3)
    assert first == workloads.block_ops(workload, 7, 3)
    assert [op.dataset for op in first] == [op.dataset for op in workloads.block_ops(workload, 7, 3)]
    assert first != workloads.block_ops(workload, 8, 3)


def test_record_mix():
    records = [r for block in range(20) for r in workloads.block_records(5, block)
               if r.expect is None]
    assert all(workloads.N_MIN <= r.n <= workloads.N_MAX for r in records)
    units = [r.unit for r in records]
    assert units.count("none") == units.count("linear") == units.count("db")
    on_limit = [r for r in records if r.on_limit_w is not None]
    assert all(r.kind == "fq" and r.value.split(".")[1].strip("0") == "" for r in on_limit)
    assert 0.05 < len(on_limit) / len(records) < 0.2
    files = workloads.block_ops("analyze-report", 5, 0)
    assert {len(op.records) for op in files} == {workloads.RECORDS_PER_DATASET}


def test_checks_pass_on_real_outputs(tmp_path):
    for op in _small_ops():
        *_, obs = loop.run_op(cli, op, tmp_path)
        assert checks.check(op, obs, tuples, bounds) == [], op.name
        assert checks.check(op, obs, tuples, bounds, checks.digests(obs)) == []


def test_flipped_byte_or_exit_code_fails_the_op(tmp_path):
    op = _dataset_op()
    out = tmp_path / "out"
    (tmp_path / "in.csv").write_text(op.dataset)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(["analyze", f"--dataset={tmp_path / 'in.csv'}", f"--out={out}"]) == 0
    stdout = buffer.getvalue()
    recorded = checks.digests(checks.observe(0, stdout, out))

    def problems(code=0, text=stdout):
        return checks.check(op, checks.observe(code, text, out), tuples, bounds, recorded)

    assert problems() == []
    assert problems(code=1) != []
    assert problems(code="raised ValueError: x") != []
    for i in range(len(stdout)):
        assert problems(text=stdout[:i] + chr(ord(stdout[i]) ^ 1) + stdout[i + 1:]) != [], i
    for path in sorted(out.rglob("*.*")):
        data = path.read_bytes()
        for i in range(len(data)):
            path.write_bytes(data[:i] + bytes([data[i] ^ 1]) + data[i + 1:])
            assert problems() != [], (path.name, i)
        path.write_bytes(data)
    assert problems() == []


def test_tallies_catch_a_wrong_status_without_digests(tmp_path):
    op = _dataset_op()
    *_, obs = loop.run_op(cli, op, tmp_path)
    grid = obs["files"]["ions-n8/grid.csv"]
    grid["tally"] = dict(grid["tally"], by_r=grid["tally"]["by_r"] - 1)
    assert any("tallies" in p for p in checks.check(op, obs, tuples, bounds))


def test_on_limit_value_must_leave_its_class_compatible(tmp_path):
    # n = 14 = 3 * 4 + 2: the width-4 limit is 3 * 16 + 4 = 52, the width-3 one 40
    def op(on_limit_w):
        record = workloads.Record("lim", 14, "fq", "52.0", "none", on_limit_w=on_limit_w)
        return workloads.Op("l.0", ("analyze", *record.cli_args()), records=(record,))

    *_, obs = loop.run_op(cli, op(4), tmp_path)
    assert checks.check(op(4), obs, tuples, bounds) == []
    # as if the limit excluded its own class: w = 4 beyond a class-3 limit
    assert any("excludes class 3" in p for p in checks.check(op(3), obs, tuples, bounds))


def test_seed_with_digests_fails_an_op_without_one(tmp_path):
    seed = workloads.DEFAULT_SEED
    op = workloads.block_ops("verify-sweep", seed, 0)[0]
    *_, obs = loop.run_op(cli, op, tmp_path)
    result = {"blocks": 1, "ops": [{"name": op.name, "obs": obs}]}
    assert run.check_run("verify-sweep", seed, result, None) == {}
    assert run.check_run("verify-sweep", seed, result, {op.name: checks.digests(obs)}) == {}
    assert run.check_run("verify-sweep", seed, result, {}) == {
        op.name: ["no recorded digests for this operation"]}


def test_latencies_scale_to_the_reference_speed():
    slow = 2 * loop.REFERENCE_S
    result = {"ops": [{"latency": 0.5}, {"latency": 0.25}], "refs": [slow, slow, slow]}
    assert run.scaled_latencies(result) == [0.25, 0.125]
    assert run.latency_tail([0.001 * i for i in range(1, 21)])[1:] == (50.0, 10)
    with pytest.raises(run.BenchError):
        run.latency_tail([0.001 * i for i in range(1, 20)])


def test_tracing_keeps_outputs_identical(tmp_path):
    ops = _small_ops()
    plain = [checks.digests(loop.run_op(cli, op, tmp_path / "plain")[-1]) for op in ops]
    originals = {name: getattr(tracing._resolve(metroent, owner), attr)
                 for name, owner, attr in tracing.SPANNED + tracing.COUNTED}
    tracer = tracing.Tracer()
    tracer.install(metroent)
    try:
        traced = []
        for op in ops:
            tracer.op = op.name
            traced.append(checks.digests(loop.run_op(cli, op, tmp_path / "traced")[-1]))
    finally:
        tracer.uninstall()
    assert traced == plain
    for name, owner, attr in tracing.SPANNED + tracing.COUNTED:
        assert getattr(tracing._resolve(metroent, owner), attr) is originals[name]
    metrics = tracing.layer_metrics(tracer, {op.name: 1.0 for op in ops}, 0, 0)
    assert set(metrics) == set(tracing.LAYER_UNITS) - {
        "setup.import_numpy_s", "setup.import_metroent_s", "trace.overhead_ratio"}
    assert metrics["witness.grid_cells"] > 0 and metrics["cli.bytes_written"] > 0
    assert metrics["oracle.brute_force_calls"] > 0 and metrics["partitions.rows_yielded"] > 0
    assert metrics["tuples.count_calls"] == 0
    assert {span[2] for span in tracer.spans} == {op.name for op in ops}
    roots = [span for span in tracer.spans if span[1] is None]
    assert [span[3] for span in roots] == ["cli.main"] * len(ops)


def test_self_time_subtracts_children():
    spans = [(1, 0, "o", "child", 1.0, 3.0), (0, None, "o", "root", 0.0, 10.0),
             (2, 0, "o", "child", 4.0, 5.0)]
    total, own = tracing.span_times(spans)
    assert total == {"root": 10.0, "child": 3.0}
    assert own == {"root": 7.0, "child": 3.0}


def test_import_times_parse():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       500 |        900 |   numpy",
        "import time:       100 |       1200 | metroent",
        "import time:        50 |         80 | metroent.cli",
        "import time:        10 |         10 |   json",
    ])
    assert tracing.import_times(stderr) == {
        "setup.import_numpy_s": 0.0009, "setup.import_metroent_s": 0.00128}


def test_shipped_digests_cover_both_seeds():
    recorded = json.loads(Path(checks.__file__).with_name("digests.json").read_text())
    for workload in workloads.WORKLOADS:
        blocks = workloads.blocks_for(workload, run.benchmark_run_seconds())
        for seed in workloads.RECORDED_SEEDS:
            ops = recorded[f"{workload}/{seed}"]
            assert set(ops) == {op.name for block in range(blocks)
                                for op in workloads.block_ops(workload, seed, block)}
