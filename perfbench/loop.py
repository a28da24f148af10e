"""The closed loop a benchmark worker runs, one client and one operation at a time.

Each operation is one in-process call of ``metroent.cli.main``; the next
starts only after the previous one returned and its outputs were recorded.
Only the call itself is timed.  Input files are written before the call and
every operation gets a fresh --out directory, removed once its outputs are
recorded.

Before each call the worker runs a full garbage collection, untimed, so
that every operation starts from a settled heap as the CLI does in a fresh
process.  Without it, a cyclic-GC pass owed by earlier operations lands on
whichever operation comes next, and the latency percentiles then depend on
the order of the operations more than on their cost.

A run is a fixed number of whole blocks (see ``workloads``), so every run
of a workload measures the same amount of work and the same input mix.

The speed of the machine is not steady: on a shared 2-vCPU VM the same
operation takes 60 % longer in some spells of seconds than in others, in
CPU time as much as in wall time.  So the worker also times a fixed piece
of pure-Python work, ``reference_work``, before the first operation and
after each one; ``speed_scales`` turns those timings into a factor per
operation that brings its latency and layer times to one machine speed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import time
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

# What reference_work took on the 2-vCPU Xeon VM the benchmark was defined
# on, in its quicker spells: times are scaled to that machine speed.
REFERENCE_S = 0.004


def reference_work() -> int:
    """Fixed pure-Python work that uses nothing of metroent.

    It mixes what the CLI spends its time on (generator recursion over
    integer partitions, small tuples, a dict, Fraction comparisons), so
    that a slow spell of the machine slows it about as much.
    """

    def partitions(n, largest):
        if n == 0:
            yield ()
            return
        for k in range(min(n, largest), 0, -1):
            for rest in partitions(n - k, k):
                yield (k, *rest)

    tally = {}
    for parts in partitions(22, 22):
        key = (len(parts), parts[0])
        tally[key] = tally.get(key, 0) + sum(k * k for k in parts)
    limit = Fraction(7, 3)
    return sum(1 for (rows, top), total in tally.items() if Fraction(total, rows + top) > limit)


def reference_seconds() -> float:
    """Wall time of one ``reference_work``, with the cyclic GC paused so that
    the size of the program's heap does not enter it."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_scales(refs: list[float]) -> list[float]:
    """Per operation, the factor that brings its times to one machine speed.

    Operation i ran between refs[i] and refs[i + 1]; its factor is
    REFERENCE_S over the mean of those two.  Wider windows of reference
    timings tracked the machine's speed worse in trial runs: it changes
    within a second.
    """
    return [REFERENCE_S / ((before + after) / 2) for before, after in zip(refs, refs[1:])]


def run_op(cli, op, work_dir: Path) -> tuple[float, float, dict]:
    """Run one operation; return its wall and CPU time in seconds and its observation."""
    argv = list(op.args)
    if op.dataset is not None:
        dataset = work_dir / "in" / f"{op.name}.csv"
        dataset.parent.mkdir(parents=True, exist_ok=True)
        dataset.write_text(op.dataset)
        argv.append(f"--dataset={dataset}")
    out_dir = None
    if op.writes:
        out_dir = work_dir / "out" / op.name
        argv.append(f"--out={out_dir}")
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation that raises is a failed one
            code = f"raised {type(exc).__name__}: {exc}"
        latency, cpu = time.perf_counter() - start, time.thread_time() - cpu_start
    obs = checks.observe(code, stdout.getvalue(), out_dir)
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    return latency, cpu, obs


def run_blocks(cli, workload: str, seed: int, work_dir: Path, *, blocks: int,
               tracer: tracing.Tracer | None = None) -> dict:
    """Run the first ``blocks`` blocks of ``workload``.

    ``refs`` holds a reference timing taken before the first operation and
    one after each operation, so ops[i] ran between refs[i] and refs[i + 1].
    """
    ops, refs = [], [reference_seconds()]
    for block in range(blocks):
        for op in workloads.block_ops(workload, seed, block):
            if tracer is not None:
                tracer.op = op.name
            latency, cpu, obs = run_op(cli, op, work_dir)
            refs.append(reference_seconds())
            ops.append({"name": op.name, "block": block, "latency": latency, "cpu": cpu,
                        "obs": obs})
    return {"blocks": blocks, "ops": ops, "refs": refs}


def main(cli, setup_s: float, argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark worker (started by run.py)")
    parser.add_argument("--probe", action="store_true", help="report set-up time only")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--blocks", type=int, help="number of blocks to run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work-dir", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import metroent
    import numpy

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(metroent)
    cache = metroent.squeezing.db_text_to_linear.cache_info()
    try:
        result = run_blocks(cli, args.workload, args.seed, args.work_dir,
                            blocks=args.blocks, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    # involuntary context switches: how often the kernel took the CPU away
    result["nivcsw"] = usage.ru_nivcsw
    result["numpy_version"] = numpy.__version__
    if tracer is not None:
        after = metroent.squeezing.db_text_to_linear.cache_info()
        scales = dict(zip((op["name"] for op in result["ops"]), speed_scales(result["refs"])))
        result["layers"] = tracing.layer_metrics(
            tracer, scales, after.hits - cache.hits, after.misses - cache.misses
        )
        tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result))
    return 0
