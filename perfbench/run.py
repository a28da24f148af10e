"""Benchmark of the metroent CLI: one workload, one seed, one result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload analyze-summary --seed 1 --seconds 17 --trace 0

Workloads (inputs in ``workloads.py``):
- analyze-summary: ``analyze --n N --fq|--xi2|--xi2-db V``, summary only;
- analyze-report: ``analyze --dataset FILE --out DIR`` on dataset files of
  five records;
- verify-sweep: ``verify --nmax K`` with K from 12 to 22.

With ``--trace 0`` a fresh single-threaded worker runs the closed loop
untraced and the end-to-end metrics are printed; set-up time is the median
over several fresh workers.  With ``--trace 1`` an untraced worker and then
a traced one (``python -X importtime``, wrappers from ``tracing.py``) run
the same blocks, the per-layer metrics are printed and every output of the
traced run must equal the untraced one byte for byte.

Timed end-to-end metrics are given at one machine speed.  The worker times
a fixed piece of pure-Python work (``loop.reference_work``) around every
operation, and each latency is scaled by ``loop.REFERENCE_S`` over the mean
of the reference timings just before and just after it.  Likewise each set-up probe runs between two fresh
interpreters that time a fixed set of imports (``worker.py
--reference-setup``), and its set-up time is scaled by REFERENCE_SETUP_S
over their mean.  On a shared VM whose speed drifts
by 60 % within minutes this keeps a slow spell of the host from reading as
a slow commit, while any change to metroent itself shows in full, since the
reference work uses none of it.  The unscaled wall times, the CPU time, the
machine speed, steal time and the worker's involuntary context switches
are printed with every result as evidence of the host's state.

Every operation's outputs are checked (``checks.py``); a failed operation
is one that raised, exited non-zero or gave a wrong output.  The last line
of stdout is the JSON result; the run's conditions are printed above it and
everything is also written under ``.perfbench_run/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import loop
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".perfbench_run"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10
# What ``worker.py --reference-setup`` took on the 2-vCPU Xeon VM the
# benchmark was defined on, in its quicker spells (as loop.REFERENCE_S)
REFERENCE_SETUP_S = 0.075

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# one thread for numpy's BLAS, which metroent imports but does not use here
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(args: list[str], *, timeout: float, importtime: bool = False):
    """Run perfbench/worker.py in a fresh interpreter; return (stdout, stderr)."""
    cmd = [sys.executable, "-I"]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), *args]
    env = {**os.environ, **WORKER_ENV}
    if timeout <= 0:
        raise BenchError(f"no time left within {TIME_LIMIT_S:.0f}s")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker timed out after {exc.timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout, proc.stderr


def benchmark_run_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def steal_seconds() -> float | None:
    """CPU time of this VM that the hypervisor gave to other guests since
    boot, summed over all CPUs, if readable."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def conditions(load_at_start) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), "")
    except OSError:
        pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((SRC / "metroent").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
        "src_metroent_lines": src_lines,
    }


def latency_tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest nearest-rank
    percentile that leaves at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = count - TAIL_BEYOND
    if rank < count / 2:
        raise BenchError(f"{count} operations are too few for a tail percentile "
                         f"at or above p50 with {TAIL_BEYOND} samples beyond it")
    return ordered[rank - 1], 100.0 * rank / count, count - rank


def scaled_latencies(result: dict) -> list[float]:
    """Each operation's latency at the speed loop.REFERENCE_S stands for."""
    return [op["latency"] * scale
            for op, scale in zip(result["ops"], loop.speed_scales(result["refs"]))]


def check_run(workload: str, seed: int, result: dict, recorded: dict | None) -> dict:
    """Problems per failed operation of one worker's run.

    ``recorded`` maps op names to their recorded digests; None means the
    seed has none.  On a seed with digests, an op without one fails.
    """
    from metroent import bounds, tuples

    ops = {op.name: op for block in range(result["blocks"])
           for op in workloads.block_ops(workload, seed, block)}
    failures = {}
    for entry in result["ops"]:
        digest = None if recorded is None else recorded.get(entry["name"])
        problems = checks.check(ops[entry["name"]], entry["obs"], tuples, bounds, digest)
        if recorded is not None and digest is None:
            problems.append("no recorded digests for this operation")
        if problems:
            failures[entry["name"]] = problems
    return failures


def end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    latencies = scaled_latencies(result)
    busy = sum(latencies)
    tail, percentile, beyond = latency_tail(latencies)
    values = {
        "setup_s": statistics.median(setup_samples),
        "throughput_ops_s": len(latencies) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    wall = [op["latency"] for op in result["ops"]]
    cpu = sum(op["cpu"] for op in result["ops"])
    notes = {
        "latency_tail_ms": f"p{percentile:.1f} of {len(latencies)} samples, {beyond} beyond",
        "setup_s": f"median of {len(setup_samples)} fresh workers",
        "throughput_ops_s": f"{len(latencies)} ops in {busy:.2f} s scaled "
                            f"({result['blocks']} blocks)",
        "unscaled": f"{sum(wall):.2f} s wall, {cpu:.2f} s CPU in cli.main; "
                    f"p50 {statistics.median(wall) * 1e3:.2f} ms wall",
    }
    return values, notes


def machine_speed(result: dict) -> float:
    """How fast the machine ran during a worker's loop, 1 at loop.REFERENCE_S."""
    return loop.REFERENCE_S / statistics.median(result["refs"])


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            started: float) -> dict:
    def time_left():
        return TIME_LIMIT_S - (time.monotonic() - started)

    recorded = None
    if seed in workloads.RECORDED_SEEDS:
        recorded = json.loads(DIGESTS.read_text()).get(f"{workload}/{seed}", {})
    blocks = workloads.blocks_for(workload, seconds)
    expected_ops = sum(len(workloads.block_ops(workload, seed, block)) for block in range(blocks))

    def loop(name, *extra, importtime=False):
        result_path = work / f"{name}.json"
        steal_before = steal_seconds()
        _, stderr = run_worker(
            ["--workload", workload, "--seed", str(seed), "--blocks", str(blocks),
             "--work-dir", str(work / name), "--result", str(result_path), *extra],
            timeout=time_left(), importtime=importtime,
        )
        steal_after = steal_seconds()
        result = json.loads(result_path.read_text())
        if len(result["ops"]) != expected_ops:
            raise BenchError(f"the {name} worker ran {len(result['ops'])} of "
                             f"{expected_ops} operations")
        result["steal_s"] = (None if steal_before is None or steal_after is None
                             else round(steal_after - steal_before, 3))
        return result, stderr

    def probe(flag, key):
        return json.loads(run_worker([flag], timeout=time_left())[0])[key]

    def reference_setup():
        return probe("--reference-setup", "reference_setup_s")

    def setup_samples(count):
        """Set-up times of ``count`` fresh workers, each scaled by the
        reference set-up timed just before and just after it."""
        refs, samples = [reference_setup()], []
        for _ in range(count):
            setup = probe("--probe", "setup_s")
            refs.append(reference_setup())
            samples.append(setup * REFERENCE_SETUP_S / ((refs[-2] + refs[-1]) / 2))
        return samples

    if not trace:
        probe("--probe", "setup_s")  # compiles the bytecode; discarded
        # half the probes before the loop and half after, so that a slow spell
        # of the machine does not set the whole median
        setup = setup_samples(SETUP_PROBES // 2)
        result, _ = loop("untraced")
        setup += setup_samples(SETUP_PROBES - SETUP_PROBES // 2)
        failures = check_run(workload, seed, result, recorded)
        metrics, notes = end_to_end(result, setup)
        units = END_TO_END_UNITS
    else:
        base, _ = loop("untraced")
        spans = RUN_ROOT / "traces" / f"{workload}-seed{seed}.jsonl"
        result, stderr = loop("traced", "--trace", "--spans", str(spans), importtime=True)
        failures = check_run(workload, seed, base, recorded)
        for name, problems in check_run(workload, seed, result, recorded).items():
            failures.setdefault(name, []).extend(problems)
        base_obs = {op["name"]: checks.digests(op["obs"]) for op in base["ops"]}
        for op in result["ops"]:
            if checks.digests(op["obs"]) != base_obs.get(op["name"]):
                failures.setdefault(op["name"], []).append("traced outputs differ")
        traced_s, untraced_s = sum(scaled_latencies(result)), sum(scaled_latencies(base))
        metrics = {**tracing.import_times(stderr), **result["layers"],
                   "trace.overhead_ratio": traced_s / untraced_s}
        metrics = {name: metrics[name] for name in tracing.LAYER_UNITS}
        notes = {"trace.overhead_ratio": f"{traced_s:.2f} s traced / {untraced_s:.2f} s "
                                         f"untraced, both scaled",
                 "layers": "layer times are scaled as latencies are; "
                           "import times are not",
                 "spans": str(spans.relative_to(ROOT))}
        units = tracing.LAYER_UNITS
    host_state = {"machine_speed": round(machine_speed(result), 4),
                  "steal_s": result["steal_s"], "worker_nivcsw": result["nivcsw"]}
    return {"metrics": metrics, "units": units, "notes": notes, "failures": failures,
            "attempted": len(result["ops"]), "numpy": result["numpy_version"],
            "host": host_state}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"input seed; {workloads.HELD_OUT_SEED} is held out for "
                             f"confirming claims")
    parser.add_argument("--seconds", type=float, default=None,
                        help="sets the work per run: the blocks that took about this "
                             "long when the benchmark was defined (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    load_at_start = os.getloadavg()
    if not (SRC / "metroent" / "cli.py").is_file():
        print(f"error: no metroent sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = benchmark_run_seconds()
    sys.path.insert(0, str(SRC))
    work = RUN_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                          work, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = outcome["attempted"], len(outcome["failures"])
    cond = {**conditions(load_at_start), **outcome["host"], "numpy": outcome["numpy"],
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}
    metrics = {name: {"value": value, "unit": outcome["units"][name]}
               for name, value in outcome["metrics"].items()}
    for name, metric in metrics.items():
        note = outcome["notes"].get(name)
        print(f"{name} {metric['value']:.6g} {metric['unit']}"
              + (f"  ({note})" if note else ""))
    for name in ("unscaled", "layers", "spans"):
        if name in outcome["notes"]:
            print(f"{name}: {outcome['notes'][name]}")
    print(f"ops_failed_ratio {failed / attempted:.6g}  ({failed} of {attempted} ops)")
    for name, problems in list(outcome["failures"].items())[:5]:
        print(f"failed {name}: {'; '.join(problems[:3])}")
    print("conditions " + json.dumps(cond, sort_keys=True))
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    results = RUN_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**line, "notes": outcome["notes"], "conditions": cond,
                    "failures": outcome["failures"]}, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
