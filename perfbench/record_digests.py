"""Record the sha256 digests of every output for the seeds the benchmark ships.

Usage, from the root of a source checkout:

    python3 perfbench/record_digests.py

Runs the blocks of one benchmark run (``workloads.blocks_for`` at the
run_seconds of BENCHMARK.json) of each workload on the default and the
held-out seed, refuses to record an operation that fails its other
checks, and rewrites perfbench/digests.json.  A run of the
benchmark on one of these seeds then requires byte-identical stdout,
report.json and grid.csv.  Re-record only when outputs are meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.RUN_ROOT / "record-digests"
    recorded = {}
    try:
        for workload in workloads.WORKLOADS:
            blocks = workloads.blocks_for(workload, run.benchmark_run_seconds())
            for seed in workloads.RECORDED_SEEDS:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                run.run_worker(
                    ["--workload", workload, "--seed", str(seed),
                     "--blocks", str(blocks),
                     "--work-dir", str(work / "ops"), "--result", str(work / "result.json")],
                    timeout=900,
                )
                result = json.loads((work / "result.json").read_text())
                failures = run.check_run(workload, seed, result, None)
                if failures:
                    print(f"error: {workload} seed {seed}: {failures}", file=sys.stderr)
                    return 1
                recorded.setdefault(workload, {})[str(seed)] = {
                    op["name"]: checks.digests(op["obs"]) for op in result["ops"]
                }
                print(f"{workload} seed {seed}: {len(result['ops'])} ops", file=sys.stderr)
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = []
    for workload, seeds in recorded.items():
        for seed, ops in seeds.items():
            body = ",\n".join(f"   {json.dumps(name)}: {json.dumps(d, sort_keys=True)}"
                              for name, d in sorted(ops.items()))
            lines.append(f"  {json.dumps(f'{workload}/{seed}')}: {{\n{body}\n  }}")
    run.DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
