"""Replay of the outputs the benchmark recorded, so tier-1 checks byte identity.

Block 0 of each perfbench workload at seed 1 is run in process, as the
benchmark runs it, and each operation's stdout, report.json and grid.csv
digests must equal its entry in ``perfbench/digests.json``.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import loop  # noqa: E402
import workloads  # noqa: E402

from metroent import cli  # noqa: E402

SEED = 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_block_0_matches_the_recorded_digests(workload, tmp_path):
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[f"{workload}/{SEED}"]
    ops = workloads.block_ops(workload, SEED, 0)
    assert ops
    for op in ops:
        _, _, obs = loop.run_op(cli, op, tmp_path)
        assert obs["code"] == 0, (op.name, obs["code"])
        assert checks.digests(obs) == recorded[op.name], op.name
