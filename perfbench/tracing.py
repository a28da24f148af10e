"""Per-layer tracing of ``metroent`` from outside the package.

``Tracer.install`` replaces each traced function at the module attribute
its caller looks up (``metroent.witness.build_grid``,
``metroent.oracle.iter_partition_rows``, ...) with a wrapper, and
``uninstall`` puts the originals back.  Spanned functions record a span
(id, parent id, operation id, name, start, end) in memory; counted
functions, called millions of times, only bump a counter.  ``layer_metrics``
turns spans and counts into the per-layer metrics, normalised per
operation, with times scaled to one machine speed as latencies are.
"""

from __future__ import annotations

import functools
import json
import re
import time
from collections import Counter, defaultdict
from pathlib import Path

# (span name, module, attribute): the attribute is the one the caller looks up
SPANNED = (
    ("cli.main", "cli", "main"),
    ("cli.load_dataset", "cli", "load_dataset"),
    ("cli.grid_csv_text", "cli", "grid_csv_text"),
    ("cli.report_json_text", "cli", "report_json_text"),
    ("cli.write_report", "cli", "write_report"),
    ("witness.analyze", "witness", "analyze"),
    ("witness.build_grid", "witness", "build_grid"),
    ("witness.infer_depth", "witness", "infer_depth"),
    ("witness.infer_separability", "witness", "infer_separability"),
    ("witness.infer_rank", "witness", "infer_rank"),
    ("witness.threshold", "witness.Measurement", "exclusion_threshold"),
    # witness imports the converter by name, so that is where it is looked up
    ("squeezing.db_text_to_linear", "witness", "db_text_to_linear"),
    ("tuples.all_tuples", "tuples", "all_tuples"),
    ("tuples.count_width_leq", "tuples", "count_width_leq"),
    ("tuples.count_height_geq", "tuples", "count_height_geq"),
    ("tuples.count_rank_leq", "tuples", "count_rank_leq"),
    ("tuples.count_rank_leq_closed", "tuples", "count_rank_leq_closed"),
    ("oracle.verify_closed_forms", "oracle", "verify_closed_forms"),
    ("oracle.brute_force_max", "oracle", "brute_force_max"),
)
COUNTED = (
    ("bounds.max_qfi_wh", "bounds", "max_qfi_wh"),
    ("bounds.max_qfi_width", "bounds", "max_qfi_width"),
    ("bounds.max_qfi_height", "bounds", "max_qfi_height"),
    ("bounds.max_qfi_rank", "bounds", "max_qfi_rank"),
)
ROWS = ("partitions.rows", "oracle", "iter_partition_rows")

# Sizes recorded at span boundaries, from the traced call's result.
SIZES = {
    "witness.build_grid": ("witness.grid_cells", lambda grid: len(grid.cells)),
    "tuples.all_tuples": ("tuples.tuples_built", len),
    "cli.write_report": (
        "cli.bytes_written",
        lambda target: sum(p.stat().st_size for p in Path(target).iterdir()),
    ),
}

# name -> unit, in the order they are reported
LAYER_UNITS = {
    "setup.import_numpy_s": "s",
    "setup.import_metroent_s": "s",
    "cli.self_s": "s/op",
    "cli.load_dataset_s": "s/op",
    "cli.grid_csv_text_s": "s/op",
    "cli.report_json_text_s": "s/op",
    "cli.write_report_s": "s/op",
    "cli.bytes_written": "B/op",
    "witness.analyze_self_s": "s/op",
    "witness.build_grid_s": "s/op",
    "witness.grid_cells": "count/op",
    "witness.infer_s": "s/op",
    "witness.threshold_calls_per_op": "count/op",
    "witness.threshold_s": "s/op",
    "squeezing.db_text_to_linear_s": "s/op",
    "squeezing.db_cache_hit_ratio": "ratio",
    "tuples.all_tuples_s": "s/op",
    "tuples.tuples_built": "count/op",
    "tuples.count_calls": "count/op",
    "tuples.count_s": "s/op",
    "bounds.max_qfi_wh_calls": "count/op",
    "bounds.max_qfi_width_calls": "count/op",
    "bounds.max_qfi_height_calls": "count/op",
    "bounds.max_qfi_rank_calls": "count/op",
    "oracle.verify_s": "s/op",
    "oracle.brute_force_calls": "count/op",
    "oracle.brute_force_s": "s/op",
    "partitions.rows_yielded": "count/op",
    "partitions.rows_per_class": "rows/call",
    "trace.overhead_ratio": "ratio",
}


def _resolve(package, path: str):
    owner = package
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Spans and counts of one traced worker, kept in memory."""

    def __init__(self):
        self.spans = []  # (id, parent id, op id, name, start, end)
        self.counts = Counter()
        self.op = None  # id shared by the spans of the current operation
        self._stack = []
        self._next_id = 0
        self._originals = []

    def _spanned(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.op, name, start, end))
            if size is not None:
                counts[size[0]] += size[1](result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rows(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for rows in fn(*args, **kwargs):
                counts[name] += 1
                yield rows

        return wrapper

    def install(self, package) -> None:
        """Wrap the traced functions of the imported ``metroent`` package."""
        plan = [(self._spanned, spec) for spec in SPANNED]
        plan += [(self._counted, spec) for spec in COUNTED]
        plan.append((self._rows, ROWS))
        for make, (name, owner_path, attr) in plan:
            owner = _resolve(package, owner_path)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, make(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w") as out:
            for span in sorted(self.spans):
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def span_times(spans) -> tuple[dict, dict]:
    """Total and self time per span name.

    Self time is a span's duration minus the time its direct children
    cover; the program is single-threaded, so children never overlap.
    """
    covered = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    total, own = defaultdict(float), defaultdict(float)
    for span_id, _, _, name, start, end in spans:
        total[name] += end - start
        own[name] += end - start - covered[span_id]
    return total, own


def layer_metrics(tracer: Tracer, scales: dict, cache_hits: int, cache_misses: int) -> dict:
    """Per-layer metrics of a traced pass, per operation.

    ``scales`` maps each operation's id to the factor that brings its times
    to one machine speed (``loop.speed_scales``).
    """
    ops = len(scales)
    spans = [(span_id, parent, op, name, start * scales[op], end * scales[op])
             for span_id, parent, op, name, start, end in tracer.spans]
    total, own = span_times(spans)
    calls = Counter(span[3] for span in tracer.spans)
    counts = tracer.counts
    count_names = [name for name, _, _ in SPANNED if name.startswith("tuples.count_")]
    brute_calls = calls["oracle.brute_force_max"]
    lookups = cache_hits + cache_misses
    per_op = {
        "cli.self_s": own["cli.main"],
        "cli.load_dataset_s": total["cli.load_dataset"],
        "cli.grid_csv_text_s": total["cli.grid_csv_text"],
        "cli.report_json_text_s": total["cli.report_json_text"],
        "cli.write_report_s": total["cli.write_report"],
        "cli.bytes_written": counts["cli.bytes_written"],
        "witness.analyze_self_s": own["witness.analyze"],
        "witness.build_grid_s": total["witness.build_grid"],
        "witness.grid_cells": counts["witness.grid_cells"],
        "witness.infer_s": sum(total[f"witness.infer_{x}"]
                               for x in ("depth", "separability", "rank")),
        "witness.threshold_calls_per_op": calls["witness.threshold"],
        "witness.threshold_s": total["witness.threshold"],
        "squeezing.db_text_to_linear_s": total["squeezing.db_text_to_linear"],
        "tuples.all_tuples_s": total["tuples.all_tuples"],
        "tuples.tuples_built": counts["tuples.tuples_built"],
        "tuples.count_calls": sum(calls[name] for name in count_names),
        "tuples.count_s": sum(total[name] for name in count_names),
        "oracle.verify_s": total["oracle.verify_closed_forms"],
        "oracle.brute_force_calls": brute_calls,
        "oracle.brute_force_s": total["oracle.brute_force_max"],
        "partitions.rows_yielded": counts["partitions.rows"],
    }
    per_op.update({f"{name}_calls": counts[name] for name, _, _ in COUNTED})
    metrics = {name: value / ops for name, value in per_op.items()}
    metrics["squeezing.db_cache_hit_ratio"] = cache_hits / lookups if lookups else 0.0
    metrics["partitions.rows_per_class"] = (
        counts["partitions.rows"] / brute_calls if brute_calls else 0.0
    )
    return metrics


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)\s*$")


def import_times(stderr: str) -> dict:
    """numpy's and metroent's import time from ``python -X importtime`` output.

    metroent's time is the cumulative time of its top-level entries, which
    include numpy: ``states`` imports it when the package is imported.
    """
    numpy_us = metroent_us = 0
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        cumulative, depth, module = int(match[2]), len(match[3]), match[4]
        if module == "numpy":
            numpy_us = cumulative
        elif depth == 0 and (module == "metroent" or module.startswith("metroent.")):
            metroent_us += cumulative
    return {"setup.import_numpy_s": numpy_us / 1e6,
            "setup.import_metroent_s": metroent_us / 1e6}
