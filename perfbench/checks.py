"""Output correctness of benchmark operations.

``observe`` turns what one operation produced (exit code, stdout and the
files under its --out directory) into a small JSON-able record; ``check``
compares that record with what the inputs imply and returns the list of
problems, empty when the operation passed.  An operation with problems
counts as failed.

The checks on an analyze operation:
- the published records give their known w, h, r and four counts;
- a QFI value exactly on a width-class limit leaves that class compatible
  (the limit excludes only strictly);
- by_w, by_h and by_r equal ``metroent.tuples``' counts of tuples with
  width <= w - 1, height >= h + 1 and rank below r;
- grid.csv has one row per valid tuple and its status tallies equal the
  counts in report.json and on stdout;
- on a seed that ships recorded digests, the sha256 of stdout and of every
  written file equals the recorded one.
A verify operation must exit 0 with an empty stdout.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

SUMMARY_HEADER = ["label", "n", "kind", "value", "w", "h", "r",
                  "by_w", "by_h", "by_r", "by_wh", "h_excl"]
COUNT_KEYS = ("by_w", "by_h", "by_r", "by_wh")
GRID_HEADER = b"w,h,f_wh,status"
# W and H together force R, so "WH" alone is the tuple excluded only by (w, h)
GRID_STATUSES = {b"OK", b"WH", b"W", b"H", b"R", b"WR", b"HR", b"WHR"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def grid_tally(data: bytes) -> tuple[int, dict[str, int]]:
    """Row count of a grid.csv and the four counts its status column implies.

    A status lists the violated projections W, H, R in that order; "WH"
    alone marks a tuple excluded only by the full (w, h) limit and "OK" a
    compatible one.  Any flag implies (w, h) exclusion.  A malformed file
    gives a row count of -1.
    """
    lines = data.split(b"\n")
    if lines[0] != GRID_HEADER or lines[-1] != b"":
        return -1, {}
    statuses = {}
    for line in lines[1:-1]:
        status = line.rpartition(b",")[2]
        statuses[status] = statuses.get(status, 0) + 1
    if not statuses.keys() <= GRID_STATUSES:
        return -1, {}
    tally = dict.fromkeys(COUNT_KEYS, 0)
    for status, count in statuses.items():
        if status != b"OK":
            tally["by_wh"] += count
        if status != b"WH":
            tally["by_w"] += count * (b"W" in status)
            tally["by_h"] += count * (b"H" in status)
        tally["by_r"] += count * (b"R" in status)
    return len(lines) - 2, tally


def observe(code, stdout: str, out_dir: Path | None) -> dict:
    """Record what one operation produced."""
    obs = {"code": code, "stdout": stdout, "files": {}}
    if out_dir is not None and out_dir.is_dir():
        for path in sorted(out_dir.rglob("*")):
            if not path.is_file():
                continue
            data = path.read_bytes()
            entry = {"sha256": sha256(data)}
            if path.name == "grid.csv":
                entry["rows"], entry["tally"] = grid_tally(data)
            elif path.name == "report.json":
                try:
                    entry["json"] = json.loads(data)
                except ValueError:
                    entry["json"] = None
            obs["files"][path.relative_to(out_dir).as_posix()] = entry
    return obs


def digests(obs: dict) -> dict:
    """The recorded form of an operation's outputs."""
    return {
        "stdout": sha256(obs["stdout"].encode()),
        "files": {name: entry["sha256"] for name, entry in obs["files"].items()},
    }


def _summary_rows(stdout: str, problems: list) -> list[list[str]]:
    lines = stdout.splitlines()
    if not lines or lines[0].split() != SUMMARY_HEADER:
        problems.append("stdout has no summary header")
        return []
    rows = []
    for line in lines[1:]:
        cells = line.split()
        # the value cell of a dB record reads "-4.5 dB", so parse from both ends
        if len(cells) < len(SUMMARY_HEADER):
            problems.append(f"short summary row {line!r}")
            continue
        rows.append(cells[:3] + [" ".join(cells[3:-8])] + cells[-8:])
    return rows


def _as_int(text: str, problems: list):
    try:
        return int(text)
    except ValueError:
        problems.append(f"not an integer: {text!r}")
        return None


def expected_counts(n: int, w: int, h: int, r: int, tuples, bounds) -> dict:
    """by_w, by_h and by_r implied by the inferred w, h and r."""
    below = [x for x in bounds.valid_ranks(n) if x < r]
    r_below = below[-1] if below else None
    if r_below is None:
        by_r = 0
    elif 3 - n <= r_below <= n - 3:
        by_r = tuples.count_rank_leq_closed(n, r_below)
    else:
        by_r = tuples.count_rank_leq(n, r_below)
    return {
        "by_w": tuples.count_width_leq(n, min(w - 1, n)) if w > 1 else 0,
        "by_h": tuples.count_height_geq(n, max(h + 1, 1)) if h < n else 0,
        "by_r": by_r,
    }


def _check_record(record, row, files, writes, tuples, bounds, problems) -> None:
    label = record.label if writes else record.summary_label()
    shown = f"{record.value} dB" if record.unit == "db" else record.value
    if row[:4] != [label, str(record.n), record.kind, shown]:
        problems.append(f"row {row[:4]} does not echo record {record.label!r}")
        return
    ints = [_as_int(cell, problems) for cell in row[4:11]]
    if None in ints:
        return
    w, h, r, *counts = ints
    counts = dict(zip(COUNT_KEYS, counts))
    if record.expect is not None and (w, h, r, *counts.values()) != record.expect:
        problems.append(f"{record.label}: got {(w, h, r, *counts.values())}, "
                        f"known {record.expect}")
    if record.on_limit_w is not None and w > record.on_limit_w:
        problems.append(f"{record.label}: w {w} excludes class {record.on_limit_w}, "
                        f"whose limit the value equals")
    want = expected_counts(record.n, w, h, r, tuples, bounds)
    for key, value in want.items():
        if counts[key] != value:
            problems.append(f"{record.label}: {key} {counts[key]} != tuple count {value}")
    total = tuples.count_width_leq(record.n, record.n)
    if not max(want.values()) <= counts["by_wh"] <= total:
        problems.append(f"{record.label}: by_wh {counts['by_wh']} outside its range")
    h_excl = str(h + 1) if h + 1 <= record.n else "-"
    if row[11] != h_excl:
        problems.append(f"{record.label}: h_excl {row[11]!r}, expected {h_excl!r}")
    if not writes:
        return
    report = files.get(f"{record.label}/report.json", {}).get("json")
    grid = files.get(f"{record.label}/grid.csv")
    if not isinstance(report, dict) or grid is None:
        problems.append(f"{record.label}: report.json or grid.csv missing or unreadable")
        return
    echoed = {k: report.get(k) for k in ("label", "n", "kind", "value")}
    if echoed != {"label": record.label, "n": record.n, "kind": record.kind,
                  "value": record.value}:
        problems.append(f"{record.label}: report.json echoes {echoed}")
    if report.get("inferred") != {"w": w, "h": h, "r": r}:
        problems.append(f"{record.label}: report.json inferred {report.get('inferred')}")
    if report.get("counts") != counts:
        problems.append(f"{record.label}: report.json counts {report.get('counts')}")
    if grid["rows"] != total:
        problems.append(f"{record.label}: grid.csv has {grid['rows']} rows, {total} tuples")
    if grid["tally"] != counts:
        problems.append(f"{record.label}: grid.csv tallies {grid['tally']} != {counts}")


def check(op, obs: dict, tuples, bounds, recorded: dict | None = None) -> list[str]:
    """Problems with one operation's outputs; empty when it passed.

    ``tuples`` and ``bounds`` are the package modules used for the count
    identities; ``recorded`` is the op's recorded digests, if any.
    """
    problems = []
    if obs["code"] != 0:
        problems.append(f"exit code {obs['code']!r}, expected 0")
    if recorded is not None and digests(obs) != recorded:
        problems.append("outputs differ from the recorded digests")
    if op.args[0] == "verify":
        if obs["stdout"] != "":
            problems.append("verify printed to stdout")
        return problems
    rows = _summary_rows(obs["stdout"], problems)
    if len(rows) != len(op.records):
        problems.append(f"{len(rows)} summary rows for {len(op.records)} records")
        return problems
    if op.writes:
        expected_files = {f"{r.label}/{name}" for r in op.records
                          for name in ("report.json", "grid.csv")}
        if set(obs["files"]) != expected_files:
            problems.append(f"wrote {sorted(obs['files'])}")
    elif obs["files"]:
        problems.append("wrote files without --out")
    for record, row in zip(op.records, rows):
        _check_record(record, row, obs["files"], op.writes, tuples, bounds, problems)
    return problems
