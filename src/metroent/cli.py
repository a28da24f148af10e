"""Command-line front end: bound tables, measurement analysis, verification.

Subcommands
-----------
bounds        print a class sensitivity-limit table as CSV
analyze       infer w, h, r and excluded-tuple grids from measurements
rank-summary  one (label, n, r, r + n) row per dataset record
verify        check every closed form against brute force, exit 1 on mismatch

Each command's options are declared once, in ``_COMMANDS``.  :func:`main`
reads a plainly formed command line from that table itself; ``argparse``,
whose parser is built from the same table, is imported only to read
whatever the plain reader declines: help, a usage error or an unusual form.

Datasets are UTF-8 CSV files with header ``label,n,kind,value,unit,reference``
where kind is ``fq`` or ``xi2`` and unit is ``linear``, ``db`` or ``none``.
All numeric values stay decimal text until they reach the exact-comparison
pipeline; no binary floats are involved in any exclusion decision.
"""


import io
import os
import sys
from itertools import islice, repeat
from types import SimpleNamespace

from . import bounds, witness
from .witness import Measurement, TupleGrid, WitnessReport

DATASET_HEADER = ["label", "n", "kind", "value", "unit", "reference"]
# Largest n for the two per-tuple outputs, ``bounds --class wh`` and the
# grid.csv of ``analyze --out``, which have one row per valid (w, h) tuple,
# about n**2 / 2: n = 2000 gives about 2 million rows (31 MB of table, 37 MB
# of grid.csv), n = MAX_N 5e11.  Both are written a width at a time.
# _check_cost holds the n**2 of all records together to MAX_WH_TABLE_N**2.
MAX_WH_TABLE_N = 2000
# Limits on a dataset file, checked before any record is analysed: the bundled
# one has 5 records in under 1 kB.
MAX_DATASET_BYTES = 1 << 20
MAX_DATASET_RECORDS = 1000
# argparse dest -> (kind, unit) of the single-value analyze flags
_VALUE_FLAGS = {"fq": ("fq", "none"), "xi2": ("xi2", "linear"), "xi2_db": ("xi2", "db")}
# each record's per-tuple table under --out, named in its report.json
GRID_FILE = "grid.csv"
# write_report's buffer for grid.csv: the widths' chunks are gathered into
# writes of about this many bytes
GRID_WRITE_BUFFER = 1 << 16


def parse_dataset_text(text: str) -> list[Measurement]:
    import csv

    reader = csv.reader(io.StringIO(text))
    # label -> record: the one duplicate-label check, and the records in file order
    records = {}
    # a csv.Error is bad input; its message leaves out reader.line_num, often wrong
    try:
        header = next(reader, None)
        if header != DATASET_HEADER:
            raise ValueError(f"dataset header must be {','.join(DATASET_HEADER)}, got {header}")
        # blank rows are skipped, as csv.DictReader skips them
        for row in filter(None, reader):
            if len(records) == MAX_DATASET_RECORDS:
                raise ValueError(f"dataset has more than {MAX_DATASET_RECORDS} records")
            if len(row) != len(DATASET_HEADER):
                raise ValueError(
                    f"dataset row {row[0]!r} has {len(row)} fields, not {len(DATASET_HEADER)};"
                    " quote a field that holds a comma"
                )
            label, n_text, *rest = row
            if label in records:
                raise ValueError(f"duplicate label {label!r} in dataset")
            n = _plain_int(n_text)
            if n is None:
                raise ValueError(f"bad particle count {n_text!r} for {label!r}")
            # the header is DATASET_HEADER, Measurement's parameters
            records[label] = Measurement(label, n, *rest)
    except csv.Error as exc:
        raise ValueError(f"bad dataset: {exc}") from exc
    return list(records.values())


def load_dataset(path_or_alias: str) -> list[Measurement]:
    """Read a dataset file as UTF-8, the format's encoding, whatever the locale.

    The name ``bundled.csv``, when no file of that name exists, reads the
    packaged data, through the same capped read and decode.
    """
    from pathlib import Path

    path = Path(path_or_alias)
    if not path.exists():
        if path_or_alias != "bundled.csv":
            raise ValueError(f"dataset file not found: {path_or_alias}")
        from importlib import resources

        path = resources.files("metroent").joinpath("data/published.csv")
    with path.open("rb") as f:
        data = f.read(MAX_DATASET_BYTES + 1)
    if len(data) > MAX_DATASET_BYTES:
        raise ValueError(f"dataset file is larger than {MAX_DATASET_BYTES} bytes: {path}")
    # universal newlines, as Path.read_text would, and no spreadsheet's byte-order mark
    return parse_dataset_text(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read())


def _wh_table(n: int, simple: bool, runs):
    """The ``w,h,f<tail>`` rows of each width, one ASCII chunk per width from one ``%``.

    ``runs`` holds ``(w, ((first, stop, tail), ...))``, as ``TupleGrid.runs``
    does: heights ``first <= h < stop`` end their rows in ``tail``, fixed
    ``bytes`` with no ``%``.  Only the ints of ``bounds.wh_limit_column`` go
    in, through a bytes ``%``, which is faster than the ``str`` one.
    """
    rows = [b"%d,%%d" % h for h in range(n + 1)]
    for w, width_runs in runs:
        head = b"%d," % w
        fmt = b"".join(head + (tail + b"\n" + head).join(rows[first:stop]) + tail + b"\n"
                       for first, stop, tail in width_runs)
        yield fmt % tuple(bounds.wh_limit_column(n, w, simple=simple))


def _grid_csv_chunks(grid: TupleGrid):
    """The ``grid.csv`` bytes of ``grid``: the header, then one chunk per width.

    The rows are ``bounds --class wh``'s plus a status column.
    """
    yield b"w,h,f_wh,status\n"
    runs = ((w, [(first, stop, b"," + status.encode("ascii"))
                 for first, stop, status in width_runs])
            for w, width_runs in grid.runs)
    yield from _wh_table(grid.n, grid.simple, runs)


def grid_csv_text(grid: TupleGrid) -> str:
    """The ``grid.csv`` text of ``grid``, whole; :func:`write_report` streams the same bytes."""
    return b"".join(_grid_csv_chunks(grid)).decode("ascii")


def report_json_text(report: WitnessReport) -> str:
    """The ``report.json`` text of ``report``: the measurement, its answer, and the grid file.

    ``q_advantage`` is a QFI record's gain F - n over the shot-noise limit n, exact
    decimal text worked out in integers from the ratio a/10**k of F that the
    measurement read: the sign, the whole part and the fractional digits, trailing
    zeros stripped.  It is null for a squeezing record.
    """
    import json

    m = report.measurement
    q = None
    if m.kind == witness.KIND_QFI:
        a, b = m._quantity
        whole, fraction = divmod(abs(a - m.n * b), b)
        digits = str(fraction).zfill(len(str(b)) - 1).rstrip("0")
        q = "-" * (a < m.n * b) + str(whole) + "." * bool(digits) + digits
    return json.dumps({
        "label": m.label,
        "n": m.n,
        "kind": m.kind,
        "value": m.value,
        "inferred": {"w": report.depth, "h": report.separability, "r": report.rank},
        "counts": dict(report.counts),
        "q_advantage": q,
        "grid_ref": GRID_FILE,
    }, indent=2) + "\n"


def write_report(report: WitnessReport, out_dir: str | os.PathLike) -> os.PathLike:
    """Write ``<label>/report.json`` and ``<label>/grid.csv`` under ``out_dir``.

    ``grid.csv`` is written a width at a time through a ``GRID_WRITE_BUFFER``
    byte buffer, so memory holds one width's rows, never the whole grid.
    """
    from pathlib import Path

    target = Path(out_dir) / report.measurement.label
    target.mkdir(parents=True, exist_ok=True)
    (target / "report.json").write_text(report_json_text(report))
    grid = witness.build_grid(report)
    with (target / GRID_FILE).open("wb", buffering=GRID_WRITE_BUFFER) as f:
        f.writelines(_grid_csv_chunks(grid))
    return target


def _check_cost(ns: list[int], *, tables: bool) -> None:
    """Refuse a command whose records of particle counts ``ns`` ask too much, before any work.

    A ``bounds`` table or an ``analyze`` record costs up to O(n) work, so
    the n must sum to at most witness.MAX_N; ``rank-summary``, one O(log n)
    bisection per record, is held by the dataset caps alone.  A command that
    writes per-tuple tables (``tables``: ``bounds --class wh``,
    ``analyze --out``) writes about n**2 / 2 rows per record, so there the
    n**2 must sum to at most MAX_WH_TABLE_N**2 too.
    """
    for name, power, cap in [("n", 1, witness.MAX_N), ("n**2", 2, MAX_WH_TABLE_N**2)][: 1 + tables]:
        total = sum(n**power for n in ns)
        if total > cap:
            raise ValueError(f"{name} must sum to <= {cap} over the records, got {total}")


def _cmd_bounds(args) -> int:
    n = args.n
    witness.check_n(n)
    _check_cost([n], tables=args.cls == "wh")
    write = sys.stdout.write
    if args.cls == "wh":
        write("w,h,f\n")
        spans = ((w, bounds.heights(n, w)) for w in range(1, n + 1))
        runs = ((w, [(hs.start, hs.stop, b"")]) for w, hs in spans)
        for chunk in _wh_table(n, args.simple, runs):
            write(chunk.decode("ascii"))
        return 0
    # the height limit has no simpler variant; --simple emits the same table
    xs, row = range(1, n + 1), "%d,%d\n"
    column = map(bounds.max_qfi_height, repeat(n), xs)
    if args.cls == "w":
        column = map(bounds.max_qfi_width, repeat(n), xs, repeat(args.simple))
    elif args.cls == "r":
        # %s: the simple column holds "%d.75" text where its limit is not whole
        xs, row = bounds.valid_ranks(n), "%d,%s\n"
        column = bounds.rank_limit_column(n, simple=args.simple)
    xs = iter(xs)
    write("x,f\n")
    # 4096 rows per write: memory stays flat.  Each x is new text, so one %
    # over x and f interleaved beats joining str(x) into the pattern
    while block := list(islice(xs, 4096)):
        fields = [None] * (2 * len(block))
        fields[0::2] = block
        fields[1::2] = islice(column, len(block))
        write(row * len(block) % tuple(fields))
    return 0


def _measurements_from_args(args) -> list[Measurement]:
    picked = [dest for dest in _VALUE_FLAGS if getattr(args, dest) is not None]
    if args.dataset is not None:
        if picked or args.n is not None:
            raise ValueError("--dataset cannot be combined with --n/--fq/--xi2/--xi2-db")
        return load_dataset(args.dataset)
    if args.n is None or len(picked) != 1:
        raise ValueError("need either --dataset or --n with exactly one of --fq/--xi2/--xi2-db")
    kind, unit = _VALUE_FLAGS[picked[0]]
    value = getattr(args, picked[0])
    return [Measurement(label=f"{kind}-n{args.n}", n=args.n, kind=kind, value=value, unit=unit)]


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    table = [header, *rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    print("\n".join("  ".join(map(str.ljust, row, widths)).rstrip() for row in table))


def _cmd_analyze(args) -> int:
    measurements = _measurements_from_args(args)
    _check_cost([m.n for m in measurements], tables=args.out is not None)
    reports = [witness.analyze(m, simple=args.simple) for m in measurements]
    if args.out is not None:
        for report in reports:
            write_report(report, args.out)
    header = ["label", "n", "kind", "value", "w", "h", "r",
              "by_w", "by_h", "by_r", "by_wh", "h_excl"]
    rows = []
    for rep in reports:
        m = rep.measurement
        value = m.value if m.unit != "db" else f"{m.value} dB"
        # the smallest excluded group count, one above the compatible maximum
        h_excl = rep.separability + 1
        answer = (rep.depth, rep.separability, rep.rank, *rep.counts.values())
        rows.append([m.label, str(m.n), m.kind, value, *map(str, answer),
                     str(h_excl) if h_excl <= m.n else "-"])
    _print_table(header, rows)
    return 0


def _cmd_rank_summary(args) -> int:
    import csv

    measurements = load_dataset(args.dataset)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["label", "n", "r", "r_plus_n"])
    for m in measurements:
        r = witness.infer_rank(m)
        writer.writerow([m.label, m.n, r, r + m.n])
    return 0


def _cmd_verify(args) -> int:
    from . import oracle

    mismatches = oracle.verify_closed_forms(args.nmax)
    if not mismatches:
        print(
            f"verify: closed forms match brute force for all n <= {args.nmax}",
            file=sys.stderr,
        )
        return 0
    import json

    for mm in mismatches:
        print(json.dumps(mm, sort_keys=True))
    return 1


def _plain_int(text: str) -> int | None:
    """``int(text)`` under the plain-text rule of ``--n``, ``--nmax`` and dataset ``n``, else None.

    ``int`` alone takes ``1_0``, `` 10`` and non-ASCII digits.
    """
    if witness.is_plain_text(text):
        try:
            return int(text)
        except ValueError:
            pass
    return None


def _int_option(text: str) -> int:
    """The ``type`` of ``--n`` and ``--nmax``: :func:`_plain_int`, refused as ``type=int`` refuses."""
    n = _plain_int(text)
    if n is None:
        import argparse

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return n


_SIMPLE = ("--simple", dict(action="store_true", default=False, help="use the non-tight bounds"))
# command -> (help, function, options in help order as (flag, add_argument keywords)):
# _build_parser's argparse parser and _read_plain both read it
_COMMANDS = {
    "bounds": ("print a class sensitivity-limit table as CSV", _cmd_bounds, [
        ("--n", dict(type=_int_option, required=True, help="particle count")),
        ("--class", dict(dest="cls", choices=("w", "h", "r", "wh"), required=True,
                         help="class family: producibility, separability, Dyson rank, or full tuples")),
        _SIMPLE,
    ]),
    "analyze": ("infer w, h, r and excluded tuples from measurements", _cmd_analyze, [
        ("--n", dict(type=_int_option, help="particle count (with --fq/--xi2/--xi2-db)")),
        ("--fq", dict(help="measured QFI lower bound, decimal text")),
        ("--xi2", dict(help="measured squeezing upper bound, linear decimal text")),
        ("--xi2-db", dict(dest="xi2_db", help="measured squeezing upper bound in dB")),
        ("--dataset", dict(help="CSV dataset file ('bundled.csv' uses the packaged data)")),
        ("--out", dict(help="directory for <label>/report.json and grid.csv")),
        _SIMPLE,
    ]),
    "rank-summary": ("per-record inferred Dyson rank as CSV", _cmd_rank_summary, [
        ("--dataset", dict(required=True)),
    ]),
    "verify": ("closed forms vs brute force; exit 1 on mismatch", _cmd_verify, [
        ("--nmax", dict(type=_int_option, default=30, help="largest n to sweep")),
    ]),
}


# _COMMANDS as _read_plain reads it, worked out once: command -> (flag -> (dest, keywords),
# each dest's value when its flag is not given, the required flags)
_PLAIN = {
    command: (spec, {dest: kw.get("default") for dest, kw in spec.values()},
              {flag for flag, (_, kw) in spec.items() if kw.get("required")})
    for command, (_, _, options) in _COMMANDS.items()
    for spec in [{flag: (kw.get("dest", flag[2:].replace("-", "_")), kw) for flag, kw in options}]
}


def _is_negative_number(text: str) -> bool:
    """True for ASCII ``-5``, ``-5.5`` and ``-.5``, which argparse also reads as values, not flags."""
    whole, dot, fraction = text[1:].partition(".")
    digits = (whole + fraction).isdigit() and bool(fraction or not dot)
    return text[:1] == "-" and text.isascii() and digits


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives ``argv``, but for its ``command`` entry, or None.

    ``argv`` is read by argparse's rules if it is a command name, then only
    exact ``--flag=value``, ``--flag value`` and store-true ``--flag`` tokens
    of that command, a space-form value starting with ``-`` only as a
    negative number; a repeated flag keeps its last value.  Anything else is
    None, left to argparse: help, an abbreviation, ``--``, a missing, extra
    or unconvertible value, a bad choice, a missing required option, and an
    ``--flag=--``, which :func:`main` refuses.
    """
    if not argv or argv[0] not in _PLAIN:
        return None
    spec, defaults, required = _PLAIN[argv[0]]
    args, missing = dict(defaults), set(required)
    words = iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        dest, kw = spec.get(flag, (None, None))
        if kw is None or eq and "action" in kw:
            return None
        if "action" in kw:
            value = True
        else:
            value = value if eq else next(words, "--")
            if value == "--" or not eq and value[:1] == "-" and not _is_negative_number(value):
                return None
            # the type is _int_option, whose refusal argparse reports as a usage error
            value = _plain_int(value) if "type" in kw else value
            if value is None or value not in kw.get("choices", (value,)):
                return None
        args[dest] = value
        missing.discard(flag)
    return None if missing else SimpleNamespace(**args, func=_COMMANDS[argv[0]][1])


def _build_parser():
    """The argparse parser, built from ``_COMMANDS``; ``dest`` names a missing command.

    Only a command line that :func:`_read_plain` declines needs it, so ``argparse`` is imported here.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="metroent",
        description="Exact metrological bounds and witnesses for multipartite entanglement classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kw in options:
            command.add_argument(flag, **kw)
        command.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run ``argv`` (default ``sys.argv[1:]``) and return the exit code.

    :func:`_read_plain` reads a plainly formed command line, with no ``argparse``
    loaded; argparse reads whatever it declines, and refuses ``--flag=--`` with a
    usage error on every Python: a file or directory of that name is ``./--``.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        parser = _build_parser()
        args = parser.parse_args(argv)
        # argparse reads --flag=-- as [] before Python 3.13, and as "--" from it
        if any(value in ([], "--") for value in vars(args).values()):
            parser.error("no option takes the value '--'")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
