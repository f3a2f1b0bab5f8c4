"""File products: CSV tables, JSON-lines event logs, run metadata.

All numbers are written with repr precision so outputs are byte-stable for
identical inputs.  Money columns are integer minor units.  Every file is
written, and a PMF table read, as UTF-8 whatever the locale.

Every CSV has the same bytes as `csv.writer`'s default dialect: fields are
quoted only where needed (`QUOTE_MINIMAL`) and lines end in `\\r\\n`.
`events.jsonl` has the bytes of `json.JSONEncoder(separators=(",", ":"))`,
one event per line.

The three large files, `events.jsonl`, `trajectory.csv` and
`sentiment.csv`, are written as preformatted lines under one rule: each
distinct string is encoded once (JSON-encoded, or for a CSV written as it
is unless it holds `"`, `,`, `\\r`, `\\n` or NUL, and then by
`csv.writer` itself), floats are written by repr, or by the
kernel's digit routine, which equals it (README, "Race kernel"), and
lines are joined into bounded chunks before each write.
`sentiment.csv` is written per sentiment event, read a chunk at a time
through a session's `sentiment_rows` view: an event's lines are its
`time,bettor,` prefix joined onto its odds list's lines, which are built
once a chunk for each distinct list.  An event line is one %-format of its
kind's template, built once from `session.EVENT_FIELDS`, which gives each
field's JSON type.  A str, int or float is written in place, a grid payload
by hand-written rows, and any other value (odds and positions lists,
close's refunds, settle's rows) is the encoder's own JSON.  A session's
grid snapshots share the row of a competitor whose book did not change,
and its sentiment events share each distinct odds list, so the JSON of
each grid row and other value is memoised by identity for one
`write_events_jsonl` call, as the strings are by value.  An event the
template would not write byte for byte goes through the encoder: one with
a bool, a non-finite float, an int, float or str subclass in a scalar
slot or its keys in another order, and one of an unknown kind.  The CSV
lines need no such fallback for their fields, as `csv` quotes an id alike
wherever it stands and never quotes a float's repr; a `trajectory.csv`
chunk holding a position the kernel's digit routine does not write is
written by repr.  The kernel reads
`trajectory.csv`'s positions in place from the trajectory's flat
`snapshots` array and writes each chunk into one reused buffer, so no
position becomes a Python float on the way.
`tests/test_writers.py` holds `csv.writer` and `JSONEncoder` as the byte
oracles of both.
"""

import csv
import functools
import io
import json
import re
from itertools import islice
from math import inf
from operator import itemgetter
from pathlib import Path

from . import __version__
from .batch import ORDER_SPACE, WINNER_SPACE, BenchPoint, OutcomePMF, RaceResult, SessionSummary
from .exchange import SettlementReport
from .race import Trajectory, engine
from .seeding import RNG_ALGORITHM
from .session import EVENT_FIELDS, SentimentRows


# json.dumps builds a new encoder per call when given separators; share one.
_EVENT_ENCODER = json.JSONEncoder(separators=(",", ":"))


# Lines joined into one string per write; bounds the memory a write takes.
_CHUNK_LINES = 2048


class _Memo(dict):
    """fn(key) for each key looked up, computed once."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _FloatReprs(dict):
    """repr(x) for each float x looked up, computed once.

    0.0 and -0.0 are one key with two reprs, so zeros are not kept.
    """

    def __missing__(self, x):
        text = repr(x)
        if x:
            self[x] = text
        return text


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# The characters csv.writer quotes a field for, and NUL, which 3.10's refuses.
_CSV_SPECIAL = re.compile('[",\r\n\0]').search


def _csv_field(value: str) -> str:
    """`value` as `csv.writer` writes it in a row of more than one field.

    A value holding none of `"`, `,`, `\\r`, `\\n` and NUL is written as
    it is; any other goes through `csv.writer`, so it is quoted, or its NUL
    written or refused, as this Python's `csv` does.
    """
    if _CSV_SPECIAL(value) is None:
        return value
    buf = io.StringIO()
    csv.writer(buf).writerow(["", value])
    return buf.getvalue()[1:-2]


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """tick,competitor_id,position with one row per tick per competitor.

    The race engine writes each chunk's lines: the kernel in C, straight
    from traj.snapshots.  A chunk it does not write (one holding a position
    the kernel refuses, and every chunk on the Python loop) is written by
    the f-string loop, which is the reference.
    """
    values, n = traj.snapshots, len(traj.competitor_ids)
    if not n or len(values) % n:
        raise ValueError(f"{len(values)} snapshot positions are not whole ticks of {n}")
    prefixes = [f",{_csv_field(cid)}," for cid in traj.competitor_ids]
    lines = engine().position_lines(prefixes, values)
    ticks, step = len(values) // n, max(1, _CHUNK_LINES // n)  # step: ticks per chunk
    with open(path, "wb") as fh:
        fh.write(b"tick,competitor_id,position\r\n")
        for start in range(0, ticks, step):
            stop = min(start + step, ticks)
            chunk = lines(start, stop - start)
            if chunk is None:
                chunk = "".join(
                    [
                        f"{tick}{prefix}{pos!r}\r\n"
                        for tick in range(start, stop)
                        for prefix, pos in zip(prefixes, values[tick * n : (tick + 1) * n])
                    ]
                ).encode()
            fh.write(chunk)


def write_finish_csv(path: Path, traj: Trajectory) -> None:
    ranks = {cid: rank for rank, cid in enumerate(traj.finish_order, start=1)}
    rows = ((cid, tick, ranks[cid]) for cid, tick in zip(traj.competitor_ids, traj.finish_ticks))
    _write_csv(path, ["competitor_id", "finish_tick", "finish_rank"], rows)


# How a template writes a value v of each type EVENT_FIELDS names: its
# placeholder, the expression it formats, and the test that sends the event to
# the encoder instead.  An object is written by the encoder, so it needs none.
_SLOTS = {
    int: ("%d", "{v}", "type({v}) is not int"),
    float: ("%s", "floats[{v}]", "type({v}) is not float or not -inf < {v} < inf"),
    str: ("%s", "strings[{v}]", "type({v}) is not str"),
    dict: ("%s", "_grid_json({v}, strings, objects)", "type({v}) is not dict"),
    object: ("%s", "_by_identity({v}, objects, encode)", None),
}


def _by_identity(value, objects: dict, to_json) -> str:
    """to_json(value), memoised in objects by the value's identity.

    objects holds (value, JSON) pairs: holding the value keeps its id from
    being reused.  A value to_json cannot write raises each time it is met.
    """
    hit = objects.get(id(value))
    if hit is None:
        hit = objects[id(value)] = (value, to_json(value))
    return hit[1]


def _levels_json(levels: list) -> str:
    """A grid side's [[odds, stake], ...] levels as JSON, without the outer brackets."""
    if type(levels) is not list:
        raise ValueError
    out = []
    for level in levels:
        if type(level) is not list or len(level) != 2:
            raise ValueError
        odds, stake = level
        if type(odds) is not float or type(stake) is not int or not -inf < odds < inf:
            raise ValueError
        out.append(f"[{odds!r},{stake}]")
    return ",".join(out)


def _row_json(row: dict) -> str:
    """One competitor's grid row, {"backs": levels, "lays": levels}, as JSON."""
    if type(row) is not dict or tuple(row) != ("backs", "lays"):
        raise ValueError
    backs, lays = map(_levels_json, row.values())
    return f'{{"backs":[{backs}],"lays":[{lays}]}}'


def _grid_json(grid: dict, strings: _Memo, objects: dict) -> str:
    """A grid_snapshot payload, {cid: row}, as JSON; each row's JSON is
    memoised by the row's identity (see _by_identity)."""
    out = []
    for cid, row in grid.items():
        if type(cid) is not str:
            raise ValueError
        out.append(f"{strings[cid]}:{_by_identity(row, objects, _row_json)}")
    return "{" + ",".join(out) + "}"


def _json_literal(text: str) -> str:
    """text as a JSON string, escaped for a %-template."""
    return _EVENT_ENCODER.encode(text).replace("%", "%%")


# One kind's line function; _compile_line fills in the fields.
_LINE_SOURCE = """\
def line(event, strings, floats, objects):
    if tuple(event) != keys:
        raise ValueError
    {values}, = get(event)
    if {tests}:
        raise ValueError
    return template % ({args},)
"""


def _compile_line(kind: str):
    """line(event, strings, floats, objects): one `kind` event as its JSON line.

    The line is one %-format of a template that holds every key and the
    kind.  strings and floats memoise the JSON of each string and float,
    objects that of each grid row and object value (see _by_identity).
    line raises ValueError for an event the template would not write byte
    for byte.
    """
    fields = {"seq": int, "time": float, **EVENT_FIELDS[kind]}
    values = [f"v{i}" for i in range(len(fields))]
    members, args, tests = [], [], []
    for (name, typ), v in zip(fields.items(), values):
        placeholder, arg, test = _SLOTS[typ]
        members.append(f"{_json_literal(name)}:{placeholder}")
        args.append(arg.format(v=v))
        if test is not None:
            tests.append(test.format(v=v))
    members.insert(2, f'"kind":{_json_literal(kind)}')
    source = _LINE_SOURCE.format(values=", ".join(values), tests=" or ".join(tests), args=", ".join(args))
    namespace = {
        "keys": ("seq", "time", "kind", *EVENT_FIELDS[kind]),
        "get": itemgetter(*fields),
        "template": "{" + ",".join(members) + "}\n",
        "inf": inf,
        "encode": _EVENT_ENCODER.encode,
        "_by_identity": _by_identity,
        "_grid_json": _grid_json,
    }
    exec(source, namespace)
    return namespace["line"]


@functools.cache
def _event_lines() -> dict:
    """Each kind's line function.  Compiling them takes a few
    milliseconds, so a process pays it when it first writes events."""
    return {kind: _compile_line(kind) for kind in EVENT_FIELDS}


def write_events_jsonl(path: Path, events: list[dict]) -> None:
    lines, encode = _event_lines(), _EVENT_ENCODER.encode
    strings, objects = _Memo(encode), {}
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(events), _CHUNK_LINES):
            floats = _FloatReprs()  # a chunk's times and odds
            chunk = []
            for event in events[start : start + _CHUNK_LINES]:
                try:
                    chunk.append(lines[event["kind"]](event, strings, floats, objects))
                except (KeyError, TypeError, ValueError):  # no template, or not one it writes
                    chunk.append(f"{encode(event)}\n")
            fh.write("".join(chunk))


def write_sentiment_csv(path: Path, rows: SentimentRows) -> None:
    """time,bettor_id,competitor_id,decimal_odds, one line per row of rows,
    a SessionResult.sentiment_rows view, written from its sentiment events.

    An event's lines are its `time,bettor,` prefix joined onto the block
    of its odds list: "" and then one `competitor,odds` line per competitor.
    A session's sentiment events share one odds list per distinct
    prediction, so each list's block is built once a chunk, keyed by its
    identity (see _by_identity), and an event costs one join.
    """
    cids = [_csv_field(cid) for cid in rows.competitor_ids]

    def block_of(odds: list[float]) -> list[str]:
        return ["", *(f"{cid},{float(o)!r}\r\n" for cid, o in zip(cids, odds))]

    bettors, events = _Memo(_csv_field), rows.events()
    per_chunk = max(1, _CHUNK_LINES // len(cids))  # events
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("time,bettor_id,competitor_id,decimal_odds\r\n")
        while True:
            blocks: dict = {}
            lines = []
            for event in islice(events, per_chunk):
                block = _by_identity(event["odds"], blocks, block_of)
                lines.append(f"{float(event['time'])!r},{bettors[event['bettor']]},".join(block))
            if not lines:
                break
            fh.write("".join(lines))


def write_settlement_csv(path: Path, report: SettlementReport) -> None:
    rows = ((r.bettor_id, r.gross, r.commission, r.net) for r in report.rows)
    _write_csv(path, ["bettor_id", "gross", "commission", "net"], rows)


def write_pmf_csv(path: Path, pmf: OutcomePMF) -> None:
    rows = ((k, pmf.counts[k], repr(pmf.counts[k] / pmf.n_samples)) for k in sorted(pmf.counts))
    _write_csv(path, ["outcome", "count", "frequency"], rows)


def read_pmf_csv(path: Path) -> OutcomePMF:
    """Read a PMF table back; the space is inferred from the outcome keys.

    Competitor ids cannot contain '-', so hyphenated keys are full finish
    orders and bare keys are winner marginals.
    """
    counts: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["outcome", "count"]:
            raise ValueError(f"{path}: not a PMF table (header {header!r})")
        for row in reader:
            if not row:
                continue
            if len(row) < 2 or not row[1].isdecimal():
                raise ValueError(f"{path}: row {reader.line_num} {row!r}: count must be an int >= 0")
            if row[0] in counts:
                raise ValueError(f"{path}: row {reader.line_num} {row!r}: outcome listed twice")
            counts[row[0]] = int(row[1])
    if not counts:
        raise ValueError(f"{path}: PMF table has no rows")
    total = sum(counts.values())
    if total == 0:
        raise ValueError(f"{path}: every row has count 0")
    space = ORDER_SPACE if any("-" in k for k in counts) else WINNER_SPACE
    return OutcomePMF(space=space, n_samples=total, counts=counts)


def write_race_runs_csv(path: Path, results: list[RaceResult]) -> None:
    rows = (
        (r.run_index, r.winner, r.winner_ticks, r.n_ticks, "-".join(r.finish_order)) for r in results
    )
    _write_csv(path, ["run", "winner", "winner_ticks", "n_ticks", "finish_order"], rows)


def write_session_runs_csv(path: Path, results: list[SessionSummary]) -> None:
    header = ["run", "winner", "winner_ticks", "n_events", "total_matched", "total_commission"]
    rows = (
        (r.run_index, r.winner, r.winner_ticks, r.n_events, r.total_matched, r.total_commission)
        for r in results
    )
    _write_csv(path, header, rows)


def write_bench_csv(path: Path, points: list[BenchPoint]) -> None:
    rows = ((p.n_competitors, repr(p.mean_s), repr(p.sd_s), repr(p.cv), p.reps) for p in points)
    _write_csv(path, ["n_competitors", "mean_s", "sd_s", "cv", "reps"], rows)


def write_metadata(
    out_dir: Path, command: str, master_seed: int, config_digest: str, outputs: list[str]
) -> None:
    """One metadata JSON per invocation, beside the outputs it describes."""
    meta = {
        "version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "command": command,
        "master_seed": master_seed,
        "config_digest": config_digest,
        "outputs": sorted(outputs),
    }
    with open(out_dir / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
