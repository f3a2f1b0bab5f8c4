import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from dataclasses import replace
from enum import IntEnum
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import racemarket
from racemarket import _kernel
from racemarket.batch import BatchConfig, BenchPoint, OutcomePMF, pmf_from_results, run_batch
from racemarket.config import config_to_dict, parse_config
from racemarket.race import Trajectory, run_race
from racemarket.session import EVENT_FIELDS, SentimentRows, run_session
from racemarket.writers import (
    _CHUNK_LINES,
    _FloatReprs,
    _Memo,
    _csv_field,
    _event_lines,
    read_pmf_csv,
    write_bench_csv,
    write_events_jsonl,
    write_finish_csv,
    write_metadata,
    write_pmf_csv,
    write_race_runs_csv,
    write_sentiment_csv,
    write_trajectory_csv,
)

from conftest import make_race
from kernel_parity import python_loop


# Ids that csv must quote, or that sit on the edge of quoting.
AWKWARD_IDS = ('c"1', " lead", "new\nline", "carriage\rreturn", "it's", "Ωmega", "", "c1")
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-05, 1e16, 1.0000000000000002)
# Ids that a %-format would read as a placeholder.
PERCENT_IDS = ("%", "%s", "%%", "c%d1")
# Strings that JSON must escape, besides AWKWARD_IDS.
ESCAPED_IDS = ("back\\slash", "tab\tid", "nul\x00", "bell\x07", "del\x7f", "line\u2028sep", "\ud800")
NON_FINITE = (math.nan, math.inf, -math.inf)
DERBY = Path(__file__).resolve().parent.parent / "configs" / "derby.json"

# The byte oracle for events.jsonl.
ORACLE = json.JSONEncoder(separators=(",", ":"))


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def reference_trajectory_csv(path, ids, ticks):
    """trajectory.csv of rows of positions through csv.writer: the bytes the
    fast writer must match."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["tick", "competitor_id", "position"])
        w.writerows(
            (tick, cid, repr(pos)) for tick, row in enumerate(ticks) for cid, pos in zip(ids, row)
        )


def reference_sentiment_csv(path, rows):
    """sentiment.csv through csv.writer: the bytes the fast writer must match."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "bettor_id", "competitor_id", "decimal_odds"])
        w.writerows((repr(float(t)), b, cid, repr(float(o))) for t, b, cid, o in rows)


def trajectory_of(ticks, ids=AWKWARD_IDS):
    """A Trajectory whose snapshots hold ticks, rows of one position per id."""
    n = len(ids)
    snapshots = array("d", chain.from_iterable(ticks))
    return Trajectory(ids, snapshots, (len(ticks) - 1,) * n, ids, 0)


def assert_trajectory_csv_matches(directory, ticks, ids=AWKWARD_IDS):
    """write_trajectory_csv with the kernel and on the Python loop, each
    byte for byte with csv.writer and repr of the rows."""
    traj = trajectory_of(ticks, ids)
    reference_trajectory_csv(directory / "ref.csv", ids, ticks)
    expected = (directory / "ref.csv").read_bytes()
    write_trajectory_csv(directory / "kernel.csv", traj)
    with python_loop():
        write_trajectory_csv(directory / "loop.csv", traj)
    assert (directory / "kernel.csv").read_bytes() == expected
    assert (directory / "loop.csv").read_bytes() == expected


def test_trajectory_csv_matches_csv_writer(tmp_path):
    n = len(AWKWARD_IDS)
    ticks = tuple(
        tuple(EDGE_FLOATS[(tick + c) % len(EDGE_FLOATS)] for c in range(n)) for tick in range(12)
    )
    assert_trajectory_csv_matches(tmp_path, ticks)


# Positions the kernel refuses, so a chunk holding one is written by repr.
REFUSED = (-0.0, 5e-324, math.nextafter(2.0**-6, 0.0), 2.0**53, 1e16, *NON_FINITE)


def test_trajectory_csv_chunks_the_kernel_refuses_fall_back(tmp_path, monkeypatch):
    n = len(AWKWARD_IDS)
    per_chunk = _CHUNK_LINES // n
    rng = random.Random(3)
    ticks = [
        tuple(rng.choice((rng.uniform(1.0, 3000.0), float(rng.randrange(100)))) for _ in range(n))
        for _ in range(3 * per_chunk + 5)  # three whole chunks and part of a fourth
    ]
    ticks[0] = (0.0,) * n
    # chunk 1 holds refused values; chunks 0, 2 and the short chunk 3 go
    # through the kernel, each read at its own offset of the snapshots
    for k, x in enumerate(REFUSED):
        tick = per_chunk + 2 * k
        ticks[tick] = (*ticks[tick][:k], x, *ticks[tick][k + 1 :])
    written = []
    position_lines = _kernel.Kernel.position_lines

    def spied(self, prefixes, snapshots):
        lines = position_lines(self, prefixes, snapshots)

        def recorded(tick, count):
            chunk = lines(tick, count)
            written.append(chunk is not None)
            return chunk

        return recorded

    monkeypatch.setattr(_kernel.Kernel, "position_lines", spied)
    assert_trajectory_csv_matches(tmp_path, tuple(ticks))
    if _kernel.load() is not None:
        assert written == [True, False, True, True]


def test_trajectory_csv_refuses_snapshots_that_are_not_whole_ticks(tmp_path):
    ticks = ((0.0, 0.0), (1.5, 2.5))
    traj = replace(trajectory_of(ticks, ("c1", "c2")), snapshots=array("d", [0.0, 0.0, 1.5]))
    for loop in (False, True):
        with pytest.raises(ValueError, match="not whole ticks of 2"):
            if loop:
                with python_loop():
                    write_trajectory_csv(tmp_path / "loop.csv", traj)
            else:
                write_trajectory_csv(tmp_path / "kernel.csv", traj)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.one_of(st.floats(), st.floats(2.0**-6, 2.0**53, exclude_max=True)), min_size=1),
)
def test_random_positions_match_csv_writer(tmp_path_factory, n, values):
    rows = len(values) // n or 1
    values = (values * n)[: rows * n]
    ticks = tuple(tuple(values[k : k + n]) for k in range(0, rows * n, n))
    assert_trajectory_csv_matches(tmp_path_factory.mktemp("trajectory"), ticks, AWKWARD_IDS[:n])


def csv_writer_field(value):
    """value as csv.writer writes it in a row of two fields: the oracle of _csv_field."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", value])
    return buf.getvalue()[1:-2]


def written_or_raised(fn, value):
    """fn(value), or the type and message of what it raised."""
    try:
        return fn(value)
    except Exception as exc:
        return type(exc), str(exc)


def assert_csv_field_matches_csv_writer(value):
    assert written_or_raised(_csv_field, value) == written_or_raised(csv_writer_field, value)


def test_csv_field_matches_csv_writer_on_awkward_ids():
    # the id rule's five characters alone and inside an id; a NUL is written
    # from Python 3.11 on and refused by 3.10's csv, and _csv_field must do the same
    for value in AWKWARD_IDS + ESCAPED_IDS + ('"', ",", "\r", "\n", "\x00", "a,b", "a\x00b", " ", "\r\n"):
        assert_csv_field_matches_csv_writer(value)


@settings(max_examples=500, deadline=None)
@given(st.text(st.one_of(st.sampled_from('",\r\n\x00 '), st.characters()), max_size=8))
def test_csv_field_matches_csv_writer(value):
    assert_csv_field_matches_csv_writer(value)


def sentiment_view(events, ids):
    """A SentimentRows view over (time, bettor, odds) sentiment events, with a
    race_tick event after every third, as a session's log has."""
    log = []
    for k, (time, bettor, odds) in enumerate(events):
        log.append({"seq": len(log) + 1, "time": time, "kind": "sentiment", "bettor": bettor, "odds": odds})
        if k % 3 == 2:
            log.append({"seq": len(log) + 1, "time": time, "kind": "race_tick", "tick": k, "positions": odds})
    return SentimentRows(log, ids)


def test_sentiment_csv_matches_csv_writer(tmp_path):
    ids = AWKWARD_IDS + PERCENT_IDS + ESCAPED_IDS[:2]
    bettors = ("a000.rp",) + AWKWARD_IDS + PERCENT_IDS
    # an int time is written as a float; -0.0 and 0.0 are equal times with
    # different reprs, and so are odds 0.0 and -0.0
    times = (0, 60, 0.5, -0.0) + EDGE_FLOATS
    odds = EDGE_FLOATS + (2, math.nan, math.inf, -math.inf, 1.5, 3.25)
    n = len(ids)
    lists = [[odds[(k + c) % len(odds)] for c in range(n)] for k in range(4)]
    per_chunk = _CHUNK_LINES // n
    spans = range(2 * per_chunk + 3)  # events over three chunks
    at = [(times[k % len(times)], bettors[k % len(bettors)]) for k in spans]
    shared = [(t, b, lists[k % len(lists)]) for k, (t, b) in enumerate(at)]  # as a session shares them
    unshared = [(t, b, list(lists[k % len(lists)])) for k, (t, b) in enumerate(at)]  # one list an event
    # lists shorter than the field (a row per odds value) and empty, between shared ones
    ragged = [(0.5, "a001.lw", lists[0]), (1, "%s", lists[1][:3]), (2, "%%", []), (3, "%", lists[0])]
    for events in (shared, unshared, shared[:1], [], ragged):
        view = sentiment_view(events, ids)
        write_sentiment_csv(tmp_path / "fast.csv", view)
        reference_sentiment_csv(tmp_path / "ref.csv", view)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len(read_rows(tmp_path / "fast.csv")) == 1 + n + 3 + 0 + n


# zi bettors alone, waking every second on derby.json: 45,000 sentiment rows,
# whose session takes a fraction of a second
STREAMED_SESSION_AGENTS = 50


def test_sentiment_csv_is_streamed_from_the_session_events(tmp_path):
    # SessionResult.sentiment_rows is a view over the events, so writing it
    # holds one chunk of lines, not a row per wake and competitor (86 B a row
    # when the rows were a list)
    cfg = parse_config(DERBY.read_text())
    zi = next(g for g in cfg.session.agents if g.strategy == "zi")
    agents = (replace(zi, count=STREAMED_SESSION_AGENTS, reevaluate_every=1.0, wake_jitter=1.0),)
    scfg = replace(cfg, session=replace(cfg.session, agents=agents)).session_config(master_seed=5)
    result = run_session(scfg)
    # first-call imports and compiles, not traced
    write_sentiment_csv(tmp_path / "warm.csv", SentimentRows([], scfg.race.competitor_ids))
    tracemalloc.start()
    try:
        write_sentiment_csv(tmp_path / "sentiment.csv", result.sentiment_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(result.sentiment_rows)
    assert rows >= 10_000
    assert peak / rows < 20, f"{peak} B traced for {rows} rows"
    reference_sentiment_csv(tmp_path / "ref.csv", result.sentiment_rows)
    assert (tmp_path / "sentiment.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# -- events.jsonl -----------------------------------------------------------

# A value of each field of EVENT_FIELDS, of the type the session writes.
FIELD_SAMPLES = {
    "bettor": "a001.zi",
    "competitor": "c1",
    "side": "back",
    "odds": 2.5,
    "stake": 1000,
    "bet_id": 7,
    "matched": 500,
    "amount": 300,
    "back_bet": 3,
    "lay_bet": 4,
    "back_bettor": "a002.lw",
    "lay_bettor": "a003.ud",
    "cancelled": 200,
    "reason": "insufficient funds",
    "tick": 12,
    "positions": [0.0, 12.5, 1e16],
    "refund": 100,
    "refunds": [["a001.zi", 100]],
    "grid": {"c1": {"backs": [[2.5, 100], [2.0, 50]], "lays": [[3.0, 70]]}, "c2": {"backs": [], "lays": []}},
    "winner": "c1",
    "total_commission": 50,
    "rows": [["a001.zi", 10, 1, 9]],
}
SENTIMENT_ODDS = [1.5, 1000.0, 4.0]


class Code(IntEnum):
    ONE = 1


class Real(float):
    pass


class Text(str):
    pass


def sample_event(kind, **values):
    """A `kind` event with a sample value in each field, then `values`."""
    fields = {name: FIELD_SAMPLES[name] for name in EVENT_FIELDS.get(kind, ())}
    if kind == "sentiment":
        fields["odds"] = SENTIMENT_ODDS
    return {"seq": 1, "time": 0.5, "kind": kind, **fields, **values}


def slots_of(kind, typ):
    """The fields of a sample `kind` event, seq and time included, whose value is a typ."""
    return [name for name, value in sample_event(kind).items() if name != "kind" and type(value) is typ]


def grid_with(odds=2.5, stake=100, level=None, row=None, cid="c1"):
    row = {"backs": [level or [odds, stake]], "lays": []} if row is None else row
    return {"c0": {"backs": [[1.5, 10]], "lays": []}, cid: row}


def oracle_events(events) -> bytes:
    return "".join(f"{ORACLE.encode(e)}\n" for e in events).encode()


def edge_events():
    """Events of every kind, each with one field the template must escape, or
    that it cannot write and the encoder must."""
    events = []
    for kind in EVENT_FIELDS:
        events.append(sample_event(kind))
        for name in slots_of(kind, str):
            events += [sample_event(kind, **{name: s}) for s in AWKWARD_IDS + ESCAPED_IDS]
            events += [sample_event(kind, **{name: v}) for v in (Text("c1"), 1, None)]
        for name in slots_of(kind, float):
            events += [sample_event(kind, **{name: x}) for x in EDGE_FLOATS + NON_FINITE]
            events += [sample_event(kind, **{name: v}) for v in (60, True, Real(0.5), "0.5")]
        for name in slots_of(kind, int):
            events += [sample_event(kind, **{name: v}) for v in (0, -1, 2**70, True, False, Code.ONE, 1.0, "1")]
        for name in slots_of(kind, list):
            for x in EDGE_FLOATS + NON_FINITE + (2, True, Real(0.5), None):
                events.append(sample_event(kind, **{name: [1.5, x]}))
            events += [sample_event(kind, **{name: v}) for v in ([], (1.5, 2.5), [[1.5]], 1.5)]
        events.append(dict(reversed(sample_event(kind).items())))
        events.append({**sample_event(kind), "extra": 1})
        events.append({k: v for k, v in sample_event(kind).items() if k != "time"})
        moved = sample_event(kind)
        moved["seq"] = moved.pop("seq")
        events.append(moved)
    for odds in EDGE_FLOATS + NON_FINITE + (2, True, Real(0.5)):
        events.append(sample_event("grid_snapshot", grid=grid_with(odds=odds)))
    for stake in (0, 2**70, True, Code.ONE, 1.0):
        events.append(sample_event("grid_snapshot", grid=grid_with(stake=stake)))
    for level in ((2.5, 100), [2.5, 100, 1], [2.5], {"o": 2.5}):
        events.append(sample_event("grid_snapshot", grid=grid_with(level=level)))
    rows = (
        {"backs": [], "lays": []},
        {"lays": [[2.5, 100]], "backs": []},
        {"backs": [], "lays": [], "x": []},
        {"backs": ()},
        {"backs": [], "lays": ([2.5, 100],)},
        [],
    )
    events += [sample_event("grid_snapshot", grid=grid_with(row=row)) for row in rows]
    for cid in AWKWARD_IDS + ESCAPED_IDS + (1, 2.5, True, None, Text("c1")):
        events.append(sample_event("grid_snapshot", grid=grid_with(cid=cid)))
    events += [sample_event("grid_snapshot", grid=g) for g in ({}, [], None)]
    events.append(sample_event("no_such_kind", bettor="a001.zi"))
    events.append({"seq": 1, "time": 0.5})
    events.append({"seq": 1, "time": 0.5, "kind": Text("cancel"), "bettor": "a", "bet_id": 1, "cancelled": 2})
    events.append({"kind": "cancel", "seq": 1, "time": 0.5, "bettor": "a", "bet_id": 1, "cancelled": 2})
    return events


def test_events_jsonl_matches_the_encoder(tmp_path):
    events = edge_events()
    write_events_jsonl(tmp_path / "events.jsonl", events)
    got = (tmp_path / "events.jsonl").read_bytes()
    assert got.splitlines() == oracle_events(events).splitlines()
    assert got == oracle_events(events)


def test_events_jsonl_memos_span_chunks(tmp_path):
    # A chunk boundary between equal values, and 0.0 beside -0.0 in one chunk.
    times = [0.0, -0.0, 0.5, 0.5, 1e16, -0.0, 0.0]
    events = [
        sample_event(kind, seq=i, time=times[i % len(times)])
        for i in range(2 * _CHUNK_LINES + 3)
        for kind in ("submit", "cancel")
    ]
    for table in (events, events[:1], []):
        write_events_jsonl(tmp_path / "events.jsonl", table)
        assert (tmp_path / "events.jsonl").read_bytes() == oracle_events(table)


def test_session_events_are_written_by_their_templates():
    # Every kind has a template, and a session's events are the types the
    # templates write, so none falls back to the encoder.
    cfg = parse_config(DERBY.read_text())
    events = run_session(cfg.session_config(master_seed=3)).events
    assert set(_event_lines()) == set(EVENT_FIELDS)
    assert {e["kind"] for e in events} == set(EVENT_FIELDS) - {"reject"}  # no order was refused
    events += [sample_event(kind) for kind in EVENT_FIELDS]
    strings, floats, objects = _Memo(ORACLE.encode), _FloatReprs(), {}
    for event in events:
        line = _event_lines()[event["kind"]](event, strings, floats, objects)
        assert line == f"{ORACLE.encode(event)}\n"


def test_shared_grid_rows_match_the_encoder(tmp_path):
    # Snapshots share the row of a competitor whose book did not change, and
    # the writer memoises the encoder's JSON of a row by identity, whatever
    # the row holds; a payload with an id that is not a str falls back to
    # the encoder, and a memo lasts one call.
    kept = {"backs": [[2.5, 100], [2.0, 50]], "lays": [[3.0, 70]]}
    bad = {"backs": [[2.5, True]], "lays": []}
    events = []
    for seq in range(1, 9):
        moving = {"backs": [], "lays": [[1.5, seq]]}
        grid = {"c1": kept, 'c"2': bad if seq % 3 == 0 else moving, "c3": kept}
        events.append(sample_event("grid_snapshot", seq=seq, grid=grid))
    events.append(sample_event("grid_snapshot", seq=9, grid={"c1": bad, "c3": kept}))
    events.append(sample_event("grid_snapshot", seq=10, grid={1: kept}))
    path = tmp_path / "events.jsonl"
    write_events_jsonl(path, events)
    assert path.read_bytes() == oracle_events(events)
    kept["lays"][0][1] = 71
    write_events_jsonl(path, events)
    assert path.read_bytes() == oracle_events(events)


json_scalars = st.one_of(st.integers(), st.floats(), st.text(), st.booleans(), st.none())
float_lists = st.lists(st.floats(), max_size=4)
levels = st.lists(st.one_of(st.tuples(st.floats(), st.integers()).map(list), float_lists), max_size=3)
grids = st.dictionaries(st.text(max_size=4), st.fixed_dictionaries({"backs": levels, "lays": levels}), max_size=3)
TYPED = {int: st.integers(), float: st.floats(), str: st.text(), list: float_lists, dict: grids}


@st.composite
def random_events(draw):
    """Events of every kind: half with every value of the session's type,
    half with some values of other types, and some with their keys shuffled."""
    kind = draw(st.sampled_from(sorted(EVENT_FIELDS)))
    typed_only = draw(st.booleans())
    event = {}
    for name, sample in sample_event(kind).items():
        typed = st.just(kind) if name == "kind" else TYPED.get(type(sample), json_scalars)
        event[name] = draw(typed if typed_only else st.one_of(typed, json_scalars, float_lists))
    if draw(st.integers(0, 9)) == 0:
        event = dict(draw(st.permutations(list(event.items()))))
    return event


@settings(max_examples=300, deadline=None)
@given(st.lists(random_events(), max_size=6))
def test_random_events_match_the_encoder(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    write_events_jsonl(path, events)
    assert path.read_bytes() == oracle_events(events)


def test_outputs_are_utf8_whatever_the_locale(tmp_path):
    # The config holds a non-ASCII id as UTF-8; under an ASCII locale it is
    # read, and every file written, with the bytes of a UTF-8 run.
    cfg = parse_config(DERBY.read_text())
    comps = cfg.race.competitors
    named = (replace(comps[0], cid="Ωmega"),) + comps[1:]
    cfg = replace(cfg, race=replace(cfg.race, track_length=400.0, competitors=named))
    config = tmp_path / "omega.json"
    config.write_text(json.dumps(config_to_dict(cfg), ensure_ascii=False), encoding="utf-8")
    src = str(Path(racemarket.__file__).resolve().parent.parent)
    script = (
        "import locale, sys; from racemarket.cli import main; "
        "print(locale.getpreferredencoding(False)); sys.exit(main(sys.argv[1:]))"
    )
    locales = {
        "ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        "utf8": {"PYTHONUTF8": "1"},
    }
    files = ("trajectory.csv", "finish.csv", "sentiment.csv", "events.jsonl")
    runs = {}
    for name, env in locales.items():
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-c", script, "session", "--sentiment", "--config", str(config), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src, **env},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs[name] = (proc.stdout.split()[0], {f: (out / f).read_bytes() for f in files})
    assert runs["ascii"][0].lower() not in ("utf-8", "utf8")  # the locale under test is not UTF-8
    assert runs["ascii"][1] == runs["utf8"][1]
    assert "Ωmega".encode() in runs["utf8"][1]["trajectory.csv"]


def test_trajectory_csv(tmp_path):
    traj = run_race(make_race(n=2, length=100.0), seed=1)
    out = tmp_path / "trajectory.csv"
    write_trajectory_csv(out, traj)
    rows = read_rows(out)
    assert rows[0] == ["tick", "competitor_id", "position"]
    assert len(rows) == 1 + 2 * (traj.n_ticks + 1)
    assert rows[1] == ["0", "c1", "0.0"]
    # repr round-trips every float exactly
    for tick, cid, pos in rows[1:]:
        assert traj.ticks[int(tick)][0 if cid == "c1" else 1] == float(pos)


def test_finish_csv(tmp_path):
    traj = run_race(make_race(n=3, length=100.0), seed=2)
    out = tmp_path / "finish.csv"
    write_finish_csv(out, traj)
    rows = read_rows(out)
    assert rows[0] == ["competitor_id", "finish_tick", "finish_rank"]
    assert [r[0] for r in rows[1:]] == ["c1", "c2", "c3"]
    by_rank = sorted(rows[1:], key=lambda r: int(r[2]))
    assert [r[0] for r in by_rank] == list(traj.finish_order)
    assert all(int(r[1]) == traj.finish_ticks[i] for i, r in enumerate(rows[1:]))


def test_pmf_csv_round_trip(tmp_path):
    # The space is inferred from the keys: a one-runner field's finish
    # orders, like winners, hold no hyphen.
    pmfs = [
        pmf_from_results(run_batch(BatchConfig(make_race(n=n, length=150.0), 40, master_seed=1)))
        for n in (3, 1)
    ]
    pmfs.append(OutcomePMF("winner", 10, {"c1": 7, "c2": 3}))
    out = tmp_path / "pmf.csv"
    for pmf in pmfs:
        write_pmf_csv(out, pmf)
        assert read_pmf_csv(out) == pmf


def test_read_pmf_csv_rejects_other_tables(tmp_path):
    bad = tmp_path / "other.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="not a PMF table"):
        read_pmf_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("outcome,count,frequency\n")
    with pytest.raises(ValueError, match="no rows"):
        read_pmf_csv(empty)


def test_runs_and_bench_csv(tmp_path):
    results = run_batch(BatchConfig(make_race(n=2, length=100.0), 5, master_seed=2))
    runs = tmp_path / "runs.csv"
    write_race_runs_csv(runs, results)
    rows = read_rows(runs)
    assert rows[0] == ["run", "winner", "winner_ticks", "n_ticks", "finish_order"]
    assert len(rows) == 6
    assert rows[1][4].count("-") == 1

    bench_file = tmp_path / "bench.csv"
    write_bench_csv(bench_file, [BenchPoint(5, 0.001, 0.0001, 0.1, 50)])
    rows = read_rows(bench_file)
    assert rows[0] == ["n_competitors", "mean_s", "sd_s", "cv", "reps"]
    assert rows[1] == ["5", "0.001", "0.0001", "0.1", "50"]


def test_metadata(tmp_path):
    write_metadata(tmp_path, "race", 42, "ab" * 32, ["b.csv", "a.csv"])
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["command"] == "race"
    assert meta["master_seed"] == 42
    assert meta["config_digest"] == "ab" * 32
    assert meta["outputs"] == ["a.csv", "b.csv"]
    assert "mt19937" in meta["rng_algorithm"]
    assert meta["version"]
