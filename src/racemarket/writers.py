"""File products: CSV tables, JSON-lines event logs, run metadata.

All numbers are written with repr precision so outputs are byte-stable for
identical inputs.  Money columns are integer minor units.

Every CSV has the same bytes as `csv.writer`'s default dialect: fields are
quoted only where needed (`QUOTE_MINIMAL`) and lines end in `\r\n`.  The two
large tables, `trajectory.csv` and `sentiment.csv`, skip `csv.writer` and
write preformatted lines under one rule: each id is quoted once, as `csv`
would quote it, floats are written by `repr` (which never needs quoting),
and each line ends in `\r\n`.
"""

import csv
import functools
import io
import json
from pathlib import Path

from . import __version__
from .batch import ORDER_SPACE, WINNER_SPACE, BenchPoint, OutcomePMF, RaceResult, SessionSummary
from .exchange import SettlementReport
from .race import Trajectory
from .seeding import RNG_ALGORITHM


# json.dumps builds a new encoder per call when given separators; share one.
_EVENT_ENCODER = json.JSONEncoder(separators=(",", ":"))


# Sentiment rows joined into one string per write; bounds the memory a write takes.
_SENTIMENT_CHUNK_ROWS = 2048


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _csv_field(value: str) -> str:
    """`value` as `csv.writer` writes it in a row of more than one field."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", value])
    return buf.getvalue()[1:-2]


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """tick,competitor_id,position with one row per tick per competitor."""
    if traj.ticks is None:
        raise ValueError("trajectory was recorded without per-tick snapshots")
    prefixes = [f",{_csv_field(cid)}," for cid in traj.competitor_ids]
    with open(path, "w", newline="") as fh:
        fh.write("tick,competitor_id,position\r\n")
        for tick, row in enumerate(traj.ticks):
            fh.write("".join([f"{tick}{prefix}{pos!r}\r\n" for prefix, pos in zip(prefixes, row)]))


def write_finish_csv(path: Path, traj: Trajectory) -> None:
    ranks = {cid: rank for rank, cid in enumerate(traj.finish_order, start=1)}
    rows = ((cid, tick, ranks[cid]) for cid, tick in zip(traj.competitor_ids, traj.finish_ticks))
    _write_csv(path, ["competitor_id", "finish_tick", "finish_rank"], rows)


def write_events_jsonl(path: Path, events: list[dict]) -> None:
    encode = _EVENT_ENCODER.encode
    with open(path, "w") as fh:
        fh.writelines(f"{encode(event)}\n" for event in events)


def write_sentiment_csv(path: Path, rows: list[tuple[float, str, str, float]]) -> None:
    field = functools.cache(_csv_field)  # each distinct id is quoted once
    with open(path, "w", newline="") as fh:
        fh.write("time,bettor_id,competitor_id,decimal_odds\r\n")
        for start in range(0, len(rows), _SENTIMENT_CHUNK_ROWS):
            lines = [
                f"{float(t)!r},{field(bettor)},{field(cid)},{float(odds)!r}\r\n"
                for t, bettor, cid, odds in rows[start : start + _SENTIMENT_CHUNK_ROWS]
            ]
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
    with open(path, newline="") as fh:
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
    with open(out_dir / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
