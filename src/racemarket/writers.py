"""File products: CSV tables, JSON-lines event logs, run metadata.

All numbers are written with repr precision so outputs are byte-stable for
identical inputs.  Money columns are integer minor units.
"""

import csv
import json
from pathlib import Path

from . import __version__
from .batch import ORDER_SPACE, WINNER_SPACE, BenchPoint, OutcomePMF, RaceResult, SessionSummary
from .exchange import SettlementReport
from .race import Trajectory
from .seeding import RNG_ALGORITHM


# json.dumps builds a new encoder per call when given separators; share one.
_EVENT_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """tick,competitor_id,position with one row per tick per competitor."""
    if traj.ticks is None:
        raise ValueError("trajectory was recorded without per-tick snapshots")
    ids = traj.competitor_ids
    rows = (
        (tick, cid, repr(pos)) for tick, row in enumerate(traj.ticks) for cid, pos in zip(ids, row)
    )
    _write_csv(path, ["tick", "competitor_id", "position"], rows)


def write_finish_csv(path: Path, traj: Trajectory) -> None:
    ranks = {cid: rank for rank, cid in enumerate(traj.finish_order, start=1)}
    rows = ((cid, tick, ranks[cid]) for cid, tick in zip(traj.competitor_ids, traj.finish_ticks))
    _write_csv(path, ["competitor_id", "finish_tick", "finish_rank"], rows)


def write_events_jsonl(path: Path, events: list[dict]) -> None:
    encode = _EVENT_ENCODER.encode
    with open(path, "w") as fh:
        fh.writelines(f"{encode(event)}\n" for event in events)


def write_sentiment_csv(path: Path, rows: list[tuple[float, str, str, float]]) -> None:
    table = ((repr(float(t)), bettor, cid, repr(float(odds))) for t, bettor, cid, odds in rows)
    _write_csv(path, ["time", "bettor_id", "competitor_id", "decimal_odds"], table)


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
            counts[row[0]] = int(row[1])
    if not counts:
        raise ValueError(f"{path}: PMF table has no rows")
    total = sum(counts.values())
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
