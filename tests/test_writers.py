import csv
import json

import pytest

from racemarket.batch import BatchConfig, BenchPoint, OutcomePMF, pmf_from_results, run_batch
from racemarket.race import Trajectory, run_race
from racemarket.writers import (
    _SENTIMENT_CHUNK_ROWS,
    read_pmf_csv,
    write_bench_csv,
    write_finish_csv,
    write_metadata,
    write_pmf_csv,
    write_race_runs_csv,
    write_sentiment_csv,
    write_trajectory_csv,
)

from conftest import make_race


# Ids that csv must quote, or that sit on the edge of quoting.
AWKWARD_IDS = ('c"1', " lead", "new\nline", "carriage\rreturn", "it's", "Ωmega", "", "c1")
EDGE_FLOATS = (0.0, 5e-324, 1e-05, 1e16, 1.0000000000000002)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def reference_trajectory_csv(path, traj):
    """trajectory.csv through csv.writer: the bytes the fast writer must match."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tick", "competitor_id", "position"])
        w.writerows(
            (tick, cid, repr(pos))
            for tick, row in enumerate(traj.ticks)
            for cid, pos in zip(traj.competitor_ids, row)
        )


def reference_sentiment_csv(path, rows):
    """sentiment.csv through csv.writer: the bytes the fast writer must match."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "bettor_id", "competitor_id", "decimal_odds"])
        w.writerows((repr(float(t)), b, cid, repr(float(o))) for t, b, cid, o in rows)


def test_trajectory_csv_matches_csv_writer(tmp_path):
    n = len(AWKWARD_IDS)
    ticks = tuple(
        tuple(EDGE_FLOATS[(tick + c) % len(EDGE_FLOATS)] for c in range(n)) for tick in range(12)
    )
    traj = Trajectory(AWKWARD_IDS, 1.0, ticks, (11,) * n, AWKWARD_IDS, ticks[-1], 0)
    write_trajectory_csv(tmp_path / "fast.csv", traj)
    reference_trajectory_csv(tmp_path / "ref.csv", traj)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_sentiment_csv_matches_csv_writer(tmp_path):
    times = (0, 60, 0.5) + EDGE_FLOATS  # an int time is written as a float
    n_ids = len(AWKWARD_IDS)
    rows = [
        (
            times[i % len(times)],
            AWKWARD_IDS[i % n_ids],
            AWKWARD_IDS[i // n_ids % n_ids],
            EDGE_FLOATS[i % len(EDGE_FLOATS)],
        )
        for i in range(2 * _SENTIMENT_CHUNK_ROWS + 3)  # rows span three chunks
    ]
    for table in (rows, rows[:1], []):
        write_sentiment_csv(tmp_path / "fast.csv", table)
        reference_sentiment_csv(tmp_path / "ref.csv", table)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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

    bare = run_race(make_race(n=2, length=100.0), seed=1, record=False)
    with pytest.raises(ValueError):
        write_trajectory_csv(tmp_path / "nope.csv", bare)


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
    results = run_batch(BatchConfig(make_race(n=3, length=150.0), 40, master_seed=1))
    pmf = pmf_from_results(results)
    out = tmp_path / "pmf.csv"
    write_pmf_csv(out, pmf)
    back = read_pmf_csv(out)
    assert back == pmf

    winners = OutcomePMF("winner", 10, {"c1": 7, "c2": 3})
    write_pmf_csv(out, winners)
    back = read_pmf_csv(out)
    assert back == winners  # space inferred from hyphen-free keys


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
