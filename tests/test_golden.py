"""Golden digests: the seed -> bytes contract, pinned as literal SHA-256s.

Each digest was computed once and written here; any change to the race
kernel, the exchange, the agents or the writers that alters a single byte
of these outputs fails this file.  A change that alters the bytes on
purpose updates the literals and says why in CHANGES.md.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from racemarket.batch import BatchConfig, resize_race, run_batch
from racemarket.cli import main as cli_main
from racemarket.config import config_to_dict, parse_config

DERBY = Path(__file__).resolve().parent.parent / "configs" / "derby.json"

SESSION_DIGESTS = {
    "events.jsonl": "29332739b5999a1b28dda9d95e79f79cde2d73e6f3f62ff582e8c82c9ab115fd",
    "trajectory.csv": "72fc3637248c44412267688588f27a1232f8b8fd14e5833239457fa98a4c1dc6",
    "finish.csv": "0551ca274a28d9ce486b6125cbf3d12dc1368aa860bf24b62a78d8fbeda225e2",
    "settlement.csv": "2cc5c47e72225cd0b669124529ae65898e7dbaf356920ffe350571ddfd43e202",
    "sentiment.csv": "4657ef269d3be916477fb1fd60f2cc06155132ad8ad5b97620f798de43ba37b5",
}
WIDE_FIELD_N = 160
WIDE_FIELD_TRAJECTORY = "68f28b78f7493b0869000838e9c795a0401f7be4f9ab31b17f21426a785e231d"
BATCH_RACES = 200
BATCH_RESULTS = "0e0dbcf6a46c154da6762d013c3be47349651435d288264fe92429f341acc777"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def derby():
    return parse_config(DERBY.read_text())


def test_derby_session_outputs(tmp_path, capsys):
    code = cli_main(["session", "--config", str(DERBY), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    got = {name: sha256((tmp_path / name).read_bytes()) for name in SESSION_DIGESTS}
    assert got == SESSION_DIGESTS


def test_wide_field_race_trajectory(tmp_path, capsys):
    cfg = derby()
    wide = replace(cfg, race=resize_race(cfg.race, WIDE_FIELD_N))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(config_to_dict(wide)))
    code = cli_main(["race", "--config", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 0
    assert sha256((tmp_path / "out" / "trajectory.csv").read_bytes()) == WIDE_FIELD_TRAJECTORY


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_results(workers):
    cfg = derby()
    results = run_batch(BatchConfig(cfg.race, BATCH_RACES, cfg.seed, workers))
    rows = [[r.run_index, list(r.finish_order), list(r.finish_ticks), r.n_ticks] for r in results]
    assert sha256(json.dumps(rows, separators=(",", ":")).encode()) == BATCH_RESULTS
