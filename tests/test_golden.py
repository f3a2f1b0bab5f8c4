"""Golden digests: the seed -> bytes contract, pinned as literal SHA-256s.

Each digest was computed once and written here; any change to the race
kernel, the exchange, the agents or the writers that alters a single byte
of these outputs fails this file.  A change that alters the bytes on
purpose updates the literals and says why in CHANGES.md.  The races run in
the C kernel; the *_on_the_python_loop tests pin the same digests with the
kernel hidden, on the Python loop that runs where no compiler is found.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from racemarket.batch import BatchConfig, resize_race, run_batch
from racemarket.cli import main as cli_main
from racemarket.config import config_digest, config_to_dict, emit_default_config, parse_config

from kernel_parity import python_loop

DERBY = Path(__file__).resolve().parent.parent / "configs" / "derby.json"

SESSION_DIGESTS = {
    "events.jsonl": "ce04b2fa5fb3118c246791a0a16cc2261f32351205add7144db5867a286d1f9d",
    "trajectory.csv": "72fc3637248c44412267688588f27a1232f8b8fd14e5833239457fa98a4c1dc6",
    "finish.csv": "0551ca274a28d9ce486b6125cbf3d12dc1368aa860bf24b62a78d8fbeda225e2",
    "settlement.csv": "b53498ba045df36cf697f162f2d0c30b4ec705b66d30a91373462a3531ae6eb5",
    "sentiment.csv": "8838d57de25b79ad548fffc10ae5263b323acb73eafafa1475a77441eb071406",
}
WIDE_FIELD_N = 160
WIDE_FIELD_TRAJECTORY = "68f28b78f7493b0869000838e9c795a0401f7be4f9ab31b17f21426a785e231d"
# `racemarket race` on derby.json with ids that csv must quote, on a 300-unit track.
QUOTED_IDS = ('c"1', "c 2")
QUOTED_RACE_DIGESTS = {
    "trajectory.csv": "189d822500064666469452695c6736fccee19eedc533243bea191cf1ebe06bfa",
    "finish.csv": "07af2852a76fdd420f1cd60e370eca6e050ba81d58b99063792f0f0703218177",
}
# `racemarket session --sentiment` on derby.json with ids that JSON must escape
# and csv must quote, on a 400-unit track.  Computed with the JSONEncoder
# writer, before events.jsonl was written from line templates.
AWKWARD_IDS = ('c"1', "back\\slash", "Ωmega", "new\nline")
AWKWARD_SESSION_DIGESTS = {
    "events.jsonl": "f7847b1d754fd75c2ce137c2665d43c2ea83e2f70b9f9b5a7a04fce535ed949a",
    "sentiment.csv": "c666e737ec65f2bce90c35c86784b5ed42702c8e44da4b577bb67868fe40dd41",
    "trajectory.csv": "cbb16161ef10732dca005f7a6af825f92413a3f7b619c885643ae7efdb98a2c3",
}
# `racemarket session --sentiment` on perfbench's crowd_session config: derby.json
# on a 4000-unit track with 100 agents that wake every 2 s.
CROWD_AGENTS = (("linex", 20), ("lw", 20), ("ud", 10), ("btf", 20), ("zi", 30))
CROWD_SESSION_DIGESTS = {
    "events.jsonl": "d10d527c27dd33ec575344481dd12031d069100d1da1234314fac1428f210ebc",
    "trajectory.csv": "2eb01af135dfa63e98f0b7a3d6573924740f5e833872641c8f546c24b3f3c465",
    "finish.csv": "2a8a8ea613ebb8af2584683f4755dc27c8945c611807769b6c3e295c62f92c64",
    "settlement.csv": "612f0fb5dd3ccd44e2d7cfe9bfc4d5ca303bd70cfb7ab12811464d3b0cd00a78",
    "sentiment.csv": "732c6e5b08ad328787cd0a070553abf1e5e29b3adfc7a24e67c7e8e51f9a7e16",
}
BATCH_RACES = 200
BATCH_RESULTS = "0e0dbcf6a46c154da6762d013c3be47349651435d288264fe92429f341acc777"
DERBY_CONFIG_DIGEST = "33578ea444e2550ecaf106e26e388f69e82e6d8f57fab051094c49e71ee77bee"
DEFAULT_CONFIG_JSON = "15dc5fe541e3c6fb8619df8f58a688a3d2fb1ce3a5f92cfc77036b3bbf24edec"
WIDE_FIELD_CONFIG_DIGEST = "32c72a6939ac03da3319b8bc90f7230ffbd82107fd1769a9213d1b5c4db340d6"
# `racemarket batch` products for derby.json at R replications, one worker.
BATCH_PRODUCTS = {
    ("race", 60): {
        "pmf.csv": "010e864793dea699beba4284c197131ef5cda7cc714bb949ed87dee638adfdda",
        "runs.csv": "1136b918fa633e9e204c547be0a0d519a26a4eea03b538a9dda956bcdb4dadaf",
    },
    ("session", 4): {
        "pmf.csv": "be4ee114d3db378a3d434b5cae1d40c1b5bad5423f79388aeafef91cebc69a52",
        "runs.csv": "42dadc05beb048cad91a6c4136ffc648ae6626750c4dd8e9552613055b89a470",
    },
}


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


def test_derby_session_outputs_on_the_python_loop(tmp_path, capsys):
    with python_loop():
        test_derby_session_outputs(tmp_path, capsys)


def test_wide_field_race_trajectory(tmp_path, capsys):
    cfg = derby()
    wide = replace(cfg, race=resize_race(cfg.race, WIDE_FIELD_N))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(config_to_dict(wide)))
    code = cli_main(["race", "--config", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 0
    assert sha256((tmp_path / "out" / "trajectory.csv").read_bytes()) == WIDE_FIELD_TRAJECTORY


def test_wide_field_race_trajectory_on_the_python_loop(tmp_path, capsys):
    with python_loop():
        test_wide_field_race_trajectory(tmp_path, capsys)


def test_quoted_ids_race_outputs(tmp_path, capsys):
    cfg = derby()
    comps = cfg.race.competitors
    renamed = tuple(replace(c, cid=cid) for c, cid in zip(comps, QUOTED_IDS)) + comps[2:]
    quoted = replace(cfg, race=replace(cfg.race, track_length=300.0, competitors=renamed))
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(config_to_dict(quoted)))
    code = cli_main(["race", "--config", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 0
    got = {name: sha256((tmp_path / "out" / name).read_bytes()) for name in QUOTED_RACE_DIGESTS}
    assert got == QUOTED_RACE_DIGESTS


def test_awkward_ids_session_outputs(tmp_path, capsys):
    cfg = derby()
    comps = cfg.race.competitors
    renamed = tuple(replace(c, cid=cid) for c, cid in zip(comps, AWKWARD_IDS)) + comps[4:]
    awkward = replace(cfg, race=replace(cfg.race, track_length=400.0, competitors=renamed))
    path = tmp_path / "awkward.json"
    path.write_text(json.dumps(config_to_dict(awkward)))
    out = tmp_path / "out"
    code = cli_main(["session", "--sentiment", "--config", str(path), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    got = {name: sha256((out / name).read_bytes()) for name in AWKWARD_SESSION_DIGESTS}
    assert got == AWKWARD_SESSION_DIGESTS


def test_crowd_session_outputs(tmp_path, capsys):
    cfg = derby()
    groups = {g.strategy: g for g in cfg.session.agents}
    agents = tuple(
        replace(groups[strategy], count=count, reevaluate_every=2.0, wake_jitter=2.0)
        for strategy, count in CROWD_AGENTS
    )
    crowd = replace(
        cfg,
        race=replace(cfg.race, track_length=4000.0),
        session=replace(cfg.session, agents=agents),
    )
    path = tmp_path / "crowd.json"
    path.write_text(json.dumps(config_to_dict(crowd)))
    out = tmp_path / "out"
    code = cli_main(["session", "--sentiment", "--config", str(path), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    got = {name: sha256((out / name).read_bytes()) for name in CROWD_SESSION_DIGESTS}
    assert got == CROWD_SESSION_DIGESTS


def test_crowd_session_outputs_on_the_python_loop(tmp_path, capsys):
    with python_loop():
        test_crowd_session_outputs(tmp_path, capsys)


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_results(workers):
    cfg = derby()
    results = run_batch(BatchConfig(cfg.race, BATCH_RACES, cfg.seed, workers))
    rows = [[r.run_index, list(r.finish_order), list(r.finish_ticks), r.n_ticks] for r in results]
    assert sha256(json.dumps(rows, separators=(",", ":")).encode()) == BATCH_RESULTS


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_results_on_the_python_loop(workers):
    # a 2-worker batch on the loop forks its process pool inside the block
    with python_loop():
        test_batch_results(workers)


@pytest.mark.parametrize("target,replications", sorted(BATCH_PRODUCTS))
def test_batch_products(tmp_path, capsys, target, replications):
    cfg = derby()
    batch = replace(cfg.batch, target=target, replications=replications, workers=1)
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(config_to_dict(replace(cfg, batch=batch))))
    code = cli_main(["batch", "--config", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 0
    got = {name: sha256((tmp_path / "out" / name).read_bytes()) for name in ("pmf.csv", "runs.csv")}
    assert got == BATCH_PRODUCTS[target, replications]


def test_config_schema_digests():
    cfg = derby()
    assert config_digest(cfg) == DERBY_CONFIG_DIGEST
    canon = json.dumps(emit_default_config(), sort_keys=True, separators=(",", ":"))
    assert sha256(canon.encode()) == DEFAULT_CONFIG_JSON
    wide = replace(cfg, race=resize_race(cfg.race, WIDE_FIELD_N))
    assert config_digest(wide) == WIDE_FIELD_CONFIG_DIGEST
