import json

import pytest

from racemarket.cli import main
from racemarket.config import emit_default_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = emit_default_config()
    doc["race"]["track_length"] = 300.0
    if overrides:
        doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_race_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "race", "--config", str(cfg), "--seed", "3", "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["command"] == "race"
    assert summary["winner"].startswith("c")
    assert (out / "trajectory.csv").exists()
    assert (out / "finish.csv").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["master_seed"] == 3
    assert meta["outputs"] == ["finish.csv", "trajectory.csv"]


def test_race_command_defaults_without_config(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "race", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["winner"].startswith("c")


def test_seed_flag_selects_the_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    run_cli(capsys, "race", "--config", str(cfg), "--seed", "5", "--out", str(out_a))
    run_cli(capsys, "race", "--config", str(cfg), "--seed", "5", "--out", str(out_b))
    run_cli(capsys, "race", "--config", str(cfg), "--seed", "6", "--out", str(out_c))
    assert (out_a / "trajectory.csv").read_text() == (out_b / "trajectory.csv").read_text()
    assert (out_a / "trajectory.csv").read_text() != (out_c / "trajectory.csv").read_text()


def test_session_command(tmp_path, capsys):
    session = {
        "agents": [
            {"strategy": "lw", "count": 2},
            {"strategy": "zi", "count": 1},
        ]
    }
    cfg = write_config(tmp_path, {"session": session})
    out = tmp_path / "out"
    code, stdout, _ = run_cli(
        capsys, "session", "--config", str(cfg), "--seed", "1", "--out", str(out), "--sentiment"
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["command"] == "session"
    assert summary["n_events"] > 0
    for name in ("events.jsonl", "trajectory.csv", "finish.csv", "settlement.csv", "sentiment.csv"):
        assert (out / name).exists(), name
    events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
    assert events[-1]["kind"] == "settle"
    meta = json.loads((out / "metadata.json").read_text())
    assert "sentiment.csv" in meta["outputs"]


def test_batch_command_race_target(tmp_path, capsys):
    cfg = write_config(tmp_path, {"batch": {"replications": 25}})
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "batch", "--config", str(cfg), "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["replications"] == 25
    assert (out / "pmf.csv").exists()
    assert (out / "runs.csv").exists()
    pmf_rows = (out / "pmf.csv").read_text().splitlines()
    assert pmf_rows[0] == "outcome,count,frequency"
    assert sum(int(r.split(",")[1]) for r in pmf_rows[1:]) == 25


def test_batch_command_session_target(tmp_path, capsys):
    session = {"agents": [{"strategy": "zi", "count": 2}]}
    cfg = write_config(
        tmp_path,
        {"batch": {"replications": 3, "target": "session"}, "session": session},
    )
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "batch", "--config", str(cfg), "--out", str(out))
    assert code == 0
    runs = (out / "runs.csv").read_text().splitlines()
    assert runs[0].startswith("run,winner,winner_ticks,n_events")
    assert len(runs) == 4
    pmf = (out / "pmf.csv").read_text().splitlines()
    assert all("-" not in row.split(",")[0] for row in pmf[1:])  # winner marginal


def test_compare_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {"batch": {"replications": 60}})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli(capsys, "batch", "--config", str(cfg), "--seed", "1", "--out", str(out_a))
    run_cli(capsys, "batch", "--config", str(cfg), "--seed", "1", "--out", str(out_b))
    code, stdout, _ = run_cli(capsys, "compare", str(out_a / "pmf.csv"), str(out_b / "pmf.csv"))
    assert code == 0
    result = json.loads(stdout)
    assert result["method"] == "chi2_homogeneity"
    assert result["p_value"] == 1.0  # identical seeds, identical tables


def test_bench_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"bench": {"n_competitors": [2, 3], "replications": 5, "timing_reps": 2}},
    )
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert [p[0] for p in summary["points"]] == [2, 3]
    rows = (out / "bench.csv").read_text().splitlines()
    assert len(rows) == 3


def test_defaults_command(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "defaults")
    assert code == 0
    assert json.loads(stdout) == emit_default_config()
    target = tmp_path / "cfg" / "default.json"
    code, stdout, _ = run_cli(capsys, "defaults", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text()) == emit_default_config()


def test_usage_errors_exit_1_with_json_line(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "race", "--config", str(tmp_path / "missing.json"))
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "usage"
    assert "missing.json" in err["message"]

    code, _, stderr = run_cli(capsys)
    assert code == 1
    assert json.loads(stderr)["error"] == "usage"

    code, _, stderr = run_cli(capsys, "race", "--seed", "-4")
    assert code == 1
    # derive_seed keeps 64 bits, so 2**64 would run as seed 0
    code, _, stderr = run_cli(capsys, "race", "--seed", str(2**64))
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "usage"
    assert err["message"] == "seed must be < 2**64, got 18446744073709551616"

    bad = tmp_path / "bad.json"
    bad.write_text('{"race": {"competitors": []}}')
    code, _, stderr = run_cli(capsys, "race", "--config", str(bad))
    assert code == 1
    assert json.loads(stderr)["error"] == "usage"

    code, _, stderr = run_cli(capsys, "frobnicate")
    assert code == 1


def test_compare_usage_errors(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code, _, stderr = run_cli(capsys, "compare", str(missing), str(missing))
    assert code == 1
    assert json.loads(stderr)["error"] == "usage"

    not_pmf = tmp_path / "other.csv"
    not_pmf.write_text("a,b\n1,2\n")
    code, _, stderr = run_cli(capsys, "compare", str(not_pmf), str(not_pmf))
    assert code == 1

    header = "outcome,count,frequency\n"
    for name, rows, where in (
        ("no_count.csv", "c1,4,0.5\nc2\n", "row 3"),
        ("negative.csv", "c1,4,1.0\nc2,-4,0.0\n", "row 3"),
        ("all_zero.csv", "c1,0,0.0\nc2,0,0.0\n", "count 0"),
        ("twice.csv", "c1,3,0.5\nc1,3,0.5\n", "row 3"),
    ):
        bad = tmp_path / name
        bad.write_text(header + rows)
        code, _, stderr = run_cli(capsys, "compare", str(bad), str(bad))
        assert code == 1
        err = json.loads(stderr)
        assert err["error"] == "usage"
        assert str(bad) in err["message"] and where in err["message"]


@pytest.mark.parametrize("command", ["race", "session"])
def test_runtime_errors_exit_2(tmp_path, capsys, command):
    doc = emit_default_config()
    doc["race"]["tick_limit"] = 3  # guaranteed divergence
    doc["session"]["agents"] = []  # so the session's own race diverges, not a dry run
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps(doc))
    code, _, stderr = run_cli(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "runtime"
    assert "tick_limit" in err["message"]


def test_workers_flag_override(tmp_path, capsys):
    cfg = write_config(tmp_path, {"batch": {"replications": 10, "workers": 1}})
    out_a = tmp_path / "w1"
    out_b = tmp_path / "w2"
    run_cli(capsys, "batch", "--config", str(cfg), "--out", str(out_a), "--workers", "1")
    run_cli(capsys, "batch", "--config", str(cfg), "--out", str(out_b), "--workers", "2")
    assert (out_a / "pmf.csv").read_text() == (out_b / "pmf.csv").read_text()
    assert (out_a / "runs.csv").read_text() == (out_b / "runs.csv").read_text()
    code, _, stderr = run_cli(capsys, "batch", "--config", str(cfg), "--workers", "0")
    assert code == 1
