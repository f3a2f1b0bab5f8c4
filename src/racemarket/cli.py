"""Command-line interface.

Subcommands: race, session, batch, compare, bench, defaults.  Exit codes:
0 success, 1 usage or configuration error, 2 runtime failure.  Errors are
reported as one JSON line on stderr; result summaries as one JSON line on
stdout.
"""

import argparse
import json
import sys
from pathlib import Path

from .batch import (
    WINNER_SPACE, BatchConfig, OutcomePMF, bench, compare_pmf, pmf_from_results, run_batch
)
from .config import ConfigError, ExperimentConfig, config_digest, emit_default_config, parse_config
from .race import run_race
from .seeding import FieldError, check_master_seed, derive_seed
from .session import run_session
from . import writers


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with a machine-readable line, not argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON config path (defaults used if omitted)")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    common.add_argument("--workers", type=int, help="worker process count override")

    parser = _Parser(prog="racemarket", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("race", parents=[common], help="run one race and write its products")
    p_session = sub.add_parser("session", parents=[common], help="run one betting session")
    p_session.add_argument("--sentiment", action="store_true", help="also write the sentiment log")
    sub.add_parser("batch", parents=[common], help="run replicated races or sessions")
    p_compare = sub.add_parser("compare", help="test two PMF tables for equality")
    p_compare.add_argument("pmf_a", type=Path)
    p_compare.add_argument("pmf_b", type=Path)
    p_defaults = sub.add_parser("defaults", help="print the fully-explicit default config")
    p_defaults.add_argument("--out", type=Path, help="write to a file instead of stdout")
    sub.add_parser("bench", parents=[common], help="time batches over a competitor-count grid")
    return parser


def _load(args) -> tuple[ExperimentConfig, int]:
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}")
        cfg = parse_config(text)
    else:
        cfg = parse_config(emit_default_config())
    seed = cfg.seed if args.seed is None else args.seed
    check_master_seed(seed)
    return cfg, seed


def _outdir(args) -> Path:
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(payload: dict) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def _cmd_race(args) -> int:
    cfg, seed = _load(args)
    out = _outdir(args)
    traj = run_race(cfg.race, derive_seed(seed, "race"))
    writers.write_trajectory_csv(out / "trajectory.csv", traj)
    writers.write_finish_csv(out / "finish.csv", traj)
    writers.write_metadata(out, "race", seed, config_digest(cfg), ["trajectory.csv", "finish.csv"])
    _emit({"command": "race", "winner": traj.winner, "n_ticks": traj.n_ticks, "out": str(out)})
    return 0


def _cmd_session(args) -> int:
    cfg, seed = _load(args)
    out = _outdir(args)
    scfg = cfg.session_config(master_seed=seed, sentiment=args.sentiment or None)
    result = run_session(scfg)
    outputs = ["events.jsonl", "trajectory.csv", "finish.csv", "settlement.csv"]
    writers.write_events_jsonl(out / "events.jsonl", result.events)
    writers.write_trajectory_csv(out / "trajectory.csv", result.trajectory)
    writers.write_finish_csv(out / "finish.csv", result.trajectory)
    writers.write_settlement_csv(out / "settlement.csv", result.settlement)
    if scfg.sentiment:
        writers.write_sentiment_csv(out / "sentiment.csv", result.sentiment_rows)
        outputs.append("sentiment.csv")
    writers.write_metadata(out, "session", seed, config_digest(cfg), outputs)
    _emit(
        {
            "command": "session",
            "winner": result.trajectory.winner,
            "n_events": len(result.events),
            "total_commission": result.settlement.total_commission,
            "out": str(out),
        }
    )
    return 0


def _cmd_batch(args) -> int:
    cfg, seed = _load(args)
    out = _outdir(args)
    workers = cfg.batch.workers if args.workers is None else args.workers
    if cfg.batch.target == "session":
        base = cfg.session_config()
    else:
        base = cfg.race
    results = run_batch(BatchConfig(base, cfg.batch.replications, seed, workers))
    if cfg.batch.target == "session":
        counts: dict[str, int] = {}
        for r in results:
            counts[r.winner] = counts.get(r.winner, 0) + 1
        pmf = OutcomePMF(space=WINNER_SPACE, n_samples=len(results), counts=counts)
        writers.write_session_runs_csv(out / "runs.csv", results)
    else:
        pmf = pmf_from_results(results)
        writers.write_race_runs_csv(out / "runs.csv", results)
    writers.write_pmf_csv(out / "pmf.csv", pmf)
    writers.write_metadata(out, "batch", seed, config_digest(cfg), ["pmf.csv", "runs.csv"])
    _emit(
        {
            "command": "batch",
            "replications": cfg.batch.replications,
            "distinct_outcomes": len(pmf.counts),
            "out": str(out),
        }
    )
    return 0


def _cmd_compare(args) -> int:
    try:
        pmf_a = writers.read_pmf_csv(args.pmf_a)
        pmf_b = writers.read_pmf_csv(args.pmf_b)
    except OSError as exc:
        raise UsageError(f"cannot read PMF table: {exc}")
    except ValueError as exc:
        raise UsageError(str(exc))
    try:
        result = compare_pmf(pmf_a, pmf_b)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(
        {
            "command": "compare",
            "method": result.method,
            "statistic": result.statistic,
            "p_value": result.p_value,
            "dof": result.dof,
        }
    )
    return 0


def _cmd_bench(args) -> int:
    cfg, seed = _load(args)
    out = _outdir(args)
    workers = cfg.batch.workers if args.workers is None else args.workers
    points = bench(
        cfg.race,
        cfg.bench.n_competitors,
        cfg.bench.replications,
        cfg.bench.timing_reps,
        seed,
        workers=workers,
    )
    writers.write_bench_csv(out / "bench.csv", points)
    writers.write_metadata(out, "bench", seed, config_digest(cfg), ["bench.csv"])
    _emit(
        {
            "command": "bench",
            "points": [[p.n_competitors, p.mean_s, p.cv] for p in points],
            "out": str(out),
        }
    )
    return 0


def _cmd_defaults(args) -> int:
    text = json.dumps(emit_default_config(), indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "race": _cmd_race,
    "session": _cmd_session,
    "batch": _cmd_batch,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
    "defaults": _cmd_defaults,
}


def _error_line(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (race, session, batch, compare, bench, defaults)")
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError, FieldError) as exc:
        _error_line("usage", str(exc))
        return 1
    except Exception as exc:  # simulation or IO failure
        _error_line("runtime", f"{type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
