"""Closed-loop benchmark of racemarket.

Run from the repository root:

    python3 perfbench/run.py --workload derby_sessions --seed 1 --seconds 25 --trace 0

One client in this process starts the next operation when the previous one
has finished; only race_batch uses worker processes, nproc of them.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds over the same inputs and reports
per-layer metrics from the traced ones.  The second-to-last stdout line is
a report with provenance and output digests; the last line is the result.
See README.md beside this file for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS, OpResult, Package

#: Set-ups per run; in a timed run all but the first are spread over it.
SETUP_REPS = 11
#: Typical median calibrate() time on the host the benchmark was tuned on
#: (2-core x86-64 VM, Python 3.11.7); operation times are scaled to it.
CALIBRATION_NOMINAL_S = 0.011
#: After each operation, calibrate() runs for at least this share of its time.
CALIBRATION_SHARE = 0.03
MAX_WORKERS = 8
OUT_DIR = ".perfbench_out"

#: Strategies with an agents.decide metric, fixed here so metric names stay put.
STRATEGIES = ("rp", "linex", "lw", "ud", "btf", "rb", "zi")


def _is_package_module(name: str) -> bool:
    return name == "racemarket" or name.startswith("racemarket.")


def load_package() -> Package:
    """Import racemarket afresh, so each set-up repetition pays the import."""
    for name in [m for m in sys.modules if _is_package_module(m)]:
        del sys.modules[name]
    mods = {
        name: importlib.import_module(f"racemarket.{name}")
        for name in ("race", "agents", "exchange", "session", "batch", "writers", "seeding", "config")
    }
    return Package(version=sys.modules["racemarket"].__version__, **mods)


def set_up(name: str, seed: int, nproc: int):
    """Import racemarket, parse the config and make the inputs.

    Returns the workload and the seconds taken.
    """
    t0 = perf_counter()
    wl = WORKLOADS[name](load_package(), seed, nproc)
    return wl, perf_counter() - t0


def set_up_aside(name: str, seed: int, nproc: int, setups: list[tuple[float, float]]) -> None:
    """Time one more set-up, then restore the import the running workload uses.

    Appends (set-up seconds, parse_config seconds) to setups.
    """
    running = {m: mod for m, mod in sys.modules.items() if _is_package_module(m)}
    wl, seconds = set_up(name, seed, nproc)
    for m in [m for m in sys.modules if _is_package_module(m)]:
        del sys.modules[m]
    sys.modules.update(running)
    setups.append((seconds, wl.parse_s))


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def calibrate() -> float:
    """Seconds taken by a fixed computation that uses no racemarket code.

    The speed a shared host gives a process drifts by tens of percent over
    minutes; calibration times taken between operations measure that drift.
    """
    t0 = perf_counter()
    rng = random.Random(5)
    xs = [rng.random() for _ in range(20000)]
    buckets: dict[int, float] = {}
    for i, x in enumerate(xs):
        buckets[i % 997] = buckets.get(i % 997, 0.0) + x
    if sum(a * b for a, b in zip(xs, sorted(xs))) + sum(buckets.values()) <= 0.0:
        raise ArithmeticError("calibration sum is not positive")
    return perf_counter() - t0


def run_pass(wl, out: Path, errors: list[str], until: float | None = None, after_op=None):
    """Rounds over the workload's inputs: one round, or rounds until the clock passes until.

    Stops at the first operation boundary after until, once every input has
    run.  Returns (input index, OpResult or None if it raised) per attempted
    operation.  after_op, if given, is called with each operation's wall
    seconds once it has finished.
    """
    ops = []
    while len(ops) < wl.inputs or (until is not None and perf_counter() < until):
        i = len(ops) % wl.inputs
        t0 = perf_counter()
        try:
            op = wl.run_op(i, out)
            op.digests = {f: sha256(out / f) for f in op.files}
        except Exception:
            errors.append(f"input {i}: {traceback.format_exc(limit=3)}")
            op = None
        ops.append((i, op))
        if after_op is not None:
            after_op(perf_counter() - t0)
    return ops


def check_repeats(ops) -> None:
    """Every run of an input, traced or not, must write the same outputs."""
    first: dict[int, OpResult] = {}
    for i, op in ops:
        if op is not None:
            ref = first.setdefault(i, op)
            if (op.digests, op.counts()) != (ref.digests, ref.counts()):
                op.problems.append(f"input {i}: outputs differ from its first run")


def check_op(wl, errors: list[str]) -> tuple[list[str], float] | None:
    """wl.check_op(), with an exception reported as a failed check."""
    try:
        return wl.check_op()
    except Exception:
        errors.append(f"check: {traceback.format_exc(limit=3)}")
        return ["the check operation raised"], 0.0


def typical(ops) -> list[OpResult]:
    """Per input, its first successful run timed at the median of all its runs."""
    runs: dict[int, list[OpResult]] = {}
    for i, op in ops:
        if op is not None:
            runs.setdefault(i, []).append(op)
    return [
        replace(rs[0], seconds=statistics.median(op.seconds for op in rs))
        for _, rs in sorted(runs.items())
    ]


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p90 with at least ten samples beyond it."""
    ordered = sorted(values)
    for pct in (99, 90):
        if len(ordered) * (100 - pct) / 100 >= 10:
            return f"p{pct}", ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def host_slowdown(calib: list[float]) -> float:
    """How much slower than nominal the host ran: median calibration time over nominal.

    Calibration follows every operation for a fixed share of its time, so
    this median and the operations' medians see the same mix of calm and
    contended moments.
    """
    return statistics.median(calib) / CALIBRATION_NOMINAL_S


def end_to_end(per_input: list[OpResult], setup_reps: list[float], rss_mb: float, slowdown: float) -> dict:
    """End-to-end metrics, operation times divided by the host's slowdown."""
    busy = sum(op.seconds for op in per_input) / slowdown
    return {
        "setup_s": metric(statistics.median(setup_reps), "s"),
        "op_s": metric(statistics.median(op.seconds for op in per_input) / slowdown, "s"),
        "races_per_s": metric(sum(op.races for op in per_input) / busy, "1/s"),
        "comp_ticks_per_s": metric(sum(op.comp_ticks for op in per_input) / busy, "1/s"),
        "records_per_s": metric(sum(op.records for op in per_input) / busy, "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def install(tracer: Tracer, pkg: Package) -> None:
    """Wrap the public functions of every module the workloads call."""
    race, agents, exchange, session = pkg.race, pkg.agents, pkg.exchange, pkg.session
    batch, writers, seeding = pkg.batch, pkg.writers, pkg.seeding

    def comp_ticks(counts, args):
        counts["race.comp_ticks"] += args[0].finish_ticks.count(None)

    def matches(counts, args, result):
        counts["exchange.matches"] += len(result[1])

    def bets_scanned(counts, args, result):
        counts["session.observe_bets_scanned"] += len(result)

    def events(counts, args, result):
        counts["session.events"] += len(result.events)

    def bytes_written(counts, args, result):
        path = Path(args[0])
        if path.is_dir():
            path = path / "metadata.json"
        counts["writers.bytes_written"] += path.stat().st_size

    def events_written(counts, args):
        counts["writers.events"] += len(args[1])

    def rows_written(counts, args):
        counts["writers.trajectory_rows"] += len(args[1].ticks) * len(args[1].competitor_ids)

    for owner in (race, session):
        tracer.patch(owner, "advance_race", "race.advance_race", on_call=comp_ticks)
    tracer.patch(agents, "simulate_from", "race.simulate_from")
    for owner in (race, batch):
        tracer.patch(owner, "run_race", "race.run_race")
    bettors, todo = [], [agents.Bettor]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.strategy in STRATEGIES:
            bettors.append((cls, cls.decide))
    for cls, decide in bettors:
        tracer.patch(cls, "decide", f"agents.decide.{cls.strategy}", fn=decide)
    book = exchange.MarketBook
    tracer.patch(book, "submit_bet", "exchange.submit_bet", on_result=matches, errors=exchange.ExchangeError)
    tracer.patch(book, "cancel_bet", "exchange.cancel_bet", errors=exchange.ExchangeError)
    tracer.patch(book, "market_grid", "exchange.market_grid")
    tracer.patch(book, "bets_of", "exchange.bets_of", on_result=bets_scanned)
    tracer.patch(session, "run_session", "session.run_session", on_result=events)
    tracer.patch(batch, "run_batch", "batch.run_batch")
    hooks = {"write_events_jsonl": events_written, "write_trajectory_csv": rows_written}
    for name in [n for n in vars(writers) if n.startswith("write_")]:
        tracer.patch(writers, name, f"writers.{name}", on_call=hooks.get(name), on_result=bytes_written)
    for owner in (seeding, batch):
        tracer.patch(owner, "derive_seed", "seeding.derive_seed")


def per_layer(stats, counts, rounds: int, traced_total_s: float, overhead: float, parse_ms: float, figures: dict) -> dict:
    """Per-layer metrics from the spans; counts are per round over the inputs."""

    def total_calls(name):
        return stats.get(name, {}).get("calls", 0)

    def calls(name):
        return total_calls(name) / rounds

    def ns(name, kind="total_ns"):
        return stats.get(name, {}).get(kind, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def us_per_call(name, kind="total_ns"):
        return ratio(ns(name, kind), total_calls(name)) / 1e3

    m = {
        "race.advance_race.calls": metric(calls("race.advance_race"), "count"),
        "race.advance_race.ns_per_comp_tick": metric(
            ratio(ns("race.advance_race"), counts["race.comp_ticks"]), "ns"
        ),
        "race.simulate_from.calls": metric(calls("race.simulate_from"), "count"),
        "race.simulate_from.us_per_call": metric(us_per_call("race.simulate_from"), "us"),
        "race.simulate_from.share": metric(ratio(ns("race.simulate_from") / 1e9, traced_total_s), "ratio"),
        "race.run_race.us_per_call": metric(us_per_call("race.run_race"), "us"),
    }
    for s in STRATEGIES:
        name = f"agents.decide.{s}"
        m[f"agents.decide.us_per_call.{s}"] = metric(us_per_call(name, "self_ns"), "us")
    attempts = total_calls("exchange.submit_bet") + total_calls("exchange.cancel_bet")
    for op in ("submit_bet", "cancel_bet", "market_grid"):
        m[f"exchange.{op}.calls"] = metric(calls(f"exchange.{op}"), "count")
        m[f"exchange.{op}.us_per_call"] = metric(us_per_call(f"exchange.{op}"), "us")
    m["exchange.match_ratio"] = metric(
        ratio(counts["exchange.matches"], total_calls("exchange.submit_bet")), "ratio"
    )
    m["exchange.reject_share"] = metric(
        ratio(counts["exchange.submit_bet.raised"] + counts["exchange.cancel_bet.raised"], attempts), "ratio"
    )
    m["session.wakes"] = metric(sum(calls(f"agents.decide.{s}") for s in STRATEGIES), "count")
    m["session.events"] = metric(counts["session.events"] / rounds, "count")
    m["session.observe_bets_scanned"] = metric(counts["session.observe_bets_scanned"] / rounds, "count")
    m["session.self_share"] = metric(
        ratio(ns("session.run_session", "self_ns"), ns("session.run_session")), "ratio"
    )
    m["writers.write_events_jsonl.us_per_event"] = metric(
        ratio(ns("writers.write_events_jsonl"), counts["writers.events"]) / 1e3, "us"
    )
    m["writers.write_trajectory_csv.us_per_row"] = metric(
        ratio(ns("writers.write_trajectory_csv"), counts["writers.trajectory_rows"]) / 1e3, "us"
    )
    m["writers.bytes_written"] = metric(counts["writers.bytes_written"] / rounds, "bytes")
    for name, unit in (
        ("batch.serial_races_per_s", "1/s"),
        ("batch.parallel_efficiency", "ratio"),
        ("batch.pool_start_ms", "ms"),
        ("batch.result_bytes_per_run", "bytes"),
    ):
        m[name] = metric(figures.get(name, 0.0), unit)
    m["seeding.derive_seed.calls"] = metric(calls("seeding.derive_seed"), "count")
    m["seeding.derive_seed.us_per_call"] = metric(us_per_call("seeding.derive_seed"), "us")
    m["config.parse_config.ms"] = metric(parse_ms, "ms")
    m["trace.overhead_share"] = metric(overhead, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "racemarket" / "__init__.py").is_file():
        print(f"perfbench: no racemarket sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out = root / OUT_DIR / args.workload
    out.mkdir(parents=True, exist_ok=True)
    nproc = min(len(os.sched_getaffinity(0)), MAX_WORKERS)

    wl, seconds = set_up(args.workload, args.seed, nproc)
    pkg = wl.pkg
    setups = [(seconds, wl.parse_s)]

    errors: list[str] = []
    checks: list[list[str]] = []
    if args.trace:
        while len(setups) < SETUP_REPS:
            set_up_aside(args.workload, args.seed, nproc, setups)
        # Untraced and traced rounds alternate, so both see the same host.
        tracer = Tracer()
        base, traced, check_s = [], [], []
        rounds = 0
        start = perf_counter()
        while rounds == 0 or perf_counter() - start < args.seconds:
            base += run_pass(wl, out, errors)
            check = check_op(wl, errors)
            if check is not None:
                checks.append(check[0])
                if not check[0]:
                    check_s.append(check[1])
            install(tracer, pkg)
            try:
                traced += run_pass(wl, out, errors)
                # Batch workers are not traced; the serial check shows the race layer.
                check = check_op(wl, errors)
            finally:
                tracer.uninstall()
            if check is not None:
                checks.append(check[0])
            rounds += 1
        ops = base + traced
        untraced, traced_typical = typical(base), typical(traced)
        untraced_s = sum(op.seconds for op in untraced)
        races_per_s = sum(op.races for op in untraced) / untraced_s
        figures = wl.layer_figures(statistics.median(check_s), races_per_s) if check_s else {}
        spans_file = out / "spans.csv"
        tracer.write(spans_file)
        metrics = per_layer(
            tracer.summarize(),
            tracer.counts,
            rounds,
            traced_total_s=sum(op.seconds for _, op in traced if op),
            overhead=sum(op.seconds for op in traced_typical) / untraced_s - 1.0,
            parse_ms=statistics.median(p for _, p in setups) * 1e3,
            figures=figures,
        )
    else:
        spans_file = None
        # Calibration follows every operation, and the other set-ups are
        # spread over the run, so both see the host the way operations do.
        calib: list[float] = []
        start = perf_counter()
        due = [start + args.seconds * j / (SETUP_REPS - 1) for j in range(1, SETUP_REPS - 1)]

        def after_op(op_wall: float) -> None:
            spent = 0.0
            while not spent or spent < CALIBRATION_SHARE * op_wall:
                calib.append(calibrate())
                spent += calib[-1]
            while due and perf_counter() >= due[0]:
                due.pop(0)
                set_up_aside(args.workload, args.seed, nproc, setups)

        ops = run_pass(wl, out, errors, until=start + args.seconds, after_op=after_op)
        while len(setups) < SETUP_REPS:
            set_up_aside(args.workload, args.seed, nproc, setups)
        check = check_op(wl, errors)
        if check is not None:
            checks.append(check[0])
    check_repeats(ops)

    done = [op for _, op in ops if op is not None]
    if not done:
        print("\n".join(errors[:5]), file=sys.stderr)
        return 2
    per_input = typical(ops)
    if not args.trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(per_input, [s for s, _ in setups], rss_mb, host_slowdown(calib))
    problems = [p for op in done for p in op.problems] + [p for c in checks for p in c]
    failed = sum(1 for _, op in ops if op is None or op.problems) + sum(1 for c in checks if c)
    seconds = [op.seconds for op in done]
    tail = tail_percentile(seconds)
    report = {
        "workload": args.workload,
        "why": wl.why,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": {
            "nproc": nproc,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "racemarket": pkg.version,
            "commit": git_commit(root),
        },
        "inputs": {"seeds": wl.seeds, "median_s": [op.seconds for op in per_input]},
        "all_ops_s": {"n": len(seconds), "p50": statistics.median(seconds), **dict([tail] if tail else [])},
        "op_seconds": [[i, round(op.seconds, 6)] for i, op in ops if op is not None],
        "calibration_s": None if args.trace else [round(c, 7) for c in calib],
        "host_slowdown": None if args.trace else host_slowdown(calib),
        "setup_s_reps": [s for s, _ in setups],
        "digests": {f"input{i}/{f}": d for i, op in enumerate(per_input) for f, d in sorted(op.digests.items())},
        "spans_file": str(spans_file.relative_to(root)) if spans_file else None,
        "problems": problems[:20],
        "errors": errors[:5],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    for e in errors[:5]:
        print(e, file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(ops) + len(checks),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
