"""Acceptance suite: one test per shipped guarantee, at full stated scale.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
guarantee; each test also prints its measured numbers (visible with -s or
on failure).  Scales and tolerances are pinned in the asserts, not in
fixtures, so a change here is a deliberate contract change.

 1. 10,000 randomized race configs (up to 20 competitors, both step
    families) all terminate with strictly increasing positions, under 60 s.
 2. Four identical competitors win 1/4 each within 3 sigma at R = 10,000.
 3. 100 random op streams x 1,000 ops: order book bit-identical to the
    brute-force reference (matches, queues, balances, settlement).
 4. 1,000 random market sessions: exact money conservation and a clean
    no-cross/escrow audit after every mutating event.
 5. Decimal-odds worked examples: $1 at 11.0 returns $11.00 total,
    $5 at 1.2 returns $6.00 total.
 6. One session config run five times under --workers 1/2/8 produces
    byte-identical events.jsonl (sha256), and four sessions run in two
    worker processes write the same logs as in-process.
 7. A 5-competitor 2,000-unit race at dt = 1 finishes in under 360 ticks
    with well-formed CSVs, and dry-run win estimates move monotonically
    with the leader's scripted gap.
 8. Dry-run predictor log-loss is non-increasing in d over {0, 5, 50}
    within 2 standard errors, paired over 1,000 races.
 9. Batching 10,000 races at the machine's core count achieves at least
    half-linear speedup; benchmark CV < 0.25; mean per-race time is
    nondecreasing over 5/10/20/40 competitors.
10. The PMF comparison falsely rejects a same-config pair at most 5/100
    times at alpha = 0.01 and detects a swapped step distribution at
    least 95/100 times (R = 300, 3 competitors).
"""

import csv
import hashlib
import json
import math
import os
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from racemarket.batch import BatchConfig, compare_pmf, pmf_from_results, run_batch, bench
from racemarket import writers
from racemarket.cli import main as cli_main
from racemarket.config import parse_config
from racemarket.exchange import BACK, LAY, MarketBook, back_winnings
from racemarket.race import (
    Competitor,
    LogNormalSteps,
    RaceConfig,
    RaceState,
    Responsiveness,
    UniformSteps,
    initial_state,
    advance_race,
    run_race,
)
from racemarket.agents import rp_predict
from racemarket.seeding import derive_seed, make_rng
from racemarket.session import run_session

from conftest import make_race
from test_exchange_oracle import BETTORS, drive_pair


def report(num: int, message: str) -> None:
    print(f"\nacceptance {num:02d}: PASS  {message}")


# -- 1: randomized termination ----------------------------------------------------


def random_race_config(rng: random.Random) -> RaceConfig:
    n = rng.randint(1, 20)
    comps = []
    for i in range(n):
        if rng.random() < 0.5:
            lo = rng.uniform(1.0, 5.0)
            steps = UniformSteps(lo, lo + rng.uniform(0.0, 5.0))
        else:
            steps = LogNormalSteps(
                mu=rng.uniform(-0.5, 1.0),
                sigma=rng.uniform(0.0, 0.6),
                scale=rng.uniform(0.5, 3.0),
            )
        comps.append(
            Competitor(
                cid=f"c{i + 1}",
                steps=steps,
                preference=rng.random(),
                pref_sensitivity=rng.uniform(0.0, 0.8),
                theta=rng.choice([0.0, rng.uniform(0.0, 10.0)]),
                responsiveness=Responsiveness(
                    early_mult=rng.uniform(0.5, 1.5),
                    late_mult=rng.uniform(0.5, 1.5),
                    breakpoint=rng.random(),
                ),
            )
        )
    return RaceConfig(
        track_length=rng.uniform(20.0, 60.0),
        competitors=tuple(comps),
        conditions=rng.random(),
    )


def test_criterion_01_random_configs_terminate_quickly():
    n_configs = 10_000
    gen = random.Random(20_240_001)
    started = time.perf_counter()
    max_ticks = 0
    for i in range(n_configs):
        cfg = random_race_config(gen)
        traj = run_race(cfg, seed=derive_seed(1, "run", i))
        max_ticks = max(max_ticks, traj.n_ticks)
        assert all(t is not None for t in traj.finish_ticks)
        for c in range(cfg.n_competitors):
            finish = traj.finish_ticks[c]
            for t in range(1, len(traj.ticks)):
                if t <= finish:
                    assert traj.ticks[t][c] > traj.ticks[t - 1][c], (
                        f"config {i}: competitor {c} stalled at tick {t}"
                    )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"{n_configs} races took {elapsed:.1f}s"
    report(1, f"{n_configs} random races in {elapsed:.1f}s (longest {max_ticks} ticks)")


# -- 2: fairness of identical competitors -------------------------------------


def test_criterion_02_identical_competitors_split_wins():
    replications = 10_000
    cfg = make_race(n=4, length=150.0)
    results = run_batch(BatchConfig(cfg, replications, master_seed=2))
    three_sigma = 3.0 * math.sqrt(0.25 * 0.75 / replications)
    freqs = {}
    for cid in cfg.competitor_ids:
        freq = sum(r.winner == cid for r in results) / replications
        freqs[cid] = freq
        assert abs(freq - 0.25) < three_sigma, f"{cid} won {freq:.4f} of races"
    shown = ", ".join(f"{cid} {f:.4f}" for cid, f in freqs.items())
    report(2, f"win rates {shown} all within {three_sigma:.4f} of 0.25")


# -- 3: order book equivalence ----------------------------------------------------


def test_criterion_03_matcher_equals_reference_on_100k_ops():
    streams, ops = 100, 1000
    matched = 0
    for seed in range(streams):
        matched += drive_pair(seed, ops, depth=1 + seed % 4, check_every=200, view_every=50)
    assert matched > 0
    report(3, f"{streams} streams x {ops} ops bit-identical; {matched} cents matched")


# -- 4: conservation under random flow ------------------------------------------


def test_criterion_04_money_conserved_in_random_sessions():
    sessions = 1000
    rng = random.Random(44)
    odds_pool = (150, 200, 300, 450, 700)
    total_checks = 0
    for _ in range(sessions):
        book = MarketBook(("c1", "c2", "c3"))
        book.self_check = True  # no-cross + escrow audit after every event
        for b in BETTORS:
            book.open_account(b, 100_000)
        start = sum(a.balance + a.reserved for a in book.accounts.values())
        live = []
        mutations = 0
        for _ in range(rng.randint(5, 40)):
            if live and rng.random() < 0.25:
                bet_id, owner = live[rng.randrange(len(live))]
                if book.cancel_bet(bet_id, owner) > 0:
                    mutations += 1  # no-op cancels mutate nothing, so no audit fires
            else:
                try:
                    bet_id, _ = book.submit_bet(
                        rng.choice(BETTORS),
                        rng.choice(("c1", "c2", "c3")),
                        rng.choice((BACK, LAY)),
                        rng.choice(odds_pool),
                        rng.randint(1, 5000),
                    )
                except Exception:
                    continue  # insufficient funds is a legal outcome here
                live.append((bet_id, book.bets[bet_id].bettor_id))
                mutations += 1
        book.close_betting()
        mutations += 1
        report_ = book.settle(rng.choice(("c1", "c2", "c3")))
        end = sum(a.balance + a.reserved for a in book.accounts.values())
        assert start - end == report_.total_commission
        assert sum(r.net for r in report_.rows) + report_.total_commission == 0
        assert all(a.reserved == 0 for a in book.accounts.values())
        assert book.self_checks_run == mutations
        total_checks += mutations
    report(4, f"{sessions} random sessions, {total_checks} audited events, zero drift")


# -- 5: worked payout examples ----------------------------------------------------


def test_criterion_05_decimal_odds_worked_examples():
    # $1 at 11.0: stake 100c, winnings 1000c, total return 1100c
    book = MarketBook(("c1", "c2"), commission_rate=0.0)
    book.open_account("backer", 10_000)
    book.open_account("layer", 10_000)
    book.submit_bet("backer", "c1", BACK, 1100, 100)
    book.submit_bet("layer", "c1", LAY, 1100, 100)
    book.close_betting()
    book.settle("c1")
    assert back_winnings(100, 1100) == 1000
    assert 100 + back_winnings(100, 1100) == 1100  # $11.00 back in hand
    assert book.free_balance("backer") == 10_000 + 1000
    assert book.free_balance("layer") == 10_000 - 1000

    # $5 at 1.2: stake 500c, winnings 100c, total return 600c
    book = MarketBook(("c1", "c2"), commission_rate=0.0)
    book.open_account("backer", 10_000)
    book.open_account("layer", 10_000)
    book.submit_bet("backer", "c1", BACK, 120, 500)
    book.submit_bet("layer", "c1", LAY, 120, 500)
    book.close_betting()
    book.settle("c1")
    assert back_winnings(500, 120) == 100
    assert 500 + back_winnings(500, 120) == 600  # $6.00 back in hand
    assert book.free_balance("backer") == 10_100
    report(5, "$1 @ 11.0 returns $11.00; $5 @ 1.2 returns $6.00")


# -- 6: event logs independent of worker count -----------------------------------


CRITERION_06_DOC = {
    "seed": 606,
    "race": {
        "track_length": 250.0,
        "competitors": [
            {"id": f"c{i}", "steps": {"family": "uniform", "lo": 10.0, "hi": 20.0}}
            for i in range(1, 4)
        ],
    },
    "session": {
        "agents": [
            {"strategy": s, "count": 1, "d": 3}
            for s in ("rp", "linex", "lw", "ud", "btf", "rb", "zi")
        ]
    },
}


def test_criterion_06_session_logs_identical_across_workers(tmp_path, capsys):
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps(CRITERION_06_DOC))
    digests = set()
    for run, workers in enumerate(("1", "2", "8", "2", "8")):
        out = tmp_path / f"run{run}"
        code = cli_main(
            ["session", "--config", str(cfg), "--out", str(out), "--workers", workers]
        )
        assert code == 0
        digests.add(hashlib.sha256((out / "events.jsonl").read_bytes()).hexdigest())
    capsys.readouterr()
    assert len(digests) == 1, f"event logs diverged: {digests}"
    report(6, f"5 runs, workers 1/2/8, single events.jsonl sha256 {digests.pop()[:12]}...")


def session_log_digest(config, seed: int, path) -> str:
    """Run one session and write its events.jsonl to path; returns the file's sha256."""
    writers.write_events_jsonl(path, run_session(replace(config, master_seed=seed)).events)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_06_session_logs_identical_in_worker_processes(tmp_path):
    # The session CLI runs in-process whatever --workers says, so the test
    # above cannot see a worker diverge.  Here the same sessions run in
    # forked pool workers and in this process, and their logs must match.
    config = parse_config(CRITERION_06_DOC).session_config()
    seeds = [derive_seed(606, "worker-check", i) for i in range(4)]
    paths = [tmp_path / f"pooled{i}.jsonl" for i in range(4)]
    with ProcessPoolExecutor(2) as pool:
        pooled = list(pool.map(session_log_digest, [config] * 4, seeds, paths))
    local = [
        session_log_digest(config, seed, tmp_path / f"local{i}.jsonl") for i, seed in enumerate(seeds)
    ]
    assert pooled == local
    assert len(set(local)) == 4  # distinct seeds, distinct sessions
    report(6, f"4 sessions in 2 worker processes match in-process sha256 {local[0][:12]}...")


# -- 7: showcase race products and directional estimates --------------------------


def test_criterion_07_showcase_race_and_directional_dry_runs(tmp_path, capsys):
    doc = {
        "seed": 707,
        "race": {
            "track_length": 2000.0,
            "dt": 1.0,
            "competitors": [
                {"id": f"c{i}", "steps": {"family": "uniform", "lo": 10.0, "hi": 20.0}}
                for i in range(1, 6)
            ],
        },
    }
    cfg = tmp_path / "race.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["race", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()

    with open(out / "finish.csv", newline="") as fh:
        finish_rows = list(csv.reader(fh))
    assert finish_rows[0] == ["competitor_id", "finish_tick", "finish_rank"]
    assert len(finish_rows) == 6
    n_ticks = max(int(r[1]) for r in finish_rows[1:])
    assert n_ticks < 360, f"race took {n_ticks} ticks"
    assert sorted(int(r[2]) for r in finish_rows[1:]) == [1, 2, 3, 4, 5]

    with open(out / "trajectory.csv", newline="") as fh:
        traj_rows = list(csv.reader(fh))
    assert traj_rows[0] == ["tick", "competitor_id", "position"]
    assert len(traj_rows) == 1 + 5 * (n_ticks + 1)
    for row in traj_rows[1:]:
        int(row[0])
        float(row[2])  # every cell parses

    # dry-run estimates move the right way as the leader's gap grows
    race = make_race(n=2, length=2000.0)
    gaps = (0.0, 50.0, 100.0, 200.0, 400.0)
    probs = []
    for gap in gaps:
        state = RaceState(
            tick=70, positions=[1000.0, 1000.0 - gap], prev_steps=[15.0, 15.0], finish_ticks=[None, None]
        )
        p_leader = rp_predict(state, race, 200, make_rng(500 + int(gap)))[0]
        probs.append(p_leader)
    assert abs(probs[0] - 0.5) < 0.12, f"tied race gave {probs[0]:.3f}"
    for a, b in zip(probs, probs[1:]):
        assert b >= a - 0.05, f"estimates fell as the gap grew: {probs}"
    assert probs[-1] > 0.95
    shown = ", ".join(f"{g:.0f}:{p:.3f}" for g, p in zip(gaps, probs))
    report(7, f"{n_ticks} ticks; leader win estimate by gap {shown}")


# -- 8: more dry runs never hurt on average ---------------------------------------


def test_criterion_08_log_loss_non_increasing_in_dry_runs():
    races = 1000
    depths = (0, 5, 50)
    cfg = make_race(n=3, length=120.0)
    losses = {d: [] for d in depths}
    for r in range(races):
        rng = make_rng(derive_seed(8, "run", r))
        state = initial_state(cfg, rng)
        for _ in range(3):
            advance_race(state, cfg, rng)
        mid = state.clone()
        while None in state.finish_ticks:
            advance_race(state, cfg, rng)
        winner = min(
            range(cfg.n_competitors),
            key=lambda c: (state.finish_ticks[c], cfg.track_length - state.positions[c], c),
        )
        for d in depths:
            probs = rp_predict(mid, cfg, d, make_rng(derive_seed(8, "agent", r, d)))
            losses[d].append(-math.log(probs[winner]))
    means = {d: statistics.fmean(losses[d]) for d in depths}
    for lo, hi in zip(depths, depths[1:]):
        diffs = [a - b for a, b in zip(losses[hi], losses[lo])]
        mean_diff = statistics.fmean(diffs)
        se = statistics.stdev(diffs) / math.sqrt(races)
        assert mean_diff <= 2.0 * se, (
            f"log-loss rose from d={lo} to d={hi}: {means[lo]:.4f} -> {means[hi]:.4f} "
            f"(diff {mean_diff:.4f}, 2se {2 * se:.4f})"
        )
    shown = ", ".join(f"d={d}:{means[d]:.4f}" for d in depths)
    report(8, f"paired over {races} races: {shown}")


# -- 9: throughput scales ----------------------------------------------------------


def test_criterion_09_batch_speedup_and_benchmark_stability():
    replications = 10_000
    cfg = make_race(n=4, length=150.0)
    cores = os.cpu_count() or 1

    t0 = time.perf_counter()
    base = run_batch(BatchConfig(cfg, replications, master_seed=9, workers=1))
    t_seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    wide = run_batch(BatchConfig(cfg, replications, master_seed=9, workers=cores))
    t_par = time.perf_counter() - t0
    assert base == wide
    speedup = t_seq / t_par
    assert speedup >= 0.5 * cores, f"speedup {speedup:.2f} on {cores} cores"

    points = bench(
        make_race(n=5, length=500.0), (5, 10, 20, 40), replications=60, timing_reps=3, master_seed=99
    )
    for p in points:
        assert p.cv < 0.25, f"cv {p.cv:.3f} at {p.n_competitors} competitors"
    means = [p.mean_s for p in points]
    assert all(a <= b for a, b in zip(means, means[1:])), f"per-race means not monotone: {means}"
    shown = ", ".join(f"{p.n_competitors}:{p.mean_s * 1e3:.2f}ms" for p in points)
    report(
        9,
        f"speedup {speedup:.2f} on {cores} core(s); per-race means {shown}; "
        f"max cv {max(p.cv for p in points):.3f}",
    )


# -- 10: the comparison test has calibration and power ----------------------------


def test_criterion_10_pmf_comparison_calibration_and_power():
    replications, trials, alpha = 300, 100, 0.01
    base = make_race(n=3, length=150.0)
    swapped = replace(
        base,
        competitors=(
            base.competitors[0],
            base.competitors[1],
            replace(base.competitors[2], steps=UniformSteps(1.0, 25.0)),
        ),
    )

    false_rejects = 0
    detections = 0
    for trial in range(trials):
        a = pmf_from_results(
            run_batch(BatchConfig(base, replications, derive_seed(10, "bench", trial, 0)))
        )
        b = pmf_from_results(
            run_batch(BatchConfig(base, replications, derive_seed(10, "bench", trial, 1)))
        )
        c = pmf_from_results(
            run_batch(BatchConfig(swapped, replications, derive_seed(10, "bench", trial, 2)))
        )
        if compare_pmf(a, b).p_value < alpha:
            false_rejects += 1
        if compare_pmf(a, c).p_value < alpha:
            detections += 1
    assert false_rejects <= 5, f"{false_rejects}/100 same-config rejections"
    assert detections >= 95, f"only {detections}/100 swapped-config detections"
    report(10, f"false rejects {false_rejects}/100, detections {detections}/100 at alpha 0.01")
