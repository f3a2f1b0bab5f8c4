"""The four benchmark workloads: inputs, one closed-loop operation, checks.

Each workload derives its inputs from the workload seed alone (program seeds
drawn from a stdlib generator), so the program only ever sees generated
configs and seeds.  One operation does what the matching CLI subcommand does
on one input, output files included; only that part is timed.  Checks run
after the timer stops and every problem they find fails the operation.
"""

from __future__ import annotations

import json
import pickle
import random
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

DERBY_CONFIG = Path(__file__).parent / "configs" / "derby.json"

#: Strategies of the crowd session, with agent counts.
CROWD_AGENTS = (("linex", 20), ("lw", 20), ("ud", 10), ("btf", 20), ("zi", 30))
CROWD_TRACK_LENGTH = 4000.0
CROWD_WAKE_PERIOD = 2.0

WIDE_FIELD = 160

#: Races per run_batch call in race_batch.
BATCH_RUNS = 500

#: run_batch calls timed for batch.pool_start_ms.
POOL_START_REPS = 5


@dataclass
class OpResult:
    """One timed operation: its time, the work it did, and what the checks found."""

    seconds: float
    races: int
    comp_ticks: int
    records: int
    files: list[str]
    problems: list[str]
    digests: dict[str, str] = field(default_factory=dict)

    def counts(self) -> tuple[int, int, int]:
        return self.races, self.comp_ticks, self.records


@dataclass
class Package:
    """The racemarket modules of one import."""

    version: str
    race: object
    agents: object
    exchange: object
    session: object
    batch: object
    writers: object
    seeding: object
    config: object


class Workload:
    name = ""
    why = ""
    #: Distinct inputs per run, sized so one round over them takes a few
    #: seconds and a run repeats each input several times.
    inputs = 1

    def __init__(self, pkg: Package, seed: int, nproc: int):
        self.pkg = pkg
        self.nproc = nproc
        rng = random.Random(f"perfbench/{self.name}/{seed}")
        self.seeds = [rng.randrange(2**31) for _ in range(self.inputs)]
        self.parse_s = 0.0
        self.prepare()

    def parse(self, text: str):
        t0 = perf_counter()
        cfg = self.pkg.config.parse_config(text)
        self.parse_s = perf_counter() - t0
        return cfg

    def prepare(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int, out: Path) -> OpResult:
        """Run input i and write its files to out."""
        raise NotImplementedError

    def check_op(self) -> tuple[list[str], float] | None:
        """A checked operation outside the closed loop, made once per timed
        run and once per round of a traced run.

        Returns the problems found and its seconds, or None for workloads
        that have none.
        """
        return None

    def layer_figures(self, check_s: float, races_per_s: float) -> dict[str, float]:
        """Per-layer metrics measured without the tracer, given the median
        check_op time and the untraced races_per_s."""
        return {}


# -- sessions -------------------------------------------------------------


def check_session(result) -> list[str]:
    problems = []
    report = result.settlement
    nets = {row.bettor_id: row.net for row in report.rows}
    if sum(nets.values()) + report.total_commission != 0:
        problems.append("settlement does not conserve money")
    if set(nets) != set(result.starting_balances):
        problems.append("settlement rows do not cover every account")
    for bettor, start in result.starting_balances.items():
        if result.final_balances.get(bettor) != start + nets.get(bettor, 0):
            problems.append(f"final balance of {bettor} is not start + net")
            break
    events = result.events
    if [e["seq"] for e in events] != list(range(1, len(events) + 1)):
        problems.append("event seq numbers are not 1..N")
    if not events or events[-1]["kind"] != "settle":
        problems.append("settle is not the last event")
    return problems


class SessionWorkload(Workload):
    """Sessions, written like `racemarket session`."""

    def config_text(self) -> str:
        return DERBY_CONFIG.read_text()

    def prepare(self) -> None:
        self.cfg = self.parse(self.config_text())

    def run_op(self, i: int, out: Path) -> OpResult:
        pkg, cfg, w = self.pkg, self.cfg, self.pkg.writers
        seed = self.seeds[i]
        t0 = perf_counter()
        scfg = cfg.session_config(master_seed=seed)
        result = pkg.session.run_session(scfg)
        outputs = ["events.jsonl", "trajectory.csv", "finish.csv", "settlement.csv"]
        w.write_events_jsonl(out / "events.jsonl", result.events)
        w.write_trajectory_csv(out / "trajectory.csv", result.trajectory)
        w.write_finish_csv(out / "finish.csv", result.trajectory)
        w.write_settlement_csv(out / "settlement.csv", result.settlement)
        if scfg.sentiment:
            w.write_sentiment_csv(out / "sentiment.csv", result.sentiment_rows)
            outputs.append("sentiment.csv")
        w.write_metadata(out, "session", seed, pkg.config.config_digest(cfg), outputs)
        seconds = perf_counter() - t0
        traj = result.trajectory
        n = len(traj.competitor_ids)
        records = (
            len(result.events)
            + len(traj.ticks) * n
            + n
            + len(result.settlement.rows)
            + (len(result.sentiment_rows) if scfg.sentiment else 0)
        )
        return OpResult(
            seconds, 1, sum(traj.finish_ticks), records, outputs + ["metadata.json"],
            check_session(result),
        )


class DerbySessions(SessionWorkload):
    name = "derby_sessions"
    why = (
        "2 configs/derby.json sessions (5 runners, 14 agents incl. rp/rb) per run; rp/rb dry "
        "runs put over 90% of the time in simulate_from, so the race kernel does the work"
    )
    inputs = 2


class CrowdSession(SessionWorkload):
    name = "crowd_session"
    why = (
        "derby race on a 4000-unit track, 100 agents (20 linex/20 lw/10 ud/20 btf/30 zi) "
        "waking every 2 s, sentiment on; exchange and observe scan dominate, kernel idle"
    )
    inputs = 1

    def config_text(self) -> str:
        doc = json.loads(DERBY_CONFIG.read_text())
        doc["race"]["track_length"] = CROWD_TRACK_LENGTH
        groups = {g["strategy"]: g for g in doc["session"]["agents"]}
        doc["session"]["sentiment"] = True
        doc["session"]["agents"] = [
            {
                **groups[strategy],
                "count": count,
                "reevaluate_every": CROWD_WAKE_PERIOD,
                "wake_jitter": CROWD_WAKE_PERIOD,
            }
            for strategy, count in CROWD_AGENTS
        ]
        return json.dumps(doc)


# -- races ------------------------------------------------------------------


def check_batch(results, replications: int, ids: tuple[str, ...]) -> list[str]:
    if [r.run_index for r in results] != list(range(replications)):
        return ["batch results are not runs 0..R-1 in order"]
    expected = sorted(ids)
    if any(sorted(r.finish_order) != expected for r in results):
        return ["a finish order is not a permutation of the field"]
    return []


class RaceBatch(Workload):
    """run_batch at nproc workers, written like `racemarket batch --workers nproc`."""

    name = "race_batch"
    why = (
        "run_batch of 500 derby-field races (5 runners, ~2 ms each) at nproc workers; "
        "pool start-up, pickling and per-run seed derivation take a visible share"
    )
    inputs = 1

    def prepare(self) -> None:
        doc = json.loads(DERBY_CONFIG.read_text())
        doc["batch"]["replications"] = BATCH_RUNS
        self.cfg = self.parse(json.dumps(doc))
        self.first_results = None

    def _batch(self, seed: int, workers: int, replications: int | None = None):
        b = self.pkg.batch
        reps = self.cfg.batch.replications if replications is None else replications
        return b.run_batch(b.BatchConfig(self.cfg.race, reps, seed, workers))

    def run_op(self, i: int, out: Path) -> OpResult:
        pkg, cfg, w = self.pkg, self.cfg, self.pkg.writers
        seed = self.seeds[i]
        t0 = perf_counter()
        results = self._batch(seed, self.nproc)
        pmf = pkg.batch.pmf_from_results(results)
        w.write_race_runs_csv(out / "runs.csv", results)
        w.write_pmf_csv(out / "pmf.csv", pmf)
        w.write_metadata(out, "batch", seed, pkg.config.config_digest(cfg), ["pmf.csv", "runs.csv"])
        seconds = perf_counter() - t0
        if i == 0:
            self.first_results = results
        return OpResult(
            seconds,
            len(results),
            sum(sum(r.finish_ticks) for r in results),
            len(results) + len(pmf.counts),
            ["runs.csv", "pmf.csv", "metadata.json"],
            check_batch(results, cfg.batch.replications, cfg.race.competitor_ids),
        )

    def check_op(self) -> tuple[list[str], float]:
        """Input 0 at one worker; it must equal the parallel run of input 0."""
        if self.first_results is None:
            return ["no parallel batch completed to compare with a serial run"], 0.0
        t0 = perf_counter()
        serial = self._batch(self.seeds[0], 1)
        seconds = perf_counter() - t0
        if serial != self.first_results:
            return [f"run_batch at {self.nproc} workers differs from the serial run"], seconds
        return [], seconds

    def layer_figures(self, check_s: float, races_per_s: float) -> dict[str, float]:
        starts = []
        for _ in range(POOL_START_REPS):
            t0 = perf_counter()
            self._batch(self.seeds[0], self.nproc, replications=self.nproc)
            starts.append(perf_counter() - t0)
        runs = len(self.first_results)
        serial_rate = runs / check_s
        return {
            "batch.serial_races_per_s": serial_rate,
            "batch.parallel_efficiency": races_per_s / (self.nproc * serial_rate),
            "batch.pool_start_ms": statistics.median(starts) * 1e3,
            "batch.result_bytes_per_run": len(pickle.dumps(self.first_results)) / runs,
        }


def check_positions(traj) -> list[str]:
    """Each competitor's position strictly increases until it finishes, then holds."""
    for c, finish in enumerate(traj.finish_ticks):
        column = [row[c] for row in traj.ticks]
        racing, after = column[: finish + 1], column[finish:]
        if any(b <= a for a, b in zip(racing, racing[1:])) or any(p != after[0] for p in after):
            return [f"positions of {traj.competitor_ids[c]} do not strictly increase"]
    return []


class WideField(Workload):
    """One recorded race per operation, written like `racemarket race`."""

    name = "wide_field"
    why = (
        "2 races of 160 runners built with resize_race from the derby field, trajectory "
        "recorded and trajectory.csv written; the O(n^2) front-runner search shows"
    )
    inputs = 2

    def prepare(self) -> None:
        cfg = self.parse(DERBY_CONFIG.read_text())
        self.cfg = replace(cfg, race=self.pkg.batch.resize_race(cfg.race, WIDE_FIELD))

    def run_op(self, i: int, out: Path) -> OpResult:
        pkg, cfg, w = self.pkg, self.cfg, self.pkg.writers
        seed = self.seeds[i]
        t0 = perf_counter()
        traj = pkg.race.run_race(cfg.race, pkg.seeding.derive_seed(seed, "race"))
        w.write_trajectory_csv(out / "trajectory.csv", traj)
        w.write_finish_csv(out / "finish.csv", traj)
        w.write_metadata(
            out, "race", seed, pkg.config.config_digest(cfg), ["trajectory.csv", "finish.csv"]
        )
        seconds = perf_counter() - t0
        n = len(traj.competitor_ids)
        return OpResult(
            seconds,
            1,
            sum(traj.finish_ticks),
            len(traj.ticks) * n + n,
            ["trajectory.csv", "finish.csv", "metadata.json"],
            check_positions(traj),
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (DerbySessions, CrowdSession, RaceBatch, WideField)
}
