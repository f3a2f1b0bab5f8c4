"""Replicated runs, outcome distributions, comparison tests, benchmarks.

Runs in a batch are seeded by deriving one child seed per run index from
the batch master seed, so results are a pure function of (config, master
seed) and identical for any worker count; workers only change wall-clock
time.  Outcome PMFs use the full finish-order space for 2 to 6 competitors
(up to 720 permutations) and the winner marginal otherwise.

scipy is imported lazily inside the comparison helpers to keep batch
worker processes import-light.
"""

import multiprocessing
import os
import time as _time
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from statistics import fmean, stdev
from typing import NamedTuple

from .exchange import Money
from .race import RaceConfig, batch_runs, engine
from .race import run_race  # noqa: F401  perfbench's tracer patches it here by name
from .seeding import Checked, FieldError, check_master_seed, derive_seed
from .session import SessionConfig, run_session

#: Largest field size whose full finish-order space (n!) is tracked exactly.
MAX_FULL_OUTCOME_COMPETITORS = 6
#: Most runs in one chunk of a race batch, so its result buffers stay small.
CHUNK_RUNS = 1024


class BatchRunError(RuntimeError):
    """A batch run failed; carries the failing run index."""

    def __init__(self, run_index: int, message: str):
        super().__init__(f"run {run_index}: {message}")
        self.run_index = run_index

    def __reduce__(self):
        return (BatchRunError, (self.run_index, self.args[0].split(": ", 1)[1]))


@dataclass(frozen=True)
class BatchSection(Checked):
    """A batch as a config names it: R replications of a race or session at P workers."""

    replications: int = 1000
    workers: int = 1
    target: str = "race"

    def validate(self) -> None:
        if self.replications < 1:
            raise FieldError("replications", f"must be >= 1, got {self.replications}")
        if self.workers < 1:
            raise FieldError("workers", f"must be >= 1, got {self.workers}")
        if self.target not in ("race", "session"):
            raise FieldError("target", f"must be 'race' or 'session', got {self.target!r}")


@dataclass(frozen=True)
class BatchConfig(Checked):
    """R replications of a race or session at P workers."""

    base: RaceConfig | SessionConfig
    replications: int
    master_seed: int
    workers: int = 1

    def validate(self) -> None:
        BatchSection(self.replications, self.workers)  # checks both as it is built
        check_master_seed(self.master_seed)


class RaceResult(NamedTuple):
    """One race of a batch.  A tuple, as a batch's results build one per
    run, and a NamedTuple takes under half the time of a frozen dataclass
    to build."""

    run_index: int
    finish_order: tuple[str, ...]
    finish_ticks: tuple[int, ...]
    n_ticks: int

    @property
    def winner(self) -> str:
        return self.finish_order[0]

    @property
    def winner_ticks(self) -> int:
        return min(self.finish_ticks)


class RaceResults(Sequence):
    """A race batch's results in run order: run i is RaceResult(i, orders[i],
    ticks[i], max(ticks[i])).

    The RaceResults are built when the batch is first read, not while it
    runs, and race.batch_runs shares equal rows of a chunk, so a running
    batch leaves few objects for the garbage collector to track: a full
    collection, tens of milliseconds in a large process, seldom lands in
    it.  Two batches compare by their rows, a batch and a list by results.
    """

    __slots__ = ("orders", "ticks", "_results")

    def __init__(self, orders: list[tuple[str, ...]], ticks: list[tuple[int, ...]]):
        self.orders, self.ticks, self._results = orders, ticks, None

    def _built(self) -> list[RaceResult]:
        if self._results is None:
            runs = range(len(self.orders))
            self._results = list(map(RaceResult, runs, self.orders, self.ticks, map(max, self.ticks)))
        return self._results

    def __len__(self) -> int:
        return len(self.orders)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self) -> Iterator[RaceResult]:
        return iter(self._built())

    def __eq__(self, other):
        if isinstance(other, RaceResults):
            return self.orders == other.orders and self.ticks == other.ticks
        return self._built() == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._built())


@dataclass(frozen=True)
class SessionSummary:
    run_index: int
    winner: str
    n_events: int
    total_matched: Money
    total_commission: Money
    winner_ticks: int


def _race_chunk(
    config: RaceConfig, master_seed: int, first: int, count: int
) -> tuple[list[tuple[str, ...]], list[tuple[int, ...]]]:
    """(finish orders, finish ticks) of runs first .. first + count - 1.

    Run i is a race on derive_seed(master_seed, "run", i) (race.batch_runs).
    The first run that fails raises BatchRunError with its index.
    """
    ticks, orders, error = batch_runs(config, master_seed, first, count)
    if error is not None:
        raise BatchRunError(first + len(ticks), repr(error))
    return orders, ticks


def _session_job(config: SessionConfig, master_seed: int, i: int) -> SessionSummary:
    try:
        res = run_session(replace(config, master_seed=derive_seed(master_seed, "run", i)))
    except Exception as exc:
        raise BatchRunError(i, repr(exc))
    return SessionSummary(
        i,
        res.trajectory.winner,
        len(res.events),
        res.total_matched,
        res.settlement.total_commission,
        min(res.trajectory.finish_ticks),
    )


def _pin_worker(cpus: tuple[int, ...], started) -> None:
    """Pool initializer: bind the k-th started worker to cpus[k % len(cpus)]."""
    with started.get_lock():
        k = started.value
        started.value += 1
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def _worker_pool(workers: int, executor=ProcessPoolExecutor):
    """A pool of processes (or threads) whose workers are spread one per usable CPU.

    Left to itself the kernel can keep freshly started workers on the
    parent's CPU for a whole batch, so that a 2-worker batch is no faster
    than a serial one; binding each worker to its own CPU rules that out.
    On Linux the binding of a thread is its own.
    """
    cpus = tuple(sorted(os.sched_getaffinity(0))) if hasattr(os, "sched_setaffinity") else ()
    if len(cpus) < 2:
        return executor(max_workers=workers)
    return executor(
        max_workers=workers,
        initializer=_pin_worker,
        initargs=(cpus, multiprocessing.Value("i", 0)),
    )


def run_batch(batch: BatchConfig) -> RaceResults | list[SessionSummary]:
    """All R results in run-index order; worker count never changes them.

    Race batches run in chunks of at most CHUNK_RUNS runs, one race engine
    call each, on the engine's executor: threads for the kernel, processes
    for the Python loop.  Session batches run on processes.  Each run
    derives its own seed where it runs, so workers are sent bare run
    indices (a race chunk's first index and count).
    """
    runs, workers = batch.replications, batch.workers
    if isinstance(batch.base, SessionConfig):
        job = partial(_session_job, batch.base, batch.master_seed)
        if workers == 1:
            return [job(i) for i in range(runs)]
        # forked workers inherit the race kernel loaded here instead of each loading it
        engine()
        with _worker_pool(workers) as pool:
            chunksize = max(1, runs // (workers * 8))
            return list(pool.map(job, range(runs), chunksize=chunksize))
    chunk = partial(_race_chunk, batch.base, batch.master_seed)
    size = min(CHUNK_RUNS, -(-runs // workers))
    firsts = range(0, runs, size)
    counts = [min(size, runs - first) for first in firsts]
    executor = engine().executor
    if workers == 1:
        return _race_results(map(chunk, firsts, counts))
    with _worker_pool(workers, executor) as pool:
        return _race_results(pool.map(chunk, firsts, counts))


def _race_results(chunks) -> RaceResults:
    """The results of _race_chunk's runs, in order: each chunk's rows are
    appended as it arrives, while the later ones run."""
    orders, ticks = [], []
    for chunk_orders, chunk_ticks in chunks:
        orders += chunk_orders
        ticks += chunk_ticks
    return RaceResults(orders, ticks)


# -- outcome distributions ------------------------------------------------

ORDER_SPACE = "order"
WINNER_SPACE = "winner"


@dataclass(frozen=True)
class OutcomePMF:
    """Empirical PMF over race outcomes.

    space is "order" (keys are hyphen-joined finish orders) for fields of
    2 to 6 competitors, else "winner" (keys are winner ids), so a table's
    space can be read back from its keys.
    """

    space: str
    n_samples: int
    counts: dict[str, int]


def estimate_pmf(orders: list[tuple[str, ...]]) -> OutcomePMF:
    """PMF of finish-order samples, winner-marginal for one or above 6 competitors."""
    if not orders:
        raise ValueError("estimate_pmf needs at least one outcome sample")
    n = len(orders[0])
    if any(len(o) != n for o in orders):
        raise ValueError("outcome samples must all have the same field size")
    counts: dict[str, int] = {}
    if 2 <= n <= MAX_FULL_OUTCOME_COMPETITORS:
        space = ORDER_SPACE
        for order in orders:
            key = "-".join(order)
            counts[key] = counts.get(key, 0) + 1
    else:
        space = WINNER_SPACE
        for order in orders:
            counts[order[0]] = counts.get(order[0], 0) + 1
    return OutcomePMF(space=space, n_samples=len(orders), counts=counts)


def pmf_from_results(results: list[RaceResult]) -> OutcomePMF:
    return estimate_pmf([r.finish_order for r in results])


@dataclass(frozen=True)
class ComparisonResult:
    method: str
    statistic: float
    p_value: float
    dof: int | None = None


def compare_pmf(a: OutcomePMF, b: OutcomePMF) -> ComparisonResult:
    """Chi-square homogeneity test that two PMFs share one distribution.

    Builds the 2 x K contingency table over the union of observed
    outcomes.  Identical count vectors give statistic 0, p = 1.  The
    chi-square approximation needs a few expected counts per cell, so keep
    sample sizes well above the outcome-space size.
    """
    if a.space != b.space:
        raise ValueError(f"cannot compare PMFs over {a.space!r} and {b.space!r} spaces")
    keys = sorted(set(a.counts) | set(b.counts))
    if not keys:
        raise ValueError("both PMFs are empty")
    row_a = [a.counts.get(k, 0) for k in keys]
    row_b = [b.counts.get(k, 0) for k in keys]
    if len(keys) == 1:
        return ComparisonResult("chi2_homogeneity", 0.0, 1.0, 0)
    if row_a == row_b:
        return ComparisonResult("chi2_homogeneity", 0.0, 1.0, len(keys) - 1)
    from scipy.stats import chi2_contingency

    stat, p, dof, _ = chi2_contingency([row_a, row_b], correction=False)
    return ComparisonResult("chi2_homogeneity", float(stat), float(p), int(dof))


def compare_finish_times(times_a, times_b) -> ComparisonResult:
    """Kruskal-Wallis test on two samples of finish times (secondary check)."""
    from scipy.stats import kruskal

    stat, p = kruskal(list(times_a), list(times_b))
    return ComparisonResult("kruskal_wallis", float(stat), float(p))


# -- benchmarking ------------------------------------------------------------

BENCH_WARMUPS = 3
#: Shortest wall-clock span of one timed sample, in seconds.
BENCH_MIN_SAMPLE_S = 0.2


@dataclass(frozen=True)
class BenchSection(Checked):
    """A bench grid: timing_reps timed batches of R races per field size."""

    n_competitors: tuple[int, ...] = (5, 10, 20, 40)
    replications: int = 100
    timing_reps: int = 5

    def validate(self) -> None:
        if not self.n_competitors or min(self.n_competitors) < 1:
            raise FieldError("n_competitors", "must be a non-empty list of integers >= 1")
        if self.replications < 1:
            raise FieldError("replications", f"must be >= 1, got {self.replications}")
        if self.timing_reps < 1:
            raise FieldError("timing_reps", f"must be >= 1, got {self.timing_reps}")


@dataclass(frozen=True)
class BenchPoint:
    n_competitors: int
    mean_s: float
    sd_s: float
    cv: float
    reps: int


def resize_race(config: RaceConfig, n: int) -> RaceConfig:
    """Race with n competitors built by cycling the config's field as templates."""
    if n == config.n_competitors:
        return config
    field = tuple(
        replace(config.competitors[i % config.n_competitors], cid=f"c{i + 1}")
        for i in range(n)
    )
    return replace(config, competitors=field)


def bench(
    base: RaceConfig,
    n_grid: tuple[int, ...],
    replications: int,
    timing_reps: int,
    master_seed: int,
    workers: int = 1,
) -> list[BenchPoint]:
    """Mean wall-clock seconds per race over a competitor-count grid.

    Per grid point: 3 untimed warm-up races, then timing_reps timed
    batches of R races each.  A timed batch is run again until the runs
    span BENCH_MIN_SAMPLE_S, and its sample is their mean time per race:
    on a shared host the speed can swing in phases of about 0.1 s, and a
    shorter sample measures the phase it lands in, not the code.  The
    per-race mean, sd, and cv are computed across the timed samples; reps
    reports R * timing_reps.
    """
    BenchSection(tuple(n_grid), replications, timing_reps)
    points = []
    for n in n_grid:
        cfg = resize_race(base, n)
        warm = BatchConfig(cfg, BENCH_WARMUPS, derive_seed(master_seed, "warmup", n), 1)
        run_batch(warm)
        samples = []
        for rep in range(timing_reps):
            batch = BatchConfig(
                cfg, replications, derive_seed(master_seed, "bench", n, rep), workers
            )
            rounds, t0 = 0, _time.perf_counter()
            while rounds == 0 or _time.perf_counter() - t0 < BENCH_MIN_SAMPLE_S:
                run_batch(batch)
                rounds += 1
            samples.append((_time.perf_counter() - t0) / (rounds * replications))
        mean = fmean(samples)
        sd = stdev(samples) if len(samples) > 1 else 0.0
        points.append(
            BenchPoint(
                n_competitors=n,
                mean_s=mean,
                sd_s=sd,
                cv=sd / mean if mean > 0 else 0.0,
                reps=replications * timing_reps,
            )
        )
    return points
