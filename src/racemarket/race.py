"""Stochastic race simulator.

Each competitor advances once per tick by a strictly positive step drawn
from its own step distribution, scaled by a course-conditions preference
factor and a distance-dependent responsiveness multiplier.  A competitor
whose gap to the nearest rival strictly ahead is at or below its blocking
threshold cannot draw freely: its step is limited to the smaller of its own
and the front runner's previous step (times responsiveness), modelling
being boxed in behind a slower rival.  All updates within a tick are
synchronous, computed from start-of-tick positions.  The race ends when the
slowest competitor has crossed the finish line.

This module alone chooses between the C kernel (_kernel.c, built on first
use) and the Python loop, race_ticks, which the kernel repeats bit for bit.
run_race primes its race in Python and runs it in C, recording each tick's
positions; batch_runs (a chunk of a batch's races) and win_counts (a
prediction's dry runs) are one kernel call each, through the one many-race
loop, and record only finish ticks and orders.  Without a compiler each
falls back to race_ticks: run_race records it, batch_runs runs it from
initial_state per run, and win_counts calls simulate_from, which is always
the Python loop.
"""

import math
from array import array
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial

from .seeding import Checked, FieldError, derive_seed, make_rng

DEFAULT_TICK_LIMIT = 1_000_000

#: preference_factor lower clamp; keeps every step strictly positive.
MIN_PREFERENCE_FACTOR = 0.01


class RaceConfigError(FieldError):
    """Raised when a race configuration fails validation."""


class RaceDivergedError(RuntimeError):
    """Raised when a race exceeds its tick limit without finishing."""


@dataclass(frozen=True)
class UniformSteps(Checked):
    """Uniform step law on [lo, hi], lo > 0."""

    lo: float
    hi: float

    def validate(self) -> None:
        if not self.lo > 0.0:
            raise RaceConfigError("lo", f"must be > 0, got {self.lo}")
        if not self.hi >= self.lo:
            raise RaceConfigError("hi", f"must be >= lo = {self.lo}, got {self.hi}")


@dataclass(frozen=True)
class LogNormalSteps(Checked):
    """Log-normal step law: scale * exp(Normal(mu, sigma))."""

    mu: float
    sigma: float
    scale: float = 1.0

    def validate(self) -> None:
        if not self.sigma >= 0.0:
            raise RaceConfigError("sigma", f"must be >= 0, got {self.sigma}")
        if not self.scale > 0.0:
            raise RaceConfigError("scale", f"must be > 0, got {self.scale}")


StepDistribution = UniformSteps | LogNormalSteps


@dataclass(frozen=True)
class Responsiveness(Checked):
    """Two-level distance profile: early_mult before breakpoint * L, late_mult after."""

    early_mult: float = 1.0
    late_mult: float = 1.0
    breakpoint: float = 0.5

    def validate(self) -> None:
        if not self.early_mult > 0.0:
            raise RaceConfigError("early_mult", f"must be > 0, got {self.early_mult}")
        if not self.late_mult > 0.0:
            raise RaceConfigError("late_mult", f"must be > 0, got {self.late_mult}")
        if not 0.0 <= self.breakpoint <= 1.0:
            raise RaceConfigError("breakpoint", f"must be in [0, 1], got {self.breakpoint}")


@dataclass(frozen=True)
class Competitor(Checked):
    cid: str
    steps: StepDistribution
    preference: float = 0.5
    pref_sensitivity: float = 0.0
    theta: float = 0.0
    responsiveness: Responsiveness = field(default_factory=Responsiveness)

    def validate(self) -> None:
        if not self.cid:
            raise RaceConfigError("cid", "must be non-empty")
        if "-" in self.cid or "," in self.cid:  # both separate ids in outcome keys
            raise RaceConfigError("cid", f"must not contain '-' or ',', got {self.cid!r}")
        if not self.pref_sensitivity >= 0.0:
            raise RaceConfigError("pref_sensitivity", f"must be >= 0, got {self.pref_sensitivity}")
        if not self.theta >= 0.0:
            raise RaceConfigError("theta", f"must be >= 0, got {self.theta}")


@dataclass(frozen=True)
class BettingClose:
    """When in-play betting closes: at the 1st, k-th, or last finisher."""

    rule: str
    k: int | None = None

    def close_rank(self, n_competitors: int) -> int:
        """Number of finishers that triggers the close."""
        if self.rule == "first":
            return 1
        if self.rule == "kth":
            return self.k  # type: ignore[return-value]
        return n_competitors

    def validate(self, n_competitors: int) -> None:
        """Errors name the field as a race's betting_close, in its config form."""
        if self.rule not in ("first", "kth", "last"):
            raise RaceConfigError("betting_close", f"unknown rule {self.rule!r}")
        if self.rule == "kth":
            if self.k is None or not 1 <= self.k <= n_competitors:
                n = n_competitors
                raise RaceConfigError("betting_close.kth", f"must be in [1, {n}], got {self.k}")
        elif self.k is not None:
            raise RaceConfigError("betting_close", f"{self.rule!r} takes no k, got {self.k}")


@dataclass(frozen=True)
class RaceConfig(Checked):
    track_length: float
    competitors: tuple[Competitor, ...]
    dt: float = 1.0
    conditions: float = 0.5
    betting_close: BettingClose = BettingClose("last")
    tick_limit: int = DEFAULT_TICK_LIMIT

    @property
    def n_competitors(self) -> int:
        return len(self.competitors)

    @cached_property
    def competitor_ids(self) -> tuple[str, ...]:
        return tuple(c.cid for c in self.competitors)

    @cached_property
    def _runners(self) -> tuple[tuple, ...]:
        """Per-race constants of each competitor, compiled once per config."""
        return _compile(self)

    def validate(self) -> None:
        if not self.track_length > 0.0:
            raise RaceConfigError("track_length", f"must be > 0, got {self.track_length}")
        if not self.dt > 0.0:
            raise RaceConfigError("dt", f"must be > 0, got {self.dt}")
        if self.tick_limit < 1:
            raise RaceConfigError("tick_limit", f"must be >= 1, got {self.tick_limit}")
        if not self.competitors:
            raise RaceConfigError("competitors", "must be non-empty")
        ids = [c.cid for c in self.competitors]
        if len(set(ids)) != len(ids):
            raise RaceConfigError("competitors", f"ids must be unique, got {ids}")
        self.betting_close.validate(len(self.competitors))


def preference_factor(conditions: float, preference: float, sensitivity: float) -> float:
    """Conditions-suitability multiplier in [0.01, 1.0]: at most 1 as sensitivity >= 0."""
    f = 1.0 - sensitivity * abs(conditions - preference)
    if f < MIN_PREFERENCE_FACTOR:
        return MIN_PREFERENCE_FACTOR
    return f


@dataclass
class RaceState:
    """Mutable mid-race state.  finish_ticks[c] is None while c is racing."""

    tick: int
    positions: list[float]
    prev_steps: list[float]
    finish_ticks: list[int | None]
    blocked_steps: int = 0

    def clone(self) -> "RaceState":
        return RaceState(
            self.tick,
            list(self.positions),
            list(self.prev_steps),
            list(self.finish_ticks),
            self.blocked_steps,
        )

    def finished_count(self) -> int:
        return sum(1 for t in self.finish_ticks if t is not None)


def initial_state(config: RaceConfig, rng) -> RaceState:
    """All competitors at 0; previous steps primed with one free step each.

    The primer is one kernel tick off the line of an endless track: nobody
    is strictly ahead at the start, so every step is a free draw at
    position 0, in index order.
    """
    n = config.n_competitors
    primer = RaceState(0, [0.0] * n, [0.0] * n, [None] * n)
    _tick(config._runners, math.inf, primer, list(range(n)), rng)
    return RaceState(0, [0.0] * n, primer.prev_steps, [None] * n)


def _compile(config: RaceConfig) -> tuple[tuple, ...]:
    """Each competitor's per-race constants, in field order.

    (theta, breakpoint position, early_mult, late_mult, early_free,
    late_free, lognormal, a, b, scale): a free step is early_free (below
    the breakpoint position) or late_free, both mult * preference factor,
    times a + b * U(0, 1) for uniform steps (a = lo, b = hi - lo: CPython's
    uniform) or scale * lognormvariate(a, b); a blocked step is early_mult
    or late_mult times min(own, front runner's previous step).
    """
    runners = []
    for comp in config.competitors:
        r, st = comp.responsiveness, comp.steps
        pref = preference_factor(config.conditions, comp.preference, comp.pref_sensitivity)
        ln = isinstance(st, LogNormalSteps)
        law = (True, st.mu, st.sigma, st.scale) if ln else (False, st.lo, st.hi - st.lo, 1.0)
        bp = r.breakpoint * config.track_length
        mults = (r.early_mult, r.late_mult, r.early_mult * pref, r.late_mult * pref)
        runners.append((comp.theta, bp, *mults, *law))
    return tuple(runners)


def _tick(runners, length: float, state: RaceState, racing: list[int], rng) -> list[int]:
    """Advance the racing competitors (index order) one tick; return those still racing.

    c's front runner is the first rival above c's position in the racing
    field stably sorted by position: the lowest index at the nearest
    position ahead.  Rivals further ahead whose gap rounds to the same float
    tie with it.  A gap is always > 0, so theta = 0 never blocks and the
    sort is made only once a competitor with theta > 0 needs it.
    """
    pos, prev, finish = state.positions, state.prev_steps, state.finish_ticks
    random, lognormvariate = rng.random, rng.lognormvariate
    ranked, steps = None, []
    for c in racing:
        theta, bp, early, late, early_free, late_free, lognormal, a, b, scale = runners[c]
        p = pos[c]
        if theta > 0.0:
            if ranked is None:
                order = sorted(racing, key=pos.__getitem__)
                ranked = list(map(pos.__getitem__, order))
                m = len(ranked)
            j = bisect_right(ranked, p)
            if j < m and ranked[j] - p <= theta:
                gap, k = ranked[j] - p, j + 1
                while k < m and ranked[k] - p == gap:
                    k += 1
                steps.append((early if p < bp else late) * min(prev[c], prev[min(order[j:k])]))
                state.blocked_steps += 1
                continue
        raw = scale * lognormvariate(a, b) if lognormal else a + b * random()
        steps.append((early_free if p < bp else late_free) * raw)
    t = state.tick = state.tick + 1
    still = []
    for c, s in zip(racing, steps):
        p = pos[c] + s
        if p == pos[c]:
            # steps are always positive but can underflow float addition
            # in long blocked chains; keep positions strictly increasing
            p = math.nextafter(p, math.inf)
        pos[c] = p
        prev[c] = s
        if p >= length:
            finish[c] = t
        else:
            still.append(c)
    return still


def _racing(state: RaceState) -> list[int]:
    return [c for c, t in enumerate(state.finish_ticks) if t is None]


def advance_race(state: RaceState, config: RaceConfig, rng) -> RaceState:
    """One synchronous tick, in place.

    Steps for all still-racing competitors are computed from start-of-tick
    positions (draws in competitor-index order), then applied together.
    Competitors reaching track_length are marked finished at the new tick.
    """
    _tick(config._runners, config.track_length, state, _racing(state), rng)
    return state


def _diverged(config: RaceConfig, finished: int) -> RaceDivergedError:
    done = f"{finished}/{config.n_competitors} finished"
    return RaceDivergedError(f"race exceeded tick_limit={config.tick_limit} with {done}")


def race_ticks(config: RaceConfig, state: RaceState, rng, stop: int) -> Iterator[list[int]]:
    """The race loop: tick state in place until every competitor has finished.

    Yields, after each tick, the competitors that raced in it (index order);
    raises RaceDivergedError if the tick reaches stop first.  A session's
    race and simulate_from step through this loop, and so do run_race and
    batch_runs when the C kernel is not there.
    """
    runners, racing = config._runners, _racing(state)
    while racing:
        if state.tick >= stop:
            raise _diverged(config, state.finished_count())
        ran, racing = racing, _tick(runners, config.track_length, state, racing, rng)
        yield ran


def _finish_order(state: RaceState, config: RaceConfig) -> tuple[int, ...]:
    # Same-tick ties rank the larger overshoot past the line first,
    # then the lower competitor index.
    length = config.track_length
    return tuple(
        sorted(
            range(config.n_competitors),
            key=lambda c: (state.finish_ticks[c], length - state.positions[c], c),
        )
    )


@dataclass(frozen=True)
class Trajectory:
    """Completed race record.

    snapshots holds the positions after each tick, tick 0 (the start line)
    first: n_competitors floats per tick, one flat array("d") from the race
    to trajectory.csv; its last n_competitors are the final positions.  It
    must not be changed after finalize_trajectory: ticks, which gives the
    same positions as one tuple per tick, is cached from it.
    """

    competitor_ids: tuple[str, ...]
    snapshots: array
    finish_ticks: tuple[int, ...]
    finish_order: tuple[str, ...]
    blocked_steps: int

    @property
    def n_ticks(self) -> int:
        return max(self.finish_ticks)

    @property
    def winner(self) -> str:
        return self.finish_order[0]

    @cached_property
    def ticks(self) -> tuple[tuple[float, ...], ...]:
        """The snapshots as one tuple of positions per tick."""
        return tuple(_rows(self.snapshots, len(self.competitor_ids)))


def finalize_trajectory(state: RaceState, config: RaceConfig, snapshots: array) -> Trajectory:
    """Build the immutable race record from a fully finished state.

    snapshots is the race's flat array of positions per tick (see
    Trajectory), kept as it is.
    """
    order = _finish_order(state, config)
    ids = config.competitor_ids
    return Trajectory(
        competitor_ids=ids,
        snapshots=snapshots,
        finish_ticks=tuple(state.finish_ticks),  # type: ignore[arg-type]
        finish_order=tuple(ids[c] for c in order),
        blocked_steps=state.blocked_steps,
    )


def load_kernel():
    """The C race kernel (_kernel.Kernel), or None without a C compiler.

    Its module, with ctypes, is imported at the first whole race or
    trajectory.csv, so importing the package stays as light as it was.
    Only this module's entry points, run_batch and write_trajectory_csv
    call it, so the one warning a missing compiler gives names the code
    that called them.
    """
    from . import _kernel

    return _kernel.load()


def run_race(config: RaceConfig, seed: int) -> Trajectory:
    """Run one race to completion on a private stream seeded with seed, recording every tick."""
    snapshots = array("d", [0.0]) * config.n_competitors
    kernel = load_kernel()
    rng = make_rng(seed)
    state = initial_state(config, rng)
    if kernel is None:
        for _ in race_ticks(config, state, rng, config.tick_limit):
            snapshots.extend(state.positions)
    else:
        kernel.run(
            config._runners, config.track_length, state, rng.getstate()[1], config.tick_limit,
            partial(_diverged, config), snapshots,
        )
    return finalize_trajectory(state, config, snapshots)


def simulate_from(state: RaceState, config: RaceConfig, seed: int) -> tuple[str, ...]:
    """Finish order of one independent continuation of a mid-race state.

    The caller's state is not mutated; draws come from a fresh stream so
    repeated calls with distinct seeds give i.i.d. continuations.
    """
    st = state.clone()
    for _ in race_ticks(config, st, make_rng(seed), state.tick + config.tick_limit):
        pass
    return tuple(config.competitor_ids[c] for c in _finish_order(st, config))


def _rows(values, n: int) -> list[tuple]:
    """values cut into tuples of n, in order: zip over one iterator n times."""
    return list(zip(*[iter(values)] * n))


def batch_runs(config: RaceConfig, master_seed: int, first: int, count: int):
    """Runs first .. first + count - 1 of a batch on master_seed.

    Run i is the race run_race(config, derive_seed(master_seed, "run", i))
    runs, without its snapshots; with the kernel all count runs are one
    call, and without it each is race_ticks from initial_state.  Returns
    (ticks, orders, error): each run's finish ticks and finish order
    (competitor ids) up to the first run that failed, and None or the error
    run_race raises on that run.  Run indices are signed 64-bit, as the
    kernel counts them: ValueError for one outside [0, 2**63 - 1].
    """
    last = first + count - 1
    if first < 0 or last > 2**63 - 1:
        raise ValueError(f"run indices must be in [0, 2**63 - 1], got {first}..{last}")
    kernel = load_kernel()
    if kernel is None:
        ticks, orders, ids = [], [], config.competitor_ids
        for i in range(first, first + count):
            try:
                rng = make_rng(derive_seed(master_seed, "run", i))
                state = initial_state(config, rng)
                for _ in race_ticks(config, state, rng, config.tick_limit):
                    pass
            except Exception as exc:
                return ticks, orders, exc
            ticks.append(tuple(state.finish_ticks))
            orders.append(tuple(map(ids.__getitem__, _finish_order(state, config))))
        return ticks, orders, None
    done, ticks, orders, error = kernel.races(
        config._runners, config.track_length, kernel.run_seeds(master_seed, first, count), None,
        config.tick_limit, partial(_diverged, config),
    )
    n, ids = config.n_competitors, config.competitor_ids
    return _rows(ticks[: done * n], n), _rows(map(ids.__getitem__, orders[: done * n]), n), error


def win_counts(state: RaceState, config: RaceConfig, seeds: list[int]) -> list[int]:
    """Wins per competitor index of simulate_from(state, config, seed) over seeds.

    With the kernel all continuations are one call, and a continuation's
    winner is the first of its finish order.  The first that fails raises
    the error simulate_from raises on it.
    """
    wins = [0] * config.n_competitors
    kernel = load_kernel()
    if kernel is None:
        index = {cid: i for i, cid in enumerate(config.competitor_ids)}
        for seed in seeds:
            wins[index[simulate_from(state, config, seed)[0]]] += 1
        return wins
    done, _, orders, error = kernel.races(
        config._runners, config.track_length, seeds, state, state.tick + config.tick_limit,
        partial(_diverged, config),
    )
    if error is not None:
        raise error
    n = config.n_competitors
    for winner in orders[: done * n : n]:
        wins[winner] += 1
    return wins
