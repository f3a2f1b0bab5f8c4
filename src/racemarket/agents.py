"""Bettor agents.

Every agent owns a private RNG stream and exposes two entry points: predict,
mapping an observation to a win-probability vector over competitors, and
decide, mapping an observation to order actions.  All strategies except the
zero-intelligence bettor share one value-betting policy: cancel own stale
unmatched bets, pick the competitor judged most likely to win, compare its
fair odds 1/p with the top of the book, take a profitable level when one
rests there, otherwise post a back at the quantized fair odds.

Strategies:

* rp     rank-probability estimates from d independent dry-run simulations
         of the rest of the race, Laplace-smoothed; d = 0 stays uniform.
* linex  linear extrapolation of recent average speed to a finish time.
* lw     backs the current leader.
* ud     backs the second-placed competitor while it trails the leader by
         less than a gap threshold, else the leader.
* btf    backs the market favourite (lowest best-back quote).
* rb     rp with a small d, distorted by an inverse-S probability weighting
         and stakes snapped to a 1-2-5 style ladder.
* zi     zero intelligence: uniform random competitor, side, odds band
         level, and stake.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .exchange import (
    BACK,
    LAY,
    MAX_ODDS,
    MIN_ODDS,
    GridRow,
    Money,
    OpenBet,
    escrow,
    ladder_band,
    odds_to_decimal,
    quantize_odds,
)
from .race import RaceConfig, RaceState, win_counts
from .race import simulate_from  # noqa: F401  perfbench's tracer patches it here by name
from .seeding import Checked, FieldError

#: Minimum ratio of fair odds to the best resting back quote before the
#: shared policy lays an overrated competitor instead of posting a back.
LAY_VALUE_MARGIN = 1.25

STRATEGY_NAMES = ("rp", "linex", "lw", "ud", "btf", "rb", "zi")


class AgentConfigError(FieldError):
    """Raised when agent parameters fail validation."""


@dataclass(frozen=True)
class AgentParams(Checked):
    strategy: str
    count: int = 1
    d: int = 10
    window: float = 10.0
    gap_threshold: float = 5.0
    gamma: float = 0.61
    stake_multiples: tuple[int, ...] = (1, 2, 5)
    base_stake: int = 10
    max_stake: int = 20
    zi_odds_lo: float = 1.5
    zi_odds_hi: float = 20.0
    reevaluate_every: float = 10.0
    wake_jitter: float = 10.0
    starting_balance: int = 1000

    def validate(self) -> None:
        if self.strategy not in STRATEGY_NAMES:
            raise AgentConfigError("strategy", f"not one of {STRATEGY_NAMES}: {self.strategy!r}")
        if self.count < 0:
            raise AgentConfigError("count", f"must be >= 0, got {self.count}")
        if self.d < 0:
            raise AgentConfigError("d", f"must be >= 0, got {self.d}")
        if not self.window > 0.0:
            raise AgentConfigError("window", f"must be > 0, got {self.window}")
        if not self.gap_threshold > 0.0:
            raise AgentConfigError("gap_threshold", f"must be > 0, got {self.gap_threshold}")
        if not 0.0 < self.gamma <= 1.0:
            raise AgentConfigError("gamma", f"must be in (0, 1], got {self.gamma}")
        if self.base_stake < 1:
            raise AgentConfigError("base_stake", f"must be >= 1, got {self.base_stake}")
        if self.max_stake < 1:
            raise AgentConfigError("max_stake", f"must be >= 1, got {self.max_stake}")
        if not self.stake_multiples or any(m < 1 for m in self.stake_multiples):
            raise AgentConfigError("stake_multiples", "must be positive integers")
        if not stake_ladder(self.stake_multiples, self.max_stake):
            raise AgentConfigError("stake_multiples", f"none fits under max_stake={self.max_stake}")
        lo, hi = odds_to_decimal(MIN_ODDS), odds_to_decimal(MAX_ODDS)  # the ladder's ends
        if not self.zi_odds_lo >= lo:
            raise AgentConfigError("zi_odds_lo", f"must be >= {lo}, got {self.zi_odds_lo}")
        if not self.zi_odds_lo < self.zi_odds_hi <= hi:
            got = self.zi_odds_hi
            raise AgentConfigError("zi_odds_hi", f"must be in (zi_odds_lo, {hi}], got {got}")
        if not self.reevaluate_every > 0.0:
            raise AgentConfigError("reevaluate_every", f"must be > 0, got {self.reevaluate_every}")
        if not self.wake_jitter >= 0.0:
            raise AgentConfigError("wake_jitter", f"must be >= 0, got {self.wake_jitter}")
        if self.starting_balance < 0:
            raise AgentConfigError("starting_balance", f"must be >= 0, got {self.starting_balance}")


class Observation(NamedTuple):
    """Immutable market and race snapshot served to an agent on wake."""

    time: float
    race_tick: int
    positions: tuple[float, ...]
    finish_ticks: tuple[int | None, ...]
    step_history: tuple[tuple[float, ...], ...]
    grid: dict[str, GridRow]
    my_bets: tuple[OpenBet, ...]
    balance: Money


class PlaceOrder(NamedTuple):
    competitor_id: str
    side: str
    odds: int
    stake: Money


class CancelOrder(NamedTuple):
    bet_id: int


Action = PlaceOrder | CancelOrder


# -- predictors -------------------------------------------------------------


def rp_predict(state: RaceState, config: RaceConfig, d: int, rng) -> tuple[float, ...]:
    """Laplace-smoothed win probabilities from d dry-run continuations.

    (wins_c + 1) / (d + n), so d = 0 is the uniform prior and every
    competitor keeps nonzero probability.  The d seeds are drawn from rng
    first, then race.win_counts runs one simulate_from continuation per seed.
    """
    n = config.n_competitors
    seeds = [rng.getrandbits(64) for _ in range(d)]
    wins = win_counts(state, config, seeds) if d > 0 else [0] * n
    return tuple((w + 1) / (d + n) for w in wins)


@functools.cache
def _uniform(n: int) -> tuple[float, ...]:
    """The uniform prior over n competitors, one tuple per n."""
    return tuple(1.0 / n for _ in range(n))


def _point_mass(n: int, picks: list[int]) -> tuple[float, ...]:
    share = 1.0 / len(picks)
    probs = [0.0] * n
    for c in picks:
        probs[c] = share
    return tuple(probs)


def linex_predict(
    step_history: tuple[tuple[float, ...], ...],
    positions: tuple[float, ...],
    track_length: float,
    window_ticks: int,
) -> tuple[float, ...]:
    """Mass on the shortest extrapolated finish time; ties split equally.

    Speed is the mean of each competitor's last window_ticks steps; a
    competitor already past the line gets finish time 0.
    """
    n = len(positions)
    times = []
    for c in range(n):
        remaining = track_length - positions[c]
        if remaining <= 0.0:
            times.append(0.0)
            continue
        recent = step_history[c][-window_ticks:]
        if not recent:
            raise ValueError("linex_predict needs at least one tick of history")
        times.append(remaining * len(recent) / sum(recent))
    best = min(times)
    return _point_mass(n, [c for c in range(n) if times[c] == best])


def lw_predict(positions: tuple[float, ...]) -> tuple[float, ...]:
    """Mass on the current leader; ties split equally."""
    best = max(positions)
    return _point_mass(len(positions), [c for c, p in enumerate(positions) if p == best])


def ud_predict(positions: tuple[float, ...], gap_threshold: float) -> tuple[float, ...]:
    """Mass on second place while it trails by strictly less than the threshold."""
    if len(positions) < 2:
        raise ValueError("ud_predict needs at least two competitors")
    ranked = sorted(range(len(positions)), key=lambda c: (-positions[c], c))
    leader, runner_up = ranked[0], ranked[1]
    if positions[leader] - positions[runner_up] < gap_threshold:
        return _point_mass(len(positions), [runner_up])
    return _point_mass(len(positions), [leader])


def btf_predict(grid: dict[str, GridRow], competitor_ids: tuple[str, ...]) -> tuple[float, ...]:
    """Mass on the favourite: lowest best-back quote; no quotes means uniform."""
    n = len(competitor_ids)
    quotes: list[tuple[int, int]] = []  # (odds, index)
    for i, cid in enumerate(competitor_ids):
        backs = grid[cid].backs
        if backs:
            quotes.append((backs[0].odds, i))
    if not quotes:
        return _uniform(n)
    lowest = min(q for q, _ in quotes)
    return _point_mass(n, [i for q, i in quotes if q == lowest])


def rb_weight(p: float, gamma: float) -> float:
    """Inverse-S probability weighting p^g / (p^g + (1-p)^g)^(1/g).

    Overweights small probabilities for gamma < 1; identity at gamma = 1;
    fixes 0 and 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p in (0.0, 1.0) or gamma == 1.0:
        return p
    num = p**gamma
    return num / (num + (1.0 - p) ** gamma) ** (1.0 / gamma)


def rb_weighted(probs: tuple[float, ...], gamma: float) -> tuple[float, ...]:
    """Elementwise rb_weight, renormalized to sum to 1."""
    w = [rb_weight(p, gamma) for p in probs]
    total = sum(w)
    return tuple(x / total for x in w)


def stake_ladder(multiples: tuple[int, ...], max_stake: int) -> tuple[int, ...]:
    """Ascending stakes m * 10^k <= max_stake for m in multiples."""
    vals = set()
    for m in multiples:
        v = m
        while v <= max_stake:
            vals.add(v)
            v *= 10
    return tuple(sorted(vals))


def rb_stake(raw: int, multiples: tuple[int, ...], max_stake: int) -> int:
    """Snap a raw stake to the nearest ladder value, ties toward the smaller."""
    if raw < 1:
        raise ValueError(f"raw stake must be >= 1, got {raw}")
    ladder = stake_ladder(multiples, max_stake)
    best = ladder[0]
    for v in ladder[1:]:
        if abs(v - raw) < abs(best - raw):
            best = v
    return best


# -- agents -------------------------------------------------------------


class Bettor:
    """Base agent: one decide over a strategy's predict and _order; this _order bets on value."""

    strategy = "base"

    def __init__(self, bettor_id: str, params: AgentParams, race_config: RaceConfig, rng):
        self.bettor_id = bettor_id
        self.params = params
        self.race_config = race_config
        self.rng = rng
        self.last_prediction: tuple[float, ...] | None = None

    def predict(self, obs: Observation) -> tuple[float, ...]:
        raise NotImplementedError

    def _stale_cancels(self, obs: Observation) -> list[Action]:
        limit = self.params.reevaluate_every
        return [
            CancelOrder(b.bet_id)
            for b in obs.my_bets
            if obs.time - b.arrival_time > limit
        ]

    def _pick(self, probs: tuple[float, ...]) -> int:
        """Argmax competitor; exact ties broken uniformly at random."""
        best = max(probs)
        if probs.count(best) == 1:
            return probs.index(best)
        picks = [c for c, p in enumerate(probs) if p == best]
        return picks[self.rng.randrange(len(picks))]

    def _stake_minor(self) -> Money:
        return self.params.base_stake * 100

    def _order(self, obs: Observation, probs: tuple[float, ...]) -> PlaceOrder:
        """The value order on the top pick: take a profitable level, else rest a back."""
        cid = self.race_config.competitor_ids[self._pick(probs)]
        fair = 1.0 / max(probs)  # probs sum to 1, so the top one is at least 1/n
        fair_q = MIN_ODDS if fair <= odds_to_decimal(MIN_ODDS) else quantize_odds(fair)
        backs, lays = obs.grid[cid]
        if lays and lays[0].odds >= fair_q:
            side, odds = BACK, lays[0].odds  # takes the resting lay
        elif backs and fair >= odds_to_decimal(backs[0].odds) * LAY_VALUE_MARGIN:
            side, odds = LAY, backs[0].odds  # lays an overrated competitor
        else:
            side, odds = BACK, fair_q  # rests at own fair odds
        return PlaceOrder(cid, side, odds, self._stake_minor())

    def decide(self, obs: Observation) -> list[Action]:
        """Stale-bet cancels plus at most one order, funds permitting."""
        probs = self.predict(obs)
        self.last_prediction = probs
        actions = self._stale_cancels(obs)
        order = self._order(obs, probs)
        if escrow(order.side, order.stake, order.odds) <= obs.balance:
            actions.append(order)
        return actions


class RPBettor(Bettor):
    strategy = "rp"

    def _reconstruct_state(self, obs: Observation) -> RaceState:
        # Previous steps are observable as the last entry of each step
        # history; pre-race (no history) they are inert because nobody can
        # be blocked on the first tick from equal positions.
        prev = [h[-1] if h else 0.0 for h in obs.step_history]
        return RaceState(
            tick=obs.race_tick,
            positions=list(obs.positions),
            prev_steps=prev,
            finish_ticks=list(obs.finish_ticks),
        )

    def predict(self, obs: Observation) -> tuple[float, ...]:
        state = self._reconstruct_state(obs)
        return rp_predict(state, self.race_config, self.params.d, self.rng)


class LinExBettor(Bettor):
    strategy = "linex"

    def predict(self, obs: Observation) -> tuple[float, ...]:
        if not any(obs.step_history):  # no tick has run
            return _uniform(self.race_config.n_competitors)
        window_ticks = max(1, round(self.params.window / self.race_config.dt))
        return linex_predict(
            obs.step_history, obs.positions, self.race_config.track_length, window_ticks
        )


class LWBettor(Bettor):
    strategy = "lw"

    def predict(self, obs: Observation) -> tuple[float, ...]:
        return lw_predict(obs.positions)


class UDBettor(Bettor):
    strategy = "ud"

    def predict(self, obs: Observation) -> tuple[float, ...]:
        return ud_predict(obs.positions, self.params.gap_threshold)


class BTFBettor(Bettor):
    strategy = "btf"

    def predict(self, obs: Observation) -> tuple[float, ...]:
        return btf_predict(obs.grid, self.race_config.competitor_ids)


class RBBettor(RPBettor):
    strategy = "rb"

    def predict(self, obs: Observation) -> tuple[float, ...]:
        base = super().predict(obs)
        return rb_weighted(base, self.params.gamma)

    def _stake_minor(self) -> Money:
        raw = self.rng.randint(1, self.params.max_stake)
        return rb_stake(raw, self.params.stake_multiples, self.params.max_stake) * 100


class ZIBettor(Bettor):
    strategy = "zi"

    def __init__(self, bettor_id, params, race_config, rng):
        super().__init__(bettor_id, params, race_config, rng)
        self._band = ladder_band(params.zi_odds_lo, params.zi_odds_hi)

    def predict(self, obs: Observation) -> tuple[float, ...]:
        return _uniform(self.race_config.n_competitors)

    def _order(self, obs: Observation, probs: tuple[float, ...]) -> PlaceOrder:
        """Random competitor, side, band odds, and stake."""
        rng = self.rng
        cid = self.race_config.competitor_ids[rng.randrange(self.race_config.n_competitors)]
        side = BACK if rng.random() < 0.5 else LAY
        odds = self._band[rng.randrange(len(self._band))]
        stake = rng.randint(1, self.params.max_stake) * 100
        return PlaceOrder(cid, side, odds, stake)


_STRATEGIES: dict[str, type[Bettor]] = {
    cls.strategy: cls
    for cls in (RPBettor, LinExBettor, LWBettor, UDBettor, BTFBettor, RBBettor, ZIBettor)
}


def make_bettor(bettor_id: str, params: AgentParams, race_config: RaceConfig, rng) -> Bettor:
    return _STRATEGIES[params.strategy](bettor_id, params, race_config, rng)
