"""One betting session: a race, a market, and a population of agents.

The session clock runs in seconds.  Betting opens at time 0; the race
starts after the opening period, one tick every dt seconds.  Agents wake on
their own jittered periodic schedules, observe the race and the book, and
act; wakes are processed in (time, agent index) order, so the whole session
is a pure function of its configuration and produces an identical event log
on every run, whatever worker count the surrounding tooling uses.

Betting closes when the configured number of competitors has finished; the
race always runs to completion and the market settles on the actual winner.
The event log is a list of dicts with gap-free increasing seq numbers,
ready to be written as JSON lines.
"""

import heapq
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, repeat

from .agents import (
    STRATEGY_NAMES,
    AgentParams,
    Bettor,
    CancelOrder,
    Observation,
    OpenBet,
    PlaceOrder,
    make_bettor,
)
from .exchange import (
    MAX_ODDS,
    OPEN,
    ExchangeError,
    MarketBook,
    Money,
    SettlementReport,
    odds_to_decimal,
)
from .race import RaceConfig, Trajectory, finalize_trajectory, initial_state, race_ticks
from .race import advance_race  # noqa: F401  perfbench's tracer patches it here by name
from .seeding import FieldError, spawn_rng


class SessionConfigError(FieldError):
    pass


@dataclass(frozen=True)
class SessionSection:
    """A session's market and agent groups: a SessionConfig without race and seed."""

    opening_period: float = 60.0
    commission_rate: float = 0.05
    grid_depth: int = 3
    sentiment: bool = False
    agents: tuple[AgentParams, ...] = tuple(AgentParams(s) for s in STRATEGY_NAMES)

    def validate(self) -> None:
        for g in self.agents:
            g.validate()
        if not self.opening_period >= 0.0:
            raise SessionConfigError("opening_period", f"must be >= 0, got {self.opening_period}")
        if not 0.0 <= self.commission_rate < 1.0:
            rate = self.commission_rate
            raise SessionConfigError("commission_rate", f"must be in [0, 1), got {rate}")
        if self.grid_depth < 1:
            raise SessionConfigError("grid_depth", f"must be >= 1, got {self.grid_depth}")


@dataclass(frozen=True, kw_only=True)
class SessionConfig(SessionSection):
    """A SessionSection run on one race from one master seed."""

    race: RaceConfig
    master_seed: int

    def validate(self) -> None:
        self.race.validate()
        super().validate()
        if self.race.n_competitors < 2 and any(g.strategy == "ud" for g in self.agents):
            raise SessionConfigError("agents", "ud agents need at least two competitors")


@dataclass(frozen=True)
class SessionResult:
    events: list[dict]
    trajectory: Trajectory
    settlement: SettlementReport
    sentiment_rows: list[tuple[float, str, str, float]]
    final_balances: dict[str, Money]
    starting_balances: dict[str, Money]
    total_matched: Money


def expand_agents(config: SessionConfig) -> list[Bettor]:
    """Instantiate the agent population with per-agent derived streams."""
    agents: list[Bettor] = []
    idx = 0
    for group in config.agents:
        for _ in range(group.count):
            bettor_id = f"a{idx:03d}.{group.strategy}"
            rng = spawn_rng(config.master_seed, "agent", idx)
            agents.append(make_bettor(bettor_id, group, config.race, rng))
            idx += 1
    return agents


def wake_times(params: AgentParams, master_seed: int, i: int) -> Iterator[float]:
    """Agent i's wake times: jitter + k * reevaluate_every for k = 0, 1, 2, ...

    The jitter is drawn once per agent from a seed-derived stream.
    """
    jitter = spawn_rng(master_seed, "jitter", i).uniform(0.0, params.wake_jitter)
    return (jitter + k * params.reevaluate_every for k in count())


class _Session:
    def __init__(self, config: SessionConfig):
        config.validate()
        self.config = config
        self.race_cfg = config.race
        self.n = config.race.n_competitors
        self.rng_race = spawn_rng(config.master_seed, "race")
        self.agents = expand_agents(config)
        self.book = MarketBook(
            config.race.competitor_ids, config.commission_rate, config.grid_depth
        )
        self.starting: dict[str, Money] = {}
        for agent in self.agents:
            balance = agent.params.starting_balance * 100
            self.book.open_account(agent.bettor_id, balance)
            self.starting[agent.bettor_id] = balance
        # Every agent's (time, index) wakes, merged into one ordered stream.
        seed = config.master_seed
        self.wakes = heapq.merge(
            *(zip(wake_times(a.params, seed, i), repeat(i)) for i, a in enumerate(self.agents))
        )
        self.next_wake = next(self.wakes, None)
        self.state = initial_state(self.race_cfg, self.rng_race)
        self.histories: list[list[float]] = [[] for _ in range(self.n)]
        self.snapshots: list[tuple[float, ...]] = [tuple(self.state.positions)]
        self.events: list[dict] = []
        self.sentiment_rows: list[tuple[float, str, str, float]] = []
        self._obs_cache: tuple[tuple, tuple, tuple] | None = None

    # -- event log ----------------------------------------------------------

    def emit(self, time: float, kind: str, payload: dict) -> None:
        self.events.append({"seq": len(self.events) + 1, "time": time, "kind": kind, **payload})

    # -- observations ---------------------------------------------------------

    def _race_view(self) -> tuple[tuple, tuple, tuple]:
        if self._obs_cache is None:
            self._obs_cache = (
                tuple(self.state.positions),
                tuple(self.state.finish_ticks),
                tuple(tuple(h) for h in self.histories),
            )
        return self._obs_cache

    def _observe(self, time: float, agent: Bettor) -> Observation:
        positions, finish_ticks, history = self._race_view()
        my_bets = tuple(
            OpenBet(b.bet_id, b.competitor_id, b.side, b.odds, b.unmatched, b.arrival_time)
            for b in self.book.bets_of(agent.bettor_id)
        )
        return Observation(
            time=time,
            race_tick=self.state.tick,
            positions=positions,
            finish_ticks=finish_ticks,
            step_history=history,
            grid=self.book.market_grid(),
            my_bets=my_bets,
            balance=self.book.free_balance(agent.bettor_id),
        )

    # -- agent turns ----------------------------------------------------------

    def _apply(self, time: float, agent: Bettor, action) -> None:
        if isinstance(action, CancelOrder):
            try:
                cancelled = self.book.cancel_bet(action.bet_id, agent.bettor_id)
            except ExchangeError as exc:
                self.emit(time, "reject", {"bettor": agent.bettor_id, "reason": str(exc)})
                return
            self.emit(
                time,
                "cancel",
                {"bettor": agent.bettor_id, "bet_id": action.bet_id, "cancelled": cancelled},
            )
            return
        if not isinstance(action, PlaceOrder):
            raise TypeError(f"unknown agent action {type(action).__name__}")
        try:
            bet_id, records = self.book.submit_bet(
                agent.bettor_id,
                action.competitor_id,
                action.side,
                action.odds,
                action.stake,
                time,
            )
        except ExchangeError as exc:
            self.emit(time, "reject", {"bettor": agent.bettor_id, "reason": str(exc)})
            return
        self.emit(
            time,
            "submit",
            {
                "bettor": agent.bettor_id,
                "competitor": action.competitor_id,
                "side": action.side,
                "odds": odds_to_decimal(action.odds),
                "stake": action.stake,
                "bet_id": bet_id,
                "matched": sum(r.amount for r in records),
            },
        )
        for rec in records:
            self.emit(
                time,
                "match",
                {
                    "competitor": rec.competitor_id,
                    "odds": odds_to_decimal(rec.odds),
                    "amount": rec.amount,
                    "back_bet": rec.back_bet_id,
                    "lay_bet": rec.lay_bet_id,
                    "back_bettor": rec.back_bettor,
                    "lay_bettor": rec.lay_bettor,
                },
            )

    def _wake(self, time: float, i: int) -> None:
        agent = self.agents[i]
        obs = self._observe(time, agent)
        actions = agent.decide(obs)
        if self.config.sentiment:
            top = odds_to_decimal(MAX_ODDS)
            odds = [round(min(1.0 / p, top) if p > 0.0 else top, 4) for p in agent.last_prediction]
            self.emit(time, "sentiment", {"bettor": agent.bettor_id, "odds": odds})
            for cid, o in zip(self.race_cfg.competitor_ids, odds):
                self.sentiment_rows.append((time, agent.bettor_id, cid, o))
        for action in actions:
            self._apply(time, agent, action)

    def _process_wakes(self, until: float) -> None:
        while self.next_wake is not None and self.next_wake[0] <= until:
            self._wake(*self.next_wake)
            self.next_wake = next(self.wakes)

    # -- main loop ----------------------------------------------------------

    def run(self) -> SessionResult:
        cfg = self.config
        race_cfg = self.race_cfg
        close_rank = race_cfg.betting_close.close_rank(self.n)
        self._process_wakes(cfg.opening_period)

        time = cfg.opening_period
        for ran in race_ticks(race_cfg, self.state, self.rng_race, race_cfg.tick_limit):
            self._obs_cache = None
            time = cfg.opening_period + self.state.tick * race_cfg.dt
            self.snapshots.append(tuple(self.state.positions))
            for c in ran:
                self.histories[c].append(self.state.prev_steps[c])
            self.emit(
                time,
                "race_tick",
                {"tick": self.state.tick, "positions": list(self.state.positions)},
            )
            if self.book.state == OPEN and self.state.finished_count() >= close_rank:
                expired = self.book.close_betting()
                refunds: dict[str, Money] = {}
                for bet_id, bettor_id, amount, refund in expired:
                    refunds[bettor_id] = refunds.get(bettor_id, 0) + refund
                    self.emit(
                        time,
                        "expire",
                        {"bet_id": bet_id, "bettor": bettor_id, "amount": amount, "refund": refund},
                    )
                self.emit(
                    time,
                    "close",
                    {"refunds": [[b, refunds[b]] for b in sorted(refunds)]},
                )
            self.emit(time, "grid_snapshot", {"grid": self._grid_payload()})
            if self.book.state == OPEN:
                self._process_wakes(time)

        trajectory = finalize_trajectory(self.state, race_cfg, self.snapshots)
        report = self.book.settle(trajectory.winner)
        self.emit(
            time,
            "settle",
            {
                "winner": report.winner,
                "total_commission": report.total_commission,
                "rows": [[r.bettor_id, r.gross, r.commission, r.net] for r in report.rows],
            },
        )
        final = {b: acct.balance for b, acct in sorted(self.book.accounts.items())}
        return SessionResult(
            events=self.events,
            trajectory=trajectory,
            settlement=report,
            sentiment_rows=self.sentiment_rows,
            final_balances=final,
            starting_balances=self.starting,
            total_matched=self.book.total_matched(),
        )

    def _grid_payload(self) -> dict:
        grid = self.book.market_grid()
        return {
            cid: {
                "backs": [[odds_to_decimal(l.odds), l.stake] for l in row.backs],
                "lays": [[odds_to_decimal(l.odds), l.stake] for l in row.lays],
            }
            for cid, row in grid.items()
        }


def run_session(config: SessionConfig) -> SessionResult:
    """Run one full session: open, trade in play, close, settle."""
    return _Session(config).run()
