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
ready to be written as JSON lines.  Every event holds seq, time and kind,
then the fields EVENT_FIELDS lists for its kind, in that order; the order,
and the JSON type EVENT_FIELDS gives each field, fix the bytes of
events.jsonl.  The events are read-only and share objects: grid snapshots
share the payload row of a competitor whose book did not change, and
sentiment events share the odds list of each distinct prediction, rounded
once per session.  Sentiment is kept only as events:
SessionResult.sentiment_rows is a view that expands them to one row per
competitor each time it is iterated, so no session holds a row per wake and
competitor, and write_sentiment_csv writes the events it views, one join
of an event's prefix onto its odds list's lines.  Agents that wake between
two race ticks share one race view, whose tuples the race-view predictors
(agents.linex_predict, lw_predict, ud_predict) recognise by identity, so
each predicts once per view and parameter set.
"""

import heapq
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat

from .agents import (
    STRATEGY_NAMES,
    AgentParams,
    Bettor,
    CancelOrder,
    Observation,
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
    check_book_settings,
    odds_to_decimal,
)
from .race import RaceConfig, Trajectory, finalize_trajectory, initial_state, race_ticks
from .race import advance_race  # noqa: F401  perfbench's tracer patches it here by name
from .seeding import Checked, FieldError, check_master_seed, spawn_rng


class SessionConfigError(FieldError):
    pass


@dataclass(frozen=True)
class SessionSection(Checked):
    """A session's market and agent groups: a SessionConfig without race and seed."""

    opening_period: float = 60.0
    commission_rate: float = 0.05
    grid_depth: int = 3
    sentiment: bool = False
    agents: tuple[AgentParams, ...] = tuple(AgentParams(s) for s in STRATEGY_NAMES)

    def validate(self) -> None:
        if not self.opening_period >= 0.0:
            raise SessionConfigError("opening_period", f"must be >= 0, got {self.opening_period}")
        check_book_settings(self.commission_rate, self.grid_depth, SessionConfigError)


@dataclass(frozen=True, kw_only=True)
class SessionConfig(SessionSection):
    """A SessionSection run on one race from one master seed."""

    race: RaceConfig
    master_seed: int

    def validate(self) -> None:
        super().validate()
        check_master_seed(self.master_seed)
        if self.race.n_competitors < 2 and any(g.strategy == "ud" for g in self.agents):
            raise SessionConfigError("agents", "ud agents need at least two competitors")


#: Each event kind's fields after seq, time and kind, in written order, with
#: the JSON type events.jsonl's line template writes each as: str, int and
#: float are scalars, dict is a grid payload and object any other value.
EVENT_FIELDS: dict[str, dict[str, type]] = {
    "submit": dict(
        bettor=str, competitor=str, side=str, odds=float, stake=int, bet_id=int, matched=int
    ),
    "match": dict(
        competitor=str, odds=float, amount=int, back_bet=int, lay_bet=int, back_bettor=str, lay_bettor=str
    ),
    "cancel": dict(bettor=str, bet_id=int, cancelled=int),
    "reject": dict(bettor=str, reason=str),
    "sentiment": dict(bettor=str, odds=object),
    "race_tick": dict(tick=int, positions=object),
    "expire": dict(bet_id=int, bettor=str, amount=int, refund=int),
    "close": dict(refunds=object),
    "grid_snapshot": dict(grid=dict),
    "settle": dict(winner=str, total_commission=int, rows=object),
}


def _event_maker(kind: str):
    """make(seq, time, *values): a `kind` event, built as one dict display in written order."""
    fields = EVENT_FIELDS[kind]
    params = "".join(f", v{i}" for i in range(len(fields)))
    items = "".join(f", {name!r}: v{i}" for i, name in enumerate(fields))
    return eval(f"lambda seq, time{params}: {{'seq': seq, 'time': time, 'kind': {kind!r}{items}}}")


_MAKE_EVENT = {kind: _event_maker(kind) for kind in EVENT_FIELDS}


class SentimentRows:
    """A session's sentiment events as (time, bettor, competitor, odds) rows,
    one per competitor in field order, built each time the view is iterated.

    An event's rows share its time and bettor objects.  len counts the rows
    on first use without building them; an index, a slice and == with a
    list build them all.  events() reads the sentiment events themselves,
    as write_sentiment_csv does.
    """

    __slots__ = ("_events", "competitor_ids", "_len")

    def __init__(self, events: list[dict], competitor_ids: tuple[str, ...]):
        self._events, self.competitor_ids, self._len = events, competitor_ids, None

    def events(self) -> Iterator[dict]:
        """The sentiment events, in log order."""
        return (e for e in self._events if e["kind"] == "sentiment")

    def __iter__(self) -> Iterator[tuple[float, str, str, float]]:
        cids = self.competitor_ids
        return chain.from_iterable(
            zip(repeat(e["time"]), repeat(e["bettor"]), cids, e["odds"]) for e in self.events()
        )

    def __len__(self) -> int:
        if self._len is None:
            n = len(self.competitor_ids)
            self._len = sum(min(n, len(e["odds"])) for e in self.events())
        return self._len

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other):
        return list(self) == other if isinstance(other, list) else NotImplemented


@dataclass(frozen=True)
class SessionResult:
    """A finished session.  The events are read-only: grid snapshots share
    the rows of a competitor whose book did not change between them, and
    sentiment events share the odds list of each distinct prediction."""

    events: list[dict]
    trajectory: Trajectory
    settlement: SettlementReport
    final_balances: dict[str, Money]
    starting_balances: dict[str, Money]
    total_matched: Money

    @cached_property
    def sentiment_rows(self) -> SentimentRows:
        """The sentiment events as (time, bettor, competitor, odds), one row
        per competitor: a view over the events, whose events
        write_sentiment_csv writes."""
        return SentimentRows(self.events, self.trajectory.competitor_ids)


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
        # Each agent's next (time, index) wake on one heap, advanced from its wake_times.
        seed = config.master_seed
        self.wake_iters = [wake_times(a.params, seed, i) for i, a in enumerate(self.agents)]
        self.wakes = [(next(times), i) for i, times in enumerate(self.wake_iters)]
        heapq.heapify(self.wakes)
        self.state = initial_state(self.race_cfg, self.rng_race)
        self.histories: list[list[float]] = [[] for _ in range(self.n)]
        self.snapshots = array("d", self.state.positions)
        self.events: list[dict] = []
        self._obs_cache: tuple[tuple, tuple, tuple] | None = None
        # each distinct prediction's sentiment odds; events share the lists
        self._sentiment: dict[tuple[float, ...], list[float]] = {}
        # each competitor's last grid payload row, with the book's GridRow it was built from
        self._grid_rows: dict[str, tuple] = {}

    # -- event log ----------------------------------------------------------

    def emit(self, time: float, kind: str, *values) -> None:
        events = self.events
        try:
            event = _MAKE_EVENT[kind](len(events) + 1, time, *values)
        except TypeError as exc:  # a maker takes exactly its kind's fields
            fields = tuple(EVENT_FIELDS[kind])
            raise ValueError(f"{kind} has fields {fields}, got {len(values)} values") from exc
        events.append(event)

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
        return Observation(
            time,
            self.state.tick,
            positions,
            finish_ticks,
            history,
            self.book.market_grid(),
            self.book.open_bets(agent.bettor_id),
            self.book.free_balance(agent.bettor_id),
        )

    # -- agent turns ----------------------------------------------------------

    def _apply(self, time: float, agent: Bettor, action) -> None:
        bettor = agent.bettor_id
        try:
            if isinstance(action, CancelOrder):
                cancelled = self.book.cancel_bet(action.bet_id, bettor)
                self.emit(time, "cancel", bettor, action.bet_id, cancelled)
                return
            if not isinstance(action, PlaceOrder):
                raise TypeError(f"unknown agent action {type(action).__name__}")
            cid, side, odds, stake = action
            bet_id, records = self.book.submit_bet(bettor, cid, side, odds, stake, time)
        except ExchangeError as exc:
            self.emit(time, "reject", bettor, str(exc))
            return
        matched = sum(r.amount for r in records) if records else 0
        self.emit(time, "submit", bettor, cid, side, odds_to_decimal(odds), stake, bet_id, matched)
        for r in records:
            self.emit(
                time,
                "match",
                r.competitor_id,
                odds_to_decimal(r.odds),
                r.amount,
                r.back_bet_id,
                r.lay_bet_id,
                r.back_bettor,
                r.lay_bettor,
            )

    def _wake(self, time: float, i: int) -> None:
        agent = self.agents[i]
        obs = self._observe(time, agent)
        actions = agent.decide(obs)
        if self.config.sentiment:
            prediction = agent.last_prediction
            odds = self._sentiment.get(prediction)
            if odds is None:
                top = odds_to_decimal(MAX_ODDS)
                odds = [round(min(1.0 / p, top) if p > 0.0 else top, 4) for p in prediction]
                self._sentiment[prediction] = odds
            self.emit(time, "sentiment", agent.bettor_id, odds)
        for action in actions:
            self._apply(time, agent, action)

    def _process_wakes(self, until: float) -> None:
        wakes, iters = self.wakes, self.wake_iters
        while wakes and wakes[0][0] <= until:
            time, i = wakes[0]
            self._wake(time, i)
            heapq.heapreplace(wakes, (next(iters[i]), i))

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
            self.snapshots.extend(self.state.positions)
            for c in ran:
                self.histories[c].append(self.state.prev_steps[c])
            self.emit(time, "race_tick", self.state.tick, list(self.state.positions))
            if self.book.state == OPEN and self.state.finished_count() >= close_rank:
                expired = self.book.close_betting()
                refunds: dict[str, Money] = {}
                for bet_id, bettor_id, amount, refund in expired:
                    refunds[bettor_id] = refunds.get(bettor_id, 0) + refund
                    self.emit(time, "expire", bet_id, bettor_id, amount, refund)
                self.emit(time, "close", [[b, refunds[b]] for b in sorted(refunds)])
            self.emit(time, "grid_snapshot", self._grid_payload())
            if self.book.state == OPEN:
                self._process_wakes(time)

        trajectory = finalize_trajectory(self.state, race_cfg, self.snapshots)
        report = self.book.settle(trajectory.winner)
        rows = [[r.bettor_id, r.gross, r.commission, r.net] for r in report.rows]
        self.emit(time, "settle", report.winner, report.total_commission, rows)
        final = {b: acct.balance for b, acct in sorted(self.book.accounts.items())}
        return SessionResult(
            events=self.events,
            trajectory=trajectory,
            settlement=report,
            final_balances=final,
            starting_balances=self.starting,
            total_matched=self.book.total_matched(),
        )

    def _grid_payload(self) -> dict:
        """The book's grid as {cid: {"backs": levels, "lays": levels}}.

        The book keeps a competitor's GridRow until its book changes, so
        while the row is the same object its payload row is reused: the
        snapshots share it.
        """
        payload, built = {}, self._grid_rows
        for cid, row in self.book.market_grid().items():
            last = built.get(cid)
            if last is None or last[0] is not row:
                last = built[cid] = (
                    row,
                    {
                        "backs": [[odds_to_decimal(l.odds), l.stake] for l in row.backs],
                        "lays": [[odds_to_decimal(l.odds), l.stake] for l in row.lays],
                    },
                )
            payload[cid] = last[1]
        return payload


def run_session(config: SessionConfig) -> SessionResult:
    """Run one full session: open, trade in play, close, settle."""
    return _Session(config).run()
