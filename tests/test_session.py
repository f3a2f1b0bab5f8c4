import json
from dataclasses import replace
from pathlib import Path

import pytest

from racemarket.agents import AgentParams, Bettor, CancelOrder, PlaceOrder
from racemarket.config import parse_config
from racemarket.exchange import BACK, MarketBook
from racemarket.race import BettingClose, RaceDivergedError
from racemarket.seeding import FieldError, derive_seed, spawn_rng
from racemarket.session import (
    EVENT_FIELDS,
    SessionConfig,
    SessionConfigError,
    _Session,
    expand_agents,
    run_session,
    wake_times,
)
from racemarket.race import run_race

from conftest import make_race

DERBY = Path(__file__).resolve().parent.parent / "configs" / "derby.json"

SMALL_GROUPS = (
    AgentParams("rp", count=2, d=3),
    AgentParams("lw", count=2),
    AgentParams("zi", count=2),
)


def wake_schedule(agent_params, horizon, master_seed):
    """Reference wakes: each (time, agent index) with k * period <= horizon, by time then index."""
    wakes = []
    for i, params in enumerate(agent_params):
        for k, time in enumerate(wake_times(params, master_seed, i)):
            if k * params.reevaluate_every > horizon:
                break
            wakes.append((time, i))
    wakes.sort()
    return wakes


def small_session(seed=5, **kwargs) -> SessionConfig:
    race = kwargs.pop("race", make_race(n=3, length=300.0))
    groups = kwargs.pop("agents", SMALL_GROUPS)
    return SessionConfig(race=race, agents=groups, master_seed=seed, **kwargs)


def test_config_validation():
    with pytest.raises(SessionConfigError):
        small_session(commission_rate=1.0).validate()
    with pytest.raises(SessionConfigError):
        small_session(opening_period=-1.0).validate()
    with pytest.raises(SessionConfigError):
        small_session(grid_depth=0).validate()
    with pytest.raises(SessionConfigError):
        SessionConfig(race=make_race(n=1), agents=(AgentParams("ud"),), master_seed=0)
    for seed in (-1, 2**64, 2**64 + 5):  # derive_seed would fold these onto seeds in range
        with pytest.raises(FieldError, match="^seed must be"):
            small_session(seed=seed)


def test_expand_agents_ids_and_streams():
    agents = expand_agents(small_session())
    assert [a.bettor_id for a in agents] == [
        "a000.rp",
        "a001.rp",
        "a002.lw",
        "a003.lw",
        "a004.zi",
        "a005.zi",
    ]
    # private streams: same derivation gives the same draws
    again = expand_agents(small_session())
    assert agents[3].rng.random() == again[3].rng.random()
    assert agents[0].rng.random() != agents[1].rng.random()


def test_wake_schedule_shape():
    params = [AgentParams("lw", reevaluate_every=10.0, wake_jitter=10.0)]
    wakes = wake_schedule(params, horizon=30.0, master_seed=9)
    jitter = spawn_rng(9, "jitter", 0).uniform(0.0, 10.0)
    assert wakes == [(jitter + 10.0 * k, 0) for k in range(4)]

    two = wake_schedule(params * 2, horizon=20.0, master_seed=9)
    assert len(two) == 6
    assert two == sorted(two)
    assert {i for _, i in two} == {0, 1}


def test_session_wakes_follow_wake_schedule():
    groups = (
        AgentParams("lw", count=3, reevaluate_every=0.1, wake_jitter=0.1),
        # no jitter: these two always wake together, so the index breaks the tie
        AgentParams("lw", count=2, reevaluate_every=0.25, wake_jitter=0.0),
    )
    cfg = small_session(
        race=make_race(n=3, length=100.0),
        agents=groups,
        opening_period=5.0,
        sentiment=True,
    )
    events = run_session(cfg).events
    close = next(e["time"] for e in events if e["kind"] == "close")
    # wakes are processed up to the last tick before the close
    until = max(e["time"] for e in events if e["kind"] == "race_tick" and e["time"] < close)
    params = [g for g in groups for _ in range(g.count)]
    schedule = wake_schedule(params, horizon=close, master_seed=cfg.master_seed)
    for i, agent in enumerate(expand_agents(cfg)):
        got = [
            e["time"] for e in events if e["kind"] == "sentiment" and e["bettor"] == agent.bettor_id
        ]
        assert len(got) > 10.0 / agent.params.reevaluate_every  # > 100 at a 0.1 s period
        assert got == [t for t, j in schedule if j == i and t <= until]
    # across agents too, wakes run in (time, agent index) order
    index = {a.bettor_id: i for i, a in enumerate(expand_agents(cfg))}
    got = [(e["time"], index[e["bettor"]]) for e in events if e["kind"] == "sentiment"]
    assert got == [(t, i) for t, i in schedule if t <= until]
    assert any(a[0] == b[0] for a, b in zip(got, got[1:]))


def test_session_race_divergence_reads_like_run_race():
    race = make_race(n=3, length=300.0, tick_limit=5)
    with pytest.raises(RaceDivergedError) as solo:
        run_race(race, 0)
    with pytest.raises(RaceDivergedError) as session:
        run_session(small_session(race=race, agents=(AgentParams("lw"),)))
    assert str(session.value) == str(solo.value) == "race exceeded tick_limit=5 with 0/3 finished"


def test_unknown_action_raises_type_error():
    sess = _Session(small_session())
    with pytest.raises(TypeError, match="str"):
        sess._apply(0.0, sess.agents[0], "back c1 at 3.0")
    # Actions are NamedTuples, which compare equal to plain tuples, so only
    # their type tells a PlaceOrder or a CancelOrder from a tuple.
    equal = ((("c1", BACK, 300, 500), PlaceOrder("c1", BACK, 300, 500)), ((1,), CancelOrder(1)))
    for action, record in equal:
        assert action == record
        with pytest.raises(TypeError, match="tuple"):
            sess._apply(0.0, sess.agents[0], action)
    assert sess.events == []


def forced_rejects() -> _Session:
    """A session whose first bettor has one resting bet, then three actions the book refuses."""
    sess = _Session(small_session())
    owner, other = sess.agents[0].bettor_id, sess.agents[1]
    sess._apply(0.0, sess.agents[0], PlaceOrder("c1", BACK, 300, 500))
    (submit,) = sess.events
    book = sess.book

    def book_state():
        return repr((book.bets, book.accounts, book.matches, book.market_grid()))

    before = book_state()
    free = book.free_balance(other.bettor_id)
    refused = (
        (PlaceOrder("c1", BACK, 301, 500), "odds 301 not on the ladder"),
        (PlaceOrder("c2", BACK, 300, free + 1), "need"),
        (CancelOrder(submit["bet_id"]), f"no bet {submit['bet_id']}"),
    )
    for action, reason in refused:
        n = len(sess.events)
        sess._apply(1.0, other, action)
        assert len(sess.events) == n + 1
        reject = sess.events[-1]
        assert reject["kind"] == "reject"
        assert reject["bettor"] == other.bettor_id
        assert reason in reject["reason"]
        assert book_state() == before
    assert [e["seq"] for e in sess.events] == [1, 2, 3, 4]
    assert book.bets[submit["bet_id"]].bettor_id == owner
    return sess


def test_rejected_actions_log_one_reject_and_change_nothing():
    forced_rejects()


def test_every_event_has_its_kinds_fields_in_order():
    events = list(forced_rejects().events)
    derby = parse_config(json.loads(DERBY.read_text()))
    assert derby.session.sentiment
    for seed in (1, 2):
        events += run_session(derby.session_config(master_seed=seed)).events
    assert {e["kind"] for e in events} == set(EVENT_FIELDS)
    for event in events:
        assert list(event) == ["seq", "time", "kind", *EVENT_FIELDS[event["kind"]]]


def test_emit_refuses_a_wrong_number_of_values():
    sess = _Session(small_session())
    with pytest.raises(ValueError):
        sess.emit(0.0, "reject", "a000.rp")
    with pytest.raises(ValueError):
        sess.emit(0.0, "close", [], [])


def test_no_agents_is_just_a_race():
    cfg = small_session(agents=())
    result = run_session(cfg)
    kinds = {e["kind"] for e in result.events}
    assert kinds == {"race_tick", "close", "grid_snapshot", "settle"}
    assert result.settlement.rows == ()
    assert result.settlement.total_commission == 0
    assert result.final_balances == {}
    # the race stream is shared with the standalone runner
    solo = run_race(cfg.race, derive_seed(cfg.master_seed, "race"))
    assert result.trajectory == solo


def test_event_log_structure():
    result = run_session(small_session())
    seqs = [e["seq"] for e in result.events]
    assert seqs == list(range(1, len(seqs) + 1))
    assert all({"seq", "time", "kind"} <= e.keys() for e in result.events)
    kinds = {e["kind"] for e in result.events}
    assert "race_tick" in kinds
    assert "submit" in kinds
    assert "settle" in kinds
    ticks = [e for e in result.events if e["kind"] == "race_tick"]
    assert [e["tick"] for e in ticks] == list(range(1, len(ticks) + 1))
    assert ticks[0]["time"] == 60.0 + small_session().race.dt
    closes = [e for e in result.events if e["kind"] == "close"]
    settles = [e for e in result.events if e["kind"] == "settle"]
    assert len(closes) == 1 and len(settles) == 1
    assert result.events[-1]["kind"] == "settle"


def test_no_order_flow_after_close():
    result = run_session(small_session())
    close_seq = next(e["seq"] for e in result.events if e["kind"] == "close")
    after = [e["kind"] for e in result.events if e["seq"] > close_seq]
    assert set(after) <= {"race_tick", "grid_snapshot", "settle"}


def test_close_at_first_finisher():
    race = make_race(n=3, length=300.0, betting_close=BettingClose("first"))
    result = run_session(small_session(race=race))
    close = next(e for e in result.events if e["kind"] == "close")
    first_finish = min(result.trajectory.finish_ticks)
    close_tick = next(
        e["tick"]
        for e in result.events
        if e["kind"] == "race_tick" and e["time"] == close["time"]
    )
    assert close_tick == first_finish


def test_session_is_deterministic():
    a = run_session(small_session(seed=21))
    b = run_session(small_session(seed=21))
    assert a.events == b.events
    assert a.final_balances == b.final_balances
    c = run_session(small_session(seed=22))
    assert c.events != a.events


def test_money_ledger_identity():
    result = run_session(small_session(seed=33))
    total0 = sum(result.starting_balances.values())
    total1 = sum(result.final_balances.values())
    assert total0 - total1 == result.settlement.total_commission
    assert (
        sum(r.net for r in result.settlement.rows) + result.settlement.total_commission == 0
    )


def test_settlement_winner_matches_race():
    result = run_session(small_session(seed=4))
    assert result.settlement.winner == result.trajectory.winner
    settle_event = result.events[-1]
    assert settle_event["winner"] == result.trajectory.winner


def test_sentiment_logging():
    quiet = run_session(small_session(seed=8))
    assert quiet.sentiment_rows == []
    assert not any(e["kind"] == "sentiment" for e in quiet.events)

    chatty = run_session(small_session(seed=8, sentiment=True))
    rows = chatty.sentiment_rows
    assert rows
    events = [e for e in chatty.events if e["kind"] == "sentiment"]
    assert len(rows) == len(events) * 3  # one row per competitor
    assert all(1.0 <= odds <= 1000.0 for _, _, _, odds in rows)
    bettors = {b for _, b, _, _ in rows}
    assert bettors == set(chatty.starting_balances)
    # the order flow itself is unchanged by observers (seq shifts aside)
    def flow(result):
        return [
            {k: v for k, v in e.items() if k != "seq"}
            for e in result.events
            if e["kind"] == "submit"
        ]

    assert flow(chatty) == flow(quiet)


def test_sentiment_rows_are_a_view_of_the_expanded_events():
    result = run_session(small_session(seed=8, sentiment=True))
    cids = result.trajectory.competitor_ids
    events = [e for e in result.events if e["kind"] == "sentiment"]
    expected = [(e["time"], e["bettor"], cid, odds) for e in events for cid, odds in zip(cids, e["odds"])]
    rows = result.sentiment_rows
    assert len(expected) > 20
    assert list(rows) == expected
    assert list(rows) == expected  # a view can be iterated again
    assert len(rows) == len(expected)
    assert rows == expected and expected == rows and rows == rows
    assert rows != expected[:-1] and rows != [] and rows != tuple(expected)
    for index in (0, 1, 7, -1, -len(expected)):
        assert rows[index] == expected[index]
    for cut in (slice(3, 9), slice(None, None, -5), slice(-4, None)):
        assert rows[cut] == expected[cut]
    with pytest.raises(IndexError):
        rows[len(expected)]
    # an event's rows share its time and bettor objects, which the
    # sentiment.csv writer's prefix reuse tests by identity
    built = iter(rows)
    for event in events:
        for _ in cids:
            t, b, _, _ = next(built)
            assert t is event["time"] and b is event["bettor"]


def test_event_log_replays_into_the_same_settlement():
    cfg = small_session(seed=13)
    result = run_session(cfg)
    book = MarketBook(cfg.race.competitor_ids, cfg.commission_rate)
    for bettor, balance in result.starting_balances.items():
        book.open_account(bettor, balance)
    pending = iter(())  # the last submit's match records, oldest first
    for event in result.events:
        kind = event["kind"]
        values = [event[field] for field in EVENT_FIELDS[kind]]
        if kind == "submit":
            assert next(pending, None) is None  # every record of the last submit was logged
            bettor, competitor, side, odds, stake, bet_id, matched = values
            got_id, records = book.submit_bet(
                bettor, competitor, side, round(odds * 100), stake, event["time"]
            )
            assert got_id == bet_id
            assert sum(r.amount for r in records) == matched
            pending = iter(records)
        elif kind == "match":
            r = next(pending)
            assert values == [
                r.competitor_id,
                r.odds / 100,
                r.amount,
                r.back_bet_id,
                r.lay_bet_id,
                r.back_bettor,
                r.lay_bettor,
            ]
        elif kind == "cancel":
            bettor, bet_id, cancelled = values
            assert book.cancel_bet(bet_id, bettor) == cancelled
        elif kind == "close":
            (logged,) = values
            refunds: dict[str, int] = {}
            for _, bettor, _, refund in book.close_betting():
                refunds[bettor] = refunds.get(bettor, 0) + refund
            assert [[b, refunds[b]] for b in sorted(refunds)] == logged
        elif kind == "grid_snapshot":
            # a snapshot that shares a row with the last one still shows the book as it is
            (grid,) = values
            assert grid == {
                cid: {
                    "backs": [[l.odds / 100, l.stake] for l in row.backs],
                    "lays": [[l.odds / 100, l.stake] for l in row.lays],
                }
                for cid, row in book.market_grid().items()
            }
        elif kind == "settle":
            winner, total_commission, rows = values
            report = book.settle(winner)
            assert [[r.bettor_id, r.gross, r.commission, r.net] for r in report.rows] == rows
            assert report.total_commission == total_commission
    assert any(e["kind"] == "match" for e in result.events)
    assert next(pending, None) is None
    assert {b: a.balance for b, a in book.accounts.items()} == result.final_balances


def test_grid_snapshot_follows_the_book():
    for depth in (1, 3):
        result = run_session(small_session(seed=17, grid_depth=depth))
        snaps = [e for e in result.events if e["kind"] == "grid_snapshot"]
        assert snaps
        deepest = 0
        for snap in snaps:
            grid = snap["grid"]
            assert set(grid) == {"c1", "c2", "c3"}
            for row in grid.values():
                for side, best_first in (("backs", True), ("lays", False)):
                    odds = [level[0] for level in row[side]]
                    assert odds == sorted(odds, reverse=best_first)
                    deepest = max(deepest, len(odds))
        assert deepest == depth  # the config's grid_depth reaches the book


def test_grid_snapshots_share_the_rows_the_book_kept():
    session = _Session(small_session(seed=17))
    first = session._grid_payload()
    again = session._grid_payload()
    assert again == first and again is not first
    assert all(again[cid] is first[cid] for cid in first)
    session.book.submit_bet(session.agents[0].bettor_id, "c2", BACK, 250, 100, 0.0)
    after = session._grid_payload()
    assert after["c2"] is not first["c2"]
    assert after["c2"] == {"backs": [[2.5, 100]], "lays": []}
    assert after["c1"] is first["c1"] and after["c3"] is first["c3"]
    # a whole session's snapshots share rows (the replay test checks them against the book)
    result = run_session(small_session(seed=17))
    snaps = [e["grid"] for e in result.events if e["kind"] == "grid_snapshot"]
    assert any(a[c] is b[c] for a, b in zip(snaps, snaps[1:]) for c in a)


def test_all_strategies_survive_a_full_session():
    groups = tuple(
        AgentParams(s, count=1, d=2) for s in ("rp", "linex", "lw", "ud", "btf", "rb", "zi")
    )
    result = run_session(small_session(seed=2, agents=groups))
    assert set(result.final_balances) == {
        "a000.rp",
        "a001.linex",
        "a002.lw",
        "a003.ud",
        "a004.btf",
        "a005.rb",
        "a006.zi",
    }
    assert result.events[-1]["kind"] == "settle"


def wake_predictions(config: SessionConfig, monkeypatch) -> list:
    """Each wake's (agent, observation, prediction) in a run of config."""
    seen = []
    decide = Bettor.decide

    def spied(agent, obs):
        actions = decide(agent, obs)
        seen.append((agent, obs, agent.last_prediction))
        return actions

    monkeypatch.setattr(Bettor, "decide", spied)
    _Session(config).run()
    return seen


def assert_predictions_are_fresh(seen) -> None:
    """Each race-view prediction equals its bettor's predict on a copy of the
    observation's tuples, which no predictor has seen, so none reuses a result."""
    checked = 0
    for agent, obs, prediction in seen:
        if agent.strategy in ("linex", "lw", "ud"):
            copy = obs._replace(
                positions=tuple(list(obs.positions)),
                step_history=tuple(tuple(list(h)) for h in obs.step_history),
            )
            assert agent.predict(copy) == prediction, (agent.bettor_id, obs.time)
            checked += 1
    assert checked > 100


def test_groups_of_one_strategy_get_their_own_predictions_on_one_view(monkeypatch):
    # two linex groups with different windows and two ud groups with
    # different gap thresholds wake together on every view
    groups = tuple(
        AgentParams(strategy, count=2, reevaluate_every=1.0, wake_jitter=0.0, **param)
        for strategy, param in (
            ("linex", dict(window=1.0)),
            ("ud", dict(gap_threshold=0.5)),
            ("linex", dict(window=30.0)),
            ("ud", dict(gap_threshold=50.0)),
        )
    )
    seen = wake_predictions(small_session(seed=3, agents=groups, opening_period=2.0), monkeypatch)
    assert_predictions_are_fresh(seen)
    by_view: dict[tuple, set] = {}
    for agent, obs, prediction in seen:
        by_view.setdefault((obs.time, agent.strategy), set()).add(prediction)
    for strategy in ("linex", "ud"):
        assert any(len(p) > 1 for (_, s), p in by_view.items() if s == strategy), strategy


def test_crowd_session_predictions_equal_fresh_predictions(monkeypatch):
    cfg = parse_config(DERBY.read_text())
    groups = {g.strategy: g for g in cfg.session.agents}
    agents = tuple(
        replace(groups[strategy], count=count, reevaluate_every=2.0, wake_jitter=2.0)
        for strategy, count in (("linex", 20), ("lw", 20), ("ud", 10), ("btf", 20), ("zi", 30))
    )
    crowd = replace(cfg, race=replace(cfg.race, track_length=4000.0), session=replace(cfg.session, agents=agents))
    seen = wake_predictions(crowd.session_config(master_seed=1), monkeypatch)
    assert_predictions_are_fresh(seen)
    # and results were reused: lw wakes share far fewer prediction objects
    lw = [prediction for agent, _, prediction in seen if agent.strategy == "lw"]
    assert len({id(p) for p in lw}) < len(lw) / 4
