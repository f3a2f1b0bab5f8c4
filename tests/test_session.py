import pytest

from racemarket.agents import AgentParams
from racemarket.exchange import MarketBook
from racemarket.race import BettingClose, RaceDivergedError
from racemarket.seeding import derive_seed, spawn_rng
from racemarket.session import (
    SessionConfig,
    SessionConfigError,
    _Session,
    expand_agents,
    run_session,
    wake_schedule,
)
from racemarket.race import run_race

from conftest import make_race

SMALL_GROUPS = (
    AgentParams("rp", count=2, d=3),
    AgentParams("lw", count=2),
    AgentParams("zi", count=2),
)


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
    bad = SessionConfig(
        race=make_race(n=1), agents=(AgentParams("ud"),), master_seed=0
    )
    with pytest.raises(SessionConfigError):
        bad.validate()


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
    assert sess.events == []


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
    race = make_race(n=3, length=300.0, betting_close=BettingClose.first())
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


def test_event_log_replays_into_the_same_settlement():
    cfg = small_session(seed=13)
    result = run_session(cfg)
    book = MarketBook(cfg.race.competitor_ids, cfg.commission_rate)
    for bettor, balance in result.starting_balances.items():
        book.open_account(bettor, balance)
    matched_by_bet: dict[int, int] = {}
    for event in result.events:
        if event["kind"] == "submit":
            bet_id, records = book.submit_bet(
                event["bettor"],
                event["competitor"],
                event["side"],
                round(event["odds"] * 100),
                event["stake"],
                event["time"],
            )
            assert bet_id == event["bet_id"]
            assert sum(r.amount for r in records) == event["matched"]
            matched_by_bet[bet_id] = event["matched"]
        elif event["kind"] == "cancel":
            assert (
                book.cancel_bet(event["bet_id"], event["bettor"])
                == event["cancelled"]
            )
        elif event["kind"] == "close":
            expired = book.close_betting()
            refunds: dict[str, int] = {}
            for _, bettor, _, refund in expired:
                refunds[bettor] = refunds.get(bettor, 0) + refund
            assert [[b, refunds[b]] for b in sorted(refunds)] == event["refunds"]
        elif event["kind"] == "settle":
            report = book.settle(event["winner"])
            assert [
                [r.bettor_id, r.gross, r.commission, r.net] for r in report.rows
            ] == event["rows"]
            assert report.total_commission == event["total_commission"]
    assert {b: a.balance for b, a in book.accounts.items()} == result.final_balances


def test_grid_snapshot_follows_the_book():
    result = run_session(small_session(seed=17))
    snaps = [e for e in result.events if e["kind"] == "grid_snapshot"]
    assert snaps
    some_liquidity = False
    for snap in snaps:
        grid = snap["grid"]
        assert set(grid) == {"c1", "c2", "c3"}
        for row in grid.values():
            for side, best_first in (("backs", True), ("lays", False)):
                odds = [level[0] for level in row[side]]
                assert odds == sorted(odds, reverse=best_first)
                assert len(odds) <= 3
                some_liquidity = some_liquidity or bool(odds)
    assert some_liquidity


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
