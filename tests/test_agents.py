from collections import Counter

import pytest

from racemarket.agents import (
    LAY_VALUE_MARGIN,
    STRATEGY_NAMES,
    AgentConfigError,
    AgentParams,
    CancelOrder,
    Observation,
    OpenBet,
    PlaceOrder,
    btf_predict,
    linex_predict,
    lw_predict,
    make_bettor,
    rb_stake,
    rb_weight,
    rb_weighted,
    rp_predict,
    stake_ladder,
    ud_predict,
)
from racemarket.exchange import BACK, LAY, GridLevel, GridRow, MarketBook, escrow
from racemarket.race import RaceState, advance_race, initial_state
from racemarket.seeding import make_rng

from conftest import make_race


def empty_grid(cfg):
    return {cid: GridRow(backs=(), lays=()) for cid in cfg.competitor_ids}


def make_obs(cfg, *, time=0.0, state=None, grid=None, my_bets=(), balance=10_000_000, history=None):
    n = cfg.n_competitors
    if state is None:
        state = RaceState(0, [0.0] * n, [0.0] * n, [None] * n)
    if history is None:
        history = tuple(() for _ in range(n))
    return Observation(
        time=time,
        race_tick=state.tick,
        positions=tuple(state.positions),
        finish_ticks=tuple(state.finish_ticks),
        step_history=history,
        grid=grid if grid is not None else empty_grid(cfg),
        my_bets=tuple(my_bets),
        balance=balance,
        predictions={},
    )


# -- parameters ---------------------------------------------------------------


def test_params_validation():
    AgentParams("rp").validate()
    with pytest.raises(AgentConfigError):
        AgentParams("martingale").validate()
    with pytest.raises(AgentConfigError):
        AgentParams("rp", d=-1).validate()
    with pytest.raises(AgentConfigError):
        AgentParams("rp", gamma=0.0).validate()
    with pytest.raises(AgentConfigError):
        AgentParams("zi", zi_odds_lo=25.0, zi_odds_hi=20.0).validate()
    with pytest.raises(AgentConfigError):
        AgentParams("rp", reevaluate_every=0.0).validate()
    with pytest.raises(AgentConfigError):
        AgentParams("rb", stake_multiples=(3,), max_stake=2).validate()


def test_make_bettor_covers_every_strategy():
    cfg = make_race()
    for name in STRATEGY_NAMES:
        agent = make_bettor("b0", AgentParams(name), cfg, make_rng(0))
        assert agent.strategy == name


# -- predictors ---------------------------------------------------------------


def test_rp_predict_uniform_at_zero_dry_runs():
    cfg = make_race(n=4)
    state = initial_state(cfg, make_rng(0))
    assert rp_predict(state, cfg, 0, make_rng(1)) == (0.25, 0.25, 0.25, 0.25)


def test_rp_predict_laplace_counts():
    cfg = make_race(n=2, length=200.0)
    # c1 is effectively home: every dry run has it winning
    state = RaceState(5, [190.0, 10.0], [15.0, 15.0], [None, None])
    probs = rp_predict(state, cfg, 20, make_rng(1))
    assert probs == ((20 + 1) / 22, 1 / 22)
    assert sum(probs) == pytest.approx(1.0)


def test_rp_predict_tracks_the_race():
    cfg = make_race(n=3, length=300.0)
    state = initial_state(cfg, make_rng(3))
    for _ in range(8):
        advance_race(state, cfg, make_rng(4))
    leader = max(range(3), key=lambda c: state.positions[c])
    probs = rp_predict(state, cfg, 60, make_rng(5))
    assert probs[leader] == max(probs)
    assert sum(probs) == pytest.approx(1.0)
    assert all(p > 0.0 for p in probs)


def test_linex_predict_extrapolates_speed():
    # c1 needs 10 at speed 10 (1 tick); c2 needs 50 at speed 25 (2 ticks)
    probs = linex_predict(((10.0, 10.0), (25.0, 25.0)), (90.0, 50.0), 100.0, 2)
    assert probs == (1.0, 0.0)
    # windowing: c2's older crawl is ignored with window 1
    # c1: 20 left at speed 10 (2 ticks); c2: 96 left at last-step speed 95
    probs = linex_predict(((10.0, 10.0), (0.1, 95.0)), (80.0, 4.0), 100.0, 1)
    assert probs == (0.0, 1.0)
    # finished competitors score time 0 and win outright
    probs = linex_predict(((10.0,), (25.0,)), (120.0, 50.0), 100.0, 5)
    assert probs == (1.0, 0.0)
    # exact ties split the mass
    probs = linex_predict(((10.0,), (10.0,)), (50.0, 50.0), 100.0, 5)
    assert probs == (0.5, 0.5)
    with pytest.raises(ValueError):
        linex_predict(((), ()), (50.0, 60.0), 100.0, 3)


def test_lw_predict():
    assert lw_predict((10.0, 30.0, 20.0)) == (0.0, 1.0, 0.0)
    assert lw_predict((30.0, 30.0, 20.0)) == (0.5, 0.5, 0.0)


def test_ud_predict_threshold():
    # trailing by 4 < 5: the challenger gets the nod
    assert ud_predict((50.0, 46.0), 5.0) == (0.0, 1.0)
    # trailing by exactly the threshold: leader keeps it
    assert ud_predict((50.0, 45.0), 5.0) == (1.0, 0.0)
    assert ud_predict((50.0, 30.0), 5.0) == (1.0, 0.0)
    # second place by rank, not by index
    assert ud_predict((30.0, 50.0, 48.0), 5.0) == (0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ud_predict((10.0,), 5.0)


def counted_predictions(monkeypatch, agents) -> Counter:
    """Calls of predict per bettor id, counted from now on for agents' classes."""
    calls: Counter = Counter()
    for cls in {type(a) for a in agents}:

        def spy(self, obs, predict=cls.predict):
            calls[self.bettor_id] += 1
            return predict(self, obs)

        monkeypatch.setattr(cls, "predict", spy)
    return calls


def test_race_view_predictors_reuse_a_result_only_for_the_same_view(monkeypatch):
    cfg = make_race(n=2, length=100.0)

    def bettor(i, strategy, **params):
        return make_bettor(f"b{i}", AgentParams(strategy, **params), cfg, make_rng(i))

    # windows of 1 s and 1.4 s are both 1 tick; 2 s is 2
    linex = [bettor(i, "linex", window=w) for i, w in enumerate((1.0, 1.4, 2.0))]
    ud = [bettor(i, "ud", gap_threshold=g) for i, g in enumerate((5.0, 5.0, 100.0), 3)]
    lw = [bettor(6, "lw"), bettor(7, "lw")]
    every_wake = [bettor(8, "rp", d=2), bettor(9, "btf"), bettor(10, "zi")]
    agents = linex + ud + lw + every_wake
    calls = counted_predictions(monkeypatch, agents)
    # c1: 20 left at speed 10; c2: 96 left at 95 (window 1) or 47.55 (window 2)
    state = RaceState(2, [80.0, 4.0], [10.0, 95.0], [None, None])
    obs = make_obs(cfg, state=state, history=((10.0, 10.0), (0.1, 95.0)))
    for agent in agents:
        agent.decide(obs)
    once = {"b0": 1, "b2": 1, "b3": 1, "b5": 1, "b6": 1, "b8": 1, "b9": 1, "b10": 1}
    assert calls == once
    # equal keys share one prediction; another window or threshold is its own
    predictions = [a.last_prediction for a in agents]
    c1, c2 = (1.0, 0.0), (0.0, 1.0)
    assert predictions[:8] == [c2, c2, c1, c1, c1, c2, c1, c1]
    for a, b in ((0, 1), (3, 4), (6, 7)):
        assert predictions[a] is predictions[b]
    assert set(obs.predictions) == {("linex", 1), ("linex", 2), ("ud", 5.0), ("ud", 100.0), ("lw",)}
    # a second wake on the same view predicts only for rp, btf and zi
    for agent in agents:
        agent.decide(obs)
    assert calls == {**once, "b8": 2, "b9": 2, "b10": 2}
    # a new view's dict predicts again, with whatever it holds
    calls.clear()
    moved = obs._replace(positions=(80.0, 90.0), predictions={})
    for agent in agents:
        agent.decide(moved)
    assert calls == once
    assert [a.last_prediction for a in lw + ud] == [c2, c2, c2, c2, c1]


def test_race_view_predictors_never_reuse_a_result_for_a_list():
    positions = [10.0, 30.0, 20.0]
    assert lw_predict(positions) == (0.0, 1.0, 0.0)
    assert ud_predict(positions, 5.0) == (0.0, 1.0, 0.0)
    positions[2] = 28.0  # now second by 2, and the leader still by 2 after the next change
    assert ud_predict(positions, 5.0) == (0.0, 0.0, 1.0)
    positions[0] = 40.0
    assert lw_predict(positions) == (1.0, 0.0, 0.0)
    assert ud_predict(positions, 5.0) == (1.0, 0.0, 0.0)
    # a history tuple of lists, and positions held as a list
    history, positions = ([10.0], [25.0]), (90.0, 50.0)
    assert linex_predict(history, positions, 100.0, 1) == (1.0, 0.0)
    history[0][0] = 1.0  # c1 now needs 10 ticks; c2 needs 2
    assert linex_predict(history, positions, 100.0, 1) == (0.0, 1.0)
    moving = [90.0, 50.0]
    assert linex_predict(((10.0,), (25.0,)), moving, 100.0, 1) == (1.0, 0.0)
    moving[0] = 0.0
    assert linex_predict(((10.0,), (25.0,)), moving, 100.0, 1) == (0.0, 1.0)


def test_btf_predict_reads_the_grid():
    ids = ("c1", "c2", "c3")
    grid = {
        "c1": GridRow(backs=(GridLevel(400, 100),), lays=()),
        "c2": GridRow(backs=(GridLevel(150, 100),), lays=()),
        "c3": GridRow(backs=(), lays=(GridLevel(120, 100),)),  # lays don't count
    }
    assert btf_predict(grid, ids) == (0.0, 1.0, 0.0)
    # no back quotes anywhere: uniform
    empty = {cid: GridRow(backs=(), lays=()) for cid in ids}
    assert btf_predict(empty, ids) == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_rb_weight_frozen_values():
    assert rb_weight(0.1, 0.61) == pytest.approx(0.186302566, abs=1e-8)
    assert rb_weight(0.25, 0.61) == pytest.approx(0.290742934, abs=1e-8)
    assert rb_weight(0.5, 0.61) == pytest.approx(0.420639354, abs=1e-8)
    assert rb_weight(0.9, 0.61) == pytest.approx(0.711716064, abs=1e-8)


def test_rb_weight_shape():
    assert rb_weight(0.0, 0.61) == 0.0
    assert rb_weight(1.0, 0.61) == 1.0
    assert rb_weight(0.37, 1.0) == 0.37  # identity at gamma 1
    grid = [i / 50 for i in range(51)]
    w = [rb_weight(p, 0.61) for p in grid]
    assert all(a < b for a, b in zip(w, w[1:]))  # strictly increasing
    assert rb_weight(0.05, 0.61) > 0.05  # longshots overweighted
    assert rb_weight(0.95, 0.61) < 0.95  # favourites underweighted
    with pytest.raises(ValueError):
        rb_weight(1.5, 0.61)


def test_rb_weighted_normalizes():
    probs = (0.7, 0.2, 0.1)
    w = rb_weighted(probs, 0.61)
    assert sum(w) == pytest.approx(1.0)
    assert w[0] > w[1] > w[2]  # order preserved
    assert w[0] < probs[0]  # favourite share shrinks


def test_stake_ladder():
    assert stake_ladder((1, 2, 5), 20) == (1, 2, 5, 10, 20)
    assert stake_ladder((1, 2, 5), 100) == (1, 2, 5, 10, 20, 50, 100)
    assert stake_ladder((3,), 40) == (3, 30)


def test_rb_stake_snapping():
    assert rb_stake(7, (1, 2, 5), 20) == 5
    assert rb_stake(9, (1, 2, 5), 20) == 10
    assert rb_stake(1, (1, 2, 5), 20) == 1
    assert rb_stake(15, (1, 2, 5), 20) == 10  # tie between 10 and 20: smaller
    assert rb_stake(4, (1, 2, 5), 20) == 5
    assert rb_stake(3, (1, 2, 5), 20) == 2  # tie between 2 and 4 is not a tie: |2-3| == |5-3|? no
    assert rb_stake(1000, (1, 2, 5), 20) == 20  # clipped at the ladder top
    with pytest.raises(ValueError):
        rb_stake(0, (1, 2, 5), 20)


# -- shared decide policy -------------------------------------------------------


def test_decide_posts_back_at_fair_odds_on_empty_market():
    cfg = make_race(n=4)
    agent = make_bettor("b0", AgentParams("rp", d=0, base_stake=10), cfg, make_rng(0))
    actions = agent.decide(make_obs(cfg))
    assert len(actions) == 1
    order = actions[0]
    assert isinstance(order, PlaceOrder)
    assert order.side == BACK
    assert order.odds == 400  # fair odds for p = 1/4
    assert order.stake == 1000  # 10 currency units in cents
    assert agent.last_prediction == (0.25, 0.25, 0.25, 0.25)


def test_decide_takes_a_generous_resting_lay():
    cfg = make_race(n=4)
    agent = make_bettor("b0", AgentParams("rp", d=0), cfg, make_rng(0))
    grid = empty_grid(cfg)
    pick = cfg.competitor_ids[agent._pick((0.25,) * 4)]
    del pick  # tie-break is random; give every row the same lay
    for cid in cfg.competitor_ids:
        grid[cid] = GridRow(backs=(), lays=(GridLevel(450, 5000),))
    actions = agent.decide(make_obs(cfg, grid=grid))
    (order,) = actions
    assert order.side == BACK
    assert order.odds == 450  # takes 4.5 >= fair 4.0


def test_decide_ignores_a_stingy_resting_lay():
    cfg = make_race(n=4)
    agent = make_bettor("b0", AgentParams("rp", d=0), cfg, make_rng(0))
    grid = empty_grid(cfg)
    for cid in cfg.competitor_ids:
        grid[cid] = GridRow(backs=(), lays=(GridLevel(390, 5000),))
    (order,) = agent.decide(make_obs(cfg, grid=grid))
    assert order.side == BACK
    assert order.odds == 400  # rests at fair instead of taking 3.9


def test_decide_lays_a_heavily_backed_competitor():
    # agent thinks p = 1/4 (fair 4.0); the crowd backs at 3.0; 4.0 >= 3.0 * 1.25
    cfg = make_race(n=4)
    agent = make_bettor("b0", AgentParams("rp", d=0), cfg, make_rng(0))
    grid = empty_grid(cfg)
    for cid in cfg.competitor_ids:
        grid[cid] = GridRow(backs=(GridLevel(300, 5000),), lays=())
    (order,) = agent.decide(make_obs(cfg, grid=grid))
    assert order.side == LAY
    assert order.odds == 300
    assert LAY_VALUE_MARGIN == 1.25
    # at 3.3 the edge is under the margin: back at fair instead
    for cid in cfg.competitor_ids:
        grid[cid] = GridRow(backs=(GridLevel(330, 5000),), lays=())
    (order,) = agent.decide(make_obs(cfg, grid=grid))
    assert order.side == BACK
    assert order.odds == 400


def test_decide_respects_funds():
    cfg = make_race(n=4)
    agent = make_bettor("b0", AgentParams("rp", d=0, base_stake=10), cfg, make_rng(0))
    assert agent.decide(make_obs(cfg, balance=999)) == []  # back needs 1000
    # a lay order needs the liability, not the stake; the book accepts it at exactly that
    grid = empty_grid(cfg)
    for cid in cfg.competitor_ids:
        grid[cid] = GridRow(backs=(GridLevel(300, 5000),), lays=())
    need = escrow(LAY, 1000, 300)
    for strategy in ("rp", "lw"):
        agent = make_bettor("b0", AgentParams(strategy, d=0, base_stake=10), cfg, make_rng(0))
        assert agent.decide(make_obs(cfg, grid=grid, balance=need - 1)) == []
        (order,) = agent.decide(make_obs(cfg, grid=grid, balance=need))
        assert (order.side, order.odds, order.stake) == (LAY, 300, 1000)
        book = MarketBook(cfg.competitor_ids)
        book.open_account("b0", need)
        book.submit_bet("b0", order.competitor_id, order.side, order.odds, order.stake)
        assert (book.free_balance("b0"), book.accounts["b0"].reserved) == (0, need)


def test_decide_cancels_stale_bets():
    cfg = make_race(n=4)
    agent = make_bettor("b0", AgentParams("rp", d=0, reevaluate_every=10.0), cfg, make_rng(0))
    bets = (
        OpenBet(1, "c1", BACK, 400, 500, arrival_time=0.0),
        OpenBet(2, "c2", LAY, 300, 500, arrival_time=95.0),
        OpenBet(3, "c3", BACK, 400, 500, arrival_time=90.0),  # age exactly 10: kept
    )
    actions = agent.decide(make_obs(cfg, time=100.0, my_bets=bets))
    cancels = [a for a in actions if isinstance(a, CancelOrder)]
    assert [c.bet_id for c in cancels] == [1]


def test_records_refuse_assignment():
    cfg = make_race(n=2)
    records = (
        (make_obs(cfg), "time"),
        (OpenBet(1, "c1", BACK, 400, 500, arrival_time=0.0), "unmatched"),
        (GridLevel(400, 100), "stake"),
        (PlaceOrder("c1", BACK, 400, 500), "stake"),
    )
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)


def test_pick_breaks_ties_with_the_agent_stream():
    cfg = make_race(n=4)
    agent = make_bettor("b0", AgentParams("rp", d=0), cfg, make_rng(7))
    picks = {agent._pick((0.25, 0.25, 0.25, 0.25)) for _ in range(200)}
    assert picks == {0, 1, 2, 3}
    assert agent._pick((0.1, 0.6, 0.2, 0.1)) == 1  # clear argmax is deterministic


def test_rp_bettor_reconstructs_state_from_observation():
    cfg = make_race(n=3, length=300.0)
    agent = make_bettor("b0", AgentParams("rp", d=5), cfg, make_rng(1))
    state = initial_state(cfg, make_rng(2))
    for _ in range(4):
        advance_race(state, cfg, make_rng(2))
    history = tuple(tuple(10.0 + c for _ in range(4)) for c in range(3))
    obs = make_obs(cfg, state=state, history=history)
    rebuilt = agent._reconstruct_state(obs)
    assert rebuilt.tick == state.tick
    assert rebuilt.positions == state.positions
    assert rebuilt.prev_steps == [10.0, 11.0, 12.0]
    assert rebuilt.finish_ticks == state.finish_ticks
    # mutating the rebuild must not touch the session's state
    rebuilt.positions[0] = -1.0
    assert state.positions[0] >= 0.0


def test_decide_is_deterministic_per_stream():
    cfg = make_race(n=4)
    a = make_bettor("b0", AgentParams("rb", d=4), cfg, make_rng(11))
    b = make_bettor("b0", AgentParams("rb", d=4), cfg, make_rng(11))
    state = initial_state(cfg, make_rng(12))
    for _ in range(3):
        advance_race(state, cfg, make_rng(12))
    history = tuple((12.0,) * 3 for _ in range(4))
    obs = make_obs(cfg, state=state, history=history)
    assert a.decide(obs) == b.decide(obs)


def test_rb_bettor_uses_ladder_stakes():
    cfg = make_race(n=4)
    agent = make_bettor("b0", AgentParams("rb", d=0, max_stake=20), cfg, make_rng(3))
    stakes = set()
    for _ in range(100):
        (order,) = [a for a in agent.decide(make_obs(cfg)) if isinstance(a, PlaceOrder)]
        stakes.add(order.stake)
    assert stakes <= {100, 200, 500, 1000, 2000}
    assert len(stakes) > 1


def test_linex_bettor_uniform_before_the_start():
    cfg = make_race(n=4)
    agent = make_bettor("b0", AgentParams("linex"), cfg, make_rng(0))
    (order,) = agent.decide(make_obs(cfg))
    assert agent.last_prediction == (0.25, 0.25, 0.25, 0.25)
    assert order.odds == 400


def test_zi_bettor_random_orders_within_bounds():
    cfg = make_race(n=4)
    params = AgentParams("zi", zi_odds_lo=1.5, zi_odds_hi=20.0, max_stake=20)
    agent = make_bettor("b0", params, cfg, make_rng(5))
    from racemarket.exchange import ladder_band, on_ladder

    band = set(ladder_band(1.5, 20.0))
    sides = set()
    cids = set()
    for _ in range(400):
        orders = [a for a in agent.decide(make_obs(cfg)) if isinstance(a, PlaceOrder)]
        assert len(orders) == 1
        (order,) = orders
        assert order.odds in band
        assert on_ladder(order.odds)
        assert 100 <= order.stake <= 2000
        assert order.stake % 100 == 0
        sides.add(order.side)
        cids.add(order.competitor_id)
    assert sides == {BACK, LAY}
    assert cids == set(cfg.competitor_ids)


def test_zi_bettor_odds_look_uniform_over_the_band():
    from scipy.stats import chisquare

    from racemarket.exchange import ladder_band

    cfg = make_race(n=2)
    params = AgentParams("zi", zi_odds_lo=1.5, zi_odds_hi=20.0)
    agent = make_bettor("b0", params, cfg, make_rng(6))
    band = ladder_band(1.5, 20.0)
    counts = {v: 0 for v in band}
    n = 10_000
    for _ in range(n):
        (order,) = [a for a in agent.decide(make_obs(cfg)) if isinstance(a, PlaceOrder)]
        counts[order.odds] += 1
    stat, p = chisquare(list(counts.values()))
    assert p > 1e-3


def test_zi_bettor_cancels_stale_bets_and_respects_funds():
    cfg = make_race(n=2)
    agent = make_bettor("b0", AgentParams("zi", reevaluate_every=10.0), cfg, make_rng(7))
    old = (OpenBet(4, "c1", BACK, 400, 100, arrival_time=0.0),)
    actions = agent.decide(make_obs(cfg, time=50.0, my_bets=old, balance=0))
    assert actions == [CancelOrder(4)]
