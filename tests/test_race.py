import math

import pytest

from racemarket.race import (
    BettingClose,
    Competitor,
    LogNormalSteps,
    RaceConfig,
    RaceConfigError,
    RaceDivergedError,
    RaceState,
    Responsiveness,
    UniformSteps,
    advance_race,
    initial_state,
    preference_factor,
    run_race,
    simulate_from,
)
from racemarket.seeding import make_rng

from conftest import make_race


def fixed(v: float) -> UniformSteps:
    # degenerate uniform draws exactly v: a + (a - a) * u
    return UniformSteps(v, v)


# -- configuration ------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(RaceConfigError):
        UniformSteps(0.0, 1.0).validate()
    with pytest.raises(RaceConfigError):
        UniformSteps(2.0, 1.0).validate()
    with pytest.raises(RaceConfigError):
        LogNormalSteps(0.0, -1.0).validate()
    with pytest.raises(RaceConfigError):
        LogNormalSteps(0.0, 1.0, scale=0.0).validate()
    with pytest.raises(RaceConfigError):
        Responsiveness(breakpoint=1.5).validate()
    with pytest.raises(RaceConfigError):
        Competitor("c1", UniformSteps(1, 2), theta=-1.0).validate()
    with pytest.raises(RaceConfigError):
        make_race(length=0.0).validate()
    with pytest.raises(RaceConfigError):
        make_race(dt=0.0).validate()
    with pytest.raises(RaceConfigError):
        RaceConfig(100.0, (Competitor("x", fixed(1)), Competitor("x", fixed(1))))
    with pytest.raises(RaceConfigError):
        RaceConfig(100.0, ()).validate()


def test_betting_close_ranks():
    assert BettingClose.first().close_rank(5) == 1
    assert BettingClose.kth(3).close_rank(5) == 3
    assert BettingClose.last().close_rank(5) == 5
    with pytest.raises(RaceConfigError):
        BettingClose.kth(6).validate(5)
    with pytest.raises(RaceConfigError):
        BettingClose("first", k=2).validate(5)
    with pytest.raises(RaceConfigError):
        BettingClose("sometimes").validate(5)


def test_preference_factor():
    assert preference_factor(0.5, 0.5, 3.0) == 1.0
    assert preference_factor(0.7, 0.2, 0.0) == 1.0  # insensitive
    assert preference_factor(0.3, 0.5, 1.0) == pytest.approx(0.8)
    assert preference_factor(1.0, 0.0, 2.0) == 0.01  # clamped
    assert preference_factor(0.0, 1.0, 100.0) == 0.01


def test_responsiveness_profile():
    # one tick of a fixed unit step from either side of the breakpoint at 50
    r = Responsiveness(early_mult=2.0, late_mult=0.5, breakpoint=0.5)
    field = tuple(Competitor(f"c{i}", fixed(1.0), responsiveness=r) for i in range(4))
    cfg = RaceConfig(track_length=100.0, competitors=field)
    state = RaceState(0, [0.0, 49.999, 50.0, 99.0], [1.0] * 4, [None] * 4)
    steps = advance_race(state, cfg, make_rng(0)).prev_steps
    assert steps[:2] == [2.0, 2.0]
    assert steps[2] == 0.5  # boundary belongs to the late phase
    assert steps[3] == 0.5


def one_tick_steps(steps, n, rng) -> list[float]:
    """Steps of n neutral competitors one tick off the line: n raw draws, in order."""
    field = tuple(Competitor(f"c{i}", steps) for i in range(n))
    cfg = RaceConfig(track_length=1e9, competitors=field)
    state = RaceState(0, [0.0] * n, [1.0] * n, [None] * n)
    return advance_race(state, cfg, rng).prev_steps


def test_draw_step_means():
    n = 100_000
    rng = make_rng(1)
    u = UniformSteps(10.0, 20.0)
    mean_u = sum(one_tick_steps(u, n, rng)) / n
    assert mean_u == pytest.approx(15.0, abs=0.05)

    ln = LogNormalSteps(mu=0.0, sigma=0.25, scale=2.0)
    expected = 2.0 * math.exp(0.25**2 / 2)  # scale * exp(mu + sigma^2 / 2)
    assert expected == pytest.approx(2.0634868, abs=1e-6)
    mean_ln = sum(one_tick_steps(ln, n, rng)) / n
    assert mean_ln == pytest.approx(expected, rel=0.01)
    assert min(one_tick_steps(ln, 1000, rng)) > 0.0


# -- stepping -----------------------------------------------------------------


def two_comp_config(theta0=0.0, theta1=0.0, length=200.0, **kw0):
    c0 = Competitor("c1", kw0.pop("steps0", fixed(5.0)), theta=theta0, **kw0)
    c1 = Competitor("c2", fixed(3.0), theta=theta1)
    return RaceConfig(track_length=length, competitors=(c0, c1))


def test_initial_state_primes_previous_steps():
    cfg = make_race(n=3)
    state = initial_state(cfg, make_rng(0))
    assert state.tick == 0
    assert state.positions == [0.0, 0.0, 0.0]
    assert state.finish_ticks == [None, None, None]
    assert all(10.0 <= s <= 20.0 for s in state.prev_steps)


def step_of_first(state: RaceState, cfg: RaceConfig) -> float:
    """The step competitor 0 takes in one tick from state (a copy)."""
    return advance_race(state.clone(), cfg, make_rng(0)).prev_steps[0]


def test_blocked_step_copies_slower_previous_step():
    cfg = two_comp_config(theta0=5.0)
    state = RaceState(0, [10.0, 12.0], [11.0, 15.0], [None, None])
    # gap 2 <= theta 5: limited to min(own prev 11, front prev 15)
    assert step_of_first(state, cfg) == 11.0
    state.prev_steps = [15.0, 11.0]
    assert step_of_first(state, cfg) == 11.0


def test_zero_theta_never_blocks():
    cfg = two_comp_config(theta0=0.0)
    state = RaceState(0, [10.0, 12.0], [1.0, 1.0], [None, None])
    assert step_of_first(state, cfg) == 5.0  # free draw
    # equal positions: nobody is strictly ahead
    state = RaceState(0, [12.0, 12.0], [1.0, 1.0], [None, None])
    cfg5 = two_comp_config(theta0=5.0)
    assert step_of_first(state, cfg5) == 5.0


def test_finished_rivals_do_not_block():
    cfg = two_comp_config(theta0=50.0, length=20.0)
    state = RaceState(3, [10.0, 21.0], [1.0, 1.0], [None, 3])
    assert step_of_first(state, cfg) == 5.0


def test_blocked_step_skips_preference_factor():
    # preference factor would be the 0.01 clamp, but the blocked branch
    # reuses previous steps untouched
    slow = Competitor("c1", fixed(5.0), preference=0.0, pref_sensitivity=100.0, theta=5.0)
    front = Competitor("c2", fixed(3.0))
    cfg = RaceConfig(track_length=200.0, competitors=(slow, front), conditions=1.0)
    state = RaceState(0, [8.0, 10.0], [4.0, 3.0], [None, None])
    assert step_of_first(state, cfg) == 3.0
    # unblocked it would be 5 * 0.01
    far = RaceState(0, [8.0, 100.0], [4.0, 3.0], [None, None])
    assert step_of_first(far, cfg) == pytest.approx(0.05)


def test_blocked_step_keeps_responsiveness():
    resp = Responsiveness(early_mult=2.0, late_mult=1.0, breakpoint=1.0)
    c0 = Competitor("c1", fixed(5.0), theta=5.0, responsiveness=resp)
    c1 = Competitor("c2", fixed(3.0))
    cfg = RaceConfig(track_length=200.0, competitors=(c0, c1))
    state = RaceState(0, [8.0, 10.0], [4.0, 3.0], [None, None])
    assert step_of_first(state, cfg) == 6.0  # 2 * min(4, 3)


def test_advance_race_is_synchronous():
    cfg = two_comp_config()
    state = initial_state(cfg, make_rng(0))
    advance_race(state, cfg, make_rng(0))
    assert state.tick == 1
    assert state.positions == [5.0, 3.0]
    assert state.prev_steps == [5.0, 3.0]
    advance_race(state, cfg, make_rng(0))
    assert state.positions == [10.0, 6.0]


def test_advance_counts_blocked_steps():
    cfg = two_comp_config(theta0=5.0)
    state = RaceState(0, [10.0, 12.0], [11.0, 15.0], [None, None])
    advance_race(state, cfg, make_rng(0))
    assert state.blocked_steps == 1
    assert state.positions[0] == 21.0  # 10 + min(11, 15)


def test_finish_marked_at_crossing_tick():
    cfg = two_comp_config(length=9.0)
    state = initial_state(cfg, make_rng(0))
    advance_race(state, cfg, make_rng(0))  # 5, 3
    assert state.finish_ticks == [None, None]
    advance_race(state, cfg, make_rng(0))  # 10 >= 9, 6
    assert state.finish_ticks == [2, None]
    assert state.finished_count() == 1
    advance_race(state, cfg, make_rng(0))  # finished one stays put
    assert state.positions[0] == 10.0
    assert state.finish_ticks == [2, 3]


def test_finish_tie_ranks_overshoot_then_index():
    # both cross on tick 2; c2 overshoots more and ranks first
    a = Competitor("c1", fixed(11.0))
    b = Competitor("c2", fixed(12.0))
    cfg = RaceConfig(track_length=22.0, competitors=(a, b))
    traj = run_race(cfg, seed=0)
    assert traj.finish_ticks == (2, 2)
    assert traj.finish_order == ("c2", "c1")

    # exact dead heat: identical overshoot falls back to competitor order
    cfg2 = RaceConfig(track_length=22.0, competitors=(Competitor("c1", fixed(11.0)), Competitor("c2", fixed(11.0))))
    assert run_race(cfg2, seed=0).finish_order == ("c1", "c2")


def test_trajectory_shape_and_monotone_positions():
    cfg = make_race(n=5, length=300.0)
    traj = run_race(cfg, seed=7)
    assert traj.ticks is not None
    assert len(traj.ticks) == traj.n_ticks + 1
    assert traj.ticks[0] == (0.0,) * 5
    assert traj.final_positions == traj.ticks[-1]
    assert all(p >= 300.0 for p in traj.final_positions)
    for c in range(5):
        for t in range(1, len(traj.ticks)):
            prev, cur = traj.ticks[t - 1][c], traj.ticks[t][c]
            if t <= traj.finish_ticks[c]:
                assert cur > prev  # strictly positive steps
            else:
                assert cur == prev

    assert run_race(cfg, seed=7, record=False).ticks is None


def test_run_race_deterministic_in_seed():
    cfg = make_race()
    assert run_race(cfg, seed=5) == run_race(cfg, seed=5)
    assert run_race(cfg, seed=5) != run_race(cfg, seed=6)


def test_tick_limit_raises():
    cfg = make_race(n=2, lo=1.0, hi=1.0, length=100.0, tick_limit=10)
    with pytest.raises(RaceDivergedError):
        run_race(cfg, seed=0)


def test_identical_competitors_win_evenly():
    cfg = make_race(n=2, length=300.0)
    wins = sum(run_race(cfg, seed=s, record=False).winner == "c1" for s in range(2000))
    # 3 sigma around one half at n=2000 is about 0.034
    assert abs(wins / 2000 - 0.5) < 0.04


def test_two_distribution_win_rate_matches_expected():
    # P(U(10,20) beats U(1,25)) at L=500: 0.93865 +- 0.0005, computed from
    # an independent first-passage simulation at N=2e6 and frozen here.
    a = Competitor("c1", UniformSteps(10.0, 20.0))
    b = Competitor("c2", UniformSteps(1.0, 25.0))
    cfg = RaceConfig(track_length=500.0, competitors=(a, b))
    n = 3000
    wins = sum(run_race(cfg, seed=s, record=False).winner == "c1" for s in range(n))
    assert abs(wins / n - 0.93865) < 0.015


def test_blocked_runner_cannot_outrun_the_wall():
    # fast runner boxed behind a strictly slower one: applied steps must be
    # either a free draw in [10, 12] or a copied step at most 6; nothing
    # in between can occur
    fast = Competitor("c1", UniformSteps(10.0, 12.0), theta=1000.0)
    slow = Competitor("c2", UniformSteps(5.0, 6.0))
    cfg = RaceConfig(track_length=200.0, competitors=(fast, slow))
    state = RaceState(0, [0.0, 3.0], [11.0, 5.5], [None, None])
    rng = make_rng(3)
    blocked_seen = 0
    while None in state.finish_ticks:
        before = list(state.positions)
        finished_before = list(state.finish_ticks)
        advance_race(state, cfg, rng)
        if finished_before[0] is None:
            delta = state.positions[0] - before[0]
            assert delta <= 6.0 or 10.0 <= delta <= 12.0
            if delta <= 6.0:
                blocked_seen += 1
    assert blocked_seen > 0
    assert state.blocked_steps >= blocked_seen


def test_simulate_from_leaves_state_alone():
    cfg = make_race(n=3, length=200.0)
    state = initial_state(cfg, make_rng(1))
    for _ in range(3):
        advance_race(state, cfg, make_rng(2))
    snapshot = state.clone()
    order1 = simulate_from(state, cfg, seed=11)
    order2 = simulate_from(state, cfg, seed=11)
    order3 = simulate_from(state, cfg, seed=12)
    assert state.tick == snapshot.tick
    assert state.positions == snapshot.positions
    assert state.prev_steps == snapshot.prev_steps
    assert state.finish_ticks == snapshot.finish_ticks
    assert order1 == order2
    assert sorted(order1) == ["c1", "c2", "c3"]
    assert isinstance(order3, tuple)


def test_simulate_from_respects_finished_competitors():
    cfg = two_comp_config(length=9.0)
    state = initial_state(cfg, make_rng(0))
    advance_race(state, cfg, make_rng(0))
    advance_race(state, cfg, make_rng(0))  # c1 finished at tick 2
    order = simulate_from(state, cfg, seed=1)
    assert order[0] == "c1"


def test_far_ahead_leader_almost_always_wins():
    cfg = make_race(n=2, length=200.0)
    state = RaceState(5, [150.0, 10.0], [15.0, 15.0], [None, None])
    wins = sum(simulate_from(state, cfg, seed=s)[0] == "c1" for s in range(200))
    assert wins == 200


def test_heavy_blocking_slows_the_race():
    # same speeds, but a tight pack with large theta copies slow steps around
    free = make_race(n=6, lo=5.0, hi=15.0, length=400.0)
    jam = RaceConfig(
        track_length=400.0,
        competitors=tuple(
            Competitor(f"c{i + 1}", UniformSteps(5.0, 15.0), theta=30.0) for i in range(6)
        ),
    )
    free_ticks = sum(run_race(free, seed=s, record=False).n_ticks for s in range(60))
    jam_ticks = sum(run_race(jam, seed=s, record=False).n_ticks for s in range(60))
    jam_blocked = sum(run_race(jam, seed=s, record=False).blocked_steps for s in range(60))
    assert jam_blocked > 0
    assert jam_ticks > free_ticks


def test_lognormal_race_terminates():
    comps = tuple(
        Competitor(f"c{i + 1}", LogNormalSteps(mu=1.0, sigma=0.5)) for i in range(4)
    )
    cfg = RaceConfig(track_length=150.0, competitors=comps)
    traj = run_race(cfg, seed=9)
    assert math.isfinite(traj.n_ticks)
    assert sorted(traj.finish_order) == ["c1", "c2", "c3", "c4"]
