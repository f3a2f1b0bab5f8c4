"""Equivalence of the race kernel against a brute-force reference.

ScanRace re-implements one tick the plain way: for every racing competitor
a linear scan over all rivals finds the front runner (nearest racing rival
strictly ahead by gap, lowest index among equal gaps), then the step is a
free draw or a copy of the smaller previous step.  The step law itself is
stated here a second time, as reference code (ref_draw, ref_resp), and the
kernel's primed initial state is checked against it too.  Random states with
exact position ties, finished rivals, theta = 0 competitors and mixed step
laws must come out bit-identical on both: positions, previous steps, finish
ticks, blocked steps, and the generator state.

run_race runs its one race from the primed start in one C call that
records its positions, a batch chunk runs many races from the primed start
in one such call on seeds C derives, and rp_predict runs all its dry runs
in one such call from its state; the last tests check the C kernel against
the Python loop (race.PYTHON_LOOP, race_ticks behind the kernel's
interface), which stays the reference: whole trajectories, finish orders,
win counts, errors and the races done before one must be identical.
"""

import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_parity import (
    DRY_RUNS,
    EDGE_SEEDS,
    RUN_INDICES,
    both_ways,
    chunk_start,
    differences,
    engine_differences,
    mid_race,
)
from racemarket import _kernel
from racemarket.agents import rp_predict
from racemarket.batch import CHUNK_RUNS, BatchConfig, _race_chunk, resize_race, run_batch
from racemarket.config import parse_config
from racemarket.race import (
    Competitor,
    LogNormalSteps,
    RaceConfig,
    RaceDivergedError,
    RaceState,
    Responsiveness,
    UniformSteps,
    advance_race,
    finalize_trajectory,
    initial_state,
    preference_factor,
    run_race,
    simulate_from,
    win_counts,
)
from racemarket.seeding import MASK64, make_rng


def ref_draw(steps, rng) -> float:
    """One raw draw of a step law: U(lo, hi), or scale * exp(Normal(mu, sigma))."""
    if isinstance(steps, LogNormalSteps):
        return steps.scale * rng.lognormvariate(steps.mu, steps.sigma)
    return rng.uniform(steps.lo, steps.hi)


def ref_resp(resp, position, track_length) -> float:
    """Responsiveness multiplier: early before breakpoint * track_length, late from it on."""
    if position < resp.breakpoint * track_length:
        return resp.early_mult
    return resp.late_mult


def ref_free_step(config, c, position, rng) -> float:
    comp = config.competitors[c]
    pref = preference_factor(config.conditions, comp.preference, comp.pref_sensitivity)
    resp = ref_resp(comp.responsiveness, position, config.track_length)
    return resp * pref * ref_draw(comp.steps, rng)


def scan_initial_state(config, rng):
    """All at 0; each previous step primed with one free step at 0, in index order."""
    n = config.n_competitors
    prev = [ref_free_step(config, c, 0.0, rng) for c in range(n)]
    return RaceState(0, [0.0] * n, prev, [None] * n)


def scan_front_runner(positions, finish_ticks, c):
    """Nearest still-racing competitor strictly ahead of c: (index, gap), or None."""
    pc = positions[c]
    best_i = -1
    best_gap = -1.0
    for i, p in enumerate(positions):
        if i == c or finish_ticks[i] is not None:
            continue
        if p > pc:
            gap = p - pc
            if best_i < 0 or gap < best_gap:
                best_i = i
                best_gap = gap
    if best_i < 0:
        return None
    return best_i, best_gap


def scan_step(state, config, c, rng):
    comp, position = config.competitors[c], state.positions[c]
    front = scan_front_runner(state.positions, state.finish_ticks, c)
    if front is None or front[1] > comp.theta:
        return ref_free_step(config, c, position, rng), False
    resp = ref_resp(comp.responsiveness, position, config.track_length)
    return resp * min(state.prev_steps[c], state.prev_steps[front[0]]), True


def scan_tick(state, config, rng):
    positions, finish, prev = state.positions, state.finish_ticks, state.prev_steps
    n = len(positions)
    steps = [0.0] * n
    for c in range(n):
        if finish[c] is None:
            steps[c], blocked = scan_step(state, config, c, rng)
            state.blocked_steps += blocked
    state.tick += 1
    for c in range(n):
        if finish[c] is None:
            p = positions[c] + steps[c]
            if p == positions[c]:
                p = math.nextafter(p, math.inf)
            positions[c] = p
            prev[c] = steps[c]
            if p >= config.track_length:
                finish[c] = state.tick
    return state


def scan_finish(state, config, rng):
    while None in state.finish_ticks:
        scan_tick(state, config, rng)
    return state


def bits(state):
    return (
        state.tick,
        [p.hex() for p in state.positions],
        [s.hex() for s in state.prev_steps],
        list(state.finish_ticks),
        state.blocked_steps,
    )


# -- strategies ---------------------------------------------------------------

#: A few shared values make exact position ties, equal steps and gaps equal
#: to theta common; a tiny previous step makes a blocked step vanish in the
#: position sum.
SHARED = (0.0, 5.0, 10.0, 12.0, 12.5)
THETAS = (0.0, 0.5, 2.0, 5.0)
TINY = 1e-20

unit = st.floats(0.0, 1.0)
breakpoints = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), unit)


def step_laws(min_mu):
    uniform = st.builds(
        lambda lo, width: UniformSteps(lo, lo + width),
        st.floats(0.5, 20.0),
        st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    )
    lognormal = st.builds(
        LogNormalSteps, st.floats(min_mu, 3.0), st.floats(0.0, 1.0), st.floats(0.5, 5.0)
    )
    return st.one_of(uniform, lognormal)


@st.composite
def configs(draw, max_n=8, fast=False):
    """Random fields; fast ones have median steps of at least 0.125 on tracks up to 80."""
    # lengths of 20 and 25 put breakpoints 0.5 and 1.0 on shared positions
    lengths = st.floats(10.0, 80.0 if fast else 200.0)
    length = draw(st.one_of(st.sampled_from((20.0, 25.0)), lengths))
    traits = st.tuples(
        step_laws(0.0 if fast else -1.0),
        unit,
        st.floats(0.0, 0.5 if fast else 3.0),
        st.one_of(st.sampled_from(THETAS), st.floats(0.0, 30.0)),
        st.builds(Responsiveness, st.floats(0.5, 2.0), st.floats(0.5, 2.0), breakpoints),
    )
    field = tuple(
        Competitor(f"c{i + 1}", steps, pref, sens, theta, resp)
        for i, (steps, pref, sens, theta, resp) in enumerate(
            draw(st.lists(traits, min_size=1, max_size=max_n))
        )
    )
    return RaceConfig(track_length=length, competitors=field, conditions=draw(unit))


@st.composite
def races_mid_way(draw, fast=False):
    config = draw(configs(fast=fast))
    n = config.n_competitors
    length = config.track_length
    tick = draw(st.integers(0, 40))
    position = st.one_of(st.sampled_from(SHARED), st.floats(0.0, 1.2 * length))
    positions = draw(st.lists(position, min_size=n, max_size=n))
    step = st.one_of(st.sampled_from((TINY, *SHARED[1:])), st.floats(0.1, 30.0))
    prev = draw(st.lists(step, min_size=n, max_size=n))
    finished = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    finish_ticks = [draw(st.integers(1, tick)) if done and tick else None for done in finished]
    blocked = draw(st.integers(0, 5))
    return config, RaceState(tick, positions, prev, finish_ticks, blocked)


# -- properties ---------------------------------------------------------------


def test_rounded_gap_tie_picks_the_lowest_index():
    # c2 and c3 sit one ulp apart, yet their gaps to c1 round to the same
    # float: both are nearest ahead and the lower index (c2) is the front runner
    pc, near = 0.24790612069092532, 1.4378875936505722
    far = math.nextafter(near, math.inf)
    assert near - pc == far - pc
    field = (
        Competitor("c1", UniformSteps(20.0, 20.0), theta=5.0),
        Competitor("c2", UniformSteps(1.0, 1.0)),
        Competitor("c3", UniformSteps(1.0, 1.0)),
    )
    config = RaceConfig(track_length=100.0, competitors=field)
    state = RaceState(0, [pc, far, near], [10.0, 2.0, 4.0], [None, None, None])
    start = state.clone()
    reference = scan_tick(state.clone(), config, make_rng(0))
    assert bits(advance_race(state, config, make_rng(0))) == bits(reference)
    assert state.prev_steps[0] == 2.0
    # held to c2's step, c1 stays boxed in; held to c3's it would pass them
    assert simulate_from(start, config, 0) == ("c2", "c3", "c1")
    kernel, loop = both_ways(lambda: rp_predict(start, config, DRY_RUNS, make_rng(1)))
    assert kernel == loop


@settings(max_examples=300, deadline=None)
@given(configs(), st.integers(0, 2**32))
def test_initial_state_equals_scan(config, seed):
    rng_ref, rng = make_rng(seed), make_rng(seed)
    assert bits(initial_state(config, rng)) == bits(scan_initial_state(config, rng_ref))
    assert rng.getstate() == rng_ref.getstate()


@settings(max_examples=300, deadline=None)
@given(races_mid_way(), st.integers(0, 2**32))
def test_one_tick_equals_scan(race, seed):
    config, state = race
    reference = state.clone()
    rng_ref, rng = make_rng(seed), make_rng(seed)
    scan_tick(reference, config, rng_ref)
    advance_race(state, config, rng)
    assert bits(state) == bits(reference)
    assert rng.getstate() == rng_ref.getstate()


@settings(max_examples=40, deadline=None)
@given(configs(max_n=6, fast=True), st.integers(0, 2**32))
def test_run_race_and_simulate_from_equal_scan(config, seed):
    traj = run_race(config, seed)
    rng = make_rng(seed)
    reference = scan_finish(scan_initial_state(config, rng), config, rng)
    assert list(traj.finish_ticks) == reference.finish_ticks
    final = traj.snapshots[-config.n_competitors :]
    assert [p.hex() for p in final] == [p.hex() for p in reference.positions]
    assert traj.blocked_steps == reference.blocked_steps

    mid = scan_initial_state(config, make_rng(seed + 1))
    scan_tick(mid, config, make_rng(seed + 2))
    order = simulate_from(mid, config, seed + 3)
    rest = scan_finish(mid.clone(), config, make_rng(seed + 3))
    assert order == finalize_trajectory(rest, config, None).finish_order


# -- the C kernel against the Python loop -------------------------------------

DERBY = Path(__file__).resolve().parent.parent / "configs" / "derby.json"


def derby_race() -> RaceConfig:
    return parse_config(DERBY.read_text()).race


@settings(max_examples=60, deadline=None)
@given(configs(max_n=8, fast=True), st.integers(-(2**65), 2**65), st.integers(0, 20))
def test_kernel_equals_python_loop(config, seed, ticks):
    assert differences(config, seed, ticks) == []


@settings(max_examples=100, deadline=None)
@given(races_mid_way(fast=True), st.integers(0, 2**64))
def test_kernel_continues_any_state_like_python_loop(race, seed):
    # exact ties, tiny previous steps and finished rivals, as in the tick test
    config, state = race
    before = bits(state)
    # dry runs in one kernel call, against simulate_from's winners
    kernel, loop = both_ways(lambda: rp_predict(state, config, DRY_RUNS, make_rng(seed)))
    assert kernel == loop
    assert bits(state) == before


#: Seeds with a 1-word key (below 2**32) and with a 2-word key.
mixed_seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))


@st.composite
def open_races(draw):
    """2 to 8 copies of one competitor with a spread step law, a few ticks in.

    The copies differ only by index, so each continuation's winner is left
    to its draws: a wrong stream changes the win counts.
    """
    lo = draw(st.floats(0.5, 5.0))
    steps = draw(
        st.one_of(
            st.builds(UniformSteps, st.just(lo), st.floats(lo + 1.0, lo + 10.0)),
            st.builds(LogNormalSteps, st.floats(0.0, 1.5), st.floats(0.2, 1.0)),
        )
    )
    theta, n = draw(st.sampled_from(THETAS)), draw(st.integers(2, 8))
    field = tuple(Competitor(f"c{i + 1}", steps, theta=theta) for i in range(n))
    config = RaceConfig(track_length=draw(st.floats(20.0, 60.0)), competitors=field)
    return config, mid_race(config, draw(st.integers(0, 2**32)), draw(st.integers(0, 5)))


@pytest.mark.parametrize("d", [1, 7, 8, 9, 17])
@settings(max_examples=15, deadline=None)
@given(race=open_races(), data=st.data())
def test_win_counts_in_seed_groups_equal_simulate_from(d, race, data):
    # the kernel seeds its streams 8 at a time: d fills no group, one, one
    # and one more, two and one more; each stream keeps its own key length
    config, state = race
    seeds = data.draw(st.lists(mixed_seeds, min_size=d, max_size=d))
    before = bits(state)
    kernel, loop = both_ways(lambda: win_counts(state, config, seeds))
    assert kernel == loop
    assert bits(state) == before


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_kernel_seeds_like_random_seed(seed):
    config = derby_race()
    assert differences(config, seed, 30) == []
    # every edge seed is also a dry run of one call, seeded in one group of lanes
    state = mid_race(config, seed, 30)
    seeds = [s & MASK64 for s in EDGE_SEEDS]
    kernel, loop = both_ways(lambda: win_counts(state, config, seeds))
    assert kernel == loop


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_engines_agree_on_races_called_directly(seed):
    # races from the line and mid-race that finish, diverge or overflow part
    # way through the seeds, compared by the races done, rows and error
    assert engine_differences(derby_race(), seed, 30, DRY_RUNS, random.Random(seed)) == []


@pytest.mark.parametrize("first", RUN_INDICES)
@pytest.mark.parametrize("master", EDGE_SEEDS)
def test_batch_chunk_derives_seeds_like_derive_seed(master, first):
    # 3 runs fill part of one group of 8 seeded streams, 11 a group and part of the next
    config = RaceConfig(track_length=200.0, competitors=derby_race().competitors)
    for count in (3, 11):
        start = chunk_start(first, count)
        kernel, loop = both_ways(lambda: _race_chunk(config, master, start, count))
        assert kernel == loop


def test_batch_chunk_refuses_run_indices_past_int64():
    config = RaceConfig(track_length=200.0, competitors=derby_race().competitors)
    for first, count in ((2**63 - 2, 3), (-1, 2)):
        last = first + count - 1
        expected = f"ValueError: run indices must be in [0, 2**63 - 1], got {first}..{last}"
        assert both_ways(lambda: _race_chunk(config, 1, first, count)) == (expected, expected)
    kernel, loop = both_ways(lambda: _race_chunk(config, 1, 2**63 - 3, 3))
    assert kernel == loop


def test_batch_across_a_chunk_boundary_equals_python_loop():
    field = (Competitor("c1", LogNormalSteps(1.0, 0.8)), Competitor("c2", UniformSteps(1.0, 5.0)))
    config = RaceConfig(track_length=12.0, competitors=field)
    for workers in (1, 2):
        batch = BatchConfig(config, CHUNK_RUNS + 2, master_seed=2**64 - 1, workers=workers)
        kernel, loop = both_ways(lambda: run_batch(batch))
        assert kernel == loop


def test_dry_run_winner_by_overshoot_then_index():
    field = (
        Competitor("c1", UniformSteps(10.0, 10.0)),
        Competitor("c2", UniformSteps(20.0, 20.0)),
        Competitor("c3", UniformSteps(15.0, 15.0)),
    )
    config = RaceConfig(track_length=100.0, competitors=field)
    seeds = [1, 2**64 - 1, 7]
    # c1 and c2 cross on the same tick, c2 further past the line
    further = RaceState(3, [95.0, 90.0, 10.0], [10.0, 20.0, 15.0], [None, None, None])
    # the same overshoot: the lower index wins
    level = RaceState(3, [95.0, 85.0, 10.0], [10.0, 20.0, 15.0], [None, None, None])
    # c3 finished before
    done = RaceState(3, [95.0, 85.0, 101.0], [10.0, 20.0, 15.0], [None, None, 2])
    for state, wins in ((further, [0, 3, 0]), (level, [3, 0, 0]), (done, [0, 0, 3])):
        assert win_counts(state, config, seeds) == wins
        kernel, loop = both_ways(lambda: rp_predict(state, config, 3, make_rng(0)))
        assert kernel == loop == repr(tuple((w + 1) / 6 for w in wins))


@pytest.mark.parametrize("n", [1, 160])
def test_kernel_field_sizes(n):
    config = resize_race(derby_race(), n)
    for seed in (3, 2**40 + 7):
        assert differences(config, seed, 40) == []


def test_snapshots_across_record_growths_equal_python_loop():
    # the kernel's record starts at _RECORD_ROWS rows and doubles when full;
    # a race of more than 8 times that many rows grows it at least thrice
    config = replace(derby_race(), track_length=40_000.0)
    kernel, loop = both_ways(lambda: run_race(config, 11))
    assert kernel == loop
    traj = run_race(config, 11)
    n = config.n_competitors
    assert len(traj.snapshots) > 8 * _kernel._RECORD_ROWS * n
    rows = [tuple(traj.snapshots[k : k + n]) for k in range(0, len(traj.snapshots), n)]
    assert traj.ticks == tuple(rows)
    assert traj.ticks is traj.ticks


def test_kernel_lognormal_without_spread():
    # sigma = 0 still runs the normalvariate loop, so it still draws
    flat = LogNormalSteps(2.0, 0.0, 1.5)
    field = (
        Competitor("c1", flat, theta=3.0),
        Competitor("c2", UniformSteps(8.0, 12.0), theta=3.0),
        Competitor("c3", flat),
    )
    config = RaceConfig(track_length=300.0, competitors=field)
    for seed in range(5):
        assert differences(config, seed, 7) == []
    assert initial_state(config, make_rng(0)).prev_steps[0] == 1.5 * math.exp(2.0)


def test_kernel_divergence_raises_the_loop_message():
    field = (Competitor("c1", UniformSteps(30.0, 30.0)), Competitor("c2", UniformSteps(1.0, 1.0)))
    config = RaceConfig(track_length=100.0, competitors=field, tick_limit=5)
    expected = "RaceDivergedError: race exceeded tick_limit=5 with 1/2 finished"
    assert both_ways(lambda: run_race(config, 1)) == (expected, expected)
    state = mid_race(config, 2, 2)
    with pytest.raises(RaceDivergedError, match="^race exceeded tick_limit=5 with 1/2 finished$"):
        simulate_from(state, config, 3)
    assert both_ways(lambda: rp_predict(state, config, 3, make_rng(0))) == (expected, expected)
    unfinished = replace(config, tick_limit=2)
    expected = "RaceDivergedError: race exceeded tick_limit=2 with 0/2 finished"
    assert both_ways(lambda: run_race(unfinished, 1)) == (expected, expected)
    # a recorded race that diverges after its record first grew
    limit = _kernel._RECORD_ROWS + 10
    grown = replace(config, track_length=1000.0, tick_limit=limit)
    expected = f"RaceDivergedError: race exceeded tick_limit={limit} with 1/2 finished"
    assert both_ways(lambda: run_race(grown, 1)) == (expected, expected)
    expected = (
        "BatchRunError: run 4: RaceDivergedError('race exceeded tick_limit=2 with 0/2 finished')"
    )
    assert both_ways(lambda: _race_chunk(unfinished, 1, 4, 3)) == (expected, expected)


def test_kernel_overflow_raises_like_math_exp():
    field = (Competitor("c1", LogNormalSteps(800.0, 0.5)),)
    config = RaceConfig(track_length=100.0, competitors=field)
    expected = "OverflowError: math range error"
    assert both_ways(lambda: run_race(config, 1)) == (expected, expected)
    state = RaceState(0, [0.0], [1.0], [None])
    assert both_ways(lambda: rp_predict(state, config, 3, make_rng(0))) == (expected, expected)
    expected = "BatchRunError: run 9: OverflowError('math range error')"
    assert both_ways(lambda: _race_chunk(config, 1, 9, 3)) == (expected, expected)
