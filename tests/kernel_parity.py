"""The C race kernel against the Python loop, with the standard library only.

Runs run_race (trajectory recorded), win_counts from mid-race states, and
chunks of batch runs on random fields, once through the C kernel and once
through race_ticks, and compares the results by repr, which tells every
float bit apart.  Each is one rm_races call: run_race's from the primed
start on its one seed, with a record that its buffer's rows grow into; a
batch chunk's from the primed start on the seeds rm_run_seeds derives; and
a win_counts call's from a mid-race state.  On the Python loop they are the
same calls to race.PYTHON_LOOP, which runs race_ticks.  rm_races seeds its
streams in groups of 8, so a case draws its number of dry runs from 1 to
20, mixes seeds below 2**32 (a 1-word key) into them, and runs chunks of
11: every case fills some group partly and many fill a second.
Each case also runs the three under tick limits that stop a race short of
its finish (a batch chunk's, mid-group where its runs' lengths allow) and
with a competitor added whose lognormal draws overflow now and then, and
compares the errors, messages (with the finished count) and the runs done
before them.  The two engines, race.engine()'s kernel and PYTHON_LOOP, are
also called directly, from the primed start and from a mid-race state, on
seeds where a race in the middle diverges or overflows: their races calls
must return the same count of races done, rows and error text, and their
record calls the same snapshots and blocked steps.  Whether a random race
outgrows a record's first buffer is left to chance, so one fixed case, LONG_TRACK, runs the same checks on a
race whose record grows four times and which, under its failing tick
limit, diverges after those growths: every run, sanitized ones too,
reallocates a record and frees a failed one.  Last, rm_position_lines,
which writes trajectory.csv's lines straight from a snapshots array, is
checked against float.__repr__ on random bit patterns across its range and
just outside it, on uniform positions in [0, 3000], and on edge values,
among them those on either side of a power of ten, where its estimate of
the integer digits is corrected, powers of two, whose lower bound is
nearer, values whose lower bound borrows one unit or several from the
scaled value, and ties between two shortest candidates.
It needs no pytest, so it checks the kernel on any interpreter whose random
module it must match:

    PYTHONPATH=src python tests/kernel_parity.py [cases]

Exits 1 on the first difference, or when the kernel did not load.
test_race_oracle.py and test_writers.py import the helpers.
"""

import math
import random
import struct
import sys
from array import array
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import chain

from racemarket import _kernel
from racemarket.batch import CHUNK_RUNS, BatchRunError, _race_chunk
from racemarket.race import (
    PYTHON_LOOP,
    Competitor,
    LogNormalSteps,
    RaceConfig,
    RaceDivergedError,
    Responsiveness,
    UniformSteps,
    RaceState,
    advance_race,
    batch_runs,
    engine,
    initial_state,
    race_ticks,
    run_race,
    win_counts,
)
from racemarket.seeding import MASK64, make_rng

#: Seeds at the edges of CPython's seeding: one 32-bit key word or two, and
#: negative seeds, which make_rng masks to 64 bits.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**40) - 3)
#: First run indices of batch chunks: both sides of run_batch's chunk
#: boundary, and indices whose 8 big-endian bytes reach the top word.
RUN_INDICES = (0, CHUNK_RUNS - 2, CHUNK_RUNS, 255, 2**32 - 2, 2**63 - 5)
#: Dry runs per prediction where a test does not draw the number: one
#: group of 8 seeded streams and one more.
DRY_RUNS = 9
#: Runs per batch chunk: one group of 8 seeded streams and 3 more.
CHUNK = 11
#: A fixed field whose races take about 3,600 ticks: run_race's record, which
#: starts at _kernel._RECORD_ROWS rows and doubles, grows four times.
LONG_TRACK = RaceConfig(
    track_length=2500.0,
    competitors=(
        Competitor("c1", UniformSteps(0.5, 1.5), theta=1.0),
        Competitor("c2", LogNormalSteps(0.0, 0.5), theta=2.0, responsiveness=Responsiveness(1.2)),
        Competitor("c3", UniformSteps(0.8, 1.2), preference=0.2, pref_sensitivity=1.0),
    ),
)
#: LONG_TRACK's seed: c1 is boxed in behind c3 for most of the race.
LONG_SEED = 4


@contextmanager
def python_loop():
    """Within the block, race.engine() finds no kernel and returns PYTHON_LOOP,
    in this process and in process pools forked in it."""
    load = _kernel.load
    _kernel.load = lambda: None
    try:
        yield
    finally:
        _kernel.load = load


def both_ways(fn):
    """(repr of fn() on the kernel, the same on the Python loop).

    An exception stands for its type and message.
    """
    got = []
    for loop in (False, True):
        try:
            if loop:
                with python_loop():
                    got.append(repr(fn()))
            else:
                got.append(repr(fn()))
        except (RaceDivergedError, OverflowError, BatchRunError, ValueError) as exc:
            got.append(f"{type(exc).__name__}: {exc}")
    return tuple(got)


def random_field(rng: random.Random, n: int, length: float) -> RaceConfig:
    """n competitors with mixed step laws, thetas (often 0) and profiles."""
    field = []
    for i in range(n):
        if rng.random() < 0.5:
            lo = rng.uniform(0.5, 10.0)
            steps = UniformSteps(lo, lo + rng.choice((0.0, rng.uniform(0.0, 10.0))))
        else:
            sigma = rng.choice((0.0, rng.uniform(0.0, 1.0)))
            steps = LogNormalSteps(rng.uniform(0.0, 2.5), sigma, rng.uniform(0.5, 3.0))
        # a breakpoint of 0 puts the start line on it
        breakpoint = rng.choice((0.0, 0.5, 1.0, rng.random()))
        resp = Responsiveness(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), breakpoint)
        theta = rng.choice((0.0, 0.5, 5.0, rng.uniform(0.0, 20.0)))
        traits = (rng.random(), rng.uniform(0.0, 2.0), theta, resp)
        field.append(Competitor(f"c{i + 1}", steps, *traits))
    return RaceConfig(track_length=length, competitors=tuple(field), conditions=rng.random())


def mid_race(config: RaceConfig, seed: int, ticks: int):
    """The state after ticks Python ticks from the start, or fewer if all finish."""
    rng = make_rng(seed)
    state = initial_state(config, rng)
    for _ in range(ticks):
        if None not in state.finish_ticks:
            break
        advance_race(state, config, rng)
    return state


def chunk_start(first: int, count: int) -> int:
    """first, moved down where needed so that run first + count - 1 is below 2**63 - 1."""
    return min(first, 2**63 - 1 - count)


def dry_run_seeds(seed: int, d: int) -> list[int]:
    """d seeds from make_rng(seed), each of 64 bits or, at random, below 2**32."""
    rng = make_rng(seed)
    return [rng.getrandbits(rng.choice((32, 64))) for _ in range(d)]


def differences(
    config: RaceConfig, seed: int, ticks: int, first: int = 0, d: int = DRY_RUNS
) -> list[str]:
    """Where the kernel and the Python loop part on this race and seed.

    The dry runs are d continuations of a mid-race state, on
    dry_run_seeds(seed, d); the batch chunk is CHUNK runs from first (see
    chunk_start) with seed as the master.
    """
    problems = []
    state = mid_race(config, seed + 1, ticks)
    seeds = dry_run_seeds(seed, d)
    first = chunk_start(first, CHUNK)
    runs = {
        "run_race": lambda: run_race(config, seed),
        f"win_counts d={d}": lambda: win_counts(state, config, seeds),
        f"runs {first}..": lambda: _race_chunk(config, seed, first, CHUNK),
    }
    for name, fn in runs.items():
        kernel, loop = both_ways(fn)
        if kernel != loop:
            where = f"{name} n={config.n_competitors} seed={seed}"
            problems.append(f"{where}: {kernel[:200]} != {loop[:200]}")
    return problems


def failing_limit(lengths: list[int]) -> int:
    """A tick limit under which races taking lengths[k] ticks, run in order,
    first fail at the first k >= 1 that outlasts every race before it, or
    at k = 0 where there is none."""
    for k in range(1, len(lengths)):
        if lengths[k] > max(lengths[:k]):
            return max(lengths[:k])
    return max(1, lengths[0] - 1)


def with_overflow(config: RaceConfig, state: RaceState, rng: random.Random):
    """config and state with one more competitor, whose lognormal step
    overflows math.exp on some draws (up to about one in three)."""
    steps = LogNormalSteps(rng.uniform(705.0, 709.5), rng.uniform(0.5, 2.0))
    n = config.n_competitors
    config = replace(config, competitors=(*config.competitors, Competitor(f"c{n + 1}", steps)))
    state = replace(
        state,
        positions=[*state.positions, 0.0],
        prev_steps=[*state.prev_steps, 1.0],
        finish_ticks=[*state.finish_ticks, None],
    )
    return config, state


def failure_differences(
    config: RaceConfig, seed: int, ticks: int, first: int, d: int, rng: random.Random
) -> list[str]:
    """Where the kernel and the Python loop part on races that fail.

    run_race, the dry runs and the batch chunk of differences() each run
    under a tick limit failing_limit picks from their lengths on the Python
    loop, and then once more with_overflow.  A chunk is compared by all that
    batch_runs returns: the runs done, their finish ticks and orders, and
    the error.
    """
    state = mid_race(config, seed + 1, ticks)
    seeds = dry_run_seeds(seed, d)
    first = chunk_start(first, CHUNK)
    with python_loop():
        race = run_race(config, seed)
        chunk, _, _ = batch_runs(config, seed, first, CHUNK)
        dry = []
        for s in seeds:
            st = state.clone()
            for _ in race_ticks(config, st, make_rng(s), state.tick + config.tick_limit):
                pass
            dry.append(st.tick - state.tick)
    limits = {
        "run_race": failing_limit([max(race.finish_ticks)]),
        "win_counts": failing_limit(dry),
        "runs": failing_limit([max(t) for t in chunk]),
    }
    problems = []
    overflow = with_overflow(config, state, rng)
    for name, limit in limits.items():
        cases = {f"tick_limit={limit}": (replace(config, tick_limit=limit), state)}
        cases["overflow"] = overflow
        for case, (c, st) in cases.items():
            fn = {
                "run_race": lambda: run_race(c, seed),
                "win_counts": lambda: win_counts(st, c, seeds),
                "runs": lambda: batch_runs(c, seed, first, CHUNK),
            }[name]
            kernel, loop = both_ways(fn)
            if kernel != loop:
                where = f"{name} {case} n={c.n_competitors} seed={seed}"
                problems.append(f"{where}: {kernel[:200]} != {loop[:200]}")
    return problems


def engine_races(eng, config: RaceConfig, seeds: list[int], state, stop: int) -> str:
    """repr of what eng.races returns: the races done, their rows and the error's text."""
    done, ticks, orders, error = eng.races(config, seeds, state, stop)
    n = config.n_competitors
    if error is not None:
        error = f"{type(error).__name__}: {error}"
    return repr((done, list(ticks[: done * n]), list(orders[: done * n]), error))


def engine_record(eng, config: RaceConfig, seed: int) -> str:
    """repr of what eng.record returns: finish ticks, order, blocked steps, snapshots."""
    ticks, order, blocked, snapshots = eng.record(config, seed & MASK64)
    return repr((list(ticks), list(order), blocked, snapshots))


def engine_differences(
    config: RaceConfig, seed: int, ticks: int, d: int, rng: random.Random
) -> list[str]:
    """Where race.engine() and PYTHON_LOOP part, called directly.

    races runs the d seeds of differences() from the primed start and from
    its mid-race state: to the finish, under a stop that failing_limit picks
    from their lengths, so that a race in the middle of the seeds diverges
    where their lengths allow, and once more with_overflow, whose draws can
    overflow in the primer too.  Each call is compared by all that races
    returns, so the count of races done before a failure is compared as
    well, where win_counts raises instead.  record runs one race from the
    start.
    """
    problems, n = [], config.n_competitors
    state = mid_race(config, seed + 1, ticks)
    seeds = dry_run_seeds(seed, d)
    overflow, overflow_state = with_overflow(config, state, rng)
    for name, start, overflow_start in (("the line", None, None), ("mid-race", state, overflow_state)):
        tick = 0 if start is None else start.tick
        full = tick + config.tick_limit
        _, rows, _, _ = PYTHON_LOOP.races(config, seeds, start, full)
        lengths = [max(rows[k : k + n]) - tick for k in range(0, len(rows), n)]
        cases = {
            "finishing": (config, start, full),
            "diverging": (config, start, tick + failing_limit(lengths)),
            "overflowing": (overflow, overflow_start, full),
        }
        for case, (c, st, stop) in cases.items():
            kernel, loop = (engine_races(e, c, seeds, st, stop) for e in (engine(), PYTHON_LOOP))
            if kernel != loop:
                where = f"races from {name}, {case}, n={c.n_competitors} seed={seed}"
                problems.append(f"{where}: {kernel[:200]} != {loop[:200]}")
    kernel, loop = (engine_record(e, config, seed) for e in (engine(), PYTHON_LOOP))
    if kernel != loop:
        problems.append(f"record n={n} seed={seed}: {kernel[:200]} != {loop[:200]}")
    return problems


#: The range of rm_position_lines: 0.0 and [2**-6, 2**53).
LOWEST_POSITION, POSITION_BOUND = 2.0**-6, 2.0**53


def writable(x: float) -> bool:
    """Whether rm_position_lines writes x rather than refusing it."""
    return LOWEST_POSITION <= x < POSITION_BOUND or (x == 0.0 and math.copysign(1.0, x) > 0)


def scaled(x: float) -> tuple[int, int, int, int, bool]:
    """repr_double's scaled product for x in [2**-6, 2**53), in Python ints:
    (v, rem, P, s, lopsided), where x = m * 2**e, x has k integer digits,
    P = 10**(17 - k), s = 2 - e, and 4m * P = v * 2**s + rem."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    m, e = bits & (2**52 - 1) | 2**52, (bits >> 52) - 1075
    k = -1
    while Fraction(x) >= Fraction(10) ** k:
        k += 1
    p, s = 10 ** (17 - k), 2 - e
    v, rem = divmod(4 * m * p, 2**s)
    return v, rem, p, s, m == 2**52


def borrow(x: float) -> int:
    """The units repr_double's lower bound takes from v: 0 unless rem < D."""
    _, rem, p, s, lopsided = scaled(x)
    d = (1 if lopsided else 2) * p
    return 0 if rem >= d else -((rem - d) // 2**s)


def borrowing_positions(rng: random.Random) -> list[float]:
    """In each binade of the range, up to two values whose lower bound borrows
    no unit from v, one, and several, from random mantissas: a borrow of
    one is possible only where the scaled bounds lie within 2 of the scaled
    value, and of several only where they lie beyond 1."""
    values = []
    for e in range(-58, 1):
        found: dict[int, list[float]] = {0: [], 1: [], 2: []}
        for _ in range(64):
            x = (2**52 + rng.randrange(1, 2**52)) * 2.0**e
            kept = found[min(borrow(x), 2)]
            if len(kept) < 2:
                kept.append(x)
        values += chain.from_iterable(found.values())
    return values


def edge_positions() -> list[float]:
    """Values on and around the edges of the digit routine and of its range."""
    values = [0.0, -0.0, -1.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16, 1e300]
    values += [math.nan, -math.nan, math.inf, -math.inf]
    # each binade's first value, whose integer digits the routine estimates
    # and whose nearer lower bound (a power of two's) borrows only half as
    # far, and the doubles on either side of each power of ten, where the
    # estimate of a binade holding one is one digit short and corrected
    edges = [2.0**e for e in range(-8, 56)] + [float(f"1e{k}") for k in range(-3, 18)]
    for p in edges:
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    # exactly: the last double below each 10**k in the range and the first at
    # or above it
    for k in range(-1, 16):
        first = float(Fraction(10) ** k)
        if Fraction(first) < Fraction(10) ** k:
            first = math.nextafter(first, math.inf)
        values += [math.nextafter(first, 0.0), first]
    values += borrowing_positions(random.Random(26))
    values += [float(k) for k in range(1001)] + [POSITION_BOUND - k for k in range(1, 100)]
    for q in (8, 10, 1000):
        values += [k / q for k in range(1, 20 * q + 1)]
    # digits that end at the last integer digit or the first fraction digit
    values += [k + 0.5 for k in range(1001)] + [2.0**52 - 0.5, 2.0**52 + 0.5]
    values += [999.9999999999999, 9999.999999999998]
    # bounds that scale to exact integers: halves from 2**51 (even mantissas
    # for the integers, odd for the rest) and integers from 2**52 (both)
    values += [2.0**51 + k / 2 for k in range(64)] + [2.0**52 + k for k in range(64)]
    # odd and even integers across [2**51, 2**53), with an odd step
    values += [float(i) for i in range(2**51, 2**53, 2**44 + 1)]
    # quarters from 2**50 have 18 digits, the last a 5: ties between the two
    # 17-digit neighbours, which repr breaks to the even one
    values += [2.0**50 + k / 4 for k in range(1, 64, 2)]
    return values


def random_positions(rng: random.Random, count: int) -> list[float]:
    """count floats from uniform bit patterns over the range and one binade
    either side of it, a sixteenth of them negated, then count // 2 more
    uniform in [0, 3000], where a race's positions lie."""
    def bits(x: float) -> int:
        return struct.unpack("<q", struct.pack("<d", x))[0]

    lo, hi = bits(LOWEST_POSITION) - 2**52, bits(POSITION_BOUND) + 2**52
    values = []
    for _ in range(count):
        x = struct.unpack("<d", struct.pack("<q", rng.randrange(lo, hi)))[0]
        values.append(-x if rng.random() < 1 / 16 else x)
    return values + [rng.uniform(0.0, 3000.0) for _ in range(count // 2)]


def repr_differences(values: list[float]) -> list[str]:
    """Where rm_position_lines parts from float.__repr__ on values: a line
    that is not f"{tick},{x!r}\\r\\n", or a value outside the range it wrote.

    The values in the range are one snapshots array of one competitor,
    written in chunks of 4096 ticks; each value outside is its own.
    """
    kernel = _kernel.load()
    outside = [x for x in values if not writable(x)]
    problems = [
        f"wrote {x!r}, outside its range"
        for x in outside
        if kernel.position_lines([","], array("d", [x]))(0, 1) is not None
    ]
    inside = array("d", [x for x in values if writable(x)])
    lines = kernel.position_lines([","], inside)
    for start in range(0, len(inside), 4096):
        chunk = inside[start : start + 4096]
        got = lines(start, len(chunk))
        want = [f"{tick},{x!r}" for tick, x in enumerate(chunk, start)]
        if got != "".join(w + "\r\n" for w in want).encode():
            written = [None] * len(want)
            if got is not None:  # a wrong digit can be any byte
                written = bytes(got).decode(errors="replace").split("\r\n")
            x, g, w = next((x, g, w) for x, g, w in zip(chunk, written, want) if g != w)
            problems.append(f"{x!r} written as {g!r}, not {w!r}")
    return problems


def main(argv: list[str]) -> int:
    if _kernel.load() is None:
        print("kernel_parity: the race kernel did not load", file=sys.stderr)
        return 1
    cases = int(argv[0]) if argv else 200
    rng = random.Random(20260818)
    checked = 0
    for k in range(cases):
        n = rng.choice((1, 2, 5, rng.randint(1, 40), 160 if k % 20 == 0 else 8))
        config = random_field(rng, n, rng.uniform(10.0, 120.0))
        seed = EDGE_SEEDS[k] if k < len(EDGE_SEEDS) else rng.getrandbits(64)
        ticks, first, d = rng.randint(0, 30), rng.choice(RUN_INDICES), rng.randint(1, 20)
        problems = differences(config, seed, ticks, first, d)
        problems += failure_differences(config, seed, ticks, first, d, rng)
        problems += engine_differences(config, seed, ticks, d, random.Random(k))
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        checked += 1
    config, n = LONG_TRACK, LONG_TRACK.n_competitors
    problems = differences(config, LONG_SEED, 40)
    problems += failure_differences(config, LONG_SEED, 40, 0, DRY_RUNS, random.Random(LONG_SEED))
    problems += engine_differences(config, LONG_SEED, 40, DRY_RUNS, random.Random(LONG_SEED))
    if len(run_race(config, LONG_SEED).snapshots) <= 8 * _kernel._RECORD_ROWS * n:
        problems.append("LONG_TRACK's race no longer grows its record four times")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    checked += 1
    values = edge_positions() + random_positions(rng, 1000 * cases)
    problems = repr_differences(values)
    if problems:
        print("\n".join(problems[:20]), file=sys.stderr)
        return 1
    version = sys.version.split()[0]
    print(f"kernel_parity: {checked} races and {len(values)} positions equal on Python {version}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
