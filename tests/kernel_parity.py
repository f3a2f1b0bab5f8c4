"""The C race kernel against the Python loop, with the standard library only.

Runs run_race (trajectory recorded), win_counts from mid-race states, and
chunks of batch runs on random fields, once through the C kernel and once
through race_ticks, and compares the results by repr, which tells every
float bit apart.  run_race primes its race in Python and hands the stream
to rm_run.  A batch chunk is one rm_races call from the primed start on the
seeds rm_run_seeds derives, and a win_counts call is one rm_races call from
a mid-race state; on the Python loop they are derive_seed with run_race,
and simulate_from.  rm_races seeds its streams in groups of 8, so a case
draws its number of dry runs from 1 to 20, mixes seeds below 2**32 (a
1-word key) into them, and runs chunks of 11: every case fills some group
partly and many fill a second.
It needs no pytest, so it checks the kernel on any interpreter whose random
module it must match:

    PYTHONPATH=src python tests/kernel_parity.py [cases]

Exits 1 on the first difference, or when the kernel did not load.
test_race_oracle.py imports the helpers.
"""

import random
import sys
from contextlib import contextmanager

from racemarket import _kernel
from racemarket.batch import CHUNK_RUNS, BatchRunError, _race_chunk
from racemarket.race import (
    Competitor,
    LogNormalSteps,
    RaceConfig,
    RaceDivergedError,
    Responsiveness,
    UniformSteps,
    advance_race,
    initial_state,
    run_race,
    win_counts,
)
from racemarket.seeding import make_rng

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


@contextmanager
def python_loop():
    """Within the block, race.py finds no kernel."""
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
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        checked += 1
    print(f"kernel_parity: {checked} races equal on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
