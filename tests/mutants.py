"""Standing mutation checks: each mutant must make one of its tests fail.

A mutant names a file, an exact text in it, the text that replaces it, and
the test commands that must catch it.  For each mutant the script copies the
tree's src/, tests/ and configs/ into a temporary directory, applies the
mutant there, and runs its commands against the copy.  The race kernel's
library is named by a digest of its source, so a kernel mutant is built
inside the copy.  A mutant is caught when one of its commands exits nonzero.
The script fails when a mutant survives, when its text is no longer found
exactly once (so the list cannot rot silently), when a mutated kernel does
not build, or when a command fails on the unmutated copy.  Standard library
only:

    python tests/mutants.py

Exits 1 on any of those, and 0 when every mutant was caught.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: What a copy holds: the package, the tests and the configs they read.
COPIED = ("src", "tests", "configs")
KERNEL = "src/racemarket/_kernel.c"
EXCHANGE = "src/racemarket/exchange.py"
RACE = "src/racemarket/race.py"
SESSION = "src/racemarket/session.py"
WRITERS = "src/racemarket/writers.py"
#: kernel_parity.py with 20 random races, which checks rm_position_lines on
#: its edge values and 30k random positions.
PARITY = ("tests/kernel_parity.py", "20")


def pytest(*ids: str) -> tuple[str, ...]:
    """A command that runs the named tests and stops at the first failure."""
    return ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids)



class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    text: str  # found exactly once in file
    replacement: str
    tests: tuple[tuple[str, ...], ...]  # commands, each run as python <command>


MUTANTS = (
    Mutant(
        "repr_double rounds a tie up, not to the even digit",
        KERNEL,
        "(below == 5 && (more || v % 2))",
        "below == 5",
        (PARITY,),
    ),
    Mutant(
        "repr_double drops the correction of its integer-digit estimate",
        KERNEL,
        "if (v >= POW10[REPR_DIGITS]) {",
        "if (0) {",
        (PARITY,),
    ),
    Mutant(
        "repr_double never takes the one multiple of 100 between its bounds",
        KERNEL,
        "if (vp / 100 * 100 >= vm) {",
        "if (0) {",
        (PARITY,),
    ),
    Mutant(
        "repr_double never takes off a digit to a multiple of 10 between its bounds",
        KERNEL,
        "if (vp / 10 * 10 >= vm) {",
        "if (0) {",
        (PARITY,),
    ),
    Mutant(
        "repr_double keeps the bits shifted out of v out of its rounding",
        KERNEL,
        "more = (rem * 10 & ((1ULL << shift) - 1)) != 0;",
        "more = 0;",
        (PARITY,),
    ),
    Mutant(
        "the book keeps a resting bet's open-bet view when another bettor part-fills it",
        EXCHANGE,
        "self._open[resting.bettor_id][resting.bet_id] = _view(resting)",
        "pass",
        (pytest("tests/test_exchange.py::test_open_bets_follow_partial_fills_by_other_bettors"),),
    ),
    Mutant(
        "check_views compares the open-bet views by id only",
        EXCHANGE,
        "open_bets[bet.bettor_id].append(_view(bet))",
        "open_bets[bet.bettor_id].append(self._open[bet.bettor_id].get(bet.bet_id))",
        (pytest("tests/test_exchange.py::test_self_check_audits_the_cached_views"),),
    ),
    Mutant(
        "the book keeps a cached grid row when the last level it shows changes",
        EXCHANGE,
        "if odds < last if side == BACK else odds > last:",
        "if odds <= last if side == BACK else odds >= last:",
        (pytest("tests/test_exchange_oracle.py::test_reference_equivalence_randomized"),),
    ),
    Mutant(
        "the wake heap is keyed (time, -index), so tied wakes run highest index first",
        SESSION,
        """            time, i = wakes[0]
            self._wake(time, i)
            heapq.heapreplace(wakes, (next(iters[i]), i))""",
        """            wakes[:] = [(t, -abs(j)) for t, j in wakes]
            heapq.heapify(wakes)
            time, i = wakes[0]
            i = -i
            self._wake(time, i)
            heapq.heapreplace(wakes, (next(iters[i]), -i))""",
        (pytest("tests/test_session.py::test_session_wakes_follow_wake_schedule"),),
    ),
    Mutant(
        "the sentiment memo returns the first odds list it stored, whatever the prediction",
        SESSION,
        "odds = self._sentiment.get(prediction)",
        "odds = next(iter(self._sentiment.values()), None)",
        (pytest("tests/test_golden.py::test_derby_session_outputs"),),
    ),
    Mutant(
        "check_accounts lets a negative balance through",
        EXCHANGE,
        "if acct.balance < 0 or acct.reserved < 0:",
        "if acct.reserved < 0:",
        (pytest("tests/test_exchange.py::test_self_check_audits_the_accounts"),),
    ),
    Mutant(
        "check_accounts lets a negative reservation through",
        EXCHANGE,
        "if acct.balance < 0 or acct.reserved < 0:",
        "if acct.balance < 0:",
        (pytest("tests/test_exchange.py::test_self_check_audits_the_accounts"),),
    ),
    Mutant(
        "check_accounts misses an account that reserves less than its bets",
        EXCHANGE,
        "if acct.reserved != held[bettor_id]:",
        "if acct.reserved > held[bettor_id]:",
        (pytest("tests/test_exchange.py::test_self_check_audits_the_accounts"),),
    ),
    Mutant(
        "batch_runs without the kernel orders each run's finishers by index",
        RACE,
        "orders.append(tuple(map(ids.__getitem__, _finish_order(state, config))))",
        "orders.append(ids)",
        (pytest("tests/test_race_oracle.py::test_batch_chunk_derives_seeds_like_derive_seed"),),
    ),
    Mutant(
        "run_race hands the kernel the stream as it was before initial_state drew from it",
        RACE,
        "state, rng.getstate()[1],",
        "state, make_rng(seed).getstate()[1],",
        (pytest("tests/test_golden.py::test_wide_field_race_trajectory"),),
    ),
    Mutant(
        "an event template writes a float slot with %d",
        WRITERS,
        'float: ("%s", "floats[{v}]",',
        'float: ("%d", "{v}",',
        (pytest("tests/test_writers.py::test_events_jsonl_matches_the_encoder"),),
    ),
    Mutant(
        "an event template writes a non-finite float",
        WRITERS,
        '"type({v}) is not float or not -inf < {v} < inf"',
        '"type({v}) is not float"',
        (pytest("tests/test_writers.py::test_events_jsonl_matches_the_encoder"),),
    ),
    Mutant(
        "an event template writes an event whose keys are out of order",
        WRITERS,
        """    if tuple(event) != keys:
        raise ValueError
""",
        "",
        (pytest("tests/test_writers.py::test_events_jsonl_matches_the_encoder"),),
    ),
    Mutant(
        "the float memo keeps zeros, so -0.0 is written as 0.0 after it",
        WRITERS,
        """        if x:
            self[x] = text""",
        "        self[x] = text",
        (pytest("tests/test_writers.py::test_events_jsonl_memos_span_chunks"),),
    ),
    Mutant(
        "write_sentiment_csv reuses a line prefix for an equal time, not the same one",
        WRITERS,
        "if t is not time or b is not bettor:",
        "if t != time or b != bettor:",
        (pytest("tests/test_writers.py::test_sentiment_csv_matches_csv_writer"),),
    ),
    Mutant(
        "an object value is written by json.dumps with its default separators",
        WRITERS,
        '"encode": _EVENT_ENCODER.encode,',
        '"encode": json.dumps,',
        (pytest("tests/test_writers.py::test_events_jsonl_matches_the_encoder"),),
    ),
    Mutant(
        "the identity memo returns its first entry for any value",
        WRITERS,
        "hit = objects.get(id(value))",
        "hit = next(iter(objects.values()), None)",
        (pytest("tests/test_writers.py::test_shared_grid_rows_match_the_encoder"),),
    ),
)


def copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        shutil.copytree(ROOT / name, into / name, ignore=ignore)


def run(command: tuple[str, ...], tree: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *command],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )


def apply(mutant: Mutant, tree: Path) -> str | None:
    """Replaces mutant.text in the copy; the problem, or None when applied."""
    path = tree / mutant.file
    source = path.read_text()
    found = source.count(mutant.text)
    if found != 1:
        return f"its text is found {found} times in {mutant.file}, not once"
    path.write_text(source.replace(mutant.text, mutant.replacement))
    return None


def check(mutant: Mutant) -> str | None:
    """The problem with mutant, or None when one of its tests caught it."""
    with tempfile.TemporaryDirectory(prefix="racemarket-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        problem = apply(mutant, tree)
        if problem:
            return problem
        for command in mutant.tests:
            done = run(command, tree)
            if "race kernel build failed" in done.stderr:
                return "the mutated kernel does not build"
            if done.returncode != 0:
                first = (done.stderr.strip() or done.stdout.strip()).splitlines()[:1]
                print(f"  caught by {' '.join(command)} (exit {done.returncode}): {first}")
                return None
    return "survived every test"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="racemarket-mutant-") as tmp:
        copy_tree(Path(tmp))
        for command in dict.fromkeys(c for m in MUTANTS for c in m.tests):
            done = run(command, Path(tmp))
            if done.returncode != 0:
                print(f"mutants: {' '.join(command)} fails with no mutant:", file=sys.stderr)
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
    for mutant in MUTANTS:
        print(f"{mutant.name}:")
        problem = check(mutant)
        if problem:
            print(f"  FAILED: {problem}")
            failed += 1
    print(f"mutants: {len(MUTANTS) - failed} of {len(MUTANTS)} caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
