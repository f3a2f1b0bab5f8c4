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
KERNEL_PY = "src/racemarket/_kernel.py"
AGENTS = "src/racemarket/agents.py"
EXCHANGE = "src/racemarket/exchange.py"
RACE = "src/racemarket/race.py"
SEEDING = "src/racemarket/seeding.py"
SESSION = "src/racemarket/session.py"
WRITERS = "src/racemarket/writers.py"
#: kernel_parity.py with 20 random races, which checks rm_position_lines on
#: its edge values and 30k random positions.
PARITY = ("tests/kernel_parity.py", "20")
GROWTHS = "tests/test_race_oracle.py::test_snapshots_across_record_growths_equal_python_loop"
SEEDS_LIKE_DERIVE_SEED = "tests/test_race_oracle.py::test_batch_chunk_derives_seeds_like_derive_seed"
SAME_VIEW = "tests/test_agents.py::test_race_view_predictors_reuse_a_result_only_for_the_same_view"
FUNDS = "tests/test_agents.py::test_decide_respects_funds"
TICK_LIMIT = (
    "tests/test_race_oracle.py::test_a_continuation_diverges_exactly_tick_limit_ticks_after_its_start"
)
CACHED_VIEWS = "tests/test_exchange.py::test_self_check_audits_the_cached_views"
GROUPS_ON_ONE_VIEW = (
    "tests/test_session.py::test_groups_of_one_strategy_get_their_own_predictions_on_one_view"
)
CHECKED = "tests/test_config.py::test_a_checked_config_cannot_be_built_invalid"
PROGRAMMING_ERROR = (
    "tests/test_batch.py::test_a_programming_error_in_the_python_loop_reaches_the_caller_as_itself"
)


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
        "((below == 5) & (more | (int)(v & 1)))",
        "(below == 5)",
        (PARITY,),
    ),
    Mutant(
        "repr_double's upper bound drops the carry out of the bits shifted out",
        KERNEL,
        "vp = v + (up >> shift)",
        "vp = v",
        (PARITY,),
    ),
    Mutant(
        "repr_double's lower bound borrows one unit too few",
        KERNEL,
        "uint64_t vm = v - borrow,",
        "uint64_t vm = v - borrow + (borrow != 0),",
        (PARITY,),
    ),
    Mutant(
        "repr_double writes the low eight digits' pairs in reverse order",
        KERNEL,
        "            p -= 2;\n            memcpy(p, DIGIT_PAIRS + 2 * (low % 100), 2);",
        "            p -= 2;\n            memcpy(out + nd - 8 + 2 * j, DIGIT_PAIRS + 2 * (low % 100), 2);",
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
        "more = (rem * 10 & mask) != 0;",
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
        (pytest(CACHED_VIEWS),),
    ),
    Mutant(
        "the book keeps a cached grid row when the last level it shows changes",
        EXCHANGE,
        "if odds < last if side == BACK else odds > last:",
        "if odds <= last if side == BACK else odds >= last:",
        (pytest("tests/test_exchange_oracle.py::test_reference_equivalence_randomized"),),
    ),
    Mutant(
        "a touch drops the grid side it did not reach and keeps the one it did",
        EXCHANGE,
        "        sides[side] = None\n",
        "        sides[BACK if side == LAY else LAY] = None\n",
        (pytest("tests/test_exchange.py::test_market_grid_rebuilds_only_the_changed_side"),),
    ),
    Mutant(
        "Account.reserve refuses a bet that needs exactly the free balance",
        EXCHANGE,
        "if amount > self.balance:",
        "if amount >= self.balance:",
        (pytest(FUNDS),),
    ),
    Mutant(
        "a lay escrows its liability floored to a cent, not ceiled",
        EXCHANGE,
        "return -((-amount * (odds - 100)) // 100)",
        "return amount * (odds - 100) // 100",
        (pytest("tests/test_exchange.py::test_escrow_holds_a_back_stake_and_a_lay_liability"),),
    ),
    Mutant(
        "a bettor places no order that needs exactly its free balance",
        AGENTS,
        "if escrow(order.side, order.stake, order.odds) <= obs.balance:",
        "if escrow(order.side, order.stake, order.odds) < obs.balance:",
        (pytest(FUNDS),),
    ),
    Mutant(
        "linex bettors share a race-view prediction whatever their windows",
        AGENTS,
        'self.view_key = ("linex", self.window_ticks)',
        'self.view_key = ("linex",)',
        (pytest(SAME_VIEW),),
    ),
    Mutant(
        "ud bettors share a race-view prediction whatever their gap thresholds",
        AGENTS,
        'self.view_key = ("ud", params.gap_threshold)',
        'self.view_key = ("ud",)',
        (pytest(SAME_VIEW),),
    ),
    Mutant(
        "a session keeps one predictions dict for all its race views",
        SESSION,
        "                {},\n",
        '                self.__dict__.setdefault("_predictions", {}),\n',
        (pytest(GROUPS_ON_ONE_VIEW),),
    ),
    Mutant(
        "a grid snapshot reuses a competitor's payload row after the book rebuilt the row",
        SESSION,
        "if last is None or last[0] is not row:",
        "if last is None:",
        (pytest("tests/test_session.py::test_grid_snapshots_share_the_rows_the_book_kept"),),
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
        "check_views compares the level totals by their count only",
        EXCHANGE,
        "if self._totals[cid][side] != totals:",
        "if len(self._totals[cid][side]) != len(totals):",
        (pytest(CACHED_VIEWS),),
    ),
    Mutant(
        "check_views checks only the cached back sides",
        EXCHANGE,
        "if shown is not None and shown != levels:",
        "if side == BACK and shown is not None and shown != levels:",
        (pytest(CACHED_VIEWS),),
    ),
    Mutant(
        "check_views compares only the lays of a cached grid row",
        EXCHANGE,
        "if row is not None and row != recount:",
        "if row is not None and row.lays != recount.lays:",
        (pytest(CACHED_VIEWS),),
    ),
    Mutant(
        "check_no_cross lets a single crossed level through",
        EXCHANGE,
        """            if crossed:
                raise AssertionError(f"crossed book""",
        """            if len(crossed) > 1:
                raise AssertionError(f"crossed book""",
        (pytest("tests/test_exchange.py::test_no_cross_check_fires_on_a_forced_cross"),),
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
        "the Python engine orders each race's finishers by index",
        RACE,
        "orders += _finish_order(race, config)",
        "orders += range(config.n_competitors)",
        (pytest(f"{SEEDS_LIKE_DERIVE_SEED}[1-255]"),),
    ),
    Mutant(
        "the Python engine counts the race that failed among the races done",
        RACE,
        "return done, ticks, orders, exc",
        "return done + 1, ticks, orders, exc",
        (pytest("tests/test_race_oracle.py::test_engines_agree_on_races_called_directly[1]"),),
    ),
    Mutant(
        "the Python engine reports any exception as a failed race",
        RACE,
        "except (RaceDivergedError, OverflowError, MemoryError) as exc:",
        "except Exception as exc:",
        (pytest(f"{PROGRAMMING_ERROR}[1]"),),
    ),
    Mutant(
        "the Python loop counts a race's tick limit from tick 0, not from its start",
        RACE,
        "stop = state.tick + config.tick_limit",
        "stop = config.tick_limit",
        (pytest(f"{TICK_LIMIT}[4]"),),
    ),
    Mutant(
        "the kernel counts a continuation's tick limit from tick 0, not from its start",
        KERNEL_PY,
        "            stop += state.tick\n",
        "",
        (pytest(f"{TICK_LIMIT}[4]"),),
    ),
    Mutant(
        "win_counts counts each continuation's last finisher as its winner",
        RACE,
        "for winner in orders[::n]:",
        "for winner in orders[n - 1 :: n]:",
        (pytest("tests/test_race_oracle.py::test_dry_run_winner_by_overshoot_then_index"),),
    ),
    Mutant(
        "AgentParams is built without its check",
        AGENTS,
        "class AgentParams(Checked):",
        "class AgentParams:",
        (pytest(f"{CHECKED}[AgentParams.gamma]"),),
    ),
    Mutant(
        "check_master_seed lets 2**64 through",
        SEEDING,
        "if seed > MASK64:",
        "if seed > MASK64 + 1:",
        (pytest(f"{CHECKED}[ExperimentConfig.seed=18446744073709551616]"),),
    ),
    Mutant(
        "a race from the primed start draws from its stream as it was before the primer drew",
        KERNEL,
        "*status = prime(runners, n, nv_magic, pos, pos + n, finish, counters, mt, &f);",
        "*status = prime(runners, n, nv_magic, pos, pos + n, finish, counters, mt, &f);"
        " lane_out(mt, lanes, (int)(k % LANES));",
        (pytest("tests/test_golden.py::test_wide_field_race_trajectory"),),
    ),
    Mutant(
        "batch_runs keeps one tuple per run, not one per distinct row",
        RACE,
        "return [shared.setdefault(row, row) for row in zip(*[iter(values)] * n)]",
        "return list(zip(*[iter(values)] * n))",
        (pytest("tests/test_batch.py::test_race_batch_results_are_built_when_read"),),
    ),
    Mutant(
        "a recorded race leaves its primed start out of its rows",
        KERNEL,
        """        if (*status == RM_FINISHED && record && !record_row(record, pos, n))
            *status = RM_NO_MEMORY;
""",
        "",
        (pytest("tests/test_golden.py::test_wide_field_race_trajectory"),),
    ),
    Mutant(
        "a recorded race does not hand back its blocked steps",
        KERNEL,
        "record->blocked = counters[1];",
        "record->blocked = 0;",
        (pytest("tests/test_race_oracle.py::test_kernel_field_sizes[160]"),),
    ),
    Mutant(
        "a record writes each row after its first growth at the wrong offset",
        KERNEL,
        "memcpy(r->rows + (size_t)(r->count++ * n),",
        "memcpy(r->rows + (size_t)(r->count++ % RECORD_ROWS * n),",
        (pytest(GROWTHS),),
    ),
    Mutant(
        "rm_run_seeds hashes the run tag s:rum",
        KERNEL,
        "{'s', ':', 'r', 'u', 'n'}",
        "{'s', ':', 'r', 'u', 'm'}",
        (pytest(f"{SEEDS_LIKE_DERIVE_SEED}[1-255]"),),
    ),
    Mutant(
        "rm_run_seeds hashes a run index's bytes little-endian",
        KERNEL,
        "(unsigned char)(i >> (56 - 8 * b))",
        "(unsigned char)(i >> (8 * b))",
        (pytest(f"{SEEDS_LIKE_DERIVE_SEED}[1-255]"),),
    ),
    Mutant(
        "by_place ranks a smaller overshoot first",
        KERNEL,
        "return a->back < b->back ? -1 : 1;",
        "return a->back > b->back ? -1 : 1;",
        (pytest("tests/test_race_oracle.py::test_dry_run_winner_by_overshoot_then_index"),),
    ),
    Mutant(
        "rm_races leaves the failing race's row of finish ticks unwritten",
        KERNEL,
        """        if (*status != RM_FINISHED)
            break;
""",
        """        if (*status != RM_FINISHED) {
            memset(finish, 0, sizeof(int64_t) * (size_t)n);
            break;
        }
""",
        (pytest("tests/test_race_oracle.py::test_kernel_divergence_raises_the_loop_message"),),
    ),
    Mutant(
        "seed_columns seeds a 1-word key as a 2-word one",
        KERNEL,
        "add[1][l] = seeds[l] >> 32 ? (uint32_t)(seeds[l] >> 32) + 1 : (uint32_t)seeds[l];",
        "add[1][l] = (uint32_t)(seeds[l] >> 32) + 1;",
        (pytest("tests/test_race_oracle.py::test_kernel_seeds_like_random_seed[1]"),),
    ),
    Mutant(
        "a group of fewer than LANES seeds is padded from one seed fewer than it holds",
        KERNEL,
        "memcpy(padded, group, sizeof(uint64_t) * (size_t)(count - k));",
        "memcpy(padded, group, sizeof(uint64_t) * (size_t)(count - k - 1));",
        (pytest("tests/test_race_oracle.py::test_win_counts_in_seed_groups_equal_simulate_from"),),
    ),
    Mutant(
        "Kernel.races passes a config's runners whatever their length",
        KERNEL_PY,
        """        if len(flat) != _RUNNER_DOUBLES * n:
            raise ValueError(f"a runner is {_RUNNER_DOUBLES} numbers for the kernel")
""",
        "",
        (pytest("tests/test_kernel.py::test_the_kernel_refuses_buffers_of_the_wrong_size"),),
    ),
    Mutant(
        "a trajectory takes the field order as its finish order",
        RACE,
        "tuple(map(ids.__getitem__, order))",
        "ids",
        (pytest("tests/test_golden.py::test_quoted_ids_race_outputs"),),
    ),
    Mutant(
        "lane_out hands a race the stream of lane ^ 1",
        KERNEL,
        "mt[i] = lanes[i][lane];",
        "mt[i] = lanes[i][lane ^ 1];",
        (pytest("tests/test_race_oracle.py::test_kernel_seeds_like_random_seed[1]"),),
    ),
    Mutant(
        "the csv id rule writes an id holding a carriage return as it is",
        WRITERS,
        """re.compile('[",\\r\\n\\0]')""",
        """re.compile('[",\\n\\0]')""",
        (pytest("tests/test_writers.py::test_csv_field_matches_csv_writer_on_awkward_ids"),),
    ),
    Mutant(
        "the csv id rule writes an id holding a comma as it is",
        WRITERS,
        """re.compile('[",\\r\\n\\0]')""",
        """re.compile('["\\r\\n\\0]')""",
        (pytest("tests/test_writers.py::test_csv_field_matches_csv_writer_on_awkward_ids"),),
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
        "an odds list's sentiment.csv block leaves out its leading empty part, so its first line has no prefix",
        WRITERS,
        'return ["", *(f"{cid},{float(o)!r}\\r\\n" for cid, o in zip(cids, odds))]',
        'return [*(f"{cid},{float(o)!r}\\r\\n" for cid, o in zip(cids, odds))]',
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
        "a grid row is written by json.dumps with its default separators",
        WRITERS,
        "_by_identity(row, objects, _EVENT_ENCODER.encode)",
        "_by_identity(row, objects, json.dumps)",
        (pytest("tests/test_writers.py::test_shared_grid_rows_match_the_encoder"),),
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
