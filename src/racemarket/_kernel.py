"""Build, load and call the C race kernel, ``_kernel.c`` beside this file.

The library is compiled on first use with sysconfig's ``CC`` into
``__pycache__`` beside the source, under a name made from a digest of the
source and the compile command, so an edit to either builds a new one.
Where ``__pycache__`` is not writable it is built in a private temporary
directory instead.  A build writes to a temporary name and then renames it
into place, so processes building at once each load a whole library.
"""

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
import warnings
from contextlib import suppress
from functools import cache
from itertools import chain
from pathlib import Path
from random import NV_MAGICCONST

SOURCE = Path(__file__).with_name("_kernel.c")
#: No fast-math and no fused multiply-add: every double as in Python.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Numbers per race._compile runner, RUNNER in the C source.
_RUNNER_DOUBLES = 10
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MAX_TICK = 2**63 - 1
#: A snapshot buffer holds about this many positions; longer races refill it.
_SNAPSHOT_DOUBLES = 1 << 14

# the kernel's status codes
_FINISHED, _BUDGET_SPENT, _DIVERGED, _OVERFLOW, _NO_MEMORY = range(5)

_doubles = ctypes.POINTER(ctypes.c_double)
_int64s = ctypes.POINTER(ctypes.c_int64)
_int32s = ctypes.POINTER(ctypes.c_int32)
_words = ctypes.POINTER(ctypes.c_uint32)
_seeds = ctypes.POINTER(ctypes.c_uint64)


def compile_command() -> list[str] | None:
    """sysconfig's CC plus FLAGS, or None when that compiler is not on PATH."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        return None
    return [*cc, *FLAGS]


def library_name(command: list[str]) -> str:
    digest = hashlib.sha256(SOURCE.read_bytes() + "\0".join(command).encode()).hexdigest()
    return f"_kernel-{digest[:16]}.so"


def build(command: list[str], directory: Path) -> Path:
    """The library built by command in directory, compiled unless it is there."""
    path = directory / library_name(command)
    if path.exists():
        return path
    # the compiler creates tmp, with the mode the umask gives
    tmp = directory / f".{path.stem}-{os.getpid()}-{threading.get_ident()}.so"
    try:
        done = subprocess.run(
            [*command, "-o", tmp, str(SOURCE), "-lm"], capture_output=True, text=True
        )
        if done.returncode != 0:
            raise RuntimeError(f"race kernel build failed: {done.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


_LOAD_LOCK = threading.Lock()


def load() -> "Kernel | None":
    """The kernel, built on the first call; None without a compiler.

    Threads that call at once wait for the first call's build: cache alone
    would run it in each, and one reading sysconfig while another fills it
    in finds no CC.
    """
    with _LOAD_LOCK:
        return _load()


@cache
def _load() -> "Kernel | None":
    command = compile_command()
    if command is None:
        # _load <- load <- race.load_kernel <- a race.py entry point (or
        # run_batch): the warning names the code that called that
        warnings.warn(
            "no C compiler found; races run in the Python loop", RuntimeWarning, stacklevel=5
        )
        return None
    pycache = SOURCE.parent / "__pycache__"
    with suppress(OSError):
        pycache.mkdir(exist_ok=True)
    built = pycache / library_name(command)
    if built.exists() or (pycache.is_dir() and os.access(pycache, os.W_OK)):
        return Kernel(ctypes.CDLL(str(build(command, pycache))))
    private = Path(tempfile.mkdtemp(prefix="racemarket-kernel-"))
    try:
        # a loaded library stays mapped once its file is gone
        return Kernel(ctypes.CDLL(str(build(command, private))))
    finally:
        shutil.rmtree(private)


def _rows(values: list, n: int) -> list[tuple]:
    """values cut into tuples of n, in order: zip over one iterator n times."""
    return list(zip(*[iter(values)] * n))


def _failure(status: int, finish, diverged) -> Exception:
    """The error of a race the kernel stopped with status, as the Python loop raises it.

    finish is the race's finish ticks (-1 while racing); diverged(finished)
    words a divergence with the number of finished competitors.
    """
    if status == _DIVERGED:
        return diverged(sum(t >= 0 for t in finish))
    if status == _OVERFLOW:
        return OverflowError("math range error")
    return MemoryError("race kernel scratch")


class Kernel:
    """rm_run, rm_batch and rm_wins of one loaded library, on RaceState and _compile data.

    Each call works in its own memory, so threads may share a Kernel.
    """

    def __init__(self, lib: ctypes.CDLL):
        self._run = lib.rm_run
        self._run.argtypes = (
            _doubles,  # runners
            ctypes.c_int,  # n
            ctypes.c_double,  # length
            ctypes.c_double,  # nv_magic
            ctypes.c_uint64,  # seed
            ctypes.c_int,  # prime
            _doubles,  # floats
            _int64s,  # ints
            _words,  # mt
            ctypes.c_int64,  # stop
            ctypes.c_int64,  # budget
            _doubles,  # snapshots
        )
        self._run.restype = ctypes.c_int
        self._batch = lib.rm_batch
        self._batch.argtypes = (
            _doubles,  # runners
            ctypes.c_int,  # n
            ctypes.c_double,  # length
            ctypes.c_double,  # nv_magic
            ctypes.c_uint64,  # master
            ctypes.c_int64,  # first
            ctypes.c_int64,  # count
            ctypes.c_int64,  # stop
            _int64s,  # ticks_out
            _int32s,  # order_out
            _int64s,  # failed_index
        )
        self._batch.restype = ctypes.c_int
        self._wins = lib.rm_wins
        self._wins.argtypes = (
            _doubles,  # runners
            ctypes.c_int,  # n
            ctypes.c_double,  # length
            ctypes.c_double,  # nv_magic
            _seeds,  # seeds
            ctypes.c_int64,  # d
            _doubles,  # floats
            _int64s,  # ints
            ctypes.c_int64,  # stop
            _int64s,  # wins
        )
        self._wins.restype = ctypes.c_int
        # the last runners flattened: a dry-run predictor runs one config many times
        self._last = (None, None)

    def _flat(self, runners):
        """runners as one C array of doubles, kept for the next call with the same tuple."""
        last = self._last
        if last[0] is runners:
            return last[1]
        values = tuple(chain.from_iterable(runners))
        if len(values) != _RUNNER_DOUBLES * len(runners):
            raise ValueError(f"a runner is {_RUNNER_DOUBLES} numbers for the kernel")
        flat = (ctypes.c_double * len(values))(*values)
        self._last = (runners, flat)
        return flat

    @staticmethod
    def _state(state):
        """state as rm_run's floats and ints."""
        n = len(state.positions)
        floats = (ctypes.c_double * (2 * n))(*state.positions, *state.prev_steps)
        finish = [-1 if t is None else t for t in state.finish_ticks]
        ints = (ctypes.c_int64 * (n + 2))(*finish, state.tick, state.blocked_steps)
        return floats, ints

    def run(self, runners, length, state, seed, stop, diverged, snapshots=None):
        """One race into state: initial_state, then race_ticks, both drawing
        from random.Random(seed & 2**64 - 1).

        runners is _compile's output.  Each tick's positions are appended to
        snapshots unless it is None.  Raises the error the Python loop raises
        where it stops: diverged(finished) when the tick reached stop with
        competitors still racing.
        """
        n = len(runners)
        flat = self._flat(runners)
        floats, ints = self._state(state)
        mt = (ctypes.c_uint32 * 625)()
        prime = 1
        stop = min(stop, _MAX_TICK)
        rows, buf = -1, None
        if snapshots is not None:
            rows = max(1, _SNAPSHOT_DOUBLES // n)
            buf = (ctypes.c_double * (rows * n))()
        while True:
            tick = ints[n]
            status = self._run(
                flat, n, length, NV_MAGICCONST, seed & _MASK64, prime, floats, ints, mt, stop,
                rows, buf,
            )
            prime = 0
            if buf is not None:
                rows_done = ints[n] - tick
                snapshots.extend(tuple(buf[k : k + n]) for k in range(0, rows_done * n, n))
            if status != _BUDGET_SPENT:
                break
        state.positions[:] = floats[:n]
        state.prev_steps[:] = floats[n:]
        state.finish_ticks[:] = [None if t < 0 else t for t in ints[:n]]
        state.tick, state.blocked_steps = ints[n], ints[n + 1]
        if status != _FINISHED:
            raise _failure(status, ints[:n], diverged)

    def batch(self, runners, length, master, first, count, stop, diverged):
        """Runs first .. first + count - 1 of a batch on master, in one call.

        Run i is primed and raced on random.Random(derive_seed(master, "run",
        i)) with stop as its tick limit.  Returns (ticks, orders, error):
        each run's finish ticks and finish order (competitor indices) up to
        the first run that failed, and None or that run's error, as the
        Python loop raises it (diverged(finished) for a divergence).
        """
        n = len(runners)
        ticks = (ctypes.c_int64 * (count * n))()
        orders = (ctypes.c_int32 * (count * n))()
        failed = ctypes.c_int64(first + count)
        status = self._batch(
            self._flat(runners), n, length, NV_MAGICCONST, master & _MASK64, first, count,
            min(stop, _MAX_TICK), ticks, orders, ctypes.byref(failed),
        )
        done = (failed.value - first) * n
        error = None
        if status != _FINISHED:
            error = _failure(status, ticks[done : done + n], diverged)
        return _rows(ticks[:done], n), _rows(orders[:done], n), error

    def wins(self, runners, length, state, seeds, stop, diverged) -> list[int]:
        """Wins per competitor over one continuation of state per seed, in one call.

        Continuation k draws from random.Random(seeds[k]) (each below 2**64)
        and runs until the tick reaches stop; state is not changed.  Raises
        the error of the first continuation that fails, as the Python loop
        raises it (diverged(finished) for a divergence).
        """
        n = len(runners)
        floats, ints = self._state(state)
        wins = (ctypes.c_int64 * n)()
        status = self._wins(
            self._flat(runners), n, length, NV_MAGICCONST, (ctypes.c_uint64 * len(seeds))(*seeds),
            len(seeds), floats, ints, min(stop, _MAX_TICK), wins,
        )
        if status != _FINISHED:
            raise _failure(status, ints[:n], diverged)
        return wins[:]
