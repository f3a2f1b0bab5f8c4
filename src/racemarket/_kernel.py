"""Build, load and call the C race kernel, ``_kernel.c`` beside this file.

The library is compiled on first use with sysconfig's ``CC`` into
``__pycache__`` beside the source, under a name made from a digest of the
source and the compile command, so an edit to either builds a new one.
Where ``__pycache__`` is not writable it is built in a private temporary
directory instead.  A build writes to a temporary name and then renames it
into place, so processes building at once each load a whole library.

Kernel is race.engine()'s engine where it loads, and race.PYTHON_LOOP has
the same calls.  Every race runs through rm_races, called by Kernel.races:
a batch chunk's runs and a prediction's dry runs, which come back as finish
ticks and orders, and run_race's one race, which Kernel.record runs with a
record.  C seeds and primes each race; no generator state crosses from
Python.  A record's rows grow in a C buffer, which Kernel.record copies
into the trajectory's array("d") and frees with rm_free.
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
from array import array
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from functools import cache
from itertools import accumulate
from pathlib import Path
from random import NV_MAGICCONST

from .race import _diverged

SOURCE = Path(__file__).with_name("_kernel.c")
#: No fast-math and no fused multiply-add: every double as in Python.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Numbers per race._compile runner, RUNNER in the C source.
_RUNNER_DOUBLES = 10
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MAX_TICK = 2**63 - 1
#: The longest repr rm_position_lines writes, REPR_MAX in the C source.
_REPR_MAX = 20
#: Bytes per position in a snapshots array.
_DOUBLE_BYTES = ctypes.sizeof(ctypes.c_double)
#: The rows a record's buffer starts with, before it doubles: RECORD_ROWS in the C source.
_RECORD_ROWS = 256

# the kernel's status codes
_FINISHED, _DIVERGED, _OVERFLOW, _NO_MEMORY = range(4)

_doubles = ctypes.POINTER(ctypes.c_double)
_int64s = ctypes.POINTER(ctypes.c_int64)
_int32s = ctypes.POINTER(ctypes.c_int32)
_seeds = ctypes.POINTER(ctypes.c_uint64)


class _Record(ctypes.Structure):
    """A recorded race, record_t in the C source: count rows of positions at rows."""

    _fields_ = (
        ("rows", ctypes.c_void_p),
        ("count", ctypes.c_int64),
        ("capacity", ctypes.c_int64),
        ("blocked", ctypes.c_int64),
    )


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
        # _load <- load <- race.engine <- a race.py entry point (or
        # run_batch, or write_trajectory_csv): the warning names the code
        # that called that
        warnings.warn(
            "no C compiler found; races and trajectory.csv lines run in Python",
            RuntimeWarning,
            stacklevel=5,
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


def _failure(status: int, finish, config) -> Exception:
    """The error of a race of config the kernel stopped with status, as the
    Python loop raises it; finish is the race's finish ticks (-1 while racing)."""
    if status == _DIVERGED:
        return _diverged(config, sum(t >= 0 for t in finish))
    if status == _OVERFLOW:
        return OverflowError("math range error")
    return MemoryError("race kernel scratch")


class Kernel:
    """The entry points of one loaded library, on RaceConfig, RaceState and Trajectory data.

    A Kernel holds only the library's entry points and, like the library,
    keeps no state between calls: a call reads its runners from its
    config's _flat_runners, works in its own memory and releases the GIL.
    So threads may share a Kernel, and race batches run on threads.
    """

    executor = ThreadPoolExecutor

    def __init__(self, lib: ctypes.CDLL):
        self._races = lib.rm_races
        self._races.argtypes = (
            _doubles,  # runners
            ctypes.c_int,  # n
            ctypes.c_double,  # length
            ctypes.c_double,  # nv_magic
            _seeds,  # seeds
            ctypes.c_int64,  # count
            _doubles,  # floats
            _int64s,  # ints
            ctypes.c_int64,  # stop
            _int64s,  # ticks_out
            _int32s,  # order_out
            ctypes.POINTER(_Record),  # record
            ctypes.POINTER(ctypes.c_int),  # status
        )
        self._races.restype = ctypes.c_int64
        self._free = lib.rm_free
        self._free.argtypes = (ctypes.POINTER(_Record),)
        self._free.restype = None
        self._run_seeds = lib.rm_run_seeds
        self._run_seeds.argtypes = (ctypes.c_uint64, ctypes.c_int64, ctypes.c_int64, _seeds)
        self._run_seeds.restype = None
        self._position_lines = lib.rm_position_lines
        self._position_lines.argtypes = (
            _doubles,  # values
            ctypes.c_int64,  # rows
            ctypes.c_int,  # n
            ctypes.c_int64,  # first_tick
            ctypes.c_char_p,  # prefixes
            _int64s,  # ends
            ctypes.c_char_p,  # out
        )
        self._position_lines.restype = ctypes.c_int64

    def races(self, config, seeds, state, record=None):
        """One race of config per seed, in one call: race k draws from random.Random(seeds[k]).

        seeds is run_seeds' array or a sequence of ints below 2**64.  Each
        race starts from initial_state when state is None, and otherwise
        from state, which is not changed; it diverges when its tick reaches
        config.tick_limit past its start.  Returns (done, ticks, orders,
        error): the number of races finished before the first that failed;
        two C arrays holding race k's n finish ticks and its finish order
        (competitor indices) at [k * n : (k + 1) * n] for k < done; and
        None or the failed race's error, as the Python loop raises it.
        record, for one seed only, is a _Record that the race's rows fill:
        see self.record.
        """
        flat, n, count = config._flat_runners, config.n_competitors, len(seeds)
        if len(flat) != _RUNNER_DOUBLES * n:
            raise ValueError(f"a runner is {_RUNNER_DOUBLES} numbers for the kernel")
        runners = (ctypes.c_double * len(flat)).from_buffer(flat)
        if not isinstance(seeds, ctypes.Array):
            seeds = (ctypes.c_uint64 * count)(*seeds)
        floats, ints, stop = None, None, config.tick_limit
        if state is not None:
            stop += state.tick
            floats = (ctypes.c_double * (2 * n))(*state.positions, *state.prev_steps)
            finish = [-1 if t is None else t for t in state.finish_ticks]
            ints = (ctypes.c_int64 * (n + 2))(*finish, state.tick, state.blocked_steps)
        ticks = (ctypes.c_int64 * (count * n))()
        orders = (ctypes.c_int32 * (count * n))()
        status = ctypes.c_int()
        done = self._races(
            runners, n, config.track_length, NV_MAGICCONST, seeds, count, floats,
            ints, min(stop, _MAX_TICK), ticks, orders, record, ctypes.byref(status),
        )
        error = None
        if status.value != _FINISHED:
            error = _failure(status.value, ticks[done * n : (done + 1) * n], config)
        return done, ticks, orders, error

    def record(self, config, seed):
        """The race of config from initial_state on random.Random(seed): one races call with a record.

        Returns (ticks, order, blocked, snapshots): the C arrays of its
        finish ticks and finish order, its blocked steps, and an array("d")
        of the positions at the start line and after each tick, one row of
        n competitors per tick, copied once from the C buffer.  The buffer
        is freed whatever happens; a race that failed raises its error, as
        races gives it.
        """
        record = _Record()
        try:
            _, ticks, order, error = self.races(config, [seed], None, record)
            if error is not None:
                raise error
            rows = ctypes.c_double * (record.count * config.n_competitors)
            snapshots = array("d")
            snapshots.frombytes(memoryview(rows.from_address(record.rows)).cast("B"))
        finally:
            self._free(record)
        return ticks, order, record.blocked, snapshots

    def position_lines(self, prefixes, snapshots):
        """lines(tick, count): trajectory.csv's lines for rows tick .. tick + count - 1.

        snapshots is a Trajectory's array("d") of positions, one row of
        len(prefixes) per tick, and prefixes[c] is competitor c's
        ",<csv-quoted id>,".  Value c of row t is the line
        f"{t}{prefixes[c]}{value!r}\\r\\n", in UTF-8.  The rows are read in
        place and the lines written into one buffer that lines reuses:
        lines returns a memoryview of it, valid until its next call, or
        None, writing nothing, when a value is one rm_position_lines
        refuses: -0.0, nan, an infinity, or one outside [2**-6, 2**53)
        other than 0.0.
        """
        if memoryview(snapshots).format != "d":
            raise TypeError("snapshots must be an array of doubles")
        n = len(prefixes)
        encoded = [p.encode() for p in prefixes]
        joined = b"".join(encoded)
        ends = (ctypes.c_int64 * n)(*accumulate(map(len, encoded)))
        out = buffer = None

        def lines(tick, count):
            nonlocal out, buffer
            size = count * (n * (len(str(tick + count - 1)) + _REPR_MAX + 2) + len(joined))
            if out is None or len(out) < size:
                out = bytearray(size)
                buffer = (ctypes.c_char * size).from_buffer(out)
            offset = tick * n * _DOUBLE_BYTES
            values = (ctypes.c_double * (count * n)).from_buffer(snapshots, offset)
            written = self._position_lines(values, count, n, tick, joined, ends, buffer)
            return None if written < 0 else memoryview(out)[:written]

        return lines

    def run_seeds(self, master, first, count):
        """derive_seed(master, "run", i) for i in first .. first + count - 1, as a C array."""
        seeds = (ctypes.c_uint64 * count)()
        self._run_seeds(master & _MASK64, first, count, seeds)
        return seeds
