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

# rm_run's status codes and start modes
_FINISHED, _BUDGET_SPENT, _DIVERGED, _OVERFLOW, _NO_MEMORY = range(5)
_CONTINUE, _SEED, _PRIME = range(3)

_doubles = ctypes.POINTER(ctypes.c_double)
_int64s = ctypes.POINTER(ctypes.c_int64)
_words = ctypes.POINTER(ctypes.c_uint32)


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


@cache
def load() -> "Kernel | None":
    """The kernel, built on first call; None, with one RuntimeWarning, without a compiler."""
    command = compile_command()
    if command is None:
        warnings.warn(
            "no C compiler found; races run in the Python loop", RuntimeWarning, stacklevel=2
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


class Kernel:
    """rm_run of one loaded library, on RaceState and _compile data."""

    def __init__(self, lib: ctypes.CDLL):
        self._run = lib.rm_run
        self._run.argtypes = (
            _doubles,  # runners
            ctypes.c_int,  # n
            ctypes.c_double,  # length
            ctypes.c_double,  # nv_magic
            ctypes.c_uint64,  # seed
            ctypes.c_int,  # start
            _doubles,  # floats
            _int64s,  # ints
            _words,  # mt
            ctypes.c_int64,  # stop
            ctypes.c_int64,  # budget
            _doubles,  # snapshots
        )
        self._run.restype = ctypes.c_int
        # the last runners flattened: a dry-run predictor runs one config many times
        self._last = (None, None)

    def run(self, runners, length, state, seed, stop, snapshots=None, prime=False) -> bool:
        """race_ticks on state in place, drawing from random.Random(seed & 2**64 - 1).

        runners is _compile's output.  With prime, state is first reset to
        initial_state.  Each tick's positions are appended to snapshots
        unless it is None.  Returns False when the tick reached stop with
        competitors still racing.
        """
        n = len(runners)
        last = self._last
        if last[0] is runners:
            flat = last[1]
        else:
            values = tuple(chain.from_iterable(runners))
            if len(values) != _RUNNER_DOUBLES * n:
                raise ValueError(f"a runner is {_RUNNER_DOUBLES} numbers for the kernel")
            flat = (ctypes.c_double * len(values))(*values)
            self._last = (runners, flat)
        floats = (ctypes.c_double * (2 * n))(*state.positions, *state.prev_steps)
        finish = [-1 if t is None else t for t in state.finish_ticks]
        ints = (ctypes.c_int64 * (n + 2))(*finish, state.tick, state.blocked_steps)
        mt = (ctypes.c_uint32 * 625)()
        start = _PRIME if prime else _SEED
        stop = min(stop, _MAX_TICK)
        rows, buf = -1, None
        if snapshots is not None:
            rows = max(1, _SNAPSHOT_DOUBLES // n)
            buf = (ctypes.c_double * (rows * n))()
        while True:
            tick = ints[n]
            status = self._run(
                flat, n, length, NV_MAGICCONST, seed & _MASK64, start, floats, ints, mt, stop,
                rows, buf,
            )
            start = _CONTINUE
            if buf is not None:
                rows_done = ints[n] - tick
                snapshots.extend(tuple(buf[k : k + n]) for k in range(0, rows_done * n, n))
            if status != _BUDGET_SPENT:
                break
        if status == _OVERFLOW:
            raise OverflowError("math range error")
        if status == _NO_MEMORY:
            raise MemoryError("race kernel scratch")
        state.positions[:] = floats[:n]
        state.prev_steps[:] = floats[n:]
        state.finish_ticks[:] = [None if t < 0 else t for t in ints[:n]]
        state.tick, state.blocked_steps = ints[n], ints[n + 1]
        return status == _FINISHED
