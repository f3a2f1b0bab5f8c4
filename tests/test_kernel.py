"""Building and loading the C race kernel, and the Python loop it falls back to."""

import ctypes
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import racemarket
from racemarket import _kernel
from racemarket.batch import BatchConfig, resize_race, run_batch
from racemarket.config import parse_config
from racemarket.race import batch_runs, initial_state, run_race, win_counts
from racemarket.seeding import make_rng
from racemarket.writers import write_trajectory_csv

from conftest import make_race

SRC = Path(racemarket.__file__).resolve().parent.parent


def compiler() -> list[str]:
    command = _kernel.compile_command()
    if command is None:
        pytest.skip("no C compiler on PATH")
    return command


def python(script: str, *args: str) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen(
        [sys.executable, "-c", script, *args], env=env, stdout=subprocess.PIPE, text=True
    )


def test_kernel_loads_where_a_compiler_is_found():
    compiler()
    assert _kernel.load() is not None


def test_without_a_compiler_races_run_in_python_with_one_warning(monkeypatch):
    monkeypatch.setattr(_kernel, "compile_command", lambda: None)
    _kernel._load.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="no C compiler found"):
            assert _kernel.load() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _kernel.load() is None
            assert run_race(make_race(), 1).finish_order
    finally:
        _kernel._load.cache_clear()


def test_the_no_compiler_warning_names_the_caller_of_the_race(monkeypatch, tmp_path):
    config = make_race(n=3, length=60.0)
    state = initial_state(config, make_rng(1))
    traj = run_race(config, 1)
    monkeypatch.setattr(_kernel, "compile_command", lambda: None)
    calls = (
        lambda: run_race(config, 1),
        lambda: batch_runs(config, 1, 0, 2),
        lambda: win_counts(state, config, [1, 2]),
        lambda: run_batch(BatchConfig(config, 2, 1, workers=1)),
        lambda: write_trajectory_csv(tmp_path / "trajectory.csv", traj),
    )
    try:
        for call in calls:
            _kernel._load.cache_clear()
            with pytest.warns(RuntimeWarning, match="no C compiler found") as record:
                call()
            assert [Path(w.filename) for w in record] == [Path(__file__)]
    finally:
        _kernel._load.cache_clear()


def test_threads_loading_at_once_wait_for_one_build(monkeypatch):
    # cache alone would let each thread run the build, and one that read
    # sysconfig while another filled it in found no compiler
    calls = []
    command = _kernel.compile_command

    def slow_command():
        calls.append(threading.get_ident())
        time.sleep(0.05)
        return command()

    monkeypatch.setattr(_kernel, "compile_command", slow_command)
    barrier = threading.Barrier(8)

    def load(_):
        barrier.wait()
        return _kernel.load()

    _kernel._load.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the no-compiler warning, where there is none
            with ThreadPoolExecutor(8) as pool:
                kernels = list(pool.map(load, range(8)))
    finally:
        _kernel._load.cache_clear()
    assert len(calls) == 1
    assert all(k is kernels[0] for k in kernels)
    assert (kernels[0] is None) == (command() is None)


def test_a_failed_build_raises_and_leaves_nothing_behind(tmp_path):
    command = compiler()
    with pytest.raises(RuntimeError, match="race kernel build failed"):
        _kernel.build([*command, "-fno-such-option"], tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_an_unwritable_cache_builds_in_a_private_directory(monkeypatch, tmp_path):
    compiler()
    package = tmp_path / "package"
    package.mkdir()
    shutil.copy(_kernel.SOURCE, package / "_kernel.c")
    (package / "__pycache__").write_text("a file where the cache directory would be")
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(_kernel, "SOURCE", package / "_kernel.c")
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    _kernel._load.cache_clear()
    try:
        assert _kernel.load() is not None
    finally:
        _kernel._load.cache_clear()
    assert sorted(p.name for p in package.iterdir()) == ["__pycache__", "_kernel.c"]
    assert list(temp.iterdir()) == []


BUILD = """
import ctypes, sys, time
from pathlib import Path
from racemarket import _kernel
cache, gate, me, other = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3], sys.argv[4]
(gate / me).touch()
deadline = time.monotonic() + 60
while not (gate / other).exists() and time.monotonic() < deadline:
    time.sleep(0.001)
path = _kernel.build(_kernel.compile_command(), cache)
_kernel.Kernel(ctypes.CDLL(str(path)))
print(path.name)
"""


def test_two_processes_build_into_one_cache_directory_at_once(tmp_path):
    compiler()
    cache, gate = tmp_path / "cache", tmp_path / "gate"
    cache.mkdir()
    gate.mkdir()
    pair = (("a", "b"), ("b", "a"))
    procs = [python(BUILD, str(cache), str(gate), me, other) for me, other in pair]
    names = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert names[0] == names[1]
    assert [p.name for p in cache.iterdir()] == [names[0]]


BATCH = """
import os, sys
from racemarket import _kernel
from racemarket.batch import BatchConfig, run_batch
from racemarket.race import Competitor, RaceConfig, UniformSteps

init = _kernel.Kernel.__init__

def loaded_here(self, lib):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    init(self, lib)

_kernel.Kernel.__init__ = loaded_here
field = tuple(Competitor(f"c{i}", UniformSteps(1.0, 2.0)) for i in range(3))
run_batch(BatchConfig(RaceConfig(track_length=20.0, competitors=field), 40, 1, 2))
print(os.getpid())
"""


def test_batch_workers_inherit_the_kernel_the_parent_loaded(tmp_path):
    compiler()
    log = tmp_path / "loads"
    proc = python(BATCH, str(log))
    parent = proc.communicate(timeout=120)[0].strip()
    assert proc.returncode == 0
    assert log.read_text().split() == [parent]


def test_the_kernel_refuses_buffers_of_the_wrong_size():
    compiler()
    kernel = _kernel.load()
    config = make_race(n=2)
    runners = config._runners
    vars(config)["_runners"] = ((*runners[0], 0.0), runners[1])  # 11 numbers, then 10
    with pytest.raises(ValueError, match="a runner is 10 numbers"):
        kernel.record(config, 1)
    # position_lines reads a trajectory's snapshots in place
    with pytest.raises(TypeError, match="an array of doubles"):
        kernel.position_lines([",c1,"], array("f", [1.0]))
    with pytest.raises(ValueError, match="Buffer size too small"):
        kernel.position_lines([",c1,"], array("d", [1.0]))(1, 1)


def test_threads_sharing_the_kernel_run_each_config_on_its_own_runners():
    # race batches share one Kernel across threads; each call reads its
    # runners from its own config, whichever config the last call ran
    compiler()
    derby = Path(__file__).resolve().parent.parent / "configs" / "derby.json"

    def pair():
        race = parse_config(derby.read_text()).race
        return race, resize_race(race, 12)

    alone = [batch_runs(config, 7, 0, 64) for config in pair()]
    interleaved = pair() * 8  # fresh configs: threads also build their runners at once
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = pool.map(lambda config: batch_runs(config, 7, 0, 64), interleaved, timeout=60)
            together = list(runs)
    finally:
        sys.setswitchinterval(interval)
    assert together == alone * 8
