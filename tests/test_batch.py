import os
import pickle
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from racemarket import _kernel
from racemarket.agents import AgentParams
from racemarket.batch import (
    BatchConfig,
    BatchRunError,
    BenchPoint,
    OutcomePMF,
    RaceResult,
    SessionSummary,
    _worker_pool,
    bench,
    compare_finish_times,
    compare_pmf,
    estimate_pmf,
    pmf_from_results,
    resize_race,
    run_batch,
)
from racemarket.race import Competitor, LogNormalSteps, RaceConfig, UniformSteps, load_kernel
from racemarket.session import SessionConfig

from conftest import make_race


def test_run_batch_race_results_in_order():
    results = run_batch(BatchConfig(make_race(n=3, length=200.0), 20, master_seed=1))
    assert [r.run_index for r in results] == list(range(20))
    assert all(isinstance(r, RaceResult) for r in results)
    assert all(sorted(r.finish_order) == ["c1", "c2", "c3"] for r in results)
    assert all(r.n_ticks == max(r.finish_ticks) for r in results)
    assert all(r.winner == r.finish_order[0] for r in results)
    # distinct per-run seeds: runs are not copies of each other
    assert len({r.finish_ticks for r in results}) > 1


def test_race_result_is_an_immutable_record():
    r = RaceResult(3, ("c2", "c1"), (12, 10), 12)
    assert (r.winner, r.winner_ticks) == ("c2", 10)
    with pytest.raises(AttributeError):
        r.n_ticks = 13
    assert r == RaceResult(3, ("c2", "c1"), (12, 10), 12) != RaceResult(4, ("c2", "c1"), (12, 10), 12)
    assert pickle.loads(pickle.dumps(r)) == r
    assert repr(r) == "RaceResult(run_index=3, finish_order=('c2', 'c1'), finish_ticks=(12, 10), n_ticks=12)"


def test_run_batch_worker_count_is_invisible():
    cfg = BatchConfig(make_race(n=3, length=200.0), 30, master_seed=2, workers=1)
    seq = run_batch(cfg)
    par = run_batch(BatchConfig(cfg.base, 30, master_seed=2, workers=3))
    assert seq == par


def test_race_batches_on_threads_share_one_kernel():
    if load_kernel() is None:
        pytest.skip("race batches run on threads only with the kernel")
    # two batches at once, each on more threads than cores and switching
    # often, share the kernel and its cache of flattened runners
    configs = (make_race(n=3, length=200.0), make_race(n=5, lo=5.0, length=150.0))
    serial = [run_batch(BatchConfig(c, 300, master_seed=3)) for c in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as outer:
            batches = [outer.submit(run_batch, BatchConfig(c, 300, 3, workers=4)) for c in configs]
            together = [b.result(timeout=60) for b in batches]
    finally:
        sys.setswitchinterval(interval)
    assert together == serial


def _worker_cpus(_):
    time.sleep(0.05)
    return os.getpid(), frozenset(os.sched_getaffinity(0))


def test_pool_gives_each_worker_its_own_cpu():
    usable = frozenset(os.sched_getaffinity(0))
    workers = max(2, min(len(usable), 4))
    with _worker_pool(workers) as pool:
        seen = dict(pool.map(_worker_cpus, range(4 * workers)))
    assert len(seen) == workers
    if len(usable) < 2:
        assert set(seen.values()) == {usable}
    else:
        assert all(len(cpus) == 1 and cpus <= usable for cpus in seen.values())
        assert len(set(seen.values())) == workers


def test_run_batch_sessions():
    scfg = SessionConfig(
        race=make_race(n=3, length=200.0),
        agents=(AgentParams("lw", count=2), AgentParams("zi", count=1)),
        master_seed=0,
    )
    seq = run_batch(BatchConfig(scfg, 4, master_seed=7))
    par = run_batch(BatchConfig(scfg, 4, master_seed=7, workers=2))
    assert seq == par
    assert all(isinstance(r, SessionSummary) for r in seq)
    assert all(r.n_events > 0 for r in seq)
    assert all(r.winner in ("c1", "c2", "c3") for r in seq)
    # the configured master seed is replaced per run
    assert len({r.winner_ticks for r in seq}) > 1


#: Batches of 8 runs that fail at runs 1, 2 and 6 (divergence), at runs
#: 1, 6 and 7 (overflow) and at runs 1 and 3 (sessions whose race
#: diverges), with BatchRunError's message for run 1.
FAILING_BATCHES = {
    "diverged": (
        make_race(n=2, lo=1.0, hi=30.0, length=100.0, tick_limit=8),
        0,
        "run 1: RaceDivergedError('race exceeded tick_limit=8 with 1/2 finished')",
    ),
    "session": (
        SessionConfig(
            race=make_race(n=2, lo=1.0, hi=30.0, length=100.0, tick_limit=8),
            agents=(AgentParams("zi", count=1),),
            master_seed=0,
        ),
        4,
        "run 1: RaceDivergedError('race exceeded tick_limit=8 with 1/2 finished')",
    ),
    "overflow": (
        RaceConfig(
            track_length=100.0,
            competitors=tuple(Competitor(f"c{k}", LogNormalSteps(700.0, 5.0)) for k in range(3)),
        ),
        4,
        "run 1: OverflowError('math range error')",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("loop", [False, True], ids=["kernel", "python_loop"])
@pytest.mark.parametrize("failure", sorted(FAILING_BATCHES))
def test_batch_run_error_carries_index_and_pickles(monkeypatch, failure, loop, workers):
    # the lowest failing run is named, whichever chunk or worker meets a failure first
    if loop:
        monkeypatch.setattr(_kernel, "load", lambda: None)
    config, master_seed, message = FAILING_BATCHES[failure]
    with pytest.raises(BatchRunError) as info:
        run_batch(BatchConfig(config, 8, master_seed, workers))
    assert (info.value.run_index, str(info.value)) == (1, message)
    clone = pickle.loads(pickle.dumps(info.value))
    assert isinstance(clone, BatchRunError)
    assert (clone.run_index, str(clone)) == (1, message)


def test_batch_config_validation():
    with pytest.raises(ValueError):
        BatchConfig(make_race(), 0, 0).validate()
    with pytest.raises(ValueError):
        BatchConfig(make_race(), 1, 0, workers=0).validate()
    for seed in (-1, 2**64, 2**64 + 7):  # derive_seed would fold these onto seeds in range
        with pytest.raises(ValueError, match="^seed must be"):
            BatchConfig(make_race(), 20, seed)


def test_estimate_pmf_order_space():
    orders = [("a", "b"), ("a", "b"), ("b", "a")]
    pmf = estimate_pmf(orders)
    assert pmf.space == "order"
    assert pmf.n_samples == 3
    assert pmf.counts == {"a-b": 2, "b-a": 1}


def test_estimate_pmf_winner_space_above_six():
    ids = tuple(f"x{i}" for i in range(7))
    pmf = estimate_pmf([ids, ids[::-1]])
    assert pmf.space == "winner"
    assert pmf.counts == {"x0": 1, "x6": 1}
    with pytest.raises(ValueError):
        estimate_pmf([])
    with pytest.raises(ValueError):
        estimate_pmf([("a", "b"), ("a",)])


def test_pmf_from_results_matches_manual_counting():
    results = run_batch(BatchConfig(make_race(n=3, length=150.0), 50, master_seed=3))
    pmf = pmf_from_results(results)
    assert pmf.n_samples == 50
    assert sum(pmf.counts.values()) == 50
    assert pmf.counts["-".join(results[0].finish_order)] >= 1


def test_compare_pmf_identical_is_certain():
    pmf = OutcomePMF("order", 10, {"a-b": 6, "b-a": 4})
    result = compare_pmf(pmf, pmf)
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.method == "chi2_homogeneity"


def test_compare_pmf_degenerate_single_outcome():
    a = OutcomePMF("order", 5, {"a-b": 5})
    b = OutcomePMF("order", 9, {"a-b": 9})
    result = compare_pmf(a, b)
    assert (result.statistic, result.p_value) == (0.0, 1.0)


def test_compare_pmf_detects_a_gross_difference():
    a = OutcomePMF("winner", 300, {"a": 280, "b": 20})
    b = OutcomePMF("winner", 300, {"a": 20, "b": 280})
    result = compare_pmf(a, b)
    assert result.p_value < 1e-9
    assert result.dof == 1


def test_compare_pmf_space_mismatch():
    a = OutcomePMF("winner", 1, {"a": 1})
    b = OutcomePMF("order", 1, {"a-b": 1})
    with pytest.raises(ValueError):
        compare_pmf(a, b)


def test_compare_pmf_same_config_usually_accepts():
    base = make_race(n=3, length=150.0)
    a = pmf_from_results(run_batch(BatchConfig(base, 150, master_seed=10)))
    b = pmf_from_results(run_batch(BatchConfig(base, 150, master_seed=11)))
    assert compare_pmf(a, b).p_value > 0.01


def test_compare_finish_times():
    same = compare_finish_times([10, 12, 11, 13, 12, 11, 10, 13], [11, 12, 10, 13, 12, 11, 13, 10])
    assert same.method == "kruskal_wallis"
    assert same.p_value > 0.05
    shifted = compare_finish_times([10, 11, 12, 11, 10, 12], [30, 31, 32, 31, 30, 32])
    assert shifted.p_value < 0.01


def test_resize_race_cycles_templates():
    base = make_race(n=2)
    cfg = resize_race(base, 5)
    assert cfg.n_competitors == 5
    assert cfg.competitor_ids == ("c1", "c2", "c3", "c4", "c5")
    assert cfg.competitors[0].steps == cfg.competitors[2].steps
    cfg.validate()
    assert resize_race(base, 2) is base
    down = resize_race(make_race(n=6), 2)
    assert down.competitor_ids == ("c1", "c2")
    with pytest.raises(ValueError):
        resize_race(base, 0)
    assert resize_race(make_race(n=1), 3).n_competitors == 3


def test_resize_race_preserves_heterogeneity():
    from dataclasses import replace

    base = make_race(n=2)
    varied = replace(
        base,
        competitors=(
            replace(base.competitors[0], steps=UniformSteps(5.0, 10.0)),
            replace(base.competitors[1], steps=LogNormalSteps(1.0, 0.3)),
        ),
    )
    grown = resize_race(varied, 4)
    assert grown.competitors[2].steps == UniformSteps(5.0, 10.0)
    assert grown.competitors[3].steps == LogNormalSteps(1.0, 0.3)


def test_bench_points_shape():
    points = bench(make_race(n=2, length=100.0), (2, 4), replications=10, timing_reps=3, master_seed=5)
    assert [p.n_competitors for p in points] == [2, 4]
    for p in points:
        assert isinstance(p, BenchPoint)
        assert p.mean_s > 0.0
        assert p.sd_s >= 0.0
        assert p.cv >= 0.0
        assert p.reps == 30
    with pytest.raises(ValueError):
        bench(make_race(), (2,), replications=5, timing_reps=0, master_seed=0)
