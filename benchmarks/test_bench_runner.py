"""Runner/memo benches: the cache layer must earn its keep.

Two claims to hold the line on:

* the memoized analysis kernels (``sbf_server``, the signature-keyed
  demand memo) are measurably faster than the retained uncached
  references on a fig7-scale acceptance sweep;
* the parallel runner's serial path adds no meaningful overhead over
  the plain loop, and any worker count reproduces the serial results.

Timing assertions live here (benchmarks/ is not collected by tier-1),
so a loaded CI box cannot flake the main suite.
"""

import random

import pytest

from repro.analysis.cache import cache_stats, clear_caches
from repro.analysis.lsched_test import lsched_schedulable
from repro.analysis.supply import sbf_server, sbf_server_uncached
from repro.exp.acceptance import run_acceptance
from repro.exp.fig7 import CaseStudyConfig, run_case_study
from repro.exp.runner import ExperimentRunner
from repro.tasks import generate_random_taskset

#: One acceptance-style workload: admission tests over random task sets
#: under a fixed server -- the analysis hot path of the sweeps.
SWEEP_SERVER = (20, 14)
SWEEP_SAMPLES = 40


def _admission_sweep():
    pi, theta = SWEEP_SERVER
    admitted = 0
    for index in range(SWEEP_SAMPLES):
        tasks = generate_random_taskset(
            3000 + index,
            task_count=5,
            total_utilization=0.68,
            period_min=40,
            period_max=400,
            name=f"bench.runner.{index}",
        )
        if lsched_schedulable(pi, theta, tasks).schedulable:
            admitted += 1
    return admitted


def test_bench_admission_sweep_warm_cache(benchmark):
    """The sweep with the memo layer active (steady-state timing)."""
    clear_caches()
    _admission_sweep()  # warm up
    admitted = benchmark.pedantic(_admission_sweep, rounds=3, iterations=1)
    assert 0 < admitted < SWEEP_SAMPLES  # the sweep straddles the boundary
    stats = cache_stats()
    assert stats["supply.sbf_server"]["hits"] > 0
    assert stats["demand.dbf_signature_demand"]["hits"] > 0


def test_bench_sbf_kernel_cached_vs_uncached(benchmark):
    """The memoized supply kernel beats the reference on sweep-shaped
    query streams (many repeated (Pi, Theta, t) triples)."""
    rng = random.Random(8)
    queries = [
        (20, 14, rng.randint(0, 400)) for _ in range(5_000)
    ]

    def uncached():
        return sum(sbf_server_uncached(*q) for q in queries)

    def cached():
        return sum(sbf_server(*q) for q in queries)

    clear_caches()
    cached()  # populate
    expected = uncached()
    result = benchmark.pedantic(cached, rounds=3, iterations=2)
    assert result == expected

    import timeit

    uncached_time = timeit.timeit(uncached, number=3)
    cached_time = timeit.timeit(cached, number=3)
    assert cached_time < uncached_time, (
        f"memoized sbf_server ({cached_time:.4f}s) not faster than "
        f"uncached ({uncached_time:.4f}s)"
    )


def test_bench_acceptance_cached_speedup():
    """Fig7-scale acceptance sweep: the warm rerun is served by the memos.

    Rerunning the identical sweep isolates exactly what the memo layer
    buys.  The check reads :func:`cache_stats`, not the clock, so a
    loaded host cannot flake it: every cache that stored values in the
    cold sweep answers the warm one from them -- it adds hits and no
    misses -- and the two kernels this module guards are among them, so
    an accidentally disabled cache fails loudly.  (A cache that stored
    nothing cold only saw calls that raise, which ``lru_cache`` never
    stores.)
    """
    kwargs = dict(samples=30, task_count=5, seed=2021)

    clear_caches()
    run_acceptance(**kwargs)
    cold = cache_stats()
    run_acceptance(**kwargs)
    warm = cache_stats()
    stored = sorted(name for name, stats in cold.items() if stats["currsize"])
    assert {"supply.sbf_server", "demand.dbf_signature_demand"} <= set(stored), stored
    for name in stored:
        assert warm[name]["misses"] == cold[name]["misses"], (
            f"warm sweep missed the {name} memo; is the memo layer wired in?"
        )
        assert warm[name]["hits"] > cold[name]["hits"], name


def test_bench_runner_serial_overhead(benchmark, fig7_horizon):
    """The runner's serial path on a reduced fig7 sweep (the common
    jobs=1 case must stay essentially free)."""
    config = CaseStudyConfig(
        utilizations=(0.5, 0.7),
        vm_groups=(4,),
        trials=1,
        horizon_slots=min(10_000, fig7_horizon),
        use_env_scale=False,
    )
    result = benchmark.pedantic(
        run_case_study,
        args=(config,),
        kwargs={"runner": ExperimentRunner(1, progress=False)},
        rounds=1,
        iterations=1,
    )
    assert set(result.groups) == {4}
    assert len(result.groups[4]) == 2 * 5  # utils x systems


def test_bench_runner_parallel_matches_serial(fig7_horizon):
    """Bench-scale restatement of the determinism contract: a parallel
    run returns the very same points as the serial run it must match."""
    config = CaseStudyConfig(
        utilizations=(0.5,),
        vm_groups=(4,),
        trials=1,
        horizon_slots=min(10_000, fig7_horizon),
        use_env_scale=False,
    )
    serial = run_case_study(config, runner=ExperimentRunner(1))
    parallel = run_case_study(config, runner=ExperimentRunner(2))
    assert serial.groups == parallel.groups
