"""The zero-perturbation contract of the observability layer.

A run with tracing and metrics on must produce a dataset **and**
rendered report byte-identical to a bare run — with fault injection on
or off, cold or warm cache.  Instrumentation only reads
``time.perf_counter`` and values the pipeline already computed, so
these tests are the enforcement of that design rule.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.cache import ScanCache
from repro.exec import SerialExecutor
from repro.io import save_dataset
from repro.obs import Observability
from repro.reporting.paper_report import render_paper_report

COUNTRIES = ("BR", "US", "FR", "MA")
CONFIG = WorldConfig(seed=17, scale=0.02, countries=COUNTRIES,
                     include_topsites=False)
FAULTED = dataclasses.replace(CONFIG, fault_rate=0.15)

EXECUTORS = {
    "serial": SerialExecutor,
}


@pytest.fixture(scope="module")
def plain_world() -> SyntheticWorld:
    return SyntheticWorld.generate(CONFIG)


@pytest.fixture(scope="module")
def faulted_world() -> SyntheticWorld:
    return SyntheticWorld.generate(FAULTED)


def _run(world, tmp_path, name, observed, executor_factory=SerialExecutor,
         cache=None):
    """One pipeline run; returns (dataset bytes, report text, pipeline)."""
    obs = Observability() if observed else None
    pipeline = Pipeline(world, obs=obs)
    with executor_factory() as executor:
        dataset = pipeline.run(list(COUNTRIES), executor=executor,
                               cache=cache)
    out = tmp_path / f"{name}.jsonl"
    save_dataset(dataset, out)
    return out.read_bytes(), render_paper_report(dataset), pipeline


@pytest.fixture(scope="module")
def plain_baseline(plain_world, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plain-baseline")
    data, report, _ = _run(plain_world, tmp, "bare", observed=False)
    return data, report


@pytest.fixture(scope="module")
def faulted_baseline(faulted_world, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("faulted-baseline")
    data, report, _ = _run(faulted_world, tmp, "bare", observed=False)
    return data, report


@pytest.mark.parametrize("executor", list(EXECUTORS), ids=list(EXECUTORS))
def test_traced_run_is_byte_identical(plain_world, plain_baseline, tmp_path,
                                      executor):
    data, report, pipeline = _run(
        plain_world, tmp_path, executor, observed=True,
        executor_factory=EXECUTORS[executor],
    )
    bare_data, bare_report = plain_baseline
    assert data == bare_data
    assert report == bare_report
    # The run was actually observed, not silently skipped.
    assert pipeline.obs.tracer.find("pipeline.run") is not None
    assert pipeline.obs.metrics.counter("geo.addresses") > 0


@pytest.mark.parametrize("executor", list(EXECUTORS), ids=list(EXECUTORS))
def test_traced_faulted_run_is_byte_identical(faulted_world, faulted_baseline,
                                              tmp_path, executor):
    data, report, pipeline = _run(
        faulted_world, tmp_path, executor, observed=True,
        executor_factory=EXECUTORS[executor],
    )
    bare_data, bare_report = faulted_baseline
    assert data == bare_data
    assert report == bare_report
    assert pipeline.obs.metrics.counter("faults.injected") > 0


def test_traced_cold_and_warm_cache_are_byte_identical(plain_world,
                                                       plain_baseline,
                                                       tmp_path):
    bare_data, _ = plain_baseline
    cold_cache = ScanCache(tmp_path / "cache")
    cold, _, cold_pipeline = _run(plain_world, tmp_path, "cold",
                                  observed=True, cache=cold_cache)
    warm_cache = ScanCache(tmp_path / "cache")
    warm, _, warm_pipeline = _run(plain_world, tmp_path, "warm",
                                  observed=True, cache=warm_cache)
    assert cold == bare_data
    assert warm == bare_data
    assert warm_cache.stats.misses == 0
    # Driver-side metrics cover warm runs too: the funnel replays from
    # the (cache-served) partials, the cache family from the stats.
    cold_metrics = cold_pipeline.obs.metrics
    warm_metrics = warm_pipeline.obs.metrics
    assert warm_metrics.counter("geo.addresses") == \
        cold_metrics.counter("geo.addresses")
    assert warm_metrics.counter("cache.hits") == len(COUNTRIES)
    assert cold_metrics.counter("cache.misses") == len(COUNTRIES)


def test_trace_scans_nest_in_canonical_country_order(plain_world, tmp_path):
    _, _, pipeline = _run(plain_world, tmp_path, "shape", observed=True)
    exported = pipeline.obs.tracer.to_dict()
    run_span = exported["spans"][0]
    scan_phase = run_span["children"][0]
    shape = [
        (scan["tags"]["country"],
         [stage["name"] for stage in scan["children"]])
        for scan in scan_phase["children"]
    ]
    # Canonical country order, not the order the countries were listed.
    assert [country for country, _ in shape] == sorted(COUNTRIES)
    assert all(stages == ["directory", "crawl", "filter", "resolve",
                          "geolocate"]
               for _, stages in shape)


def test_funnel_counters_match_validation_stats(plain_world, tmp_path):
    _, _, pipeline = _run(plain_world, tmp_path, "funnel", observed=True)
    dataset = Pipeline(plain_world).run(list(COUNTRIES))
    metrics = pipeline.obs.metrics
    stats = dataset.validation
    assert metrics.counter("geo.funnel.active_probing") == stats.unicast_ap
    multistage = (metrics.counter("geo.funnel.hoiho")
                  + metrics.counter("geo.funnel.ipmap")
                  + metrics.counter("geo.funnel.single_radius"))
    assert multistage == stats.unicast_mg
    assert metrics.counter("geo.funnel.conflict") == stats.unicast_conflicts
    assert metrics.counter("geo.addresses") == \
        stats.unicast_total + stats.anycast_total


def test_progress_heartbeat_fires_once_per_country(plain_world, tmp_path):
    beats = []

    def heartbeat(country, seconds, completed, expected):
        beats.append((country, completed, expected))

    pipeline = Pipeline(plain_world, obs=Observability(progress=heartbeat))
    pipeline.run(list(COUNTRIES))
    assert sorted(country for country, _, _ in beats) == sorted(COUNTRIES)
    assert [completed for _, completed, _ in beats] == [1, 2, 3, 4]
    assert all(expected == len(COUNTRIES) for _, _, expected in beats)
