"""The execution handle of ``repro.exec``.

Serial is the only strategy: an explicit executor, the default and a
reused one all produce a dataset **bit-identical** to a plain run —
same records, same validation stats, same Table 3/4 summaries — and
every other strategy name is refused.
"""

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.cache import ScanCache
from repro.exec import SerialExecutor, make_executor
from repro.io import save_dataset
from repro.obs import Observability

COUNTRIES = ("BR", "US", "FR", "MA")


@pytest.fixture(scope="module")
def exec_world() -> SyntheticWorld:
    return SyntheticWorld.generate(
        WorldConfig(seed=13, scale=0.03, countries=COUNTRIES,
                    include_topsites=False)
    )


@pytest.fixture(scope="module")
def serial_baseline(exec_world):
    return Pipeline(exec_world).run(list(COUNTRIES))


def _fingerprint(dataset):
    """Everything the equivalence contract covers, in comparable form."""
    return (
        sorted(dataset.iter_records(), key=lambda r: (r.country, r.url)),
        dataset.validation,
        dataset.summarize(),
        dataset.validation.table4(),
        dataset.per_country_stats(),
        {code: ds.depth_histogram for code, ds in dataset.countries.items()},
        {code: sorted(ds.unresolved_hostnames)
         for code, ds in dataset.countries.items()},
    )


@pytest.mark.parametrize("workers", [1])
@pytest.mark.parametrize("strategy", ["serial"])
def test_every_strategy_matches_serial(exec_world, serial_baseline,
                                       strategy, workers):
    executor = make_executor(strategy, workers=workers)
    try:
        dataset = Pipeline(exec_world).run(list(COUNTRIES), executor=executor)
    finally:
        executor.close()
    assert _fingerprint(dataset) == _fingerprint(serial_baseline)


def test_executor_pool_is_reusable_across_runs(exec_world, serial_baseline):
    executor = SerialExecutor()
    try:
        first = Pipeline(exec_world).run(list(COUNTRIES), executor=executor)
        second = Pipeline(exec_world).run(list(COUNTRIES), executor=executor)
    finally:
        executor.close()
    assert _fingerprint(first) == _fingerprint(serial_baseline)
    assert _fingerprint(second) == _fingerprint(serial_baseline)


def test_country_order_does_not_change_records(exec_world):
    """Submission order fixes the stats replay, not the records."""
    forward = Pipeline(exec_world).run(list(COUNTRIES))
    backward = Pipeline(exec_world).run(list(reversed(COUNTRIES)))
    key = lambda r: (r.country, r.url)
    assert sorted(forward.iter_records(), key=key) == \
        sorted(backward.iter_records(), key=key)


def test_make_executor_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown executor"):
        make_executor("fibers")


@pytest.mark.parametrize("name", ["threads", "processes"])
def test_make_executor_rejects_removed_pools(name):
    with pytest.raises(ValueError, match="unknown executor"):
        make_executor(name, workers=2)


def test_observed_cached_run_with_explicit_executor_matches_plain_run(
        exec_world, tmp_path):
    """The calling convention of ``perfbench/layers.py``, pinned.

    The benchmark builds its executor by name, passes it with a cache
    to an observed pipeline and closes it afterwards; the dataset must
    be byte-identical to a plain run's, cold and warm.
    """
    plain = tmp_path / "plain.jsonl"
    save_dataset(Pipeline(exec_world).run(), plain)
    cache = ScanCache(tmp_path / "cache")
    for temperature in ("cold", "warm"):
        obs = Observability()
        executor = make_executor("serial", workers=None)
        try:
            dataset = Pipeline(exec_world, obs=obs).run(executor=executor,
                                                        cache=cache)
        finally:
            executor.close()
        out = tmp_path / f"{temperature}.jsonl"
        save_dataset(dataset, out)
        assert out.read_bytes() == plain.read_bytes()
        assert obs.tracer.find("pipeline.run").tags["executor"] == "serial"
    assert cache.stats.hits == len(exec_world.country_codes())


def test_serial_executor_is_default(exec_world, serial_baseline):
    explicit = Pipeline(exec_world).run(list(COUNTRIES),
                                        executor=SerialExecutor())
    assert _fingerprint(explicit) == _fingerprint(serial_baseline)
