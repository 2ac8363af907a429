"""End-to-end timing: world generation and the full measurement pipeline,
cold and with a warm scan cache."""

import time

from conftest import BENCH_SCALE, BENCH_SEED, write_bench_json

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.cache import ScanCache
from repro.io import save_dataset

#: The cache speedup acceptance gate runs at this fixed scale (not
#: REPRO_BENCH_SCALE), so the reported number is comparable across runs.
CACHE_BENCH_SCALE = 0.05


def test_world_generation(benchmark):
    config = WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE)
    world = benchmark(SyntheticWorld.generate, config)
    assert world.truth.hosts


def test_full_pipeline(benchmark):
    config = WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE)
    world = SyntheticWorld.generate(config)

    def run():
        return Pipeline(world).run()

    dataset = benchmark.pedantic(run, rounds=1, iterations=1)
    assert dataset.summarize().total_unique_urls > 0


def test_full_pipeline_warm_cache(benchmark, tmp_path):
    """Steady-state warm start: every partial served from the cache."""
    config = WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE)
    world = SyntheticWorld.generate(config)
    Pipeline(world).run(cache=ScanCache(tmp_path / "cache"))  # populate

    warm = ScanCache(tmp_path / "cache")
    dataset = benchmark.pedantic(
        lambda: Pipeline(world).run(cache=warm),
        rounds=1, iterations=1,
    )
    assert warm.stats.misses == 0
    assert dataset.summarize().total_unique_urls > 0


def test_cache_warm_speedup_report(report, tmp_path):
    """Cold vs warm ``Pipeline.run`` at scale 0.05; >=5x asserted.

    Also checks the cache contract end to end — the warm dataset must
    export byte-identically to the cold one — and archives the timings
    as ``benchmarks/out/BENCH_pipeline.json`` for CI to pick up.
    """
    config = WorldConfig(seed=BENCH_SEED, scale=CACHE_BENCH_SCALE)
    world = SyntheticWorld.generate(config)

    cold_cache = ScanCache(tmp_path / "cache")
    t0 = time.perf_counter()
    cold = Pipeline(world).run(cache=cold_cache)
    cold_s = time.perf_counter() - t0

    warm_cache = ScanCache(tmp_path / "cache")
    t0 = time.perf_counter()
    warm = Pipeline(world).run(cache=warm_cache)
    warm_s = time.perf_counter() - t0

    save_dataset(cold, tmp_path / "cold.jsonl")
    save_dataset(warm, tmp_path / "warm.jsonl")
    assert (tmp_path / "warm.jsonl").read_bytes() == \
        (tmp_path / "cold.jsonl").read_bytes()
    assert warm_cache.stats.misses == 0

    speedup = cold_s / warm_s if warm_s else float("inf")
    report(
        "pipeline_cache_warm_speedup",
        f"scale={CACHE_BENCH_SCALE} (fixed) seed={BENCH_SEED}\n"
        f"cold: {cold_s:.3f} s ({cold_cache.stats.summary()})\n"
        f"warm: {warm_s:.3f} s ({warm_cache.stats.summary()})\n"
        f"speedup: {speedup:.2f}x",
    )
    write_bench_json("pipeline", {
        "scale": CACHE_BENCH_SCALE,
        "seed": BENCH_SEED,
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(speedup, 2),
        "hits": warm_cache.stats.hits,
        "misses": warm_cache.stats.misses,
    })
    assert speedup >= 5.0, f"expected >=5x warm speedup, got {speedup:.2f}x"


def test_single_country_pipeline(benchmark):
    config = WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE)
    world = SyntheticWorld.generate(config)
    pipeline = Pipeline(world)
    dataset = benchmark(pipeline.run, ["BR"])
    assert set(dataset.countries) == {"BR"}
