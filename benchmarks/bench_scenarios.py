"""Scenario sweep engine: dedup exactness, speedup, standalone identity.

Three gates; (a) and (b) are archived to ``BENCH_scenarios.json``:

(a) **exactness** — the sweep executes exactly ``unique_keys`` scans
    (no cache, so every unique key is a miss), never more or fewer;
(b) **speedup** — the deduplicated wave beats S independent
    ``Pipeline.run`` calls by >= 4x at the benchmark scale, because the
    matrix leans on scan sharing (outage what-ifs share everything, a
    vantage shift re-keys two countries, an evolution step a handful);
(c) **identity** — every scenario's dataset is byte-identical to a
    standalone ``Pipeline.run`` of its config.
"""

from __future__ import annotations

import hashlib
import time

from conftest import BENCH_SCALE, BENCH_SEED, write_bench_json
from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.io import save_dataset
from repro.scenarios import ScenarioMatrix, SweepRunner

SPEEDUP_THRESHOLD = 4.0


def _bench_matrix(base: WorldConfig) -> ScenarioMatrix:
    """A realistic sensitivity matrix: two vantage shifts, what-if
    outages of the five biggest government hosts, one evolution step."""
    matrix = ScenarioMatrix(base)
    matrix.add_vantage("vantage-shift", countries=("US", "DE"), rank=1)
    matrix.add_vantage("vantage-deep", countries=("US", "IN"), rank=2)
    for provider in ("cloudflare", "amazon", "akamai", "microsoft",
                     "google"):
        matrix.add_outage(f"{provider}-outage", provider=provider)
    matrix.add_evolution("evolved-1", steps=1)
    return matrix


def _digest(dataset, tmp_path, name: str) -> str:
    path = tmp_path / f"{name}.jsonl"
    save_dataset(dataset, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_scenario_sweep_gates(report, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("scenario_bench")
    base = WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE)
    assert BENCH_SCALE >= 0.05, \
        "the speedup gate is calibrated for scale >= 0.05"

    # The deduplicated sweep (timed: the benchmark's headline number).
    sweep_started = time.perf_counter()
    sweep = SweepRunner(_bench_matrix(base)).run()
    sweep_s = time.perf_counter() - sweep_started
    accounting = sweep.accounting

    # Gate (a): every unique key scanned exactly once, none skipped.
    exactness_pass = (
        accounting.cache_hits == 0
        and accounting.executed == accounting.unique_keys
        and accounting.unique_keys < accounting.total_tasks
    )
    assert exactness_pass

    # The naive alternative: one independent pipeline run per scenario
    # (also the source of the standalone reference datasets).
    naive_started = time.perf_counter()
    standalone = {}
    for result in sweep:
        config = result.scenario.config
        standalone[result.name] = Pipeline(
            SyntheticWorld.generate(config)
        ).run()
    naive_s = time.perf_counter() - naive_started
    speedup = naive_s / sweep_s if sweep_s else float("inf")

    # Gate (c): byte-identity vs standalone.
    reference = {
        name: _digest(dataset, tmp_path, f"standalone-{name}")
        for name, dataset in standalone.items()
    }
    digests = {
        result.name: _digest(result.dataset, tmp_path, f"swept-{result.name}")
        for result in sweep
    }
    identity_pass = digests == reference

    payload = {
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "accounting": accounting.to_dict(),
        "gates": {
            "unique_scan_exactness": {
                "unique_keys": accounting.unique_keys,
                "cache_hits": accounting.cache_hits,
                "executed": accounting.executed,
                "total_tasks": accounting.total_tasks,
                "pass": exactness_pass,
            },
            "speedup": {
                "naive_runs_s": round(naive_s, 3),
                "sweep_s": round(sweep_s, 3),
                "speedup_x": round(speedup, 2),
                "threshold_x": SPEEDUP_THRESHOLD,
                "pass": speedup >= SPEEDUP_THRESHOLD,
            },
        },
    }
    write_bench_json("scenarios", payload)

    report("scenarios", "\n".join([
        accounting.summary(),
        f"naive: {len(sweep)} independent runs in {naive_s:.2f}s; "
        f"sweep wave {sweep_s:.2f}s -> {speedup:.1f}x "
        f"(gate >= {SPEEDUP_THRESHOLD:.0f}x)",
        f"standalone identity: "
        f"{'byte-identical' if identity_pass else 'DIVERGED'}",
    ]))

    assert identity_pass
    assert speedup >= SPEEDUP_THRESHOLD, \
        f"sweep only {speedup:.2f}x faster than independent runs"
