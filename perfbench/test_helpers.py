"""Self-tests of the benchmark's helpers: ``python3 -m pytest perfbench``."""

import json
import math

import pytest

import load
import mix
import probe
from run import Bench, scipy_import_s
from stats import (backlog_at, check_metric_name, next_rate, percentile,
                   self_time, step_verdict, union_length)


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert percentile(values, 50) == 100
    assert percentile(values, 95) == 190
    assert percentile(reversed(values), 95) == 190


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError, match="beyond"):
        percentile(range(199), 95)  # rank 190 leaves 9 beyond it
    with pytest.raises(ValueError):
        percentile(range(15), 50)   # rank 8 leaves 7 beyond it
    assert percentile(range(20), 50) == 9


def test_percentile_sorts_failures_last():
    values = [1.0] * 190 + [math.inf] * 10
    assert percentile(values, 95) == 1.0
    assert percentile(values + [math.inf], 95) == math.inf


def test_union_length_counts_overlaps_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0


def test_self_time_subtracts_the_union_of_children():
    assert self_time(0, 10, [(1, 3), (2, 4), (6, 7)]) == 6
    # A child overrunning its parent is clipped; one outside is ignored.
    assert self_time(0, 10, [(9, 12), (11, 13)]) == 9
    assert self_time(0, 10, []) == 10


def test_backlog_counts_due_and_unfinished_requests():
    records = [(0.0, 0.5), (1.0, 3.0), (2.0, math.inf)]
    assert backlog_at(records, 0.25) == 1
    assert backlog_at(records, 2.5) == 2
    assert backlog_at(records, 10.0) == 1


def test_step_passes_within_the_limit():
    assert step_verdict([5.0] * 200, 100.0, 2, 2, 2) == "pass"


def test_step_misses_the_limit():
    latencies = [5.0] * 180 + [150.0] * 20
    assert step_verdict(latencies, 100.0, 0, 0, 2) == "limit"


def test_failed_requests_miss_the_limit():
    latencies = [5.0] * 180 + [math.inf] * 20
    assert step_verdict(latencies, 100.0, 0, 0, 2) == "limit"


def test_step_stops_on_a_growing_backlog():
    assert step_verdict([5.0] * 200, 100.0, 3, 7, 2) == "backlog"
    # Requests in flight on every connection are not a backlog...
    assert step_verdict([5.0] * 200, 100.0, 0, 2, 2) == "pass"
    # ...and neither is a queue that is draining.
    assert step_verdict([5.0] * 200, 100.0, 7, 4, 2) == "pass"


def test_ladder_climbs_until_a_step_fails():
    assert next_rate(32.0, None, 2.0, 1.1) == 64.0


def test_ladder_bisects_between_the_last_pass_and_the_first_failure():
    assert next_rate(32.0, 64.0, 2.0, 1.1) == pytest.approx(32 * 2 ** 0.5)
    # Passes raise lo and failures lower hi until they are close.
    lo, hi, rates = 32.0, 64.0, []
    capacity = 45.0
    while (rate := next_rate(lo, hi, 2.0, 1.1)) is not None:
        rates.append(rate)
        lo, hi = (rate, hi) if rate <= capacity else (lo, rate)
    assert len(rates) == 3 and lo <= capacity < hi <= lo * 1.1


def test_ladder_stops_when_the_base_rate_fails():
    assert next_rate(None, 32.0, 2.0, 1.1) is None


@pytest.mark.parametrize("name", ["setup_s", "cache.hit_ratio", "p-95",
                                  "9lives", "a" * 64])
def test_metric_names_accepted(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "a b", "lat/ms", ".hidden",
                                  "_x", "a" * 65, None])
def test_metric_names_rejected(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_scipy_import_share_counts_outermost_scipy_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:       400 |        400 |       scipy._lib",
        "import time:        50 |        450 |     scipy.stats",
        "import time:        10 |       1000 |   repro.analysis.regression",
        "import time:        30 |        30 |   scipy.cluster",
        "import time:         5 |       1500 | repro.cli",
    ])
    assert scipy_import_s(stderr) == pytest.approx((450 + 30) / 1e6)


def test_request_mix_is_reproducible_from_the_seed():
    countries = ["BR", "DE", "FR", "NZ", "UY"]
    first = mix.make_requests(7, countries, 400)
    assert first == mix.make_requests(7, list(reversed(countries)), 400)
    assert first != mix.make_requests(8, countries, 400)
    methods = [request["method"] for request in first]
    assert 0.15 < methods.count("POST") / len(methods) < 0.35
    endpoints = [request["endpoint"] for request in first]
    assert set(endpoints) == set(mix.ENDPOINTS)
    assert all(70 < endpoints.count(name) < 130 for name in mix.ENDPOINTS)


def test_warmup_covers_every_shape_by_get_and_post():
    warmup = mix.warmup_requests(["UY"])
    shapes = {(r["endpoint"], json.dumps(r["payload"], sort_keys=True))
              for r in warmup}
    assert len(shapes) * 2 == len(warmup) == 20


def test_generator_lag_ignores_time_waiting_for_a_busy_connection():
    # Lane 0 sends request 0 at 0.0 and it completes at 0.5; request 2
    # was due at 0.1 but its connection was busy until 0.5, so sending
    # it at 0.5005 is 0.5 ms of generator lag, not 400.5 ms.
    records = [(0.0, 0.0, 0.5, True), (0.05, 0.05, 0.06, True),
               (0.1, 0.5005, 0.6, True), (0.15, 0.152, 0.16, True)]
    step = load.Step(rate=20.0, records=records, t0=0.0, duration_s=0.2)
    assert step.lag_ms() == pytest.approx([0.0, 0.0, 0.5, 2.0])


def test_a_step_stopped_early_has_missed_the_limit():
    # 11 of 200 requests over the limit: p95 cannot meet it any more.
    late = [(k / 40.0, k / 40.0, k / 40.0 + 0.2, True) for k in range(11)]
    step = load.Step(rate=40.0, records=late + [None] * 189, t0=0.0,
                     duration_s=5.0)
    assert step.stopped_early and len(step.sent) == 11
    assert step.verdict() == "limit" and step.valid()


def test_a_time_at_reference_speed_follows_the_probe_by_a_power():
    ref = probe.REFERENCE_S
    assert probe.at_reference_speed(4.0, ref) == pytest.approx(4.0)
    # A probe that ran twice as slow shrinks the time by
    # 2 ** SENSITIVITY, not by 2.
    assert probe.at_reference_speed(4.0, 2 * ref) == \
        pytest.approx(4.0 / 2 ** probe.SENSITIVITY)


def test_a_run_is_read_at_the_median_of_its_probes(tmp_path):
    bench = Bench(tmp_path, 1, 10.0)
    ref = probe.REFERENCE_S
    bench.probes.extend([ref, 9 * ref, 2 * ref])
    assert bench.at_reference_speed(3.0) == \
        pytest.approx(probe.at_reference_speed(3.0, 2 * ref))


def test_the_probe_does_fixed_work_and_leaves_the_collector_as_found():
    import gc
    assert gc.isenabled()
    assert probe.probe_once() > 0
    assert gc.isenabled()
