"""The repository benchmark: ``repro-gov`` timed as a user runs it.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload run_cold --seed 1 --seconds 25 \
        --trace 0

Each workload drives the real CLI and gateway as child processes built
from the checkout's ``src`` (see ``perfbench/README.md`` for what each
workload runs, why, and what each metric means).  ``--seed`` becomes the
world ``--seed`` and seeds the gateway's query sequence.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` runs the traced sweep
that times every layer from this directory's own spans.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
(every CLI process, gate and HTTP request is one attempt) and
``metrics``, named and united as ``BENCHMARK.json`` declares them.
Batch and set-up times are read at a fixed reference speed of the box
(``probe.py``); the times as measured go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import zlib
from statistics import median

import load
import probe
from stats import check_metric_name, percentile, self_time, union_length

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: World size: 0.1 of the paper's dataset (97,903 URL records), large
#: enough that generation and the scan outweigh interpreter start-up,
#: small enough that a full set of benchmark runs fits its time budget.
SCALE = "0.1"
#: Set-up is repeated and its median reported.
SETUP_REPEATS = 3
#: Measured repetitions per run, at least, however long they take.
MIN_REPS = 3
#: Distinct gateway requests prepared per run (the ladder cycles them).
REQUEST_COUNT = 600
#: A run stops its children by this many seconds after it started.
RUN_DEADLINE_S = 170.0
COVERAGE_FLOOR = 0.9
MIB = 1024.0 * 1024.0

#: The console script's entry point, run from the checkout's ``src``.
REPRO_GOV = [sys.executable, "-c",
             "import sys; from repro.cli import main; sys.exit(main())"]

_CACHE_LINE = re.compile(r"cache: (\d+) hits, (\d+) misses")
_WROTE = re.compile(r"wrote ([\d,]+) records")
_PORT = re.compile(r"http://[^:\s]+:(\d+)")


@dataclasses.dataclass
class Child:
    wall_s: float
    rss_mb: float
    rc: int
    stdout: str


class Bench:
    """One run's work directory, child processes and failure tally."""

    def __init__(self, work: pathlib.Path, seed: int, seconds: float):
        self.work = work
        self.seed = str(seed)
        self.seconds = seconds
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        # Unbuffered, so the gateway's banner reaches the pipe at once.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONUNBUFFERED="1")
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        #: Children started and not yet reaped, killed if the run dies.
        self.live: set = set()
        #: Speed probe times, taken between the timed steps.
        self.probes: list = []

    def tally(self, what: str, attempted: int, failed: int) -> bool:
        """Count ``attempted`` operations, ``failed`` of them failed."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"perfbench: FAILED {what} ({failed}/{attempted})",
                  file=sys.stderr)
        return not failed

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation (a process or a gate) that passed if ``ok``."""
        return self.tally(what, 1, 0 if ok else 1)

    def probe(self) -> None:
        """Time the speed probe now, while no child is busy."""
        seconds = probe.probe_once()
        self.probes.append(seconds)
        print(f"perfbench: probe took {seconds:.4f} s", file=sys.stderr)

    def at_reference_speed(self, seconds: float) -> float:
        """``seconds``, taken during this run, at reference speed by the
        median of the run's probes (see ``probe.py``)."""
        return probe.at_reference_speed(seconds, median(self.probes))

    def cli(self, *args) -> list:
        return REPRO_GOV + [str(arg) for arg in args]

    def layers(self, *args) -> list:
        return [sys.executable, str(HERE / "layers.py")] + \
            [str(arg) for arg in args]

    def remaining(self) -> float:
        """Seconds left before the run's deadline (at least 1)."""
        return max(1.0, self.deadline - time.perf_counter())

    def run(self, argv: list, name: str) -> Child:
        """Run a child to completion; wall time from spawn to reap, peak
        RSS of that child alone (``wait4``, not ``RUSAGE_CHILDREN``,
        which keeps the maximum over every child reaped so far)."""
        out_path = self.work / f"{name}.out"
        err_path = self.work / f"{name}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = self._spawn(argv, stdout=out, stderr=err)
            rc, rss_mb = self._reap(proc, self.remaining())
            wall = time.perf_counter() - started
        print(f"perfbench: {name} took {wall:.4f} s", file=sys.stderr)
        if rc != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"perfbench: {name} exited {rc}:\n{tail}", file=sys.stderr)
        return Child(wall, rss_mb, rc, out_path.read_text(errors="replace"))

    def _spawn(self, argv: list, **streams) -> subprocess.Popen:
        # Every child gets its own string-hash seed, fixed by the run's
        # seed and the child's place in the run: repetitions differ in
        # hash order, so the byte-identity gates catch output that
        # depends on it, and the same seed repeats the same run.
        hash_seed = zlib.crc32(f"{self.seed}/{self.spawned}".encode())
        self.spawned += 1
        proc = subprocess.Popen(argv, cwd=self.work, **streams,
                                env=dict(self.env,
                                         PYTHONHASHSEED=str(hash_seed)))
        self.live.add(proc)
        return proc

    def _reap(self, proc: subprocess.Popen, timeout: float):
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        self.live.discard(proc)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def kill_all(self) -> None:
        """Kill and reap whatever is still running."""
        for proc in list(self.live):
            proc.kill()
            self._reap(proc, 10.0)

    def start_server(self, store: pathlib.Path):
        """Launch ``repro-gov serve`` on a free port; returns
        ``(process, port)`` once the banner names the port."""
        with open(self.work / "serve.err", "ab") as err:
            proc = self._spawn(
                self.cli("serve", "--store-dir", store, "--port", "0"),
                stdout=subprocess.PIPE, stderr=err)
        ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
        banner = proc.stdout.readline().decode() if ready else ""
        match = _PORT.search(banner)
        if match is None:
            self.stop_server(proc)
            raise RuntimeError(f"gateway did not start: {banner!r}")
        return proc, int(match.group(1))

    def stop_server(self, proc: subprocess.Popen) -> float:
        """SIGINT the gateway, reap it, return its peak RSS (MB)."""
        proc.send_signal(signal.SIGINT)
        rc, rss_mb = self._reap(proc, min(10.0, self.remaining()))
        proc.stdout.close()
        self.check(rc == 0, f"gateway exit status {rc}")
        return rss_mb


def digest(path: pathlib.Path) -> str | None:
    if not path.exists():
        return None
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


def cache_counts(stdout: str):
    """``(hits, misses)`` from the run's ``cache:`` line, or None."""
    match = _CACHE_LINE.search(stdout)
    return (int(match.group(1)), int(match.group(2))) if match else None


def records_written(stdout: str) -> int:
    match = _WROTE.search(stdout)
    return int(match.group(1).replace(",", "")) if match else 0


def remove(path: pathlib.Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def more_reps(bench: Bench, began: float, walls: list) -> bool:
    """Repeat while the next repetition still fits in ``--seconds``."""
    if len(walls) < MIN_REPS:
        return True
    return time.perf_counter() - began + median(walls) <= bench.seconds


def batch_metrics(bench: Bench, setups: list, walls: list, records: int,
                  rss: list) -> dict:
    """The end-to-end metrics of a batch workload, times at reference
    speed; the medians as measured go to stderr."""
    setup, wall = median(setups), median(walls)
    print(f"perfbench: set-up median {setup:.4f} s, step median "
          f"{wall:.4f} s as measured", file=sys.stderr)
    wall = bench.at_reference_speed(wall)
    return {"setup_s": bench.at_reference_speed(setup),
            "latency_p50_ms": wall * 1000.0, "work_per_s": records / wall,
            "peak_rss_mb": median(rss)}


def cold_run(bench: Bench, name: str, cache: pathlib.Path,
             out: pathlib.Path) -> Child:
    """``repro-gov run`` on an empty cache, checked for an all-miss scan."""
    cache.mkdir(exist_ok=True)
    child = bench.run(bench.cli("run", "--scale", SCALE, "--seed",
                                bench.seed, "--cache-dir", cache,
                                "--out", out), name)
    counts = cache_counts(child.stdout)
    bench.check(child.rc == 0 and counts is not None and counts[0] == 0
                and counts[1] > 0 and records_written(child.stdout) > 0,
                f"{name}: cold run, cache {counts}")
    return child


# ------------------------------------------------------------ workloads

def run_cold(bench: Bench) -> dict:
    setups = []
    for i in range(SETUP_REPEATS):
        bench.probe()
        started = time.perf_counter()
        (bench.work / f"cache-{i}").mkdir()
        launch = bench.run(bench.cli("--help"), f"launch-{i}")
        bench.check(launch.rc == 0 and "usage: repro-gov" in launch.stdout,
                    "CLI launch")
        setups.append(time.perf_counter() - started)
    walls, rss, first, records = [], [], None, 0
    began = time.perf_counter()
    while more_reps(bench, began, walls):
        i = len(walls)
        cache, out = bench.work / f"cache-{i}", bench.work / f"cold-{i}.jsonl"
        bench.probe()
        child = cold_run(bench, f"run-{i}", cache, out)
        walls.append(child.wall_s)
        rss.append(child.rss_mb)
        records = records or records_written(child.stdout)
        first = first or digest(out)
        bench.check(digest(out) == first, f"run-{i}: jsonl differs from run-0")
        remove(cache)
        remove(out)
    bench.probe()
    return batch_metrics(bench, setups, walls, records, rss)


def rerun_report(bench: Bench) -> dict:
    setups, cold_digest = [], None
    for i in range(SETUP_REPEATS):
        bench.probe()
        started = time.perf_counter()
        cache, out = bench.work / f"cache-{i}", bench.work / f"cold-{i}.jsonl"
        cold_run(bench, f"fill-{i}", cache, out)
        setups.append(time.perf_counter() - started)
        cold_digest = cold_digest or digest(out)
        bench.check(digest(out) == cold_digest, f"fill-{i}: jsonl differs")
        if i:
            remove(bench.work / f"cache-{i - 1}")
            remove(bench.work / f"cold-{i - 1}.jsonl")
    cache = bench.work / f"cache-{SETUP_REPEATS - 1}"
    cold = bench.work / f"cold-{SETUP_REPEATS - 1}.jsonl"

    reference = bench.work / "expected-full.txt"
    child = bench.run(bench.layers("report", cold, "--text-out", reference),
                      "render-jsonl")
    bench.check(child.rc == 0, "render_report_section over the cold jsonl")
    expected_text = reference.read_text() if child.rc == 0 else None

    walls, rss, records = [], [], 0
    began = time.perf_counter()
    while more_reps(bench, began, walls):
        i = len(walls)
        store = bench.work / f"store-{i}"
        bench.probe()
        run = bench.run(bench.cli("run", "--scale", SCALE, "--seed",
                                  bench.seed, "--cache-dir", cache,
                                  "--store-dir", store), f"rerun-{i}")
        counts = cache_counts(run.stdout)
        bench.check(run.rc == 0 and counts is not None and counts[0] > 0
                    and counts[1] == 0 and records_written(run.stdout) > 0,
                    f"rerun-{i}: warm run, cache {counts}")
        records = records or records_written(run.stdout)
        report = bench.run(bench.cli("report", store, "--section", "full"),
                           f"report-{i}")
        bench.check(report.rc == 0 and report.stdout == expected_text,
                    f"report-{i}: full report from the store differs from "
                    f"render_report_section over the cold jsonl")
        walls.append(run.wall_s + report.wall_s)
        rss.append(max(run.rss_mb, report.rss_mb))
        if i:
            remove(store)
    bench.probe()

    back = bench.work / "back.jsonl"
    child = bench.run(bench.cli("convert", bench.work / "store-0", back),
                      "convert")
    bench.check(child.rc == 0 and digest(back) == cold_digest,
                "convert of the warm store back to jsonl differs from the "
                "cold jsonl")
    return batch_metrics(bench, setups, walls, records, rss)


def expected_answers(bench: Bench, store: pathlib.Path) -> dict:
    """The seeded requests and each one's expected answer bytes, computed
    in-process by ``layers.py`` through ``DatasetService.query``."""
    expected = bench.work / "expected.json"
    child = bench.run(bench.layers("expect", store, "--seed", bench.seed,
                                   "--count", REQUEST_COUNT, "--out",
                                   expected, "--spans",
                                   bench.work / "expect-spans.json"), "expect")
    if not bench.check(child.rc == 0, "computing expected answers"):
        raise RuntimeError("cannot compute the expected answers")
    return json.loads(expected.read_text())


def serve_setup(bench: Bench, store: pathlib.Path, warmup: list):
    """Launch, wait for ``/healthz``, warm every query shape once."""
    proc, port = bench.start_server(store)
    load.wait_ready(port, bench.remaining())
    conns = [load.connect(port) for _ in range(load.CONNECTIONS)]
    bench.tally("warm-up requests", len(warmup),
                load.closed_pass(conns, warmup))
    return proc, port, conns


def close_all(conns: list) -> None:
    for conn in conns:
        conn.close()


def serve_mix(bench: Bench) -> dict:
    # Preparation, not timed: the store to serve and the answers.
    store = bench.work / "serve.store"
    child = bench.run(bench.cli("run", "--scale", SCALE, "--seed",
                                bench.seed, "--store-dir", store),
                      "build-store")
    if not bench.check(child.rc == 0, "building the served store"):
        raise RuntimeError("cannot build the store to serve")
    expected = expected_answers(bench, store)
    setups = []
    for i in range(SETUP_REPEATS):
        bench.probe()
        started = time.perf_counter()
        proc, port, conns = serve_setup(bench, store, expected["warmup"])
        setups.append(time.perf_counter() - started)
        if i < SETUP_REPEATS - 1:
            close_all(conns)
            bench.stop_server(proc)
    try:
        bench.probe()  # the gateway is idle
        began = time.perf_counter()
        latencies = load.back_to_back(conns[0], expected["requests"],
                                      load.BACK_TO_BACK_REQUESTS)
        steps, stop = load.ladder(
            conns, expected["requests"],
            bench.seconds - (time.perf_counter() - began))
    finally:
        close_all(conns)
        rss = bench.stop_server(proc)
    bench.tally("back-to-back requests", len(latencies),
                sum(1 for value in latencies if value == math.inf))
    for step in steps:
        print(f"perfbench: ladder {step.rate:.1f} rps: {step.verdict()}"
              f"{'' if step.valid() else ', generator behind'}",
              file=sys.stderr)
        bench.tally(f"requests at {step.rate:g} rps", len(step.sent),
                    step.failed)
    print(f"perfbench: ladder stopped: {stop}", file=sys.stderr)
    base = steps[0]
    bench.check(base.valid(), "generator kept its schedule at the base rate")
    passing = [step for step in steps
               if step.verdict() == "pass" and step.valid()]
    top = max(passing, key=lambda step: step.rate) if passing else base
    bench.check(stop != "budget" or len(passing) < len(steps),
                f"ladder ran out of time at {top.rate:g} rps before the "
                f"gateway missed the limit: not a capacity reading")
    # While the gateway writes headers and body apart, both the
    # back-to-back latency and the ladder's rate are set by the
    # delayed-ACK stall, a timer, not by the box's speed: they are left
    # as measured.
    print(f"perfbench: set-up median {median(setups):.4f} s as measured",
          file=sys.stderr)
    return {"setup_s": bench.at_reference_speed(median(setups)),
            "latency_p50_ms": percentile(latencies, 50),
            "work_per_s": top.goodput(), "peak_rss_mb": rss}


WORKLOADS = {"run_cold": run_cold, "rerun_report": rerun_report,
             "serve_mix": serve_mix}


# ---------------------------------------------------------------- trace

def scipy_import_s(importtime_stderr: str) -> float:
    """Seconds spent importing scipy, from ``-X importtime`` output:
    the cumulative time of each scipy module not imported by another
    scipy module."""
    lines = []
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2][1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        lines.append((depth, name.strip(), cumulative))
    total_us, stack = 0, []
    # importtime prints children before parents: walk it backwards so
    # every module comes after the one that imported it.
    for depth, name, cumulative in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


def _span_index(path: pathlib.Path) -> dict:
    data = json.loads(path.read_text())
    items = data["spans"]
    children = {}
    for item in items:
        children.setdefault(item["parent"], []).append(item)
    data["children"] = children
    return data


def _named(data: dict, name: str) -> list:
    return [item for item in data["spans"] if item["name"] == name]


def _duration(item: dict) -> float:
    return item["end"] - item["start"]


def _total(data: dict, name: str) -> float:
    return sum(_duration(item) for item in _named(data, name))


def _scan_phase(data: dict) -> tuple:
    """The pipeline's ``scan`` phase span and its per-country scans."""
    run = _named(data, "pipeline.run")[0]
    phase = next(item for item in data["children"][run["id"]]
                 if item["name"] == "scan")
    return phase, data["children"].get(phase["id"], [])


def _tree_mib(path: pathlib.Path) -> float:
    return sum(item.stat().st_size for item in path.rglob("*")
               if item.is_file()) / MIB


def traced_sweep(bench: Bench, workload: str) -> dict:
    """Every layer timed from the benchmark's own spans, plus the gates
    that the trace changes nothing."""
    importtime = bench.run([sys.executable, "-X", "importtime", "-c",
                            "import repro.cli"], "importtime")
    bench.check(importtime.rc == 0, "import repro.cli")
    scipy_s = scipy_import_s((bench.work / "importtime.err").read_text())

    untraced = cold_run(bench, "untraced-cold", bench.work / "cache-u",
                        bench.work / "untraced.jsonl")
    cache, out = bench.work / "cache-t", bench.work / "traced.jsonl"
    cache.mkdir()
    traced = bench.run(bench.layers(
        "run", "--seed", bench.seed, "--scale", SCALE, "--cache-dir", cache,
        "--out", out, "--spans", bench.work / "cold-spans.json"),
        "traced-cold")
    bench.check(traced.rc == 0 and digest(out) == digest(
        bench.work / "untraced.jsonl"), "traced jsonl differs from untraced")
    store = bench.work / "traced.store"
    warm_run = bench.run(bench.layers(
        "run", "--seed", bench.seed, "--scale", SCALE, "--cache-dir", cache,
        "--store-dir", store, "--spans", bench.work / "warm-spans.json"),
        "traced-warm")
    bench.check(warm_run.rc == 0, "traced warm run")
    report_text = bench.work / "traced-report.txt"
    report = bench.run(bench.layers(
        "report", store, "--text-out", report_text, "--spans",
        bench.work / "report-spans.json"), "traced-report")
    bench.check(report.rc == 0, "traced report")
    expected = expected_answers(bench, store)
    full = next(json.loads(item["expected"])["text"]
                for item in expected["warmup"]
                if item["payload"] == {"section": "full"})
    bench.check(report_text.read_text() == full + "\n",
                "batch full report differs from the service's")

    proc, port, conns = serve_setup(bench, store, expected["warmup"])
    try:
        step = load.run_step(conns, expected["requests"], 0, load.BASE_RPS)
        bench.tally("requests at the base rate", len(step.sent),
                    step.failed)
        close_all(conns)
        conn = load.connect(port)
        try:
            status, body = load.send(conn, {"method": "GET",
                                            "path": "/metrics", "body": None})
        finally:
            conn.close()
        bench.check(status == 200, "/metrics")
        inflight = json.loads(body)["gauges"].get("serve.inflight.peak", 0)
    finally:
        close_all(conns)
        bench.stop_server(proc)

    cold = _span_index(bench.work / "cold-spans.json")
    warm = _span_index(bench.work / "warm-spans.json")
    rep = _span_index(bench.work / "report-spans.json")
    exp = _span_index(bench.work / "expect-spans.json")
    phase, scans = _scan_phase(cold)
    warm_phase, _ = _scan_phase(warm)
    top = [(item["start"], item["end"]) for item in cold["children"][None]]
    coverage = union_length(top) / traced.wall_s
    bench.check(coverage >= COVERAGE_FLOOR,
                f"trace covers {coverage:.3f} of the traced run's wall time")
    counters = cold["counters"]
    fetched = counters.get("crawl.fetched_urls", 0)
    stats = (warm if workload == "rerun_report" else cold)["cache"]
    lookups = stats["hits"] + stats["misses"]
    dispatch = expected["dispatch_ms"]
    socket_p50 = percentile(step.latencies_ms, 50)
    bodies = [len(item["expected"].encode()) for item in expected["requests"]]
    return {
        "cli.import_s": median([_total(data, "cli.import")
                                for data in (cold, warm, rep, exp)]),
        "cli.import_scipy_s": scipy_s,
        "datagen.generate_s": _total(cold, "datagen.generate"),
        "core.scan_s": sum(_duration(item) for item in scans),
        "core.crawl_s": _total(cold, "crawl"),
        "core.filter_s": _total(cold, "filter"),
        "core.resolve_s": _total(cold, "resolve"),
        "core.geolocate_s": _total(cold, "geolocate"),
        "core.page_loads": counters.get("crawl.page_loads", 0),
        "core.urls_fetched": fetched,
        "core.urls_accepted": counters.get("filter.accepted_urls", 0),
        "core.accept_ratio": (counters.get("filter.accepted_urls", 0)
                              / fetched if fetched else 0.0),
        "core.hosts_resolved": counters.get("resolve.resolved_hosts", 0),
        "core.assemble_s": _total(cold, "merge") + _total(cold, "finalize"),
        "core.summarize_s": _total(cold, "core.summarize"),
        "cache.hits": stats["hits"],
        "cache.misses": stats["misses"],
        "cache.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
        "cache.read_mib": stats["bytes_read"] / MIB,
        "cache.written_mib": stats["bytes_written"] / MIB,
        "cache.store_s": self_time(phase["start"], phase["end"],
                                   [(s["start"], s["end"]) for s in scans]),
        "cache.load_s": _duration(warm_phase),
        "io.save_dataset_s": _total(cold, "io.save_dataset"),
        "io.jsonl_mib": out.stat().st_size / MIB,
        "store.write_s": _total(warm, "store.write"),
        "store.written_mib": _tree_mib(store),
        "store.open_s": _total(rep, "store.open"),
        "analysis.index_build_s": _total(rep, "analysis.index_build"),
        "reporting.render_full_s": _total(rep, "reporting.render_full"),
        "serve.dispatch_p50_ms": percentile(dispatch, 50),
        "serve.dispatch_p95_ms": percentile(dispatch, 95),
        "serve.socket_p50_ms": socket_p50,
        "serve.socket_p95_ms": percentile(step.latencies_ms, 95),
        "serve.gateway_p50_ms": socket_p50 - percentile(dispatch, 50),
        "serve.response_kib": sum(bodies) / len(bodies) / 1024.0,
        "serve.inflight_peak": inflight,
        "serve.generator_lag_p95_ms": percentile(step.lag_ms(), 95),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
        "trace.coverage": coverage,
    }


# ----------------------------------------------------------------- main

def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    return {check_metric_name(item["name"]): item["unit"] for item in group}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program under test in {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    work = ROOT / ".perfbench-work" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    remove(work)
    work.mkdir(parents=True)
    bench = Bench(work, args.seed, args.seconds)
    # A timeout arrives as SIGTERM: unwind so children are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        build = bench.run([sys.executable, "-m", "compileall", "-q",
                           str(ROOT / "src")], "build")
        if build.rc != 0:
            return 2
        if args.trace:
            values = traced_sweep(bench, args.workload)
        else:
            values = WORKLOADS[args.workload](bench)
    finally:
        bench.kill_all()
        remove(work)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json "
                           f"declares {sorted(units)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
