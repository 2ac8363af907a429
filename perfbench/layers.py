"""Traced child process: calls each layer's public functions under spans.

Run with the program's ``src`` on ``PYTHONPATH``::

    python3 perfbench/layers.py run --seed 3 --scale 0.1 --cache-dir c \\
        --out d.jsonl --spans cold.json
    python3 perfbench/layers.py report d.store --text-out r.txt
    python3 perfbench/layers.py expect d.store --seed 3 --count 600 \\
        --out expected.json

``run`` repeats what ``repro-gov run`` does, step by step; ``report``
what ``repro-gov report PATH --section full`` does; ``expect`` answers
the seeded ``serve_mix`` queries through ``DatasetService.query`` and
records each answer's bytes and dispatch time.  Spans are kept in
memory and written as JSON when the child ends, with raw
``time.perf_counter`` readings, which on Linux share one monotonic
clock with the parent that measured the child's wall time.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402


class Spans:
    """Flat span buffer: ``{id, name, parent, start, end}`` entries."""

    def __init__(self) -> None:
        self.items: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        entry = {"id": len(self.items), "name": name,
                 "parent": self._stack[-1] if self._stack else None,
                 "start": time.perf_counter(), "end": None}
        self.items.append(entry)
        self._stack.append(entry["id"])
        try:
            yield entry
        finally:
            entry["end"] = time.perf_counter()
            self._stack.pop()

    def graft(self, span, parent: int) -> None:
        """Copy a finished ``repro.obs`` span tree under ``parent``."""
        entry = {"id": len(self.items), "name": span.name, "parent": parent,
                 "start": span.start_s, "end": span.end_s}
        self.items.append(entry)
        for child in span.children:
            self.graft(child, entry["id"])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def cmd_run(args, spans: Spans) -> dict:
    with spans.span("cli.import"):
        import repro.cli  # noqa: F401
        from repro import Pipeline, SyntheticWorld, WorldConfig
        from repro.exec import make_executor
    with spans.span("datagen.generate"):
        world = SyntheticWorld.generate(
            WorldConfig(seed=args.seed, scale=args.scale))
    from repro.cache import ScanCache
    from repro.obs import Observability

    cache = ScanCache(args.cache_dir)
    obs = Observability()
    executor = make_executor("serial", workers=None)
    with spans.span("core.pipeline") as pipeline_span:
        try:
            dataset = Pipeline(world, obs=obs).run(executor=executor,
                                                   cache=cache)
        finally:
            executor.close()
    for root in obs.tracer.roots:
        spans.graft(root, pipeline_span["id"])
    with spans.span("core.summarize"):
        dataset.summarize()
    if args.out:
        with spans.span("io.save_dataset"):
            from repro.io import save_dataset

            save_dataset(dataset, args.out)
    if args.store_dir:
        with spans.span("store.write"):
            from repro.store import write_store

            write_store(dataset, args.store_dir, overwrite=True)
    return {"counters": obs.metrics.to_dict()["counters"],
            "cache": cache.stats.to_dict()}


def cmd_report(args, spans: Spans) -> dict:
    with spans.span("cli.import"):
        import repro.cli  # noqa: F401
    with spans.span("store.open"):
        from repro.serve.loader import open_any_dataset

        loaded = open_any_dataset(args.dataset)
    with loaded:
        with spans.span("analysis.index_build"):
            from repro.analysis.engine import ensure_index

            index = ensure_index(loaded.dataset)
        with spans.span("reporting.render_full"):
            from repro.reporting.sections import render_report_section

            text = render_report_section(index, "full")
    if args.text_out:
        with open(args.text_out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return {}


def cmd_expect(args, spans: Spans) -> dict:
    from mix import make_requests, warmup_requests

    with spans.span("cli.import"):
        import repro.cli  # noqa: F401
    from repro.serve import DatasetService
    from repro.serve.loader import open_any_dataset

    loaded = open_any_dataset(args.store)
    countries = sorted(loaded.dataset.countries)
    with DatasetService(loaded) as service:
        warmup = warmup_requests(countries)
        for request in warmup:
            request["expected"] = json.dumps(
                service.query(request["endpoint"], request["payload"]),
                sort_keys=True)
        requests = make_requests(args.seed, countries, args.count)
        dispatch_ms = []
        for request in requests:
            started = time.perf_counter()
            answer = service.query(request["endpoint"], request["payload"])
            dispatch_ms.append((time.perf_counter() - started) * 1000.0)
            request["expected"] = json.dumps(answer, sort_keys=True)
    _write_json(args.out, {"countries": countries, "warmup": warmup,
                           "requests": requests,
                           "dispatch_ms": dispatch_ms})
    return {}


def main() -> None:
    parser = argparse.ArgumentParser(prog="layers.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--scale", type=float, required=True)
    run.add_argument("--cache-dir", required=True)
    run.add_argument("--out")
    run.add_argument("--store-dir")
    report = sub.add_parser("report")
    report.add_argument("dataset")
    report.add_argument("--text-out")
    expect = sub.add_parser("expect")
    expect.add_argument("store")
    expect.add_argument("--seed", type=int, required=True)
    expect.add_argument("--count", type=int, required=True)
    expect.add_argument("--out", required=True)
    for command in (run, report, expect):
        command.add_argument("--spans", help="write spans + counts here")
    args = parser.parse_args()
    spans = Spans()
    handler = {"run": cmd_run, "report": cmd_report,
               "expect": cmd_expect}[args.mode]
    extra = handler(args, spans)
    if args.spans:
        _write_json(args.spans, {"process_start": PROCESS_START,
                                 "spans": spans.items, **extra})


if __name__ == "__main__":
    main()
