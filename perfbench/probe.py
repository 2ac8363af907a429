"""A fixed CPU speed probe, so times from a shared box can be compared.

The box this benchmark runs on is shared: its speed drifts and steps by
a third or more within minutes, and a child process's CPU time follows
its wall time, so neither alone is steady from one run to the next.
The probe is a fixed piece of work of the program's own kind (seeded
records built from strings and dicts, indexed, written to JSON and read
back, sorted; code unmarshalled as an import does; fresh pages
touched), with tens of MB live so that it leans on the memory system
as the program does.  The benchmark times one pass of it in its own
process before each timed step and after the last, while no child is
busy, and reads every time of the run at the median of those probes
(:func:`at_reference_speed`).  The figures then read as if measured on
a box whose speed stays fixed.  A change to the program leaves the
probe alone, so it still shows in full.

The program's times move less than the probe's: part of them (process
start, file I/O) does not follow the box's speed.  Across slow and
fast spells, a cold run's time went as the probe's time to the power
0.6-0.7, and step by step (one probe either side) as 0.5-0.65.
:data:`SENSITIVITY` is that power.  One probe is noisier than a step,
so a run uses the median of all its probes, not the ones next to each
step: the box's speed changes over minutes, a run lasts under one.

The probe is part of the benchmark's definition: changing it, or
:data:`REFERENCE_S`, rescales every time the benchmark reports.
"""

from __future__ import annotations

import gc
import json
import marshal
import random
import re
import time

#: A probe's time on the 2-core box where the benchmark was defined,
#: in one of its faster spells.
REFERENCE_S = 0.4
#: How a step's time follows the probe's: ``(probe / reference) **``
#: this.
SENSITIVITY = 0.6
#: Records built per pass, and the words they are made of.
RECORDS = 20000
WORDS = 5000

_URL = re.compile(r"https://([^/]+)/(\w+)")
_CODE = compile("\n".join(
    f"def f{i}(x, y=({i}, 'k{i}')):\n"
    f"    return {{'a': x, 'b': [y, x * {i}], 'c': str(x) + 'v{i}'}}\n"
    for i in range(400)), "<probe>", "exec")


def probe_once() -> float:
    """Wall seconds of one pass of the fixed work, with the cyclic
    garbage collector off so the caller's heap does not change it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_pass()
    finally:
        if was_enabled:
            gc.enable()


def _timed_pass() -> float:
    started = time.perf_counter()
    rng = random.Random(0)
    words = ["".join(rng.choice("abcdefghijklmnop")
                     for _ in range(rng.randint(4, 12)))
             for _ in range(WORDS)]
    records = []
    for _ in range(RECORDS):
        host = f"{rng.choice(words)}.{rng.choice(words)}.gov." \
            f"{rng.choice(words)[:2]}"
        records.append({"url": f"https://{host}/{rng.choice(words)}",
                        "host": host, "bytes": rng.randint(1, 10 ** 6),
                        "cc": rng.choice(words)[:2].upper(),
                        "tags": [rng.choice(words) for _ in range(3)]})
    by_host = {}
    for record in records:
        match = _URL.match(record["url"])
        by_host.setdefault(match.group(1), []).append(record)
    text = "\n".join(json.dumps(record, sort_keys=True)
                     for record in records)
    back = [json.loads(line) for line in text.splitlines()]
    back.sort(key=lambda record: (record["cc"], record["host"],
                                  record["bytes"]))
    blob = marshal.dumps(_CODE)
    for _ in range(20):
        marshal.loads(blob)
    pages = bytearray(8 << 20)
    pages[::4096] = b"\x01" * len(pages[::4096])
    if len(back) != len(records) or not by_host:
        raise RuntimeError("speed probe lost records")
    return time.perf_counter() - started


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds``, taken while the probe took ``probe_s``, as a box on
    which the probe takes :data:`REFERENCE_S` would take them."""
    return seconds * (REFERENCE_S / probe_s) ** SENSITIVITY
