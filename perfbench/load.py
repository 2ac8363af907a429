"""Open-loop HTTP load over keep-alive connections, and the rate ladder.

Two clients, one thread and one keep-alive connection each, send the
seeded request sequence on a fixed schedule: request ``k`` of a step is
due at ``t0 + k / rate`` and goes out on connection ``k % 2``.  A client
never waits for the other, so a stalled server grows a queue instead of
slowing the load (an open loop, as independent users would make).
Latency is timed from each request's due time, which charges the wait
a stall imposes on the requests behind it.  Generator lag is how late a
client sent a request that was due and whose connection was free: the
load generator's own delay, which must stay near zero for a step to
count.
"""

from __future__ import annotations

import dataclasses
import http.client
import math
import threading
import time

from stats import backlog_at, next_rate, percentile, step_verdict

CONNECTIONS = 2
#: p95 latency limit of a ladder step.
LIMIT_MS = 100.0
#: First ladder rate, below the gateway's capacity (main's keep-alive
#: stall caps it between 40 and 50 rps).  Rates double until a step
#: fails, then bisect until the last passing and the first failing
#: rate are at most RESOLUTION apart, well inside the 0.25 bound.
BASE_RPS = 32.0
RATE_FACTOR = 2.0
RESOLUTION = 1.05
#: Requests per step: enough for a p95 with ten samples beyond it.
STEP_REQUESTS = 200
MIN_STEP_S = 1.0
#: Requests sent back to back on one connection, for the closed-loop p50.
BACK_TO_BACK_REQUESTS = 60
#: A step whose generator lag p95 exceeds this is not valid.
LAG_LIMIT_MS = 10.0
REQUEST_TIMEOUT_S = 10.0
#: The last stretch before a request is due is spent yielding rather
#: than asleep: waking an idle vCPU can overshoot by a fraction of a
#: millisecond, which would count as latency on a ~1 ms answer.
SPIN_S = 0.002
#: Requests still unsent this long after a step's schedule ends fail
#: unsent, so a hung gateway cannot hold the benchmark past its limit.
DRAIN_S = 15.0


def send(conn: http.client.HTTPConnection, request: dict):
    """Send one request on ``conn``; returns ``(status, body bytes)``."""
    body = request["body"]
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(request["method"], request["path"],
                 body=body.encode("utf-8") if body is not None else None,
                 headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def connect(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)


def wait_ready(port: int, timeout_s: float) -> None:
    """Poll ``/healthz`` until it answers 200; each probe's connection is
    closed at once, so no idle keep-alive connection pins a pool worker
    while the load runs."""
    deadline = time.perf_counter() + timeout_s
    while True:
        conn = connect(port)
        try:
            status, _ = send(conn, {"method": "GET", "path": "/healthz",
                                    "body": None})
            if status == 200:
                return
        except (OSError, http.client.HTTPException):
            pass
        finally:
            conn.close()
        if time.perf_counter() > deadline:
            raise TimeoutError(f"gateway on port {port} never became ready")
        time.sleep(0.02)


def answered(conn: http.client.HTTPConnection, request: dict) -> bool:
    """Send ``request``; True if it answered 200 with the expected bytes.

    A broken connection is closed, and reopens on its next request.
    """
    try:
        status, body = send(conn, request)
    except (OSError, http.client.HTTPException):
        conn.close()
        return False
    return status == 200 and body == request["expected"].encode()


def back_to_back(conn: http.client.HTTPConnection, requests,
                 count: int) -> list:
    """Send the first ``count`` of ``requests`` on ``conn``, each as soon
    as the one before has been answered (a closed loop, as one client
    walking through queries makes); returns each one's latency in ms,
    ``inf`` where it failed."""
    latencies = []
    for k in range(count):
        started = time.perf_counter()
        ok = answered(conn, requests[k % len(requests)])
        latencies.append((time.perf_counter() - started) * 1000.0
                         if ok else math.inf)
    return latencies


def closed_pass(conns: list, requests) -> int:
    """Send ``requests`` one at a time, alternating connections; returns
    the number not answered correctly."""
    return sum(not answered(conns[k % len(conns)], request)
               for k, request in enumerate(requests))


@dataclasses.dataclass
class Step:
    rate: float
    #: ``(due, sent, done, ok)`` per request; ``done`` is inf on failure,
    #: and the record is None if the step stopped before sending it.
    records: list
    t0: float
    duration_s: float

    @property
    def sent(self) -> list:
        return [record for record in self.records if record is not None]

    @property
    def stopped_early(self) -> bool:
        return len(self.sent) < len(self.records)

    @property
    def latencies_ms(self) -> list:
        return [(done - due) * 1000.0 for due, _, done, _ in self.sent]

    @property
    def failed(self) -> int:
        return sum(1 for *_, ok in self.sent if not ok)

    def lag_ms(self) -> list:
        lags = []
        free_at = {}
        for k, record in enumerate(self.records):
            if record is None:
                continue
            due, sent, done, _ = record
            lane = k % CONNECTIONS
            lags.append(max(0.0, sent - max(due, free_at.get(lane, due)))
                        * 1000.0)
            free_at[lane] = done
        return lags

    def verdict(self) -> str:
        if self.stopped_early:
            return "limit"
        pairs = [(due, done) for due, _, done, _ in self.sent]
        return step_verdict(
            self.latencies_ms, LIMIT_MS,
            backlog_at(pairs, self.t0 + self.duration_s / 2),
            backlog_at(pairs, self.t0 + self.duration_s), CONNECTIONS)

    def valid(self) -> bool:
        lags = self.lag_ms()
        if self.stopped_early:  # too few samples for a p95: the maximum
            return max(lags) <= LAG_LIMIT_MS
        return percentile(lags, 95) <= LAG_LIMIT_MS

    def goodput(self) -> float:
        """Requests per second answered correctly within the limit."""
        good = [done for due, _, done, ok in self.sent
                if ok and (done - due) * 1000.0 <= LIMIT_MS]
        return len(good) / (max(good) - self.t0) if good else 0.0


def step_count(rate: float) -> int:
    """Requests in a step at ``rate``."""
    return max(STEP_REQUESTS, math.ceil(rate * MIN_STEP_S))


def run_step(conns: list, requests, start: int, rate: float,
             stop_early: bool = False) -> Step:
    """Send one ladder step at ``rate`` (requests drawn cyclically from
    ``requests`` starting at index ``start``).

    With ``stop_early``, the step stops sending once more requests have
    missed the limit than its p95 allows: the rest cannot save it.
    """
    count = step_count(rate)
    records = [None] * count
    t0 = time.perf_counter() + 0.05
    deadline = t0 + count / rate + DRAIN_S
    allowed_late = count - math.ceil(0.95 * count)
    late = [0] * CONNECTIONS

    def client(lane: int) -> None:
        for k in range(lane, count, CONNECTIONS):
            if stop_early and sum(late) > allowed_late:
                return
            due = t0 + k / rate
            if time.perf_counter() > deadline:
                records[k] = (due, due, math.inf, False)
                continue
            delay = due - time.perf_counter()
            if delay > SPIN_S:
                time.sleep(delay - SPIN_S)
            while time.perf_counter() < due:
                time.sleep(0)  # releases the GIL to the other client
            request = requests[(start + k) % len(requests)]
            sent = time.perf_counter()
            ok = answered(conns[lane], request)
            done = time.perf_counter()
            records[k] = (due, sent, done if ok else math.inf, ok)
            if not ok or done - due > LIMIT_MS / 1000.0:
                late[lane] += 1

    threads = [threading.Thread(target=client, args=(lane,), daemon=True)
               for lane in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Step(rate=rate, records=records, t0=t0, duration_s=count / rate)


def ladder(conns: list, requests, budget_s: float):
    """Find the highest rate that meets the limit; returns ``(steps,
    stop)``.

    The first step runs at :data:`BASE_RPS` and always runs to its end;
    later ones stop early once they have missed the limit.  A step that
    misses the limit, grows a backlog or is invalid fails; the next rate
    follows :func:`stats.next_rate`.  ``stop`` says why the ladder ended:
    ``"resolved"`` (bracketed to :data:`RESOLUTION`), ``"base"`` (the
    base rate failed) or ``"budget"`` (the next step would overrun
    ``budget_s``; if no step has failed yet, the reading is only a
    lower bound on capacity).
    """
    steps = []
    lo = hi = None
    rate, start = BASE_RPS, 0
    began = time.perf_counter()
    while True:
        step = run_step(conns, requests, start, rate, stop_early=bool(steps))
        steps.append(step)
        start += len(step.records)
        if step.verdict() == "pass" and step.valid():
            lo = rate
        elif lo is None:
            return steps, "base"
        else:
            hi = rate
        rate = next_rate(lo, hi, RATE_FACTOR, RESOLUTION)
        if rate is None:
            return steps, "resolved"
        if time.perf_counter() - began + step_count(rate) / rate > budget_s:
            return steps, "budget"
