"""The seeded query mix sent to the gateway by ``serve_mix``.

One definition serves both sides: run.py sends these requests over
HTTP, and the child that computes the expected answers feeds the same
payloads to ``DatasetService.query`` in-process.
"""

from __future__ import annotations

import json
import random
import urllib.parse

#: The query shapes, each drawn uniformly: the endpoints, then each
#: endpoint's parameters.  ``full`` is one report section of five, so
#: one request in twenty; the mix gives it no weight of its own.
ENDPOINTS = ("categories", "crossborder", "providers", "report")
REPORT_SECTIONS = ("summary", "providers", "global", "regional")
PROVIDER_TOPS = (5, 10, 25)
POST_SHARE = 0.25


def _request(endpoint: str, payload: dict, method: str) -> dict:
    if method == "POST":
        return {"endpoint": endpoint, "payload": payload, "method": "POST",
                "path": f"/v1/{endpoint}", "body": json.dumps(payload)}
    query = {key: ",".join(value) if isinstance(value, list) else str(value)
             for key, value in payload.items()}
    path = f"/v1/{endpoint}"
    if query:
        path += "?" + urllib.parse.urlencode(query)
    return {"endpoint": endpoint, "payload": payload, "method": "GET",
            "path": path, "body": None}


def warmup_requests(countries) -> list[dict]:
    """One request per distinct query shape, each as GET and as POST."""
    first = countries[0]
    payloads = [("categories", {"country": first, "weighting": "urls"}),
                ("categories", {"country": first, "weighting": "bytes"}),
                ("crossborder", {"sources": [first], "basis": "server"}),
                ("crossborder", {"sources": [first],
                                 "basis": "registration"}),
                ("providers", {"top": 10})]
    payloads += [("report", {"section": section})
                 for section in REPORT_SECTIONS + ("full",)]
    return [_request(endpoint, payload, method)
            for endpoint, payload in payloads for method in ("GET", "POST")]


def make_requests(seed: int, countries, count: int) -> list[dict]:
    """``count`` requests drawn from the mix, reproducible from ``seed``."""
    rng = random.Random(f"perfbench-serve-{seed}")
    countries = sorted(countries)
    requests = []
    for _ in range(count):
        endpoint = rng.choice(ENDPOINTS)
        if endpoint == "categories":
            payload = {"country": rng.choice(countries),
                       "weighting": rng.choice(("urls", "bytes"))}
        elif endpoint == "crossborder":
            payload = {"sources": sorted(rng.sample(countries,
                                                    rng.randint(1, 3))),
                       "basis": rng.choice(("server", "registration"))}
        elif endpoint == "providers":
            payload = {"top": rng.choice(PROVIDER_TOPS)}
        else:
            payload = {"section": rng.choice(REPORT_SECTIONS + ("full",))}
        method = "POST" if rng.random() < POST_SHARE else "GET"
        requests.append(_request(endpoint, payload, method))
    return requests
