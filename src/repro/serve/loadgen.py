"""Load generation against a running corridor query server.

The client fleet is :func:`_fetch_all`, the repository's one thread
pool: ``clients`` threads with at most one request in flight each.  The
seeded request mix is built up front, the fleet replays it, and the
report reduces the per-request samples (in request order) into sustained
throughput and tail latency.
Determinism discipline: the request *sequence* is seeded
(``random.Random(profile.seed)``), so two runs of the same profile issue
identical requests in identical order — only the timings differ.

This module is on the lint obs-discipline allowlist: like
``benchmarks/``, measuring wall time is its whole point, so it reads
``time.perf_counter`` directly instead of going through obs spans.
"""

from __future__ import annotations

import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

#: The default request mix: every served endpoint, with a couple of
#: parameterised variants so warm runs exercise more than one cache key.
DEFAULT_PATHS = (
    "/rankings",
    "/rankings?date=2019-01-01",
    "/apa",
    "/timeline?step=paper",
    "/timeline?step=paper&licensee=New%20Line%20Networks",
    "/search",
    "/map",
)


@dataclass(frozen=True)
class LoadProfile:
    """One reproducible load shape: how much, how wide, what mix."""

    requests: int = 200
    clients: int = 4
    paths: tuple[str, ...] = DEFAULT_PATHS
    seed: int = 7


@dataclass(frozen=True)
class RequestSample:
    """One request's outcome as measured by the client."""

    path: str
    status: int
    elapsed_ms: float


@dataclass(frozen=True)
class LoadReport:
    """The reduced result of one load run."""

    requests: int
    clients: int
    wall_s: float
    qps: float
    p50_ms: float
    p99_ms: float
    errors: int

    def describe(self) -> str:
        return (
            f"{self.requests} requests / {self.clients} clients: "
            f"{self.qps:.1f} qps over {self.wall_s:.2f}s, "
            f"p50 {self.p50_ms:.2f} ms, p99 {self.p99_ms:.2f} ms, "
            f"{self.errors} errors"
        )


def request_sequence(profile: LoadProfile) -> list[str]:
    """The seeded request mix: same profile, same sequence, always."""
    rng = random.Random(profile.seed)
    return [rng.choice(profile.paths) for _ in range(profile.requests)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _fetch(item: tuple[str, str]) -> RequestSample:
    """One client request."""
    base_url, path = item
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(base_url + path, timeout=60) as response:
            response.read()
            status = response.status
    except urllib.error.HTTPError as error:
        error.read()
        status = error.code
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return RequestSample(path=path, status=status, elapsed_ms=elapsed_ms)


def _fetch_all(
    items: list[tuple[str, str]], clients: int
) -> list[RequestSample]:
    """:func:`_fetch` over ``items``, at most ``clients`` requests in flight.

    Samples come back in submission order whatever order the requests
    end in; the error of the first request (in submission order) that
    raised re-raises here.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if not items:
        return []
    # Imported here: only a load run starts threads, so no other command
    # pays for the import.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(clients, len(items))) as pool:
        return list(pool.map(_fetch, items))


def run_load(base_url: str, profile: LoadProfile | None = None) -> LoadReport:
    """Replay ``profile`` against ``base_url`` with ``profile.clients``
    requests in flight at once."""
    profile = profile if profile is not None else LoadProfile()
    base = base_url.rstrip("/")
    items = [(base, path) for path in request_sequence(profile)]
    start = time.perf_counter()
    samples = _fetch_all(items, profile.clients)
    wall_s = time.perf_counter() - start
    latencies = [s.elapsed_ms for s in samples]
    errors = sum(1 for s in samples if s.status != 200)
    return LoadReport(
        requests=len(samples),
        clients=profile.clients,
        wall_s=wall_s,
        qps=len(samples) / wall_s if wall_s > 0 else 0.0,
        p50_ms=percentile(latencies, 0.50),
        p99_ms=percentile(latencies, 0.99),
        errors=errors,
    )
