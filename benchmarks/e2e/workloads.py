"""The three workloads, driven from outside the program.

CLI workloads run each command as a fresh ``python -m repro`` process,
one at a time.  The serve workload starts ``python -m repro serve --port 0``
and loads it from this process with at most ``LOAD_THREADS`` threads,
each holding one connection at a time.  Every child gets
``PYTHONPATH=src`` and an environment without ``REPRO_CACHE_DIR`` and
``XDG_CACHE_HOME``, and is reaped with ``os.wait4`` so its peak RSS is
known.  The program only ever sees the generated inputs: command lines,
scenario references and URLs.

Each workload returns a :class:`Result`: the end-to-end metrics from the
untraced run and, with ``trace``, the per-layer metrics from a traced
rerun with the same settings (``breakdown.py``).  End-to-end timings
are scaled to the machine's reference speed, probed between operations
(``pace.py``); per-layer timings are raw.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import itertools
import json
import math
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import breakdown
from breakdown import percentile, typical_ms
from pace import Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden"
TRACED_MAIN = HERE / "traced_main.py"

#: Load-generator threads, each with at most one open connection: the
#: machine's CPU count, capped at 2 (the 2-CPU box the bounds were set on).
LOAD_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
CHILD_TIMEOUT_S = 120.0
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0

# -- inputs -------------------------------------------------------------

#: The CLI command list; each rep runs all of it, starting one further
#: along than the rep before.  ``{S}`` is the synthetic seed drawn from
#: the workload seed.
COMMANDS = (
    ("table1", ("table1",)),
    ("timeline_weekly", ("timeline", "--step", "weekly")),
    ("timeline_jobs2", ("timeline", "--step", "weekly", "--jobs", "2")),
    ("funnel", ("funnel",)),
    ("compare", ("compare",)),
    ("synthetic", ("table1", "--scenario", "synthetic:seed={S},networks=12")),
)

#: Commands whose stdout is pinned by a golden file (``timeline --jobs 2``
#: must print exactly what ``--jobs 1`` prints).
CLI_GOLDEN = {
    "table1": "table1.txt",
    "timeline_weekly": "timeline_weekly.txt",
    "timeline_jobs2": "timeline_weekly.txt",
    "funnel": "funnel.txt",
    "compare": "compare.txt",
}

SCENARIOS = ("paper2020", "europe2020", "tokyo-singapore")
MISS_ENDPOINTS = ("/rankings", "/apa", "/map")
MISS_FIRST = dt.date(2012, 1, 1)
MISS_DAYS = (dt.date(2021, 12, 31) - MISS_FIRST).days + 1
WEYL_STEP = (math.sqrt(5.0) - 1.0) / 2.0


class KeyStream:
    """The seeded ``serve-miss`` request sequence: key ``i`` is the same for every reader.

    The ~33k (endpoint, scenario, date) URLs are drawn uniformly but
    stratified: the nine endpoint-scenario kinds come in shuffled
    blocks of nine, and each kind walks the decade along a Weyl sequence
    from a seeded start.  Latency differs by era (a corridor with no
    networks yet answers in 1 ms, a busy one in 50), so plain uniform
    draws let the seed decide the mix of eras, and with it the median.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._kinds = [(endpoint, scenario) for endpoint in MISS_ENDPOINTS for scenario in SCENARIOS]
        self._starts = {kind: self._rng.random() for kind in self._kinds}
        self._visits = dict.fromkeys(self._kinds, 0)
        self._block: list[tuple[str, str]] = []
        self._keys: list[str] = []
        self._lock = threading.Lock()

    def _draw(self) -> str:
        if not self._block:
            self._block = self._rng.sample(self._kinds, len(self._kinds))
        kind = self._block.pop()
        visit = self._visits[kind]
        self._visits[kind] += 1
        day = int(MISS_DAYS * ((self._starts[kind] + visit * WEYL_STEP) % 1.0))
        endpoint, scenario = kind
        return f"{endpoint}?date={MISS_FIRST + dt.timedelta(days=day)}&scenario={scenario}"

    def __getitem__(self, index: int) -> str:
        with self._lock:
            while len(self._keys) <= index:
                self._keys.append(self._draw())
            return self._keys[index]


def load_goldens() -> tuple[dict[str, bytes], dict[str, str]]:
    """CLI stdout per command, and body sha256 per pinned serve URL."""
    cli = {name: (GOLDEN / "cli" / file).read_bytes() for name, file in CLI_GOLDEN.items()}
    serve = json.loads((GOLDEN / "serve.json").read_text(encoding="utf-8"))
    return cli, serve


# -- bookkeeping ----------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


@dataclass
class Result:
    """One workload run: metrics as ``name: (value, samples)``, and the report.

    Units live in ``BENCHMARK.json``; names end in the unit they use.
    """

    tally: Tally
    end_to_end: dict[str, tuple[float, int]]
    per_layer: dict[str, tuple[float, int]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_CACHE_DIR", "XDG_CACHE_HOME")
    }
    env["PYTHONPATH"] = "src"
    return env


def repro_argv(argv, trace_path: Path | None, spawned_at: float) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-m", "repro", *argv]
    return [sys.executable, str(TRACED_MAIN), str(trace_path), repr(spawned_at), *argv]


def _reap(pid: int) -> tuple[int, float]:
    """Wait for ``pid``; its exit code and peak RSS in MB."""
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


@dataclass
class Child:
    wall_s: float
    returncode: int
    stdout: bytes
    maxrss_mb: float
    stderr_path: Path

    def stderr_tail(self) -> str:
        text = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        return " | ".join(text.strip().splitlines()[-3:])


def run_repro(argv, out: Path, trace_path: Path | None = None) -> Child:
    """One fresh ``repro`` process from spawn to reap, stdout captured."""
    stderr_path = out / "stderr.txt"
    with open(stderr_path, "wb") as stderr:
        start = time.monotonic()
        proc = subprocess.Popen(
            repro_argv(argv, trace_path, start),
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            proc.returncode, maxrss_mb = _reap(proc.pid)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        wall_s = time.monotonic() - start
    return Child(wall_s, proc.returncode, stdout, maxrss_mb, stderr_path)


# -- CLI workloads --------------------------------------------------------


def cli_workload(seed: int, seconds: float, trace: bool, warm: bool, out: Path) -> Result:
    """``cli-cold`` / ``cli-warm``: the command list, one command at a time, for ``seconds``."""
    synthetic_seed = seed % 1000
    commands = [
        (name, [arg.replace("{S}", str(synthetic_seed)) for arg in argv])
        for name, argv in COMMANDS
    ]
    expected, _ = load_goldens()
    store = out / "store"
    extra = ["--cache-dir", str(store)] if warm else []
    tally = Tally()
    rss: dict[str, list[float]] = {}
    pace = Pace()

    def run(name: str, argv: list[str], trace_path: Path | None = None) -> Child:
        pace.sample()
        child = run_repro(argv + extra, out, trace_path)
        rss.setdefault(name, []).append(child.maxrss_mb)
        if child.returncode != 0:
            tally.record(False, f"{name}: exit {child.returncode}: {child.stderr_tail()}")
        else:
            # The first output of a command without a golden pins it for
            # the rest of the run (the synthetic scenario: every rep, and
            # cold priming against warm reps, must agree byte for byte).
            want = expected.setdefault(name, child.stdout)
            tally.record(child.stdout == want, f"{name}: stdout differs from golden")
        return child

    if warm:
        start = time.monotonic()
        for name, argv in commands:
            run(name, argv)
        setups = [time.monotonic() - start]
    else:
        setups = [run("help", ["--help"]).wall_s for _ in range(5)]

    # One whole rep, then on command by command until `seconds` are up;
    # rep r starts r places further along the list.
    walls: dict[str, list[float]] = {name: [] for name, _ in commands}
    traced: dict[str, list[tuple[float, Path]]] = {name: [] for name, _ in commands}
    start = time.monotonic()
    ran = 0
    while ran < len(commands) or time.monotonic() - start < seconds:
        rep, offset = divmod(ran, len(commands))
        name, argv = commands[(seed + rep + offset) % len(commands)]
        ran += 1
        if not trace:
            walls[name].append(run(name, argv).wall_s)
            continue
        # Paired runs, alternating which goes first, so drift in the
        # machine's speed cancels out of the overhead estimate.
        path = out / f"trace-{name}-{len(traced[name])}.jsonl"
        for traced_run in (False, True) if ran % 2 else (True, False):
            child = run(name, argv, path if traced_run else None)
            if traced_run:
                traced[name].append((child.wall_s, path))
            else:
                walls[name].append(child.wall_s)

    # Means, not medians: a command runs 1-4 times, and the machine's
    # speed flips between two levels ~35% apart every few seconds, so a
    # median of so few runs jumps between the levels.
    scale = pace.scale()
    means = {name: statistics.fmean(values) for name, values in walls.items()}
    samples = sum(len(values) for values in walls.values())
    end_to_end = {
        "setup_s": (statistics.median(setups) * scale, len(setups)),
        "latency_ms": (
            scale * typical_ms(
                {name: [1000.0 * w for w in values] for name, values in walls.items()},
                statistics.fmean,
            ),
            samples,
        ),
        "throughput_per_s": (len(means) / sum(means.values()) / scale, samples),
        # The largest command's median: `--jobs 2` now and then peaks
        # ~10% above its usual 88 MB (1 run in 10).
        "peak_rss_mb": (
            max(statistics.median(values) for values in rss.values()),
            sum(len(values) for values in rss.values()),
        ),
    }
    lines = [f"{'command':18s} {'mean_s':>7s} {'min_s':>7s} {'max_s':>7s}  n   (wall time, unscaled)"]
    for name, values in walls.items():
        lines.append(
            f"{name:18s} {means[name]:7.3f} {min(values):7.3f} {max(values):7.3f}  {len(values)}"
        )
    lines.append(pace.describe())
    result = Result(tally, end_to_end, lines=lines)
    if trace:
        # Every command ran once traced per untraced run, so the totals pair up.
        untraced = sum(sum(values) for values in walls.values())
        overhead = sum(w for runs in traced.values() for w, _ in runs) / untraced - 1.0
        store_bytes = sum(p.stat().st_size for p in store.rglob("*") if p.is_file()) if warm else 0
        result.per_layer, report = breakdown.cli_layers(traced, overhead, store_bytes, out)
        result.lines += report
        if warm and result.per_layer["store.hit_ratio"][0] < 1.0:
            result.lines.append("FLAG: store miss on cli-warm (store.hit_ratio < 1)")
    return result


# -- serve workloads ------------------------------------------------------


def fetch(address: tuple[str, int], path: str) -> tuple[int, bytes]:
    """One GET on a fresh connection; ``(0, b"")`` on any transport error."""
    request = f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    try:
        with socket.create_connection(address, timeout=REQUEST_TIMEOUT_S) as sock:
            sock.sendall(request.encode("ascii"))
            chunks = []
            while chunk := sock.recv(1 << 18):
                chunks.append(chunk)
    except OSError:
        return 0, b""
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
        length = int(head.lower().split(b"content-length:", 1)[1].split(b"\r\n", 1)[0])
    except (IndexError, ValueError):
        return 0, b""
    return (status, body) if length == len(body) else (0, b"")


class Server:
    """One ``repro serve --port 0`` child, from spawn to its first 200."""

    def __init__(self, out: Path, trace_path: Path | None = None) -> None:
        self._stderr = open(out / "server-stderr.txt", "ab")
        start = time.monotonic()
        self.proc = subprocess.Popen(
            repro_argv(["serve", "--port", "0"], trace_path, start),
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        try:
            deadline = start + BOOT_TIMEOUT_S
            ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
            line = self.proc.stdout.readline().decode() if ready else ""
            if " on http://" not in line:
                raise RuntimeError(f"server did not announce its address: {line!r}")
            host, port = line.split(" on http://", 1)[1].split()[0].rsplit(":", 1)
            self.address = (host, int(port))
            while fetch(self.address, "/healthz")[0] != 200:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.01)
            self.boot_s = time.monotonic() - start
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        """The server's peak RSS so far (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text(encoding="ascii")
        return int(status.split("VmHWM:", 1)[1].split()[0]) / 1024.0

    def stop(self) -> int:
        """SIGINT (the server drains and exits), then reap; the exit code."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        self.proc.send_signal(signal.SIGINT)
        watchdog = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            self.proc.returncode, _ = _reap(self.proc.pid)
        finally:
            watchdog.cancel()
            self.proc.stdout.close()
            self._stderr.close()
        return self.proc.returncode


class Request(NamedTuple):
    """One request: when it was due, sent and answered (``time.monotonic``)."""

    due: float
    sent: float
    done: float
    ok: bool
    key: str

    @property
    def endpoint(self) -> str:
        return self.key.split("?", 1)[0]


@dataclass
class Step:
    """One load step: every request, plus the generator's wall and CPU time."""

    requests: list[Request]
    wall_s: float
    cpu_s: float

    def latencies_ms(self) -> dict[str, list[float]]:
        """Latency from when each request was due, per endpoint."""
        by_endpoint: dict[str, list[float]] = {}
        for request in self.requests:
            by_endpoint.setdefault(request.endpoint, []).append(
                1000.0 * (request.done - request.due)
            )
        return by_endpoint

    def throughput_per_s(self) -> float:
        """Successful requests per second over the whole step."""
        return sum(1 for request in self.requests if request.ok) / self.wall_s


def _load(worker, threads: int) -> tuple[float, float]:
    """Run ``worker`` on ``threads`` threads; the step's wall and CPU seconds."""
    cpu = time.process_time()
    start = time.monotonic()
    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return time.monotonic() - start, time.process_time() - cpu


def open_loop(server: Server, keys: KeyStream, first: int, rate: float, seconds: float, check) -> Step:
    """Request ``first + i`` is due at ``begin + i / rate``; timed from due."""
    n = max(1, round(rate * seconds))
    results: list = [None] * n
    counter = itertools.count()
    begin = time.monotonic() + 0.05

    def worker() -> None:
        while (i := next(counter)) < n:
            due = begin + i / rate
            if (wait := due - time.monotonic()) > 0:
                time.sleep(wait)
            key = keys[first + i]
            sent = time.monotonic()
            status, body = fetch(server.address, key)
            results[i] = Request(due, sent, time.monotonic(), check(key, status, body), key)

    wall_s, cpu_s = _load(worker, LOAD_THREADS)
    return Step(results, wall_s, cpu_s)


def closed_loop(server: Server, keys: KeyStream, first: int, seconds: float, check) -> Step:
    """One client sends its next request as soon as its last one completes.

    One client, not two: a miss holds the server's GIL for 2-70 ms, so a
    second client added 8% capacity and 8x the run-to-run spread (22%
    against 3% over seven alternating runs).
    """
    results: list = []
    counter = itertools.count(first)
    deadline = time.monotonic() + seconds

    def worker() -> None:
        while (sent := time.monotonic()) < deadline:
            key = keys[next(counter)]
            status, body = fetch(server.address, key)
            results.append(Request(sent, sent, time.monotonic(), check(key, status, body), key))

    wall_s, cpu_s = _load(worker, 1)
    return Step(results, wall_s, cpu_s)


#: Load steps run in pieces of about this many seconds, and the pace is
#: probed before each piece, while the server is idle.
PIECE_S = 3.0


def in_pieces(step, seconds: float, first: int, pace: Pace) -> Step:
    """Run ``step(first, seconds)`` as pieces of ~``PIECE_S``, joined into one step."""
    count = max(1, round(seconds / PIECE_S))
    parts = []
    for _ in range(count):
        pace.sample()
        part = step(first, seconds / count)
        first += len(part.requests)
        parts.append(part)
    return Step(
        [request for part in parts for request in part.requests],
        sum(part.wall_s for part in parts),
        sum(part.cpu_s for part in parts),
    )


#: Reference rate (req/s), a twentieth of the capacity measured on a quiet
#: box, so that latency reflects service time even when the shared host
#: runs the box 3x slower: at 30 req/s such a slowdown pushed the server
#: to ~60% busy, and queueing multiplied the slowdown.
REFERENCE_RATE = 10.0
#: Share of ``--seconds`` spent at the reference rate; the rest is the
#: closed-loop step.  The reference step is reported, not gated: at this
#: rate an endpoint gets ~30 requests, whose costs range over 1-100 ms,
#: so their geometric mean spread 17% over ten runs.  The closed loop's
#: ~1500 requests spread 9-12%, and give ``latency_ms``.
REFERENCE_SHARE = 1 / 3


def _body_check(golden: dict[str, str]):
    """A response check: 200 and the golden digest, or a well-formed body."""
    verified: dict[str, bytes] = {}

    def check(key: str, status: int, body: bytes) -> bool:
        if status != 200:
            return False
        if key in verified:
            return body == verified[key]
        if key in golden:
            ok = hashlib.sha256(body).hexdigest() == golden[key]
            if ok:
                verified[key] = body
            return ok
        try:
            payload = json.loads(body)
        except ValueError:
            return False
        if not isinstance(payload, dict):
            return False
        endpoint = key.split("?", 1)[0].lstrip("/")
        if endpoint == "map":
            return payload.get("type") == "FeatureCollection"
        return payload.get("endpoint") == endpoint

    return check


@dataclass
class ServeRun:
    """What one server did under the load steps."""

    warmup_s: float
    reference: Step
    #: Peak RSS through the reference step.  Not the whole life: how many
    #: requests the closed-loop step makes, and so how much it caches,
    #: grows with the server's speed.
    peak_rss_mb: float
    #: The closed-loop step, which gives latency and throughput.
    capacity: Step
    trace_path: Path | None
    pace: Pace


def serve_workload(seed: int, seconds: float, trace: bool, out: Path) -> Result:
    """``serve-miss``: a reference-rate step, then a closed-loop step."""
    _, golden = load_goldens()
    warm_urls = list(golden)
    rate = REFERENCE_RATE
    tally = Tally()
    check = _body_check(golden)

    def warm_up(server: Server) -> float:
        start = time.monotonic()
        for url in warm_urls:
            status, body = fetch(server.address, url)
            tally.record(check(url, status, body), f"warm-up {url}: status {status} or body")
        return time.monotonic() - start

    def shut(server: Server) -> None:
        code = server.stop()
        tally.record(code == 0, f"server exit {code}")

    def steps(server: Server, warmup_s: float, trace_path: Path | None, pace: Pace) -> ServeRun:
        keys = KeyStream(seed)
        reference = in_pieces(
            lambda first, span: open_loop(server, keys, first, rate, span, check),
            seconds * REFERENCE_SHARE, 0, pace,
        )
        peak_rss_mb = server.peak_rss_mb()
        capacity = in_pieces(
            lambda first, span: closed_loop(server, keys, first, span, check),
            seconds * (1 - REFERENCE_SHARE), len(reference.requests), pace,
        )
        for step in (reference, capacity):
            for request in step.requests:
                tally.record(request.ok, f"{request.key}: failed or body wrong")
        # The pinned URLs again, long evicted from the body cache: the
        # engine state the random walk left behind must still give the
        # golden answers.
        for url in warm_urls:
            status, body = fetch(server.address, url)
            tally.record(check(url, status, body), f"final {url}: status {status} or body")
        shut(server)
        return ServeRun(warmup_s, reference, peak_rss_mb, capacity, trace_path, pace)

    setups = []
    pace = Pace()
    for boot in range(3):
        pace.sample()
        server = Server(out)
        try:
            warmup_s = warm_up(server)
            setups.append(server.boot_s + warmup_s)
            if boot < 2:
                shut(server)
                continue
            run = steps(server, warmup_s, None, pace)
        finally:
            server.stop()

    scale = pace.scale()
    latencies = run.capacity.latencies_ms()
    completed = sum(1 for request in run.capacity.requests if request.ok)
    end_to_end = {
        "setup_s": (statistics.median(setups) * scale, len(setups)),
        # Geometric means: /rankings costs ~1 ms in an era with no
        # networks and 10-50 ms in a busy one, so its median sits in the
        # gap between the two (alone, it spread 17% over ten runs); a
        # geometric mean moves in proportion as the mix shifts.
        "latency_ms": (typical_ms(latencies, statistics.geometric_mean) * scale, completed),
        "throughput_per_s": (run.capacity.throughput_per_s() / scale, completed),
        "peak_rss_mb": (run.peak_rss_mb, 1),
    }

    def table(by_endpoint: dict[str, list[float]]) -> list[str]:
        pooled = [value for values in by_endpoint.values() for value in values]
        rows = [f"  {'endpoint':10s} {'geomean':>8s} {'p50_ms':>8s} {'p99_ms':>8s}     n"]
        for endpoint, values in sorted(by_endpoint.items()) + [("(all)", pooled)]:
            rows.append(
                f"  {endpoint:10s} {statistics.geometric_mean(values):8.3f} "
                f"{statistics.median(values):8.3f} {percentile(values, 0.99):8.3f} {len(values):5d}"
            )
        return rows

    late = [1000.0 * (r.sent - r.due) for r in run.reference.requests]
    lines = [f"reference step at {rate:g}/s, latency from when each request was due:"]
    lines += table(run.reference.latencies_ms())
    lines += [
        f"  generator late p99 {percentile(late, 0.99):.3f} ms, "
        f"generator cpu {run.reference.cpu_s / run.reference.wall_s:.2f} of one CPU",
        f"closed-loop step, one client: {completed} requests in {run.capacity.wall_s:.2f} s; latency:",
    ]
    lines += table(latencies)
    lines.append(pace.describe())
    result = Result(tally, end_to_end, lines=lines)
    if trace:
        path = out / "trace-server.jsonl"
        traced_pace = Pace()
        traced_pace.sample()
        server = Server(out, path)
        try:
            traced = steps(server, warm_up(server), path, traced_pace)
        finally:
            server.stop()
        result.per_layer, report = breakdown.serve_layers(run, traced, out)
        result.lines += report
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Run one workload from ``BENCHMARK.json``; artefacts go to ``out/<name>``."""
    out = HERE / "out" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if name in ("cli-cold", "cli-warm"):
        return cli_workload(seed, seconds, trace, name == "cli-warm", out)
    return serve_workload(seed, seconds, trace, out)
