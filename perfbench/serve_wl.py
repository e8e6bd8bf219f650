"""``serve``: open-loop compile requests to ``repro serve`` over one socket.

The server runs as ``python -m repro serve --jobs 2 --socket P
--cache-dir <fresh dir>``.  One client connection sends wire ``compile``
requests (``"ir"`` text, ``SN-SLP``) on a seeded schedule of bursts, from
single requests up to 512 at once, at a fixed mean rate of about half
the capacity measured on a 2-core machine, so queue depth swings from 0
to deep.  Texts are the suite kernels' IR plus seeded fuzz programs; an
assumed 19 requests in 20 repeat an earlier text and hit the shared
result cache, while first sightings compile and write it, in the same
run.  It is the only workload that crosses process boundaries, and the only one
where queueing, marshalling and the cache decide the latency.

Every request is timed from when it was *due*, not from when it was
sent, so a stall is charged to the requests it delays.  The generator's
own lateness is recorded apart; a run where the generator fell behind is
invalid rather than slow.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    ROOT,
    BenchmarkError,
    child_env,
    children_rss_mb,
    guarded,
    metric,
    percentile,
    suite_geomeans,
    summarize_latencies,
)

#: mean offered load, about half the capacity of ``--jobs 2`` on this
#: request mix: 281-322 requests/s (three seeds, every request of a 30 s
#: schedule sent at once after the warm-up) on a 2-core x86 virtual machine
RATE = 140.0
#: burst sizes of one schedule round, geometric from a single request to
#: a few hundred; each round offers 853 requests.  A synthetic ladder, not
#: measured traffic.  The 512-bursts set the tail: a drain of about 2 s
#: keeps a passing stall of the host a small part of it.
LADDER = (1, 4, 16, 64, 256, 512)
#: share of requests that repeat an already-sent text (cache hits once
#: the first copy has been answered); the rest are first sightings.  An
#: assumed mix, not measured traffic.  A fixed pool drawn with
#: replacement was tried and dropped: all its misses fall in the first
#: pool/RATE seconds, so the tail followed where the seed put the first
#: 512-burst (op_tail_ms IQR/median 0.62 over five seeds).  A fixed share
#: spreads the misses evenly over the run.
REPEAT_SHARE = 0.95
#: fuzz texts whose replies are checked against a precomputed module
#: (the suite kernels always are); other replies must agree per text
CHECKED_FUZZ = 120
#: quiet time before the final single request, so the run ends drained
QUIET_S = 1.0
SETUP_LAUNCHES = 5
#: about 4000 requests a run, so p99 always has 40 samples beyond it
TAIL_Q = 99
LAUNCH_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
#: a run whose generator woke this late (p99) is invalid, not slow; the
#: requests it delays wait hundreds of ms in the server's queue anyway
LAG_LIMIT_MS = 50.0


def request_texts(seed: int, count: int) -> List[str]:
    """``count`` distinct IR texts in first-use order: the suite kernels
    (the warm-up set), then seeded fuzz programs."""
    from repro.fuzz.genprog import generate_program, random_spec
    from repro.ir.printer import print_module
    from repro.kernels.suite import all_kernels

    rng = random.Random(seed ^ 0x9E3779B9)
    texts = [print_module(kernel.build()) for kernel in all_kernels()]
    while len(texts) < count:
        program = generate_program(random_spec(rng.getrandbits(32)))
        texts.append(print_module(program.module))
    return texts


def expected_outputs(texts: Sequence[str], indexes: Sequence[int]) -> Dict[int, str]:
    """The reference reply for ``texts[i]``, i in ``indexes``, compiled in
    this process: {index: module text}."""
    from repro.ir.parser import parse_module
    from repro.ir.printer import print_module
    from repro.vectorizer.pipeline import compile_module
    from repro.vectorizer.slp import config_named

    config = config_named("SN-SLP")
    return {
        index: print_module(compile_module(parse_module(texts[index]), config).module)
        for index in indexes
    }


def schedule(seed: int, seconds: float, warm: int) -> Tuple[List[Tuple[float, List[int]]], int]:
    """Seeded bursts ``(due offset s, [text index per request])`` and the
    number of distinct texts they use.

    The burst sizes are the same every run — whole rounds of LADDER — and
    only their order, spacing and texts follow the seed, so the offered
    rate is exactly RATE.  The gap after a burst is its size over RATE,
    x0.75-1.25, so a burst usually drains before the next one arrives.
    In every burst, REPEAT_SHARE of the requests (rounded) repeat a text
    first sent in an earlier burst (texts ``0..warm-1`` are sent before
    the schedule starts) and the rest, at seeded positions, take the next
    new ones.  Misses are so spread evenly over the whole run, and a burst
    never races its own first copy of a text to the cache.
    """
    rng = random.Random(seed)
    rounds = max(1, round(RATE * (seconds - QUIET_S) / sum(LADDER)))
    sizes = list(LADDER) * rounds
    rng.shuffle(sizes)
    busy_span = sum(sizes) / RATE
    gaps = [size * rng.uniform(0.75, 1.25) for size in sizes]
    scale = busy_span / sum(gaps)
    used = warm

    def burst(size: int) -> List[int]:
        nonlocal used
        sent_before, out = used, []
        fresh = set(rng.sample(range(size), round(size * (1 - REPEAT_SHARE))))
        for position in range(size):
            if position in fresh:
                out.append(used)
                used += 1
            else:
                out.append(rng.randrange(sent_before))
        return out

    bursts, due = [], 0.0
    for size, gap in zip(sizes, gaps):
        bursts.append((due, burst(size)))
        due += gap * scale
    # A final single request after a quiet spell: the run ends drained
    # unless a backlog has been growing.
    bursts.append((busy_span + QUIET_S, burst(1)))
    return bursts, used


class Server:
    """One ``repro serve`` process and the benchmark's connection to it."""

    def __init__(self, tag: str, metrics_out: Optional[str] = None) -> None:
        # Relative paths keep the socket path short; run.py works from ROOT.
        self.dir = os.path.join(".perfbench", f"serve-{os.getpid()}-{tag}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.path = os.path.join(self.dir, "s.sock")
        argv = [
            sys.executable, "-m", "repro", "serve", "--jobs", "2",
            "--socket", self.path, "--cache-dir", os.path.join(self.dir, "cache"),
        ]
        if metrics_out:
            argv += ["--metrics-out", metrics_out]
        self.reader_thread: Optional[threading.Thread] = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=child_env(), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            self.sock = self._connect(start)
            self.reader = self.sock.makefile("rb")
            reply = self.request({"id": "ping", "kind": "ping"})
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        if not reply.get("ok"):
            self.close()
            raise BenchmarkError(f"server ping failed: {reply}")
        self.setup_s = time.perf_counter() - start

    def _connect(self, start: float) -> socket.socket:
        while time.perf_counter() - start < LAUNCH_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise BenchmarkError(f"repro serve exited with {self.proc.returncode}")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.path)
                return sock
            except OSError:
                sock.close()
                time.sleep(0.002)
        raise BenchmarkError("repro serve did not come up")

    def _write(self, doc: Dict) -> None:
        self.sock.sendall(json.dumps(doc).encode() + b"\n")

    def request(self, doc: Dict) -> Dict:
        """A synchronous request; only valid when nothing else is in flight."""
        self._write(doc)
        return json.loads(self.reader.readline())

    def close(self) -> None:
        """Ask for a draining shutdown, then reap the server and workers."""
        try:
            self._write({"id": "shutdown", "kind": "shutdown"})
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.sock.close()
        if self.reader_thread is not None:
            self.reader_thread.join(timeout=10)
        self.reader.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def drive(server: Server, bursts, texts: Sequence[str]) -> Dict:
    """Send ``bursts`` on schedule from one thread, read replies on another.

    Returns per-request due/send/reply times and the replies."""
    lines = [
        json.dumps({"kind": "compile", "ir": text, "config": "SN-SLP"})[1:]
        for text in texts
    ]
    payloads, rid = [], 0
    for _, indexes in bursts:
        payloads.append("".join(
            f'{{"id": {rid + k}, {lines[i]}\n' for k, i in enumerate(indexes)
        ).encode())
        rid += len(indexes)
    total = rid
    raw: List[Tuple[float, bytes]] = []
    done = threading.Event()

    def read() -> None:
        # Only timestamp here: parsing waits until the run is over, so the
        # client takes as little CPU from the server as it can.
        try:
            for line in server.reader:
                raw.append((time.perf_counter(), line))
                if len(raw) == total:
                    break
        finally:
            done.set()

    reader = threading.Thread(target=read, name="serve-reader", daemon=True)
    server.reader_thread = reader
    reader.start()
    due_at: List[float] = []
    sent_at: List[float] = []
    pool_index: List[int] = []
    lag: List[float] = []
    blocked = 0
    t0 = time.perf_counter() + 0.05
    previous_end = t0
    for (offset, indexes), payload in zip(bursts, payloads):
        due = t0 + offset
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
            lag.append(time.perf_counter() - due)
        elif previous_end > due:
            blocked += 1  # the server's backpressure held the last send
        else:
            lag.append(now - due)
        send = time.perf_counter()
        server.sock.sendall(payload)
        previous_end = time.perf_counter()
        for i in indexes:
            due_at.append(due)
            sent_at.append(send)
            pool_index.append(i)
    done.wait(DRAIN_TIMEOUT_S)
    replies: Dict[int, Tuple[float, Dict]] = {}
    for when, line in list(raw):
        doc = json.loads(line)
        replies[doc["id"]] = (when, doc)
    return {
        "t0": t0,
        "due": due_at,
        "sent": sent_at,
        "pool_index": pool_index,
        "replies": replies,
        "lag_s": lag,
        "blocked_bursts": blocked,
        "complete": done.is_set() and len(replies) == total,
    }


def grade(run: Dict, expected: Dict[int, str]) -> Dict:
    """Check every reply and time it.

    A reply for a text in ``expected`` must equal the precomputed module;
    replies for the other texts must all agree with that text's first
    reply (a cache hit must replay exactly what the miss compiled)."""
    latencies: List[float] = []
    hit_lat: List[float] = []
    miss_lat: List[float] = []
    miss_compile: List[float] = []
    problems: List[str] = []
    last_reply = run["t0"]
    expected = dict(expected)
    for rid, (due, index) in enumerate(zip(run["due"], run["pool_index"])):
        got = run["replies"].get(rid)
        if got is None:
            problems.append(f"request {rid}: no reply")
            continue
        when, doc = got
        result = doc.get("result") or {}
        if doc.get("ok") and index not in expected:
            expected[index] = result.get("module")
        if not doc.get("ok") or result.get("module") != expected[index]:
            problems.append(f"request {rid}: wrong reply {str(doc)[:120]}")
            continue
        latency = when - due
        latencies.append(latency)
        last_reply = max(last_reply, when)
        if result.get("cached"):
            hit_lat.append(latency)
        else:
            miss_lat.append(latency)
            miss_compile.append(float(result.get("compile_seconds", 0.0)))
    return {
        "latencies": latencies,
        "hit_latencies": hit_lat,
        "miss_latencies": miss_lat,
        "miss_compile_s": miss_compile,
        "problems": problems,
        "wall": last_reply - run["t0"],
    }


def self_test(expected: Dict[int, str]) -> None:
    """Prove the reply check rejects a wrong module before trusting it."""
    wrong = expected[1]
    expected = {0: expected[0]}
    fake = {
        "t0": 0.0, "due": [0.0, 0.0], "pool_index": [0, 0],
        "replies": {
            0: (1.0, {"id": 0, "ok": True, "result": {"module": expected[0]}}),
            1: (1.0, {"id": 1, "ok": True, "result": {"module": wrong}}),
        },
    }
    if wrong == expected[0] or len(grade(fake, expected)["problems"]) != 1:
        raise BenchmarkError("serve checker accepted a deliberately wrong reply")


def run_load(seed: int, seconds: float, metrics_out: Optional[str] = None) -> Dict:
    """Launch servers, drive one schedule, grade it; shared with traced runs."""
    from repro.kernels.suite import all_kernels

    warm = len(all_kernels())
    bursts, distinct = schedule(seed, seconds, warm)
    texts = request_texts(seed, distinct)
    checked = list(range(warm)) + sorted(random.Random(seed).sample(
        range(warm, distinct), min(CHECKED_FUZZ, distinct - warm)))
    expected = expected_outputs(texts, checked)
    self_test(expected)
    setup = []
    for i in range(SETUP_LAUNCHES - 1):
        probe = Server(f"probe{i}")
        setup.append(probe.setup_s)
        probe.close()
    server = Server("load", metrics_out=metrics_out)
    setup.append(server.setup_s)
    problems = []
    try:
        for i in range(warm):
            reply = server.request({"id": f"warm{i}", "kind": "compile", "ir": texts[i], "config": "SN-SLP"})
            if (reply.get("result") or {}).get("module") != expected[i]:
                problems.append(f"warm-up request {i}: wrong reply {str(reply)[:120]}")
        run = drive(server, bursts, texts)
        stats = server.request({"id": "stats", "kind": "stats"}) if run["complete"] else {}
    finally:
        server.close()
    graded = grade(run, expected)
    graded["problems"] = problems + graded["problems"]
    return {
        "setup": setup,
        "run": run,
        "graded": graded,
        "stats": stats.get("result", {}),
        "requests": len(run["due"]),
    }


def lag_ms(load: Dict) -> float:
    lags = load["run"]["lag_s"]
    return 1000.0 * percentile(lags, 99) if lags else 0.0


def run(seed: int, seconds: float) -> Dict:
    load = run_load(seed, seconds)
    graded = load["graded"]
    attempted = load["requests"]
    ok = len(graded["latencies"])
    problems = list(graded["problems"])
    generator_lag = lag_ms(load)
    if generator_lag > LAG_LIMIT_MS:
        problems.append(
            f"invalid run: the generator woke {generator_lag:.1f} ms late "
            f"at p99 (limit {LAG_LIMIT_MS} ms)"
        )
    counts, suite_problems = suite_geomeans(seed)
    problems += suite_problems
    lat = summarize_latencies(graded["latencies"] or [0.0], TAIL_Q)
    hits = len(graded["hit_latencies"])
    return {
        "attempted": attempted,
        "failed": attempted - ok,
        "problems": problems,
        "drift": [],
        "counts": guarded(counts),
        "metrics": {
            "setup_s": metric(statistics.median(load["setup"]), "s"),
            "ops_per_s": metric(ok / graded["wall"], "1/s"),
            "op_p50_ms": metric(lat["p50_ms"], "ms"),
            "op_tail_ms": metric(lat["tail_ms"], "ms"),
            "peak_rss_mb": metric(children_rss_mb(), "MB"),
            "snslp_geomean_speedup": metric(counts["snslp_geomean_speedup"], "x"),
            "lslp_geomean_speedup": metric(counts["lslp_geomean_speedup"], "x"),
        },
        "notes": {
            "latency": lat,
            "offered_rate": RATE,
            "cache_hit_share": hits / max(1, ok),
            "generator_lag_p99_ms": generator_lag,
            "blocked_bursts": load["run"]["blocked_bursts"],
            "setup_samples": len(load["setup"]),
        },
    }
