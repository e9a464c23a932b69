"""The ``serve`` workload: ``repro serve --jobs 2`` under fixed-rate load.

The server runs in its own process.  One generator (this process) sends
``POST /extract`` over at most ``CONNECTIONS`` keep-alive connections:
on a fixed schedule (open loop), where each request is timed from the
moment it was *due*, so a stall also counts against the requests queued
behind it; or back to back (the closed-loop capacity rounds).  Every
round starts from the same cache state (``DELETE /cache``).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

JOBS = 2
#: At most nproc (2 on the reference box) keep-alive connections.
CONNECTIONS = 2
#: Fixed rates in requests per second, chosen after measuring capacity
#: (~170 rps by the ladder) at the parent commit on the reference box.
LOW_RATE = 30.0
HIGH_RATE = 130.0
LADDER = (125.0, 140.0, 155.0, 170.0, 185.0, 200.0, 220.0, 240.0)
#: The serve latency limit on the p90 of due-to-done latency.
LATENCY_LIMIT_MS = 100.0
#: Round and step lengths for a 50 s run; shorter runs scale them down.
HIGH_SECONDS = 8.0
STEP_SECONDS = 4.0
#: Requests per round of the low-rate and capacity steps (each round starts
#: from a cleared cache): with 40% repeats, 420 requests send each of the
#: 252 pages once as a fresh page, so every round misses on the same page
#: set whatever the seed.
ROUND_REQUESTS = 420
#: Low-rate rounds and capacity rounds (closed loop over both connections).
#: They alternate, so both sample the whole run, and each metric is the
#: median of its per-round figures: the host's speed drifts over tens of
#: seconds, and one slow round then moves the median little.
LOW_ROUNDS = 3
CAPACITY_ROUNDS = 5
#: Fresh servers started per run (half of the probes before the measured
#: server, half after it); their median start-to-ready is setup_s.
SETUPS = 9

_clock = time.perf_counter
_READY_TIMEOUT_S = 60.0
_REQUEST_TIMEOUT_S = 30.0


class Server:
    """``python -m repro serve`` in a child process of its own session."""

    def __init__(self, root: Path):
        started = _clock()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--jobs", str(JOBS), "--port", "0"],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        try:
            line = self.process.stdout.readline()
            match = re.search(r"http://[^:/]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(match.group(1))
            while self.get("/readyz")[0] != 200:
                if _clock() - started > _READY_TIMEOUT_S:
                    raise RuntimeError("server never became ready")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = _clock() - started

    def _call(self, method: str, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get(self, path: str) -> tuple[int, bytes]:
        try:
            return self._call("GET", path)
        except OSError:
            return 0, b""

    def clear_cache(self) -> None:
        status, body = self._call("DELETE", "/cache")
        if status != 200:
            raise RuntimeError(f"DELETE /cache answered {status}: {body[:200]!r}")

    def scrape(self) -> dict[str, float]:
        from repro.observability.prometheus import parse_prometheus

        status, body = self._call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return parse_prometheus(body.decode())

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) of the server and its pool workers, summed."""
        total_kb = 0
        pending = [self.process.pid]
        while pending:
            pid = pending.pop()
            status = Path(f"/proc/{pid}/status").read_text()
            total_kb += int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
            for task in Path(f"/proc/{pid}/task").iterdir():
                pending.extend(
                    int(child) for child in (task / "children").read_text().split()
                )
        return total_kb / 1024

    def stop(self) -> None:
        """Graceful SIGTERM, then SIGKILL of the whole session if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        try:
            os.killpg(self.process.pid, signal.SIGKILL)  # stray pool workers
        except ProcessLookupError:
            pass
        self.process.stdout.close()


@dataclass
class Sample:
    """One request of an open-loop step."""

    page: int
    due: float
    sent: float
    done: float
    status: int
    body: dict | None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def ok(self) -> bool:
        body = self.body
        return (
            self.status == 200
            and body is not None
            and body.get("error") is None
            and body.get("degrade", {}).get("level") == "full"
        )


def run_step(
    port: int, pages: list[int], bodies: list[bytes], rate: float | None
) -> list[Sample]:
    """Send ``bodies[pages[i]]`` at ``start + i / rate`` and time each
    request from when it was due.  With no *rate* the step is a closed
    loop: each connection sends its next request as soon as it is free."""
    count = len(pages)
    start = _clock() + 0.02
    due = [start + index / rate if rate else 0.0 for index in range(count)]
    raw: list[tuple | None] = [None] * count
    cursor = [0]
    lock = threading.Lock()
    headers = {"Content-Type": "application/json"}

    def sender() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=_REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= count:
                    return
                delay = due[index] - _clock()
                if delay > 0:
                    time.sleep(delay)
                sent = _clock()
                due[index] = due[index] or sent
                try:
                    conn.request("POST", "/extract", body=bodies[pages[index]], headers=headers)
                    response = conn.getresponse()
                    status, data = response.status, response.read()
                except (OSError, http.client.HTTPException):
                    conn.close()
                    status, data = 0, b""
                raw[index] = (sent, _clock(), status, data)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples = []
    for index, (sent, done, status, data) in enumerate(raw):
        try:
            body = json.loads(data) if status == 200 else None
        except ValueError:
            body = None
        samples.append(Sample(pages[index], due[index], sent, done, status, body))
    return samples


def step_passes(samples: list[Sample], limit_ms: float) -> tuple[bool, float]:
    """(meets the limit with no growing backlog, p90 latency ms)."""
    from stats import percentile

    p90 = percentile([sample.latency_ms for sample in samples], 0.90)
    backlog = samples[-1].done - samples[-1].due > limit_ms / 1e3
    ok = all(sample.ok for sample in samples)
    return ok and not backlog and p90 <= limit_ms, p90


def max_rate(ladder_results: list[tuple[float, bool, float]], limit_ms: float) -> float:
    """Highest sustained rate, interpolated between the last passing rung
    and the first failing one on the p90 latency; 0 when no rung passed."""
    last_rate, last_p90 = 0.0, 0.0
    for rate, passed, p90 in ladder_results:
        if not passed:
            if not last_rate:  # no rung passed; nothing to interpolate from
                return 0.0
            if p90 <= limit_ms:  # failed on backlog or errors, not latency
                return last_rate
            share = (limit_ms - last_p90) / (p90 - last_p90)
            return last_rate + (rate - last_rate) * share
        last_rate, last_p90 = rate, p90
    return last_rate


#: /metrics series (deltas over the traced steps) behind the stage layers.
_SERVER_SERIES = {
    "html.self_s": "repro_span_html_parse_seconds_sum",
    "html.chars": "repro_span_html_parse_chars_total",
    "tokenize.self_s": "repro_span_tokenize_seconds_sum",
    "tokenize.tokens": "repro_span_tokenize_tokens_total",
    "parse.construct_s": "repro_span_parse_construct_seconds_sum",
    "parse.maximize_s": "repro_span_parse_maximize_seconds_sum",
    "parse.combos_examined": "repro_span_parse_construct_combos_examined_total",
    "parse.combos_prefiltered": "repro_span_parse_construct_combos_prefiltered_total",
    "parse.instances_created": "repro_span_parse_construct_instances_created_total",
    "parse.instances_pruned": "repro_span_parse_construct_instances_pruned_total",
    "parse.fixpoint_rounds": "repro_span_parse_construct_fixpoint_rounds_total",
    "parse.symbol_truncations": "repro_span_parse_construct_symbol_truncations_total",
    "merge.self_s": "repro_span_merge_seconds_sum",
    "merge.conflicts": "repro_span_merge_conflicts_total",
    "merge.missing": "repro_span_merge_missing_total",
    "cache.hits": "repro_serve_cache_hits_total",
    "cache.misses": "repro_serve_cache_misses_total",
    "serve.queue_depth_max": "repro_serve_queue_depth_max",
    "serve.shed": "repro_serve_shed_total",
}


def _step_row(rate: float, samples: list[Sample]) -> dict:
    from stats import median, percentile

    latencies = [sample.latency_ms for sample in samples]
    succeeded = sum(sample.ok for sample in samples)
    return {
        "rate": rate,
        "sent": len(samples),
        "succeeded": succeeded,
        "failed": len(samples) - succeeded,
        "p50_ms": round(median(latencies), 3),
        "p90_ms": round(percentile(latencies, 0.90), 3),
    }


def _requests(seed: int, step: int, count: float, order: list[int]) -> list[int]:
    from inputs import serve_step

    return serve_step(seed, step, max(1, round(count)), order)


def _check_models(
    samples: list[Sample], sources: list, failures: list[str]
) -> tuple[float, float]:
    """Every served model must equal a direct FormExtractor extraction."""
    from inputs import PAPER_PA_RA, score
    from repro import FormExtractor
    from repro.semantics.serialize import model_to_dict

    extractor = FormExtractor()
    reference: dict[int, dict] = {}
    served: dict[int, dict] = {}
    mismatches = 0
    for sample in samples:
        if not sample.ok:
            continue
        if sample.page not in reference:
            model = extractor.extract(sources[sample.page].html)
            reference[sample.page] = json.loads(json.dumps(model_to_dict(model)))
        if sample.body["model"] != reference[sample.page]:
            mismatches += 1
        served.setdefault(sample.page, sample.body["model"])
    if mismatches:
        failures.append(f"{mismatches} served models differ from direct extraction")
    if not served:
        failures.append("no request succeeded")
        return 0.0, 0.0
    pa, ra = score(served, sources)
    if len(served) == len(sources) and (round(pa, 4), round(ra, 4)) != PAPER_PA_RA:
        failures.append(f"Pa/Ra {pa:.4f}/{ra:.4f} != {PAPER_PA_RA} with every page served")
    return pa, ra


def _setup_probe(root: Path) -> float:
    probe = Server(root)
    probe.stop()
    return probe.setup_s


def run(root: Path, seed: int, seconds: float, trace: bool) -> dict:
    """One serve run.

    ``--trace 0``: set-up probes, then low-rate rounds alternating with
    closed-loop capacity rounds.  ``--trace 1``: one low-rate round, the
    high rate and the rate ladder, with the per-layer figures.
    """
    from inputs import crawl as paper_pages
    from stats import median, percentile

    scale = seconds / 50.0
    # The paper pages; the seeded crawl order is the order fresh pages go in.
    workload = paper_pages(seed)
    sources, order = workload.sources, workload.stream
    bodies = [json.dumps({"html": source.html}).encode() for source in sources]
    probes = 0 if trace else (SETUPS - 1) // 2
    setups = [_setup_probe(root) for _ in range(probes)]
    server = Server(root)
    setups.append(server.setup_s)
    steps: list[dict] = []
    everything: list[Sample] = []
    ladder: list[tuple[float, bool, float]] = []
    high: list[Sample] = []
    lows: list[list[Sample]] = []
    capacity: list[list[Sample]] = []

    def step(number: int, rate: float | None, count: float) -> list[Sample]:
        server.clear_cache()
        samples = run_step(server.port, _requests(seed, number, count, order),
                           bodies, rate)
        steps.append(_step_row(rate or 0.0, samples))
        everything.extend(samples)
        return samples

    try:
        # Unmeasured warm-up round: the pool workers' first pass over real
        # pages is slower than later ones (the low-rate p90 of a first
        # round read up to 60% higher).
        server.clear_cache()
        run_step(server.port, _requests(seed, -1, ROUND_REQUESTS * scale, order),
                 bodies, None)
        before = server.scrape()
        if trace:  # one low round, to leave time for the ladder
            lows.append(step(0, LOW_RATE, ROUND_REQUESTS * scale))
            high = step(1, HIGH_RATE, HIGH_RATE * HIGH_SECONDS * scale)
            for number, rate in enumerate(LADDER, start=2):
                samples = step(number, rate, rate * STEP_SECONDS * scale)
                passed, p90 = step_passes(samples, LATENCY_LIMIT_MS)
                ladder.append((rate, passed, p90))
                steps[-1]["passed"] = passed
                if not passed:
                    break
        else:
            rounds = LOW_ROUNDS + CAPACITY_ROUNDS
            low_at = {number * rounds // LOW_ROUNDS for number in range(LOW_ROUNDS)}
            for number in range(rounds):
                if number in low_at:
                    lows.append(step(number, LOW_RATE, ROUND_REQUESTS * scale))
                else:
                    capacity.append(step(number, None, ROUND_REQUESTS * scale))
        after = server.scrape()
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    setups += [_setup_probe(root) for _ in range(probes)]
    failures: list[str] = []
    pa, ra = _check_models(everything, sources, failures)
    failed = sum(not sample.ok for sample in everything)
    low = [sample for samples in lows for sample in samples]
    low_latency = [[sample.latency_ms for sample in samples] for samples in lows]
    detail = {"steps": steps, "pa": round(pa, 4), "ra": round(ra, 4),
              "samples_low": len(low), "setups": len(setups),
              "limit_ms": LATENCY_LIMIT_MS}
    if trace:
        metrics = {
            name: after.get(series, 0.0) - before.get(series, 0.0)
            for name, series in _SERVER_SERIES.items()
        }
        metrics["serve.queue_depth_max"] = after.get("repro_serve_queue_depth_max", 0.0)
        ok = [sample for sample in everything if sample.ok]
        client = [(sample.done - sample.sent) * 1e3 for sample in ok]
        server_ms = [sample.body["elapsed_seconds"] * 1e3 for sample in ok]
        misses = [sample for sample in ok if not sample.body["cached"]]
        metrics.update({
            "serve.client_p50_ms": median(client),
            "serve.client_p90_ms": percentile(client, 0.90),
            "serve.server_p50_ms": median(server_ms),
            "serve.server_p90_ms": percentile(server_ms, 0.90),
            "serve.transport_p50_ms": median(
                [c - s for c, s in zip(client, server_ms)]),
            "serve.worker_parse_p50_ms": median(
                [sample.body["stats"]["elapsed_seconds"] * 1e3 for sample in misses]
            ) if misses else 0.0,
            "serve.gen_late_p90_ms": percentile(
                [(sample.sent - sample.due) * 1e3 for sample in low + high], 0.90),
            "serve.high_p50_ms": median([sample.latency_ms for sample in high]),
            "serve.high_p90_ms": percentile([sample.latency_ms for sample in high], 0.90),
            "serve.max_rate_rps": max_rate(ladder, LATENCY_LIMIT_MS),
            "serve.cache_hit_ratio": (len(ok) - len(misses)) / len(ok) if ok else 0.0,
        })
    else:
        metrics = {
            "forms_per_s": median([
                len(samples) / (max(sample.done for sample in samples)
                                - min(sample.sent for sample in samples))
                for samples in capacity
            ]),
            "form_p50_ms": median([median(lat) for lat in low_latency]),
            "form_p90_ms": median([percentile(lat, 0.90) for lat in low_latency]),
            "accuracy": (pa + ra) / 2,
            "ok_frac": (len(everything) - failed) / len(everything),
            "setup_s": median(setups),
            "peak_rss_mb": rss_mb,
        }
    return {
        "failures": failures,
        "attempted": len(everything),
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }
