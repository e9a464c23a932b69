"""End-to-end, layer-by-layer benchmark of the HTML -> SemanticModel path.

Run from the repository root::

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 50 --trace 0

Workloads: ``crawl`` (a closed loop in a fresh worker process) and
``serve`` (``repro serve`` driven as an open loop, then closed-loop
capacity rounds).  With ``--trace 0`` the run measures the end-to-end metrics with no
tracing; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics.  Outputs are checked against generator
truth and against each other; a mismatch makes the run fail.

The last line of stdout is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it holds the stamps (kernel,
compiled core, numpy/Python versions, nproc, seed), sample counts and, for
``serve``, the requests sent/succeeded/failed per round.  Results with
different stamps are not comparable.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh processes that only set the program up, half before and half after
#: the measuring worker; with the worker's own set-up they give the setup_s
#: samples.  Spreading them over the run evens out the host's speed drift.
SETUP_PROBES = 8
#: A worker that has not finished by then is killed (a run must end in 180 s).
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "forms_per_s": "1/s",
    "form_p50_ms": "ms",
    "form_p90_ms": "ms",
    "accuracy": "ratio",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "html.self_s": "s", "html.chars": "count",
    "layout.self_s": "s", "layout.controls": "count", "layout.fragments": "count",
    "tokenize.self_s": "s", "tokenize.tokens": "count",
    "cache.hits": "count", "cache.misses": "count",
    "parse.construct_s": "s", "parse.maximize_s": "s",
    "parse.combos_examined": "count", "parse.combos_prefiltered": "count",
    "parse.instances_created": "count", "parse.instances_pruned": "count",
    "parse.useful_ratio": "ratio", "parse.fixpoint_rounds": "count",
    "parse.symbol_truncations": "count",
    "merge.self_s": "s", "merge.conflicts": "count", "merge.missing": "count",
    "gc.s": "s", "gc.collections": "count", "untraced_s": "s",
    "trace.wall_s": "s", "trace.overhead_frac": "ratio",
    "serve.client_p50_ms": "ms", "serve.client_p90_ms": "ms",
    "serve.server_p50_ms": "ms", "serve.server_p90_ms": "ms",
    "serve.transport_p50_ms": "ms", "serve.worker_parse_p50_ms": "ms",
    "serve.gen_late_p90_ms": "ms", "serve.high_p50_ms": "ms",
    "serve.high_p90_ms": "ms", "serve.max_rate_rps": "1/s",
    "serve.cache_hit_ratio": "ratio",
    "serve.queue_depth_max": "count", "serve.shed": "count",
}


def _check(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)


def _spawn_worker(*flags: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for ``ready``; returns (process, setup_s)."""
    argv = [sys.executable, str(HERE / "worker.py"), *flags]
    started = time.perf_counter()
    process = subprocess.Popen(
        argv,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": f"{HERE}{os.pathsep}{ROOT / 'src'}"},
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "ready":
        process.kill()
        process.wait()
        raise RuntimeError(f"worker failed during set-up: {line!r}")
    return process, setup_s


def _finish(process: subprocess.Popen, job: str | None, timeout: float) -> str:
    """Send *job*, collect stdout and reap the worker; kill it on timeout."""
    try:
        output, _ = process.communicate(job, timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"worker exited with {process.returncode}")
    return output


def _setup_probe() -> float:
    process, setup_s = _spawn_worker("--setup-only")
    _finish(process, None, timeout=60)
    return setup_s


def _run_worker(job: dict) -> tuple[dict, float]:
    process, setup_s = _spawn_worker()
    output = _finish(process, json.dumps(job), timeout=WORKER_TIMEOUT_S)
    return json.loads(output.strip().splitlines()[-1]), setup_s


def crawl(seed: int, seconds: float, trace: bool) -> dict:
    import inputs
    from stats import median, percentile

    workload = inputs.crawl(seed)
    job = {
        "pages": workload.pages,
        "stream": workload.stream,
        "seconds": seconds,
        "trace": trace,
    }
    probes = 0 if trace else SETUP_PROBES // 2
    setups = [_setup_probe() for _ in range(probes)]
    result, setup_s = _run_worker(job)
    setups.append(setup_s)
    setups += [_setup_probe() for _ in range(probes)]
    failures: list[str] = []
    detail = {"stamps": result["stamps"]}
    if trace:
        layers = result["layers"]
        _check(result["mismatches"] == 0,
               f"{result['mismatches']} traced models differ from FormExtractor's",
               failures)
        metrics = dict(layers)
        metrics["parse.useful_ratio"] = (
            1 - layers["parse.temporary"] / layers["parse.instances_created"])
        detail["traced_forms"] = len(workload.stream)
        detail["pairs"] = layers["trace.pairs"]
    else:
        models = {int(key): value for key, value in result["models"].items()}
        _check(None not in models.values(), "an extraction raised", failures)
        pa, ra = inputs.score(
            {key: value for key, value in models.items() if value is not None},
            workload.sources,
        )
        _check((round(pa, 4), round(ra, 4)) == inputs.PAPER_PA_RA,
               f"Pa/Ra {pa:.4f}/{ra:.4f} != {inputs.PAPER_PA_RA}", failures)
        # Medians over whole passes, so one disturbed pass does not move
        # a run's figure; each pass has >= 100 forms for its p90.
        passes = list(zip(result["walls"], result["latencies"]))
        metrics = {
            "forms_per_s": median([len(lat) / wall for wall, lat in passes]),
            "form_p50_ms": median([median(lat) * 1e3 for _, lat in passes]),
            "form_p90_ms": median([percentile(lat, 0.90) * 1e3 for _, lat in passes]),
            "accuracy": (pa + ra) / 2,
            "ok_frac": (result["attempted"] - result["failed"]) / result["attempted"],
            "setup_s": median(setups),
            "peak_rss_mb": result["rss_mb"],
        }
        detail.update(pa=round(pa, 4), ra=round(ra, 4),
                      pass_rates=[round(len(lat) / wall, 2) for wall, lat in passes],
                      samples_per_pass=len(workload.stream), setups=len(setups))
    return {
        "failures": failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "detail": detail,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("crawl", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    trace = bool(args.trace)
    if args.workload == "serve":
        import serve

        outcome = serve.run(ROOT, args.seed, args.seconds, trace)
    else:
        outcome = crawl(args.seed, args.seconds, trace)
    units = PER_LAYER if trace else END_TO_END
    if trace:  # a layer that is not on this workload's path reads 0
        outcome["metrics"] = {name: outcome["metrics"].get(name, 0.0) for name in units}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **outcome["detail"], "failures": outcome["failures"]}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(outcome["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if not outcome["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
