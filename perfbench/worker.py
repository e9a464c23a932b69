"""The program under test, in a fresh process, for one closed-loop workload.

Started by ``run.py``; not meant to be run by hand.  The process sets up
the program (import, ``cached_standard_grammar``, ``FormExtractor`` +
``warmup``), prints ``ready`` and only then reads its job -- so the
parent's spawn-to-``ready`` time is the program's set-up time.  With
``--setup-only`` it exits right after ``ready``.

The job (JSON on stdin) holds the pages (HTML only), the page order of
one pass, the time budget and the trace flag.  The result
(one JSON line on stdout) holds per-form latencies, failures, the models
of the first pass, peak RSS, the stamps and, when traced, the per-layer
figures.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

from tracer import STAGES, Tracer, count_form, traced_extract

_clock = time.perf_counter


def _stamps(extractor) -> dict:
    import numpy

    from repro.parser.core import is_compiled

    return {
        "kernel": extractor.parser.kernel,
        "compiled": is_compiled(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class ClosedLoop:
    """One extractor, one page stream, whole passes until time runs out."""

    def __init__(self, extractor, job: dict):
        self.extractor = extractor
        self.pages: list[str] = job["pages"]
        self.stream: list[int] = job["stream"]

    def untraced_pass(self, keep: bool):
        """(wall, latencies, failures, models) of one pass, no tracing."""
        extract = self.extractor.extract_detailed
        pages = self.pages
        latencies: list[float] = []
        models: list = []
        failed = 0
        started = _clock()
        for index in self.stream:
            begun = _clock()
            try:
                result = extract(pages[index])
            except Exception:  # a failed op is counted, the loop goes on
                latencies.append(_clock() - begun)
                failed += 1
                models.append(None)
                continue
            latencies.append(_clock() - begun)
            if result.level != "full":
                failed += 1
            if keep:
                models.append(result.model)
        return _clock() - started, latencies, failed, models

    def traced_pass(self) -> tuple[Tracer, float, list]:
        """(tracer, wall, models) of one pass through the traced layers."""
        from repro.semantics.serialize import model_to_dict

        pages = self.pages
        models: list[dict] = []
        with Tracer() as tracer:
            started = _clock()
            for index in self.stream:
                parse, report, layout, tokens = traced_extract(
                    tracer, self.extractor, pages[index]
                )
                bench = tracer.open("bench")
                count_form(tracer, pages[index], parse, report, layout, tokens)
                models.append(model_to_dict(report.model))
                tracer.close(bench)
            wall = _clock() - started
        return tracer, wall, models


def _measure(loop: ClosedLoop, seconds: float) -> dict:
    """Whole untraced passes until the budget is spent (at least one)."""
    from repro.semantics.serialize import model_to_dict

    walls: list[float] = []
    latencies: list[list[float]] = []
    failed = 0
    first: list = []
    while True:
        took, lat, fails, models = loop.untraced_pass(keep=not walls)
        walls.append(took)
        latencies.append(lat)
        failed += fails
        first = first or models
        if sum(walls) * (1 + 1 / len(walls)) > seconds:
            break
    return {
        "walls": walls,
        "latencies": latencies,
        "attempted": sum(len(lat) for lat in latencies),
        "failed": failed,
        "models": {
            str(index): model_to_dict(model) if model is not None else None
            for index, model in zip(loop.stream, first)
        },
    }


def _measure_traced(loop: ClosedLoop, seconds: float) -> dict:
    """Alternate untraced and traced passes; average the layers per pass."""
    from repro.semantics.serialize import model_to_dict

    totals: dict[str, float] = {}
    untraced_wall = traced_wall = 0.0
    pairs = failed = mismatches = 0
    started = _clock()
    while True:
        took, _, fails, reference = loop.untraced_pass(keep=True)
        failed += fails
        untraced_wall += took
        tracer, wall, models = loop.traced_pass()
        mismatches += sum(
            model_to_dict(want) != got if want is not None else True
            for want, got in zip(reference, models)
        )
        pairs += 1
        own, bench = tracer.self_times()
        wall -= bench
        gc_s = tracer.gc_seconds
        traced_wall += wall
        counts = tracer.counts
        maximize = counts.pop("parse.maximize_s", 0.0)
        layer = {f"{name}.self_s": own.get(name, 0.0) for name in STAGES}
        layer["parse.maximize_s"] = maximize
        layer["parse.construct_s"] = layer.pop("parse.self_s") - maximize
        layer["gc.s"] = gc_s
        layer["gc.collections"] = tracer.gc_collections
        layer["untraced_s"] = wall - sum(own.get(name, 0.0) for name in STAGES) - gc_s
        layer["trace.wall_s"] = wall
        layer.update(counts)
        for name, value in layer.items():
            totals[name] = totals.get(name, 0.0) + value
        elapsed = _clock() - started
        if elapsed + elapsed / pairs > seconds:
            break
    per_pass = {name: value / pairs for name, value in totals.items()}
    per_pass["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    per_pass["trace.pairs"] = pairs
    return {
        "layers": per_pass,
        "attempted": 2 * pairs * len(loop.stream),
        "failed": failed,
        "mismatches": mismatches,
    }


def main(argv: list[str]) -> int:
    from repro import FormExtractor
    from repro.grammar.cache import cached_standard_grammar

    cached_standard_grammar()
    extractor = FormExtractor()
    extractor.warmup()
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    job = json.load(sys.stdin)
    loop = ClosedLoop(extractor, job)
    if job["trace"]:
        result = _measure_traced(loop, job["seconds"])
    else:
        result = _measure(loop, job["seconds"])
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["stamps"] = _stamps(extractor)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
