"""Spans recorded from outside the program, around each layer's public call.

A :class:`Tracer` keeps spans in memory as ``[name, parent, start, end,
gc_at_start, gc_at_end]`` and times every garbage collection through
``gc.callbacks``.  GC is its own layer: the collection time that falls
inside a span is taken out of that span's self time, so a stage is never
charged for a collection it happened to trigger.  ``gc_seconds`` and
``gc_collections`` cover every collection of the pass, the ones that land
in ``bench`` spans included.

:func:`traced_extract` replays ``FormExtractor.extract_from_document``'s
order with one span per layer: ``repro.html`` ``parse_html`` ->
``repro.layout`` ``layout_document`` -> ``repro.tokens``
``FormTokenizer.tokenize`` -> ``repro.parser`` ``BestEffortParser.parse``
-> ``repro.merger`` ``Merger.merge``.  Bookkeeping the benchmark does
between forms (counters, the output check) runs in ``bench`` spans whose
time, less the GC inside them, is removed from the traced wall.
"""

from __future__ import annotations

import gc
import time
from collections import Counter, defaultdict

from repro.html.parser import parse_html
from repro.layout.engine import layout_document
from repro.tokens.tokenizer import FormTokenizer

#: Layers whose self time is reported (``parse`` is split further).
STAGES = ("html", "layout", "tokenize", "parse", "merge")

_clock = time.perf_counter


class Tracer:
    """In-memory spans plus GC time, for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()  # values may be float seconds
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = _clock()
        else:
            self.gc_seconds += _clock() - self._gc_started
            self.gc_collections += 1

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._on_gc)

    def open(self, name: str, parent: int = -1) -> int:
        self.spans.append([name, parent, _clock(), 0.0, self.gc_seconds, 0.0])
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        record = self.spans[span]
        record[3] = _clock()
        record[5] = self.gc_seconds

    def self_times(self) -> tuple[dict[str, float], float]:
        """(self seconds per span name, bench seconds net of GC).

        Self time = duration - GC inside the span - net time of children.
        """
        net = [
            (end - start) - (gc_end - gc_start)
            for _, _, start, end, gc_start, gc_end in self.spans
        ]
        children = [0.0] * len(self.spans)
        for index, record in enumerate(self.spans):
            if record[1] >= 0:
                children[record[1]] += net[index]
        own: dict[str, float] = defaultdict(float)
        for index, record in enumerate(self.spans):
            own[record[0]] += net[index] - children[index]
        return own, own.pop("bench", 0.0)


def traced_extract(tracer: Tracer, extractor, html: str):
    """One form through every layer, each call inside its own span.

    Returns ``(parse, report, layout, tokens)``.
    """
    root = tracer.open("form")
    span = tracer.open("html", root)
    document = parse_html(html)
    tracer.close(span)
    span = tracer.open("layout", root)
    layout = layout_document(document)
    tracer.close(span)
    span = tracer.open("tokenize", root)
    forms = document.forms
    tokens = FormTokenizer(document, layout=layout).tokenize(
        forms[0] if forms else None
    )
    tracer.close(span)
    span = tracer.open("parse", root)
    parse = extractor.parser.parse(tokens)
    tracer.close(span)
    span = tracer.open("merge", root)
    report = extractor.merger.merge(parse)
    tracer.close(span)
    tracer.close(root)
    return parse, report, layout, tokens


def count_form(tracer: Tracer, html: str, parse, report, layout, tokens) -> None:
    """Per-layer work counts of one traced form (run inside a bench span)."""
    counts = tracer.counts
    counts["html.chars"] += len(html)
    counts["layout.controls"] += len(layout.controls)
    counts["layout.fragments"] += len(layout.fragments)
    counts["tokenize.tokens"] += len(tokens)
    stats = parse.stats
    counts["parse.combos_examined"] += stats.combos_examined
    counts["parse.combos_prefiltered"] += stats.combos_prefiltered
    counts["parse.instances_created"] += stats.instances_created
    counts["parse.instances_pruned"] += stats.instances_pruned
    counts["parse.temporary"] += len(parse.temporary_instances())
    counts["parse.fixpoint_rounds"] += stats.fixpoint_rounds
    counts["parse.symbol_truncations"] += stats.symbol_truncations
    counts["parse.maximize_s"] += stats.maximization_seconds
    counts["merge.conflicts"] += len(report.conflict_tokens)
    counts["merge.missing"] += len(report.missing_tokens)
