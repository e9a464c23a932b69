"""Per-form memory: extraction leaves no cyclic garbage and stays small.

Every object an extraction builds -- DOM, layout, tokens, the parse
forest -- forms an acyclic graph, so reference counting frees it as soon
as the result is dropped and the cyclic collector never has work to do.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.datasets.repository import standard_datasets
from repro.extractor import FormExtractor

_DATASETS = standard_datasets()
_SOURCES = [source for dataset in _DATASETS.values() for source in dataset]
_BASIC = {source.name: source for source in _DATASETS["Basic"]}


@pytest.mark.parametrize("resilience", [False, True], ids=["plain", "resilient"])
def test_extraction_leaves_no_cyclic_garbage(resilience):
    extractor = FormExtractor(resilience=resilience)
    extractor.extract(_SOURCES[0].html)  # first-call caches are not garbage
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for source in _SOURCES:
            extractor.extract_detailed(source.html)
        unreachable = gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert unreachable == 0, f"cyclic garbage of types {kinds}"


#: The Basic forms with the largest parse pools.  Before enforcement
#: stopped building the dense loser x winner matrix (and before the parse
#: forest became acyclic) the tracemalloc peak of books-045 read 14.6 MiB;
#: afterwards the largest of these reads 3.9 MiB (automobiles-036).
_LARGE_FORMS = (
    "books-045", "airfares-007", "books-007",
    "automobiles-030", "airfares-033", "automobiles-036",
)

_PEAK_LIMIT = 8 * 2**20


@pytest.mark.parametrize("name", _LARGE_FORMS)
def test_extraction_peak_memory(name):
    extractor = FormExtractor()
    extractor.warmup()
    html = _BASIC[name].html
    tracemalloc.start()
    try:
        extractor.extract_detailed(html)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_LIMIT, f"{name}: peak {peak / 2**20:.1f} MiB"
