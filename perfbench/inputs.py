"""Seeded inputs for the benchmark workloads, and scoring against truth.

Every input is generated HTML plus the generator's ground-truth
conditions.  The program under test only ever sees the HTML; the truth
stays in the benchmark process and is used for the Pa/Ra check.

* ``crawl`` -- the four paper datasets (252 pages), order shuffled by seed.
* ``serve`` -- the same 252 pages in an order drawn with the seed, and one
  request sequence per round with a share of repeats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets.generator import GeneratedSource
from repro.datasets.repository import standard_datasets
from repro.evaluation.metrics import overall_metrics, per_source_metrics
from repro.semantics.serialize import model_from_dict

#: Pa/Ra of the four paper datasets (252 pages) at the parent commit.
PAPER_PA_RA = (0.8540, 0.9137)

#: Serve: share of requests that repeat a page already sent in the round.
SERVE_REPEAT = 0.4


@dataclass
class Workload:
    """Pages (HTML + truth) and the order the program receives them in."""

    sources: list[GeneratedSource]
    #: Page indices of one pass, in request order.
    stream: list[int]

    @property
    def pages(self) -> list[str]:
        return [source.html for source in self.sources]


def crawl(seed: int) -> Workload:
    sources = [
        source for dataset in standard_datasets().values() for source in dataset
    ]
    stream = list(range(len(sources)))
    random.Random(seed).shuffle(stream)
    return Workload(sources=sources, stream=stream)


def serve_step(seed: int, step: int, count: int, order: list[int]) -> list[int]:
    """Page indices for one round: fresh pages in *order* (cycling),
    interleaved with repeats of pages already sent in the round."""
    rng = random.Random(seed * 1_000 + step)
    sent: list[int] = []
    fresh = 0
    for _ in range(count):
        if sent and rng.random() < SERVE_REPEAT:
            sent.append(rng.choice(sent))
        else:
            sent.append(order[fresh % len(order)])
            fresh += 1
    return sent


def score(models: dict[int, dict], sources: list[GeneratedSource]) -> tuple[float, float]:
    """Overall (Pa, Ra) of serialized models against generator truth."""
    per_source = [
        per_source_metrics(
            list(model_from_dict(models[index]).conditions), sources[index].truth
        )
        for index in sorted(models)
    ]
    overall = overall_metrics(per_source)
    return overall.precision, overall.recall
