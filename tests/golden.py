"""Golden end-to-end digests of the paper datasets and fixtures.

One sha256 per source pins the whole HTML -> ``SemanticModel`` path: the
canonical (sorted-key) JSON of the extracted model, the sorted token ids
the merger reports as conflicting and as missing, and the extraction
warnings.  ``tests/test_golden_digests.py`` recomputes every digest and
compares it with the checked-in ``golden_digests.json``.

A digest that changes is a behaviour change and must be explained in
CHANGES.md; regenerating the file to make a diff go away defeats its
purpose.  To write the file for a deliberate, explained change::

    PYTHONPATH=src python -m tests.golden --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from typing import Iterator

from repro.datasets import fixtures
from repro.datasets.repository import standard_datasets
from repro.extractor import ExtractionResult, FormExtractor
from repro.semantics.serialize import model_to_dict

#: The checked-in digests, next to this module.
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")

#: The handcrafted fixtures of paper Figures 3 and 14.
FIXTURES = ("QAM_HTML", "QAM_FRAGMENT_HTML", "QAA_HTML", "QAA_VARIANT_HTML")


def paper_pages() -> Iterator[tuple[str, str]]:
    """``(key, html)`` for the 252 paper sources and the four fixtures."""
    for dataset_name, dataset in standard_datasets().items():
        for source in dataset:
            yield f"{dataset_name}/{source.name}", source.html
    for name in FIXTURES:
        yield f"fixture/{name}", getattr(fixtures, name)


def digest(result: ExtractionResult) -> str:
    """sha256 over the model, the merger's error report and the warnings."""
    payload = {
        "model": model_to_dict(result.model),
        "conflicts": sorted(token.id for token in result.report.conflict_tokens),
        "missing": sorted(token.id for token in result.report.missing_tokens),
        "warnings": list(result.warnings),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def compute_digests() -> dict[str, str]:
    """Extract every paper page with a fresh default extractor."""
    extractor = FormExtractor()
    return {
        key: digest(extractor.extract_detailed(html))
        for key, html in paper_pages()
    }


def load_digests() -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help=f"overwrite {os.path.basename(GOLDEN_PATH)} (explain why in CHANGES.md)",
    )
    args = parser.parse_args()
    digests = compute_digests()
    if args.write:
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
        return
    golden = load_digests()
    changed = sorted(key for key in digests if golden.get(key) != digests[key])
    for key in changed:
        print(f"changed: {key}")
    print(f"{len(digests) - len(changed)}/{len(digests)} digests match")


if __name__ == "__main__":
    main()
