"""End-to-end golden digests: models, merger reports and warnings of the
252 paper sources plus the Figure 3/14 fixtures are pinned byte for byte
(see :mod:`tests.golden`)."""

from __future__ import annotations

from tests.golden import compute_digests, load_digests


def test_golden_digest_counts():
    golden = load_digests()
    datasets: dict[str, int] = {}
    for key in golden:
        dataset = key.split("/", 1)[0]
        datasets[dataset] = datasets.get(dataset, 0) + 1
    assert datasets == {
        "Basic": 150, "NewSource": 30, "NewDomain": 42, "Random": 30,
        "fixture": 4,
    }


def test_golden_digests_unchanged():
    golden = load_digests()
    digests = compute_digests()
    assert sorted(digests) == sorted(golden)
    changed = sorted(key for key in golden if digests[key] != golden[key])
    assert not changed, f"{len(changed)} golden digests changed: {changed[:10]}"
