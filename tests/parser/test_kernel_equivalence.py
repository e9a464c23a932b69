"""Vector vs scalar vs naive: the spatial kernel is invisible.

The vectorized spatial kernel (columnar :class:`GeometryTable` + batched
band queries) must be a pure performance transformation, exactly like the
semi-naive rewrite before it: on every input, ``kernel="vector"`` and
``kernel="scalar"`` have to produce byte-identical maximal trees, merged
models, warnings, and ``ParseStats`` counters.  The single sanctioned
divergence is ``spatial_memo_hits`` -- the two paths memoize different
units of work (per-pool mask batches vs per-anchor band scans).

This extends the naive/semi-naive equivalence net of
``test_seminaive_equivalence`` to a 3-way check: naive remains the ground
truth for trees and models, and both semi-naive kernels must match it and
each other.  Coverage comes from three directions: Zipf-profile generated
forms across every domain, the shipped grammars beyond the standard one,
and hypothesis-generated random token soups that exercise both the masked
(all ``token.id < 64``) and general preference-enforcement paths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.navmenu import build_menu_grammar
from repro.datasets.domains import DOMAINS
from repro.datasets.generator import GeneratorProfile, SourceGenerator
from repro.extractor import FormExtractor
from repro.grammar.example_g import build_example_grammar
from repro.grammar.standard import build_standard_grammar
from repro.html.parser import parse_html
from repro.layout.box import BBox
from repro.merger import merge_parse_result
from repro.parser.parser import BestEffortParser, ParserConfig
from repro.parser.spatial_index import numpy_available, resolve_kernel
from repro.tokens.model import SelectOption, Token
from repro.tokens.tokenizer import FormTokenizer

requires_numpy = pytest.mark.skipif(
    not numpy_available(),
    reason="vector kernel needs numpy (pip install 'repro[fast]')",
)

FORMS_PER_DOMAIN = 3  # 8 domains -> 24 Zipf-profile forms

#: Zipf-heavy profile: the generator's pattern choice is already
#: Zipf-distributed; wide condition counts make large mixed pools.
_PROFILE = GeneratorProfile(min_conditions=2, max_conditions=8)


def _generate_token_sets():
    """FORMS_PER_DOMAIN Zipf-profile tokenized forms per domain.

    Seeds are disjoint from the ``test_seminaive_equivalence`` corpus so
    the two nets do not silently test the same inputs.
    """
    token_sets = []
    for offset, name in enumerate(sorted(DOMAINS)):
        generator = SourceGenerator(DOMAINS[name], _PROFILE)
        for index in range(FORMS_PER_DOMAIN):
            source = generator.generate(seed=23_000 + offset * 100 + index)
            document = parse_html(source.html)
            forms = document.forms
            tokenizer = FormTokenizer(document)
            tokens = tokenizer.tokenize(forms[0] if forms else None)
            token_sets.append((f"{name}-{index}", tokens))
    return token_sets


_TOKEN_SETS = _generate_token_sets()
_GRAMMARS = {
    "standard": build_standard_grammar(),
    "example_g": build_example_grammar(),
    "navmenu": build_menu_grammar(),
}

_KERNEL_SENSITIVE = ("spatial_memo_hits",)


def _fingerprint(result):
    """Everything that must match between kernels, byte for byte."""
    model = merge_parse_result(result)
    counters = {
        name: value
        for name, value in result.stats.counters().items()
        if name not in _KERNEL_SENSITIVE
    }
    return {
        "counters": counters,
        "truncated": result.stats.truncated,
        "trees": [tree.pretty() for tree in result.trees],
        # uid values are globally monotonic across parses; creation ORDER
        # plus symbol plus liveness is the portable identity.
        "creation_order": [
            (inst.symbol, inst.alive)
            for inst in result.instances
            if not inst.is_terminal
        ],
        "conditions": [str(condition) for condition in model.conditions],
    }


def _parse(grammar, tokens, **config):
    return BestEffortParser(grammar, ParserConfig(**config)).parse(tokens)


@requires_numpy
@pytest.mark.parametrize(
    "label,tokens", _TOKEN_SETS, ids=[label for label, _ in _TOKEN_SETS]
)
def test_kernels_agree_on_zipf_forms(label, tokens):
    """Identical forests, counters, and merged models per generated form."""
    scalar = _parse(_GRAMMARS["standard"], tokens, kernel="scalar")
    vector = _parse(_GRAMMARS["standard"], tokens, kernel="vector")
    assert scalar.stats.kernel == "scalar"
    assert vector.stats.kernel == "vector"
    assert _fingerprint(vector) == _fingerprint(scalar)


@requires_numpy
@pytest.mark.parametrize("grammar_name", sorted(_GRAMMARS))
def test_kernels_agree_on_shipped_grammars(grammar_name):
    """Every shipped grammar, not just the standard one, is kernel-blind."""
    grammar = _GRAMMARS[grammar_name]
    for _, tokens in _TOKEN_SETS[:: max(1, len(_TOKEN_SETS) // 8)]:
        scalar = _parse(grammar, tokens, kernel="scalar")
        vector = _parse(grammar, tokens, kernel="vector")
        assert _fingerprint(vector) == _fingerprint(scalar)


@requires_numpy
def test_three_way_agreement_with_naive_ground_truth():
    """Naive, semi-naive scalar, and semi-naive vector: one answer.

    The naive fix-point enumerates differently (no prefilter), so only
    the structural outputs -- trees, creation order, model -- are
    compared against it; the two kernels must also match on counters.
    """
    grammar = _GRAMMARS["standard"]
    structural = ("trees", "creation_order", "conditions", "truncated")
    for _, tokens in _TOKEN_SETS[:: max(1, len(_TOKEN_SETS) // 6)]:
        naive = _fingerprint(_parse(grammar, tokens, evaluation="naive"))
        scalar = _fingerprint(_parse(grammar, tokens, kernel="scalar"))
        vector = _fingerprint(_parse(grammar, tokens, kernel="vector"))
        assert vector == scalar
        for key in structural:
            assert scalar[key] == naive[key]


@requires_numpy
def test_truncation_is_kernel_identical():
    """Budget exhaustion cuts both kernels at the same instance."""
    _, tokens = max(_TOKEN_SETS, key=lambda pair: len(pair[1]))
    for budget in (10, 40, 120):
        scalar = _parse(
            _GRAMMARS["standard"], tokens,
            kernel="scalar", max_instances=budget,
        )
        vector = _parse(
            _GRAMMARS["standard"], tokens,
            kernel="vector", max_instances=budget,
        )
        assert scalar.stats.truncated and vector.stats.truncated
        assert _fingerprint(vector) == _fingerprint(scalar)


@requires_numpy
def test_extractor_warnings_are_kernel_identical():
    """The full pipeline (tokenize, parse, merge) emits the same warnings
    and model regardless of kernel."""
    for _, tokens in _TOKEN_SETS[:4]:
        results = {}
        for kernel in ("scalar", "vector"):
            extractor = FormExtractor(
                parser_config=ParserConfig(kernel=kernel)
            )
            detailed = extractor.extract_from_tokens(tokens)
            results[kernel] = (
                detailed.warnings,
                [str(c) for c in detailed.model.conditions],
                [t.id for t in detailed.report.conflict_tokens],
                [t.id for t in detailed.report.missing_tokens],
            )
        assert results["vector"] == results["scalar"]


def test_auto_kernel_resolution_matches_environment():
    """``auto`` resolves to vector iff numpy is importable; the resolved
    kernel is stamped on the stats of every semi-naive parse."""
    expected = "vector" if numpy_available() else "scalar"
    assert resolve_kernel("auto") == expected
    _, tokens = _TOKEN_SETS[0]
    result = _parse(_GRAMMARS["standard"], tokens)
    assert result.stats.kernel == expected


# ---------------------------------------------------------------------------
# Hypothesis: random token soups, Zipf-weighted terminal mix.
# ---------------------------------------------------------------------------

#: Terminals repeated by (approximate) Zipf rank weight: ``sampled_from``
#: over the expanded list gives the frequent-head / long-tail mix real
#: forms show without needing a custom probability distribution.
_ZIPF_TERMINALS = (
    ("text", 8), ("textbox", 4), ("selectlist", 3), ("radiobutton", 2),
    ("checkbox", 2), ("submitbutton", 1),
)
_WEIGHTED_TERMINALS = tuple(
    name for name, weight in _ZIPF_TERMINALS for _ in range(weight)
)

_WORDS = ("Author", "Title", "from", "to", "exact name", "contains",
          "Price", "Search", "miles", "New", "Used", "Keywords:",
          "starts with", "Any", "2004")


@st.composite
def zipf_soups(draw):
    """Random form layouts on a loose grid with a Zipf terminal mix.

    ``id_base`` pushes half the examples past ``token.id >= 64``, so both
    the masked (uint64 coverage-mask) and the general preference
    enforcement paths of the vector kernel are exercised.
    """
    count = draw(st.integers(min_value=0, max_value=16))
    id_base = draw(st.sampled_from((0, 61)))
    tokens = []
    for index in range(count):
        terminal = draw(st.sampled_from(_WEIGHTED_TERMINALS))
        column = draw(st.integers(min_value=0, max_value=3))
        row = draw(st.integers(min_value=0, max_value=6))
        left = 10.0 + column * 120 + draw(st.integers(0, 30))
        top = 10.0 + row * 24 + draw(st.integers(0, 4))
        width = {"text": 60.0, "textbox": 110.0, "selectlist": 80.0,
                 "radiobutton": 13.0, "checkbox": 13.0,
                 "submitbutton": 60.0}[terminal]
        height = 13.0 if terminal in ("radiobutton", "checkbox") else 20.0
        attrs = {}
        if terminal == "text":
            attrs["sval"] = draw(st.sampled_from(_WORDS))
        elif terminal == "selectlist":
            attrs["name"] = f"sel{index}"
            attrs["options"] = (
                SelectOption("a", "a"), SelectOption("b", "b"),
            )
        elif terminal != "submitbutton":
            attrs["name"] = f"f{index}"
            if terminal in ("radiobutton", "checkbox"):
                attrs["value"] = f"v{index}"
        tokens.append(Token(
            id=id_base + index, terminal=terminal,
            bbox=BBox(left, left + width, top, top + height),
            attrs=attrs,
        ))
    return tokens


@requires_numpy
class TestKernelProperties:
    @given(zipf_soups())
    @settings(max_examples=50, deadline=None)
    def test_kernels_agree_on_random_soups(self, tokens):
        scalar = _parse(_GRAMMARS["standard"], tokens, kernel="scalar")
        vector = _parse(_GRAMMARS["standard"], tokens, kernel="vector")
        assert _fingerprint(vector) == _fingerprint(scalar)

    @given(zipf_soups())
    @settings(max_examples=25, deadline=None)
    def test_kernels_agree_under_tight_budgets(self, tokens):
        scalar = _parse(
            _GRAMMARS["standard"], tokens,
            kernel="scalar", max_instances=60,
        )
        vector = _parse(
            _GRAMMARS["standard"], tokens,
            kernel="vector", max_instances=60,
        )
        assert _fingerprint(vector) == _fingerprint(scalar)


def test_corpus_is_large_and_mixed():
    assert len(_TOKEN_SETS) >= 20
    assert len({label.rsplit("-", 1)[0] for label, _ in _TOKEN_SETS}) == len(
        DOMAINS
    )
