"""Tests for partial-tree maximization (paper Section 5.3)."""

from repro.grammar.instance import Instance
from repro.grammar.production import Production
from repro.parser import maximization
from repro.parser.core import ParseCore
from repro.parser.maximization import covered_tokens
from tests.conftest import make_token


def leaf(token_id, left=0.0):
    return Instance.for_token(make_token(token_id, "text", left, 0.0))


def node(symbol, *children):
    production = Production(
        head=symbol, components=tuple(c.symbol for c in children)
    )
    result = production.try_apply(tuple(children))
    assert result is not None
    return result


def parents_for(instances):
    """Parent links of *instances* and their subtrees, as a parse keeps
    them: every node registered in creation (uid) order."""
    nodes = {}
    for instance in instances:
        for descendant in instance.descendants():
            nodes[descendant.uid] = descendant
    core = ParseCore(instances_left=100, combos_left=100)
    for uid in sorted(nodes):
        core.register(nodes[uid])
    return core.parents


def candidate_roots(instances):
    return maximization.candidate_roots(instances, parents_for(instances))


def maximal_roots(instances):
    return maximization.maximal_roots(instances, parents_for(instances))


class TestCandidateRoots:
    def test_parentless_nonterminals_are_candidates(self):
        a = leaf(0)
        wrapper = node("A", a)
        assert candidate_roots([a, wrapper]) == [wrapper]

    def test_instances_with_live_parents_excluded(self):
        a = leaf(0)
        inner = node("A", a)
        outer = node("B", inner)
        assert candidate_roots([a, inner, outer]) == [outer]

    def test_dead_parent_does_not_block(self):
        a = leaf(0)
        inner = node("A", a)
        outer = node("B", inner)
        outer.alive = False
        assert candidate_roots([a, inner, outer]) == [inner]

    def test_dead_instances_excluded(self):
        a = leaf(0)
        wrapper = node("A", a)
        wrapper.alive = False
        assert candidate_roots([a, wrapper]) == []

    def test_bare_terminals_are_not_roots(self):
        a = leaf(0)
        assert candidate_roots([a]) == []


class TestMaximalRoots:
    def test_subsumed_root_dropped(self):
        shared = leaf(0)
        extra = leaf(1, 100)
        big = node("A", shared, extra)
        small_production = Production(head="B", components=("text",))
        small = small_production.try_apply((shared,))
        kept = maximal_roots([shared, extra, big, small])
        assert kept == [big]

    def test_overlapping_incomparable_roots_both_kept(self):
        # Paper Figure 14: partial trees overlap but none subsumes another;
        # all are kept.
        a, b, c = leaf(0), leaf(1, 100), leaf(2, 200)
        first = node("A", a, b)
        second = node("B", b, c)  # shares b with first: overlapping roots
        kept = maximal_roots([first, second])
        assert set(kept) == {first, second}

    def test_equal_coverage_keeps_first_derived(self):
        shared = leaf(0)
        first = node("A", shared)
        second_production = Production(head="B", components=("text",))
        second = second_production.try_apply((shared,))
        kept = maximal_roots([first, second])
        assert kept == [first]

    def test_reading_order(self):
        upper = node("A", leaf(0))
        lower_leaf = make_token(1, "text", 0.0, 100.0)
        lower = node("B", Instance.for_token(lower_leaf))
        kept = maximal_roots([lower, upper])
        assert kept == [upper, lower]

    def test_complete_parse_is_sole_root(self):
        a, b = leaf(0), leaf(1, 100)
        inner = node("A", a)
        complete = node("QI", inner, b)
        kept = maximal_roots([inner, complete])
        assert kept == [complete]


class TestCoveredTokens:
    def test_union(self):
        first = node("A", leaf(0))
        second = node("B", leaf(3, 300))
        assert covered_tokens([first, second]) == frozenset({0, 3})

    def test_empty(self):
        assert covered_tokens([]) == frozenset()
