import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cqsearch.core import FactBase, Relation, make_partition
from cqsearch.evaluator import evaluate
from cqsearch.query import QueryGraph, canonical_form
from cqsearch.select import (ContextError, EntityContext, compare, coverage,
                             coverage_upper_bound, extract_entities,
                             load_hmap, make_context, synthesize)
from conftest import MOTIVATING_DESCRIPTION, fig1c_graph, fig1_schema
import gen
from oracles import coverage_by_atoms
from test_core import _json_values

SCHEMA = fig1_schema()


def foo_query():
    """Method joined to its identifier, name pinned to "foo"."""
    return QueryGraph(("Method", "Identifier"), frozenset({(0, 1, "idf_id")}),
                      ((1, "name", "equal", "foo"),))


class TestExtractEntities:
    def test_motivating_sentence(self, hmap_doc):
        dictionary, _ = load_hmap(hmap_doc)
        got = extract_entities(MOTIVATING_DESCRIPTION, dictionary)
        assert got == {"method", "type", "parameter", "return"}

    def test_empty_description(self, hmap_doc):
        dictionary, _ = load_hmap(hmap_doc)
        assert extract_entities("", dictionary) == frozenset()

    def test_tokenize_and_intersect(self):
        got = extract_entities("public static methods",
                               ["method", "static", "modifier"])
        assert got == {"method", "static"}

    def test_plural_es_fallback(self):
        assert extract_entities("Find the classes", ["class"]) == {"class"}


class TestContextProperties:
    WORDS = ["method", "type", "Method.id", "Type.name", "x"]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_json_values() | st.fixed_dictionaries({
        "dictionary": st.lists(st.sampled_from(WORDS), max_size=4) | _json_values(),
        "h": st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=4),
                             st.lists(st.sampled_from(WORDS), max_size=3)
                             | _json_values(), max_size=3) | _json_values()}),
           st.text(max_size=30) | st.sampled_from(["methods and types", ""]))
    def test_arbitrary_hmap_raises_only_context_errors(self, doc, description):
        try:
            ctx = make_context(doc, description)
        except ContextError:
            return
        assert ctx.entities <= ctx.dictionary == load_hmap(doc)[0]
        assert isinstance(doc["dictionary"], list)

    @pytest.mark.parametrize("dictionary", ["method", {"method": 1}, ["method", 1], None])
    def test_dictionary_must_be_a_list_of_words(self, dictionary):
        with pytest.raises(ContextError, match="'dictionary' must be a list"):
            load_hmap({"dictionary": dictionary, "h": {}})


class TestCoverage:
    def test_motivating_query_covers_everything(self, context):
        assert coverage(fig1c_graph(), SCHEMA, context) == 1

    def test_foo_query_covers_one_quarter(self, context):
        assert coverage(foo_query(), SCHEMA, context) == Fraction(1, 4)

    def test_empty_condition_covers_nothing(self, context):
        q = QueryGraph(("Method",), frozenset(), ())
        assert coverage(q, SCHEMA, context) == 0

    def test_requires_entities(self, hmap_doc):
        dictionary, h = load_hmap(hmap_doc)
        ctx = EntityContext(dictionary, h, frozenset())
        with pytest.raises(ContextError):
            coverage(fig1c_graph(), SCHEMA, ctx)


class TestComplexity:
    def test_motivating_query_is_nine(self):
        assert fig1c_graph().complexity() == 9

    def test_four_relations_six_atoms_is_ten(self):
        q = fig1c_graph().with_constraint(1, "name", "contain", "C")
        assert q.complexity() == 10

    def test_bare_query_is_one(self):
        assert QueryGraph(("Method",), frozenset(), ()).complexity() == 1


class TestCompare:
    def test_coverage_dominates(self, context):
        target, foo = fig1c_graph(), foo_query()
        assert compare(target, foo, SCHEMA, context) == 1
        assert compare(foo, target, SCHEMA, context) == -1

    def test_complexity_breaks_ties(self, context):
        heavier = fig1c_graph().with_constraint(3, "name", "contain", "L")
        target = fig1c_graph()
        assert coverage(heavier, SCHEMA, context) == coverage(target, SCHEMA, context)
        assert compare(target, heavier, SCHEMA, context) == 1

    def test_reflexive_tie(self, context):
        assert compare(fig1c_graph(), fig1c_graph(), SCHEMA,
                       context) == 0

    def test_total_preorder_on_random_queries(self, facts, context):
        rng = random.Random(37)
        schema = facts.schema
        gs = [gen.random_query_graph(rng, schema, m_max=3) for _ in range(12)]
        for g in gs:
            assert coverage(g, schema, context) == coverage_by_atoms(g, schema, context)
        # Connected graphs under random h maps, which also map primary keys
        # (the corpus map does not).
        check = random.Random(38)
        for _ in range(200):
            g = gen.random_query_graph(check, schema, m_max=4,
                                       allow_disconnected=False)
            ctx = gen.random_context(check, schema)
            assert coverage(g, schema, ctx) == coverage_by_atoms(g, schema, ctx)
        for a in gs:
            for b in gs:
                assert compare(a, b, schema, context) == -compare(b, a, schema, context)
                for c in gs:
                    if compare(a, b, schema, context) >= 0 and \
                            compare(b, c, schema, context) >= 0:
                        assert compare(a, c, schema, context) >= 0


class TestSynthesize:
    def test_motivating_instance(self, schema, facts, partition, context):
        result = synthesize(schema, facts, partition, context, k_bound=2)
        assert result.alpha_max == 1
        assert result.beta_min == 9
        assert result.terminated_early
        canons = {canonical_form(s.graph) for s in result.selected}
        assert canons == {canonical_form(fig1c_graph())}

    def test_upper_bound_on_motivating(self, schema, facts, partition, context):
        assert coverage_upper_bound(schema, frozenset(schema) - {"Modifier"},
                                    context) == 1

    def test_no_early_stop_same_selection(self, schema, facts, partition, context):
        # Capped at the same depth for both runs; the eager run stops at (5,2).
        eager = synthesize(schema, facts, partition, context, k_bound=2,
                           max_relations=5)
        full = synthesize(schema, facts, partition, context, k_bound=2,
                          early_stop=False, max_relations=5)
        assert not full.terminated_early
        assert (eager.alpha_max, eager.beta_min) == (full.alpha_max, full.beta_min)
        assert {canonical_form(s.graph) for s in eager.selected} == \
            {canonical_form(s.graph) for s in full.selected}
        assert full.state.generated_total() >= eager.state.generated_total()

    def test_unseparable_instance_returns_empty(self, hmap_doc):
        schema = fig1_schema()
        facts = FactBase(schema, [
            Relation("Method", frozenset({("M1", "I1", "T1", "D1"),
                                          ("M2", "I1", "T1", "D1")})),
            Relation("Identifier", frozenset({("I1", "go")})),
            Relation("Type", frozenset({("T1", "int")})),
            Relation("Modifier", frozenset({("D1", "public")})),
            Relation("Parameter", frozenset()),
        ])
        part = make_partition("Method", ["M1"], facts)
        ctx = make_context(hmap_doc, "Find all the methods")
        result = synthesize(schema, facts, part, ctx, k_bound=2)
        assert result.selected == ()
        assert result.alpha_max is None

    def test_name_only_instance(self, hmap_doc):
        # The only separating feature is the method name.
        schema = fig1_schema()
        facts = FactBase(schema, [
            Relation("Method", frozenset({("M1", "I1", "T1", "D1"),
                                          ("M2", "I2", "T1", "D1")})),
            Relation("Identifier", frozenset({("I1", "save"), ("I2", "drop")})),
            Relation("Type", frozenset({("T1", "void")})),
            Relation("Modifier", frozenset({("D1", "public")})),
            Relation("Parameter", frozenset()),
        ])
        part = make_partition("Method", ["M1"], facts)
        ctx = make_context(hmap_doc, "Find all the methods")
        result = synthesize(schema, facts, part, ctx, k_bound=2)
        assert len(result.selected) == 1
        sel = result.selected[0]
        assert evaluate(sel.graph, facts) == part.positives
        assert sel.graph.size() == (2, 1, 1)
        assert sel.alpha == 1  # "method" is covered through the join

    def test_context_error_without_entities(self, schema, facts, partition, hmap_doc):
        ctx = make_context(hmap_doc, "")
        with pytest.raises(ContextError):
            synthesize(schema, facts, partition, ctx)

    def test_selected_queries_are_exact(self, schema, facts, partition, context):
        result = synthesize(schema, facts, partition, context, k_bound=2)
        for sel in result.selected:
            assert evaluate(sel.graph, facts) == partition.positives
