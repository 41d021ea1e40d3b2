import random
from collections import Counter

import pytest

from cqsearch.core import pred_holds
from cqsearch.datalog import parse_datalog, render_datalog
from cqsearch.extract import extraction_schema
from cqsearch.query import (GraphError, QueryGraph, canonical_form, check_graph,
                            max_multiplicity, merged, multiplicity, render_ra)
from conftest import FIG1C_RULE, fig1c_graph
import gen
from oracles import canonical_form_by_search


def relabelled(g: QueryGraph, rng: random.Random) -> QueryGraph:
    """``g`` with its non-head nodes in a random order, the head kept at 0."""
    rest = list(range(1, len(g.nodes)))
    rng.shuffle(rest)
    order = [0] + rest
    moved = {old: new for new, old in enumerate(order)}
    return QueryGraph(
        tuple(g.nodes[old] for old in order),
        frozenset((moved[fk], moved[pk], attr) for fk, pk, attr in g.eq_edges),
        tuple(sorted((moved[node], attr, pred, literal)
                     for node, attr, pred, literal in g.str_edges)))


class TestKappa:
    def test_motivating_query_to_graph(self, schema):
        g = parse_datalog(FIG1C_RULE, schema)
        assert g.size() == (4, 3, 2)
        assert (2, 0, "method_id") in g.eq_edges
        assert (1, "name", "equal", "CacheConfig") in g.str_edges

    def test_round_trip_is_identity_up_to_renaming(self, schema):
        g = fig1c_graph()
        g2 = parse_datalog(render_datalog(g, schema), schema)
        assert canonical_form(g) == canonical_form(g2)

    def test_single_node_graph(self, schema):
        g = QueryGraph(("Method",), frozenset(), ())
        assert parse_datalog(render_datalog(g, schema), schema) == g
        assert render_ra(g, schema) == "Π_(A1.*)(σ_true(ρ_A1(Method)))"

    def test_random_round_trips(self, schema):
        rng = random.Random(5)
        for _ in range(100):
            g = gen.random_query_graph(rng, schema)
            back = parse_datalog(render_datalog(g, schema), schema)
            assert canonical_form(merged(back)) == canonical_form(merged(g))

    def test_illegal_edge_rejected(self, schema):
        g = QueryGraph(("Method", "Modifier"), frozenset({(0, 1, "ret_type_id")}), ())
        with pytest.raises(GraphError):
            check_graph(g, schema)

    def test_string_constraint_needs_string_attr(self, schema):
        g = QueryGraph(("Method",), frozenset(), ((0, "idf_id", "equal", "x"),))
        with pytest.raises(GraphError):
            check_graph(g, schema)


class TestMultiplicity:
    def test_motivating_counts(self):
        g = fig1c_graph()
        assert multiplicity(g, "Type") == 2
        assert multiplicity(g, "Method") == 1
        assert multiplicity(g, "Modifier") == 0
        assert max_multiplicity(g) == 2


class TestCanonicalForm:
    def test_alias_renaming_collapses(self, schema):
        g = fig1c_graph()
        # same graph with nodes listed in a different order after the head
        shuffled = QueryGraph(
            ("Method", "Parameter", "Type", "Type"),
            frozenset({(0, 3, "ret_type_id"), (1, 0, "method_id"), (1, 2, "type_id")}),
            ((2, "name", "equal", "Log4jUtils"), (3, "name", "equal", "CacheConfig")))
        assert canonical_form(g) == canonical_form(shuffled)

    def test_distinct_constraint_placement_distinguished(self):
        nodes = ("Method", "Type", "Parameter", "Type")
        edges = frozenset({(0, 1, "ret_type_id"), (2, 0, "method_id"), (2, 3, "type_id")})
        a = QueryGraph(nodes, edges, ((1, "name", "equal", "CacheConfig"),))
        c = QueryGraph(nodes, edges, ((3, "name", "equal", "CacheConfig"),))
        assert canonical_form(a) != canonical_form(c)

    def test_head_is_pinned(self):
        # Same shape, different projection head: never collapsed.
        a = QueryGraph(("Method", "Parameter"), frozenset({(1, 0, "method_id")}), ())
        b = QueryGraph(("Parameter", "Method"), frozenset({(0, 1, "method_id")}), ())
        assert canonical_form(a) != canonical_form(b)

    def test_self_loop_is_encoded(self):
        plain = QueryGraph(("Class",), frozenset(), ())
        loop = QueryGraph(("Class",), frozenset({(0, 0, "super_id")}), ())
        check_graph(loop, extraction_schema())
        assert canonical_form(loop) != canonical_form(plain)

    def test_self_loops_collapse_only_under_renaming(self):
        # A head class with two subclasses, one of them its own superclass:
        # the loop on either subclass is one graph, the loop on the head
        # another, and no loop a third.
        rng = random.Random(3)
        nodes = ("Class", "Class", "Class")
        edges = frozenset({(1, 0, "super_id"), (2, 0, "super_id")})
        looped = {node: QueryGraph(nodes, edges | {(node, node, "super_id")}, ())
                  for node in range(3)}
        forms = {node: canonical_form(g) for node, g in looped.items()}
        assert forms[1] == forms[2] != forms[0]
        assert canonical_form(QueryGraph(nodes, edges, ())) not in forms.values()
        for node, g in looped.items():
            for _ in range(5):
                assert canonical_form(relabelled(g, rng)) == forms[node], node

    def test_matches_search_on_random_graphs(self):
        # Up to seven nodes over at most three relations, some of them
        # disconnected, so that one relation often holds three or more of the
        # non-head positions and the group search has real ties to break.
        rng = random.Random(11)
        groups_of_three = 0
        for _ in range(1000):
            schema = gen.random_schema(rng, max_relations=3)
            g = gen.random_query_graph(rng, schema, m_max=7)
            form = canonical_form(g)
            assert form == canonical_form_by_search(g), g
            assert canonical_form(relabelled(g, rng)) == form, g
            counts = Counter(g.nodes[1:])
            groups_of_three += max(counts.values(), default=0) >= 3
        assert groups_of_three >= 100


class TestPredicates:
    def test_implication_chain_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(1000):
            v = gen.random_string(rng, "abcd", 0, 8)
            lo = rng.randint(0, len(v))
            hi = rng.randint(lo, len(v))
            literal = v[lo:hi] if rng.random() < 0.7 else gen.random_string(rng, "abcd", 0, 4)
            if pred_holds("equal", v, literal):
                assert pred_holds("prefix", v, literal)
                assert pred_holds("suffix", v, literal)
            if pred_holds("prefix", v, literal):
                assert pred_holds("contain", v, literal)
            if pred_holds("suffix", v, literal):
                assert pred_holds("contain", v, literal)

    def test_strength_examples(self):
        assert pred_holds("prefix", "cashFlow", "cash")
        assert not pred_holds("suffix", "cashFlow", "cash")
        assert pred_holds("contain", "acashb", "cash")
        assert not pred_holds("equal", "acashb", "cash")


class TestRendering:
    def test_motivating_ra_text(self, schema):
        text = render_ra(fig1c_graph(), schema)
        assert text == (
            'Π_(A1.*)(σ_Θ(ρ_A1(Method) × ρ_A2(Type) × ρ_A3(Parameter) × ρ_A4(Type))) '
            'where Θ := (A1.ret_type_id = A2.id) ∧ equal(A2.name, "CacheConfig") '
            '∧ (A3.method_id = A1.id) ∧ (A3.type_id = A4.id) '
            '∧ equal(A4.name, "Log4jUtils")')

    def test_string_literals_are_escaped(self, schema):
        # A quote, a backslash and a conjunction sign in a literal: render_ra
        # escapes it as render_datalog does, so it reads as one atom.
        g = QueryGraph(("Type",), frozenset(), ((0, "name", "equal", r'a\") ∧ (x'),))
        assert render_ra(g, schema) == (
            r'Π_(A1.*)(σ_Θ(ρ_A1(Type))) where Θ := equal(A1.name, "a\\\") ∧ (x")')
        assert render_datalog(g, schema) == (
            r'out(V0, V1) :- Type(V0, V1), str_equal(V1, "a\\\") ∧ (x").')
        assert parse_datalog(render_datalog(g, schema), schema) == g

    def test_ra_atoms_interleave_by_node(self, schema):
        # A string constraint on node 0 comes before an equality from node
        # 1: the atoms are sorted together, not equalities first.
        g = QueryGraph(("Type", "Method"), frozenset({(1, 0, "ret_type_id")}),
                       ((0, "name", "equal", "int"),))
        assert render_ra(g, schema) == (
            'Π_(A1.*)(σ_Θ(ρ_A1(Type) × ρ_A2(Method))) '
            'where Θ := equal(A1.name, "int") ∧ (A2.ret_type_id = A1.id)')
