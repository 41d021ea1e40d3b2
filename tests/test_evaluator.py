import gc
import json
import random
import weakref

import pytest

from cqsearch import minijava
from cqsearch.core import (FK, PK, STR, AttributeDecl, FactBase, Relation,
                           Schema, make_partition)
from cqsearch.datalog import parse_datalog
from cqsearch.evaluator import (EvalError, _by_semijoins, _Compiled, _per_head,
                                collect_witnesses, evaluate, is_candidate,
                                is_refinable, refinable_with_witnesses)
from cqsearch.extract import build_facts, extract
from cqsearch.query import GraphError, QueryGraph, from_graph, to_graph
from conftest import CORPUS, FIG1C_RULE, fig1c_graph
import gen
from oracles import naive_evaluate


def refinable_3rel_query():
    """Return type CacheConfig, some parameter: keeps M1 and the negative M2."""
    return QueryGraph(("Method", "Type", "Parameter"),
                      frozenset({(2, 0, "method_id"), (0, 1, "ret_type_id")}),
                      ((1, "name", "equal", "CacheConfig"),))


def same_type_query():
    """Parameter type forced equal to the return type: excludes M1."""
    return QueryGraph(("Method", "Type", "Parameter"),
                      frozenset({(2, 0, "method_id"), (0, 1, "ret_type_id"),
                                 (2, 1, "type_id")}), ())


class TestEvaluate:
    def test_refinable_query_keeps_both_cacheconfig_methods(self, facts):
        assert evaluate(refinable_3rel_query(), facts) == {
            ("M1", "I1", "T3", "MDF1"), ("M2", "I2", "T3", "MDF1")}

    def test_trivial_single_node(self, facts):
        q = QueryGraph(("Method",), frozenset(), ())
        assert evaluate(q, facts) == facts.tuples("Method")

    def test_motivating_query_selects_only_foo(self, facts):
        result = evaluate(fig1c_graph(), facts)
        assert result == {("M1", "I1", "T3", "MDF1")}
        assert result == naive_evaluate(fig1c_graph(), facts)

    def test_graph_and_query_forms_agree(self, facts):
        q = parse_datalog(FIG1C_RULE, facts.schema)
        assert evaluate(fig1c_graph(), facts) == evaluate(q, facts)

    def test_disconnected_alias_acts_existentially(self, facts):
        q = QueryGraph(("Method", "Identifier"), frozenset(),
                       ((1, "name", "equal", "foo"),))
        # some identifier is "foo", so every method qualifies
        assert evaluate(q, facts) == facts.tuples("Method")
        q2 = QueryGraph(("Method", "Identifier"), frozenset(),
                        ((1, "name", "equal", "nope"),))
        assert evaluate(q2, facts) == frozenset()

    def test_unknown_attribute_raises(self, facts):
        q = QueryGraph(("Method",), frozenset(), ((0, "ghost", "equal", "x"),))
        with pytest.raises(EvalError):
            evaluate(q, facts)

    def test_matches_naive_oracle_on_random_queries(self, facts):
        rng = random.Random(23)
        for _ in range(150):
            g = gen.random_query_graph(rng, facts.schema)
            assert evaluate(g, facts) == naive_evaluate(g, facts)

    def test_monotone_in_conditions(self, facts):
        rng = random.Random(29)
        for _ in range(80):
            g = gen.random_query_graph(rng, facts.schema, m_max=3)
            base = evaluate(g, facts)
            for node, rel in enumerate(g.nodes):
                for a in facts.schema.string_attrs(rel):
                    stronger = g.with_constraint(node, a.name, "contain",
                                                 gen.random_string(rng, "af", 1, 2))
                    assert evaluate(stronger, facts) <= base


# Query graphs the Fig. 1 schema does not license, one fault each.
ILLEGAL_GRAPHS = {
    "foreign-key-to-the-wrong-target": QueryGraph(
        ("Method", "Modifier"), frozenset({(0, 1, "ret_type_id")}), ()),
    "string-attribute-as-key": QueryGraph(
        ("Type", "Identifier"), frozenset({(0, 1, "name")}), ()),
    "string-constraint-on-a-key": QueryGraph(
        ("Method",), frozenset(), ((0, "idf_id", "equal", "I1"),)),
    "unknown-predicate": QueryGraph(
        ("Type",), frozenset(), ((0, "name", "fuzzy", "int"),)),
    "unknown-relation": QueryGraph(("Method", "Ghost"), frozenset(), ()),
    "edge-to-a-missing-node": QueryGraph(
        ("Method", "Type"), frozenset({(0, 2, "ret_type_id")}), ()),
    "constraint-on-a-missing-node": QueryGraph(
        ("Type",), frozenset(), ((-1, "name", "equal", "int"),)),
}


class TestIllegalGraphs:
    """Every entry point checks a graph against the schema the same way."""

    @pytest.mark.parametrize("name", ILLEGAL_GRAPHS)
    def test_evaluate_raises(self, facts, name):
        with pytest.raises(EvalError):
            evaluate(ILLEGAL_GRAPHS[name], facts)

    @pytest.mark.parametrize("name", ILLEGAL_GRAPHS)
    def test_from_graph_raises(self, schema, name):
        with pytest.raises(GraphError):
            from_graph(ILLEGAL_GRAPHS[name], schema)

    @pytest.mark.parametrize("name", ILLEGAL_GRAPHS)
    def test_to_graph_raises(self, schema, name):
        with pytest.raises(GraphError):
            to_graph(ILLEGAL_GRAPHS[name], schema)


class TestJoinOrder:
    def test_node_joins_once_connected(self, facts):
        # Type joins only through Parameter, written after it: Parameter is
        # joined second, so Type's primary key is linked to its type_id.
        q = parse_datalog("out(M, I, R, D) :- Method(M, I, R, D), Type(T, N), "
                          'Parameter(P, PI, T, M), str_equal(N, "Log4jUtils").',
                          facts.schema)
        c = _Compiled.of(facts, q)
        assert c.at == {0: 0, 2: 1, 1: 2}
        assert c.steps[2][0] == "Type" and c.steps[2][1] == ((0, 1, 2),)
        assert evaluate(q, facts) == naive_evaluate(q, facts) == {
            ("M1", "I1", "T3", "MDF1"), ("M3", "I3", "T2", "MDF1")}

    def test_disconnected_node_joins_last(self, facts):
        g = QueryGraph(("Method", "Modifier", "Type"),
                       frozenset({(0, 2, "ret_type_id")}), ())
        assert _Compiled(facts, g).at == {0: 0, 2: 1, 1: 2}
        assert evaluate(g, facts) == naive_evaluate(g, facts)


def both_ways(c: _Compiled) -> frozenset:
    """The semi-join answer of an acyclic compiled graph, checked against
    the per-head search."""
    assert c.semijoins is not None
    got = _by_semijoins(c)
    assert got == _per_head(c)
    return got


# Persons with a boss and a desk; desks with an owner and a backup. Between
# a Person and a Desk node there can be edges both ways, and from a Desk
# two parallel ones; a Person can be its own boss.
DESKS_SCHEMA = Schema({
    "Person": [AttributeDecl("id", PK), AttributeDecl("boss", FK, "Person"),
               AttributeDecl("desk", FK, "Desk"), AttributeDecl("name", STR)],
    "Desk": [AttributeDecl("id", PK), AttributeDecl("owner", FK, "Person"),
             AttributeDecl("backup", FK, "Person"), AttributeDecl("label", STR)],
})


@pytest.fixture
def desks():
    return FactBase(DESKS_SCHEMA, [
        Relation("Person", frozenset({("p1", "p1", "d1", "ann"), ("p2", "p1", "d1", "bob"),
                                      ("p3", "p3", "d2", "cy")})),
        Relation("Desk", frozenset({("d1", "p1", "p1", "x"), ("d2", "p2", "p3", "y")})),
    ])


class TestSemijoins:
    """The semi-join path against the per-head search it replaces on
    acyclic graphs, and against the product oracle."""

    @pytest.mark.parametrize("nodes, edges, strs, want", [
        (("Person", "Desk"), {(1, 0, "owner"), (1, 0, "backup")}, (), {"p1"}),
        (("Person", "Desk"), {(0, 1, "desk"), (1, 0, "owner")}, (), {"p1"}),
        (("Person", "Desk"), {(0, 1, "desk"), (1, 0, "owner"), (1, 0, "backup")}, (),
         {"p1"}),
        (("Person",), {(0, 0, "boss")}, (), {"p1", "p3"}),
        (("Person", "Person"), {(0, 1, "boss"), (1, 1, "boss")}, (), {"p1", "p2", "p3"}),
        (("Person", "Person", "Desk"), {(1, 0, "boss"), (2, 1, "owner"), (1, 1, "boss")},
         (), {"p1"}),
        (("Person", "Desk"), set(), ((1, "label", "equal", "nope"),), set()),
        (("Person", "Desk"), set(), ((1, "label", "equal", "y"),), {"p1", "p2", "p3"}),
        (("Person", "Desk", "Desk"), {(0, 1, "desk")}, ((2, "label", "equal", "y"),),
         {"p1", "p2", "p3"}),
        (("Person", "Desk", "Person"), {(0, 1, "desk"), (2, 1, "desk")},
         ((1, "label", "equal", "x"), (2, "name", "equal", "nope")), set()),
    ], ids=["parallel-edges", "both-directions", "both-directions-and-parallel",
            "self-loop", "self-loop-on-a-child", "chain-with-self-loop",
            "component-matching-nothing", "component-matching-something",
            "connected-and-disconnected", "leaf-matching-nothing"])
    def test_hand_built_graphs(self, desks, nodes, edges, strs, want):
        g = QueryGraph(nodes, frozenset(edges), strs)
        c = _Compiled(desks, g)
        got = both_ways(c)
        assert {t[0] for t in got} == want
        assert got == naive_evaluate(g, desks) == evaluate(g, desks)

    def test_edges_between_two_nodes_merge_into_one(self, desks):
        g = QueryGraph(("Person", "Desk"),
                       frozenset({(0, 1, "desk"), (1, 0, "owner"), (1, 0, "backup")}), ())
        (parent, child, parent_key, child_key), = _Compiled(desks, g).semijoins
        assert (parent, child) == (0, 1)
        person, desk = ("p1", "p1", "d1", "ann"), ("d1", "p1", "p1", "x")
        assert parent_key(person) == child_key(desk) == ("d1", "p1", "p1")

    def test_self_loop_is_a_check_of_its_node(self, desks):
        c = _Compiled(desks, QueryGraph(("Person",), frozenset({(0, 0, "boss")}), ()))
        assert c.semijoins == [] and c.steps[0][3] == (1,)

    def test_cycle_takes_the_per_head_search(self, desks):
        triangle = QueryGraph(("Person", "Person", "Desk"),
                              frozenset({(0, 1, "boss"), (0, 2, "desk"), (2, 1, "owner")}), ())
        c = _Compiled(desks, triangle)
        assert c.semijoins is None
        assert evaluate(triangle, desks) == _per_head(c) == naive_evaluate(triangle, desks)

    def test_agrees_on_criterion_6_graphs(self):
        # The stream of acceptance criterion 6, which checks evaluate
        # against the product oracle.
        rng = random.Random(606)
        acyclic = 0
        for _ in range(1000):
            schema, facts, _ = gen.random_instance(
                rng, max_relations=4, max_fks=2, max_strs=1)
            c = _Compiled(facts, gen.random_query_graph(rng, schema, m_max=4))
            if c.semijoins is not None:
                acyclic += 1
                both_ways(c)
        assert acyclic > 900

    def test_agrees_on_corpus_golden_rules(self):
        cyclic = []
        for path in sorted(CORPUS.glob("*/task.json")):
            task = json.loads(path.read_text(encoding="utf-8"))
            facts, _, _ = extract(minijava.parse_files(
                [str(path.parent / s) for s in task["source"]]), task["target"])
            for golden in task["golden"]:
                rule = (path.parent / golden).read_text(encoding="utf-8")
                c = _Compiled.of(facts, parse_datalog(rule, facts.schema))
                if c.semijoins is None:
                    cyclic.append(task["name"])
                else:
                    both_ways(c)
        assert cyclic == ["method-mutual-recursion"]


class TestRefinableAndCandidate:
    def test_refinable_but_not_candidate(self, facts, partition):
        q = refinable_3rel_query()
        assert is_refinable(q, facts, partition)
        assert not is_candidate(q, facts, partition)

    def test_motivating_query_is_candidate(self, facts, partition):
        assert is_candidate(fig1c_graph(), facts, partition)

    def test_same_type_join_excludes_the_positive(self, facts, partition):
        assert not is_refinable(same_type_query(), facts, partition)

    def test_candidate_implies_refinable(self, facts, partition):
        rng = random.Random(31)
        for _ in range(120):
            g = gen.random_query_graph(rng, facts.schema, m_max=3)
            if g.nodes[0] != partition.target:
                with pytest.raises(EvalError):
                    is_candidate(g, facts, partition)
                with pytest.raises(EvalError):
                    is_refinable(g, facts, partition)
            elif is_candidate(g, facts, partition):
                assert is_refinable(g, facts, partition)

    @pytest.mark.parametrize("check", [
        is_refinable, is_candidate,
        lambda g, facts, part: refinable_with_witnesses(g, facts, part, []),
        lambda g, facts, part: collect_witnesses(g, 0, "name", part, facts)],
        ids=["is_refinable", "is_candidate", "refinable_with_witnesses",
             "collect_witnesses"])
    def test_head_outside_the_target_raises(self, facts, partition, check):
        # A Type head cannot admit the Method positives, whatever its ids.
        g = QueryGraph(("Type",), frozenset(), ())
        with pytest.raises(EvalError):
            check(g, facts, partition)


class TestCollectWitnesses:
    def test_parameter_type_witnesses(self, facts, partition):
        g = QueryGraph(
            ("Method", "Type", "Parameter", "Type"),
            frozenset({(0, 1, "ret_type_id"), (2, 0, "method_id"), (2, 3, "type_id")}),
            ((1, "name", "equal", "CacheConfig"),))
        witnesses = collect_witnesses(g, 3, "name", partition, facts)
        assert witnesses == {("M1", "I1", "T3", "MDF1"): frozenset({"Log4jUtils"})}

    def test_method_identifier_names(self, facts):
        part = make_partition("Method", ["M1", "M2"], facts)
        g = QueryGraph(("Method", "Identifier"), frozenset({(0, 1, "idf_id")}), ())
        witnesses = collect_witnesses(g, 1, "name", part, facts)
        assert witnesses[("M1", "I1", "T3", "MDF1")] == frozenset({"foo"})
        assert witnesses[("M2", "I2", "T3", "MDF1")] == frozenset({"f2"})

    def test_requires_refinable_graph(self, facts, partition):
        g = QueryGraph(
            ("Method", "Type", "Parameter"),
            frozenset({(0, 1, "ret_type_id"), (2, 0, "method_id"), (2, 1, "type_id")}),
            ())
        with pytest.raises(EvalError):
            collect_witnesses(g, 1, "name", partition, facts)


def test_fact_base_freed_by_reference_counting():
    """Evaluation leaves no reference cycle holding the fact base, so it is
    freed as soon as its last reference goes, with the collector off."""
    task = CORPUS / "t10_method_mutual_recursion"
    facts = build_facts(minijava.parse_files([str(task / "example.java")]))[0]
    queries = [
        "out(M, I, R, D) :- Method(M, I, R, D).",
        "out(M, I, R, D) :- Method(M, I, R, D), Identifier(I, N), Type(R, T).",
        (task / "golden.dl").read_text(encoding="utf-8"),
    ]
    was = gc.isenabled()
    gc.disable()
    try:
        for text in queries:
            assert evaluate(parse_datalog(text, facts.schema), facts)
        ref = weakref.ref(facts)
        del facts
        assert ref() is None
    finally:
        if was:
            gc.enable()
