import gc
import json
import random
import weakref
from dataclasses import replace
from math import prod

import pytest

from cqsearch import minijava
from cqsearch.core import (FK, PK, AttributeDecl, FactBase, Relation,
                           RelationPartition, Schema, make_partition)
from cqsearch.datalog import parse_datalog
from cqsearch.evaluator import (EvalError, _Compiled, _key_aware, _variables, evaluate,
                                is_candidate, refinable_with_witnesses)
from cqsearch.extract import build_facts, extract
from cqsearch.query import GraphError, QueryGraph, from_graph, to_graph
from conftest import CORPUS, DESKS_SCHEMA, FIG1C_RULE, acyclic, fig1c_graph
import gen
from oracles import evaluate_per_head, naive_evaluate


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
    """The key-aware answer of a compiled graph, checked against the
    per-head search."""
    got = _key_aware(c)
    assert got == evaluate_per_head(c)
    return got


@pytest.fixture
def desks():
    return FactBase(DESKS_SCHEMA, [
        Relation("Person", frozenset({("p1", "p1", "d1", "ann"), ("p2", "p1", "d1", "bob"),
                                      ("p3", "p3", "d2", "cy")})),
        Relation("Desk", frozenset({("d1", "p1", "p1", "x"), ("d2", "p2", "p3", "y")})),
    ])


class TestSemijoins:
    """Graphs whose equalities form a forest, which semi-joins (Yannakakis
    1981) could answer: the key-aware plan against the per-head search and
    the product oracle."""

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
        # The Person's desk and the Desk's owner and backup: the three edges
        # make two variables, which the two nodes share.
        g = QueryGraph(("Person", "Desk"),
                       frozenset({(0, 1, "desk"), (1, 0, "owner"), (1, 0, "backup")}), ())
        c = _Compiled(desks, g)
        assert acyclic(c)
        assert _variables(c) == [[0, None, 2, None], [2, 0, 0, None]]
        assert {t[0] for t in both_ways(c)} == {"p1"}

    def test_self_loop_is_a_check_of_its_node(self, desks):
        c = _Compiled(desks, QueryGraph(("Person",), frozenset({(0, 0, "boss")}), ()))
        assert acyclic(c) and c.steps[0][3] == (1,)
        assert _variables(c) == [[0, 0, None, None]]
        assert {t[0] for t in both_ways(c)} == {"p1", "p3"}

    def test_cycle_takes_the_per_head_search(self, desks):
        triangle = QueryGraph(("Person", "Person", "Desk"),
                              frozenset({(0, 1, "boss"), (0, 2, "desk"), (2, 1, "owner")}), ())
        c = _Compiled(desks, triangle)
        assert not acyclic(c)
        assert evaluate(triangle, desks) == evaluate_per_head(c) == naive_evaluate(triangle, desks)

    def test_agrees_on_criterion_6_graphs(self):
        # The stream of acceptance criterion 6, which checks evaluate
        # against the product oracle.
        rng = random.Random(606)
        forests = 0
        for _ in range(1000):
            schema, facts, _ = gen.random_instance(
                rng, max_relations=4, max_fks=2, max_strs=1)
            c = _Compiled(facts, gen.random_query_graph(rng, schema, m_max=4))
            forests += acyclic(c)
            both_ways(c)
        assert forests > 900

    def test_agrees_on_corpus_golden_rules(self):
        cyclic = []
        for path in sorted(CORPUS.glob("*/task.json")):
            task = json.loads(path.read_text(encoding="utf-8"))
            facts, _, _ = extract(minijava.parse_files(
                [str(path.parent / s) for s in task["source"]]), task["target"])
            for golden in task["golden"]:
                rule = (path.parent / golden).read_text(encoding="utf-8")
                c = _Compiled.of(facts, parse_datalog(rule, facts.schema))
                if not acyclic(c):
                    cyclic.append(task["name"])
                both_ways(c)
        assert cyclic == ["method-mutual-recursion"]


def key_aware(g: QueryGraph, facts: FactBase) -> frozenset:
    """The key-aware plan's answer for ``g``, checked against the per-head
    search and the product oracle."""
    c = _Compiled(facts, g)
    got = _key_aware(c)
    assert got == evaluate_per_head(c) == naive_evaluate(g, facts)
    return got


# A Lamp stands on a desk; the fact base below has none.
LAMPS_SCHEMA = Schema({**{rel: DESKS_SCHEMA[rel] for rel in DESKS_SCHEMA},
                       "Lamp": [AttributeDecl("id", PK), AttributeDecl("desk", FK, "Desk")]})

# Between desk d, its owner o and its backup b, each the other's boss.
MUTUAL_BOSSES = QueryGraph(("Desk", "Person", "Person"),
                           frozenset({(0, 1, "owner"), (0, 2, "backup"),
                                      (1, 2, "boss"), (2, 1, "boss")}), ())


class TestKeyAware:
    """The key-aware plan against the per-head search and the product
    oracle: on hand-built graphs whose answer depends on a node that is the
    key side of an edge, and on a seeded stream of random graphs."""

    @pytest.mark.parametrize("nodes, edges, strs, want", [
        (MUTUAL_BOSSES.nodes, MUTUAL_BOSSES.eq_edges, (), {"d1"}),
        (("Person", "Desk", "Person"),
         {(0, 1, "desk"), (1, 2, "owner"), (1, 2, "backup"), (2, 0, "boss")}, (), {"p1"}),
    ], ids=["two-cycle-of-self-references", "two-keys-into-one-node"])
    def test_hand_built_cycles(self, desks, nodes, edges, strs, want):
        g = QueryGraph(nodes, frozenset(edges), strs)
        assert not acyclic(_Compiled(desks, g))
        assert {t[0] for t in key_aware(g, desks)} == want

    def test_key_side_nodes_with_a_constraint_are_kept(self, desks):
        # A Desk that only its primary key joins, labelled; an owner that
        # only its primary key and its self-loop join. Without the label or
        # the loop, the node would hold for every binding and the answer grow.
        labelled = QueryGraph(("Person", "Desk", "Person"),
                              frozenset({(0, 1, "desk"), (2, 1, "desk"), (2, 0, "boss")}),
                              ((1, "label", "equal", "y"),))
        assert not acyclic(_Compiled(desks, labelled))
        assert {t[0] for t in key_aware(labelled, desks)} == {"p3"}
        assert {t[0] for t in key_aware(replace(labelled, str_edges=()), desks)} == {"p1", "p3"}
        looped = QueryGraph(("Desk", "Person", "Person", "Person"),
                            frozenset({(0, 1, "owner"), (1, 1, "boss"), (0, 2, "backup"),
                                       (2, 3, "boss"), (3, 0, "desk")}), ())
        assert not acyclic(_Compiled(desks, looped))
        assert {t[0] for t in key_aware(looped, desks)} == {"d1"}
        unlooped = replace(looped, eq_edges=looped.eq_edges - {(1, 1, "boss")})
        assert {t[0] for t in key_aware(unlooped, desks)} == {"d1", "d2"}

    def test_disconnected_node_without_rows(self, desks):
        lamps = FactBase(LAMPS_SCHEMA, [Relation(rel, desks.tuples(rel)) for rel in desks])
        assert {t[0] for t in key_aware(MUTUAL_BOSSES, lamps)} == {"d1"}
        alone = MUTUAL_BOSSES.with_node("Lamp", frozenset())
        assert not acyclic(_Compiled(lamps, alone))
        assert key_aware(alone, lamps) == frozenset()

    def test_head_that_is_the_key_side_of_every_edge(self, desks):
        # Edges that all end at the head form no cycle; the plan answers
        # for such a graph too.
        g = QueryGraph(("Person", "Desk", "Person"),
                       frozenset({(1, 0, "owner"), (1, 0, "backup"), (2, 0, "boss")}),
                       ((1, "label", "equal", "x"),))
        assert acyclic(_Compiled(desks, g))
        assert {t[0] for t in key_aware(g, desks)} == {"p1"}

    def test_agrees_on_random_cyclic_graphs(self):
        # The stream runs until it has drawn 500 cyclic graphs, and every
        # graph it draws is checked, acyclic ones too.
        rng = random.Random(2707)
        cyclic = small = small_cyclic = 0
        while cyclic < 500:
            schema, facts, _ = gen.random_instance(rng, max_relations=4, max_fks=2, max_strs=1)
            g = gen.random_query_graph(rng, schema, m_max=5)
            c = _Compiled(facts, g)
            has_cycle = not acyclic(c)
            cyclic += has_cycle
            want = evaluate_per_head(c)
            assert _key_aware(c) == want, g
            if prod(len(facts.matching(rel, ())) for rel in g.nodes) <= 20_000:
                small += 1
                small_cyclic += has_cycle
                assert naive_evaluate(g, facts) == want, g
        assert small_cyclic > 300 and small > 3000


def people(n: int) -> FactBase:
    """``n`` people, each the boss of the next two, whose desk d0 the first
    owns and the second backs up; person i is named ``n{i}``."""
    return FactBase(DESKS_SCHEMA, [
        Relation("Person", [(f"p{i}", f"p{i // 2}", "d0", f"n{i}") for i in range(n)]),
        Relation("Desk", [("d0", "p0", "p1", "y")])])


# The people whose boss is named n0.
BOSSED_BY_N0 = QueryGraph(("Person", "Person"), frozenset({(0, 1, "boss")}),
                          ((1, "name", "equal", "n0"),))


class TestPlanChoice:
    """Graphs over few and many head rows, with a cycle and without: the
    answer of ``evaluate`` is the per-head search's and the product
    oracle's. The names keep the plan each graph took while ``evaluate``
    chose one by the head's rows."""

    def test_acyclic_graph_with_few_heads_takes_the_per_head_search(self, facts):
        c = _Compiled(facts, fig1c_graph())
        assert acyclic(c) and len(facts.matching("Method", ())) == 3
        assert evaluate(c, facts) == evaluate_per_head(c) == {("M1", "I1", "T3", "MDF1")}

    def test_acyclic_graph_with_more_heads_takes_the_key_aware_plan(self):
        base = people(10)
        c = _Compiled(base, BOSSED_BY_N0)
        assert acyclic(c)
        assert {t[0] for t in evaluate(c, base)} == {"p0", "p1"}
        assert evaluate(c, base) == evaluate_per_head(c) == naive_evaluate(BOSSED_BY_N0, base)

    def test_cyclic_graph_with_few_heads_takes_the_per_head_search(self, desks):
        c = _Compiled(desks, MUTUAL_BOSSES)
        assert not acyclic(c) and len(desks.matching("Desk", ())) == 2
        assert evaluate(c, desks) == evaluate_per_head(c) == naive_evaluate(MUTUAL_BOSSES, desks)

    def test_cyclic_graph_with_more_heads_takes_the_key_aware_plan(self):
        # Person p0 owns desk d0, which p1 backs up, and p1's boss is p0.
        base = people(10)
        g = QueryGraph(("Person", "Desk", "Person"),
                       frozenset({(0, 1, "desk"), (1, 2, "owner"), (2, 0, "boss")}), ())
        c = _Compiled(base, g)
        assert not acyclic(c)
        assert {t[0] for t in evaluate(c, base)} == {"p0"}
        assert evaluate(c, base) == evaluate_per_head(c) == naive_evaluate(g, base)

    @pytest.mark.parametrize("check", [
        evaluate,
        lambda c, facts: is_candidate(c, facts, RelationPartition("Person", frozenset(),
                                                                  frozenset()))],
        ids=["evaluate", "is_candidate"])
    def test_graph_compiled_against_another_fact_base_raises(self, check):
        # Two bases of equal rows: a graph compiled over one is no query
        # over the other.
        c = _Compiled(people(10), BOSSED_BY_N0)
        with pytest.raises(EvalError, match="another fact base"):
            check(c, people(10))


class TestRefinableAndCandidate:
    def test_refinable_but_not_candidate(self, facts, partition):
        q = refinable_3rel_query()
        assert partition.positives <= evaluate(q, facts)
        assert not is_candidate(q, facts, partition)

    def test_motivating_query_is_candidate(self, facts, partition):
        assert is_candidate(fig1c_graph(), facts, partition)

    def test_tuples_outside_a_partition_are_ignored(self, facts, partition):
        # M1 and M2 return a CacheConfig; M2 is a negative of the exhaustive
        # partition and in neither side of the other.
        g = QueryGraph(("Method", "Type"), frozenset({(0, 1, "ret_type_id")}),
                       ((1, "name", "equal", "CacheConfig"),))
        m1, m2, m3 = sorted(facts.tuples("Method"))
        assert evaluate(g, facts) == {m1, m2}
        assert not is_candidate(g, facts, partition)
        part = RelationPartition("Method", frozenset({m1}), frozenset({m3}))
        assert is_candidate(g, facts, part)

    def test_same_type_join_excludes_the_positive(self, facts, partition):
        assert not partition.positives <= evaluate(same_type_query(), facts)

    def test_candidate_implies_refinable(self, facts, partition):
        rng = random.Random(31)
        for _ in range(120):
            g = gen.random_query_graph(rng, facts.schema, m_max=3)
            if g.nodes[0] != partition.target:
                with pytest.raises(EvalError):
                    is_candidate(g, facts, partition)
                with pytest.raises(EvalError):
                    refinable_with_witnesses(g, facts, partition, [])
            elif is_candidate(g, facts, partition):
                assert partition.positives <= evaluate(g, facts)
                assert refinable_with_witnesses(g, facts, partition, []) == (True, {})

    @pytest.mark.parametrize("check", [
        is_candidate,
        lambda g, facts, part: refinable_with_witnesses(g, facts, part, [])],
        ids=["is_candidate", "refinable_with_witnesses"])
    def test_head_outside_the_target_raises(self, facts, partition, check):
        # A Type head cannot admit the Method positives, whatever its ids.
        g = QueryGraph(("Type",), frozenset(), ())
        with pytest.raises(EvalError):
            check(g, facts, partition)


class TestCollectWitnesses:
    """``refinable_with_witnesses``: per slot, the witness set of each
    positive, in sorted order."""

    def test_parameter_type_witnesses(self, facts, partition):
        g = QueryGraph(
            ("Method", "Type", "Parameter", "Type"),
            frozenset({(0, 1, "ret_type_id"), (2, 0, "method_id"), (2, 3, "type_id")}),
            ((1, "name", "equal", "CacheConfig"),))
        assert sorted(partition.positives) == [("M1", "I1", "T3", "MDF1")]
        assert refinable_with_witnesses(g, facts, partition, [(3, "name")]) == (
            True, {(3, "name"): [{"Log4jUtils"}]})

    def test_method_identifier_names(self, facts):
        part = make_partition("Method", ["M1", "M2"], facts)
        g = QueryGraph(("Method", "Identifier"), frozenset({(0, 1, "idf_id")}), ())
        assert sorted(part.positives) == [("M1", "I1", "T3", "MDF1"),
                                          ("M2", "I2", "T3", "MDF1")]
        assert refinable_with_witnesses(g, facts, part, [(1, "name")]) == (
            True, {(1, "name"): [{"foo"}, {"f2"}]})

    def test_requires_refinable_graph(self, facts, partition):
        g = QueryGraph(
            ("Method", "Type", "Parameter"),
            frozenset({(0, 1, "ret_type_id"), (2, 0, "method_id"), (2, 1, "type_id")}),
            ())
        assert refinable_with_witnesses(g, facts, partition, [(1, "name")]) == (False, {})


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
