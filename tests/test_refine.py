import json
import random

import pytest

from cqsearch import minijava, refine
from cqsearch.evaluator import (_Compiled, is_candidate, is_refinable,
                                 refinable_with_witnesses)
from cqsearch.extract import extract
from cqsearch.datalog import parse_datalog, render_datalog
from cqsearch.query import QueryGraph, canonical_form, max_multiplicity, merged
from cqsearch.refine import RefinementEngine, RefinementState
from cqsearch.schema_graph import build_schema_graph
from cqsearch.select import make_context, synthesize
from cqsearch.strings import syn_lcs
from conftest import CORPUS, fig1c_graph
import gen
from oracles import (brute_force_candidates, canonical_form_by_search,
                     refine_by_compiling)


def engine_for(schema, facts, partition, relations=None):
    graph = build_schema_graph(schema)
    rels = relations or ["Method", "Parameter", "Type", "Identifier"]
    return RefinementEngine(schema, graph, facts, partition, rels)


def run_levels(engine, m_max, k_max=2):
    state = RefinementState()
    for m in range(1, m_max + 1):
        for k in range(1, min(k_max, m) + 1):
            engine.refine(state, m, k)
    return state


class TestExpand:
    def test_empty_graph_grows_only_the_head(self, schema, facts, partition):
        eng = engine_for(schema, facts, partition)
        assert eng.expand(QueryGraph.empty(), "Type") == []
        out = eng.expand(QueryGraph.empty(), "Method")
        assert [g.nodes for g in out] == [("Method",)]

    def test_parameter_joins_method(self, schema, facts, partition):
        eng = engine_for(schema, facts, partition)
        head = QueryGraph(("Method",), frozenset(), ())
        out = eng.expand(head, "Parameter")
        assert any((1, 0, "method_id") in g.eq_edges for g in out)

    def test_type_joins_via_return(self, schema, facts, partition):
        eng = engine_for(schema, facts, partition)
        head = QueryGraph(("Method",), frozenset(), ())
        out = eng.expand(head, "Type")
        assert [sorted(g.eq_edges) for g in out] == [[(0, 1, "ret_type_id")]]

    def test_every_subset_of_edges(self, schema, facts, partition):
        eng = engine_for(schema, facts, partition)
        g = QueryGraph(("Method", "Parameter"), frozenset({(1, 0, "method_id")}), ())
        out = eng.expand(g, "Type")
        # legal edges: node 0's ret_type_id and node 1's type_id -> three
        # non-empty subsets
        assert len(out) == 3


class TestRefineLevels:
    def test_base_level(self, schema, facts, partition):
        state = run_levels(engine_for(schema, facts, partition), 1)
        assert [g.nodes for g in state.refinable(1, 1)] == [("Method",)]
        assert state.candidates(1, 1) == []

    def test_level_invariants(self, schema, facts, partition):
        state = run_levels(engine_for(schema, facts, partition), 4)
        for (m, k), (refinable, candidates) in state.table.items():
            for g in refinable:
                assert len(g.nodes) == m
                assert max_multiplicity(g) == k
                assert is_refinable(g, facts, partition)
            for g in candidates:
                assert is_candidate(g, facts, partition)

    def test_motivating_candidate_found_at_4_2(self, schema, facts, partition):
        state = run_levels(engine_for(schema, facts, partition), 4)
        canon = canonical_form(fig1c_graph())
        assert canon in {canonical_form(g) for g in state.candidates(4, 2)}

    def test_non_refinable_shape_never_enumerated(self, schema, facts, partition):
        # parameter type forced equal to return type excludes the positive
        state = run_levels(engine_for(schema, facts, partition), 4)
        bad = QueryGraph(
            ("Method", "Type", "Parameter"),
            frozenset({(0, 1, "ret_type_id"), (2, 0, "method_id"), (2, 1, "type_id")}),
            ())
        canon = canonical_form(bad)
        for refinable, _ in state.table.values():
            assert canon not in {canonical_form(g) for g in refinable}

    def test_string_closure_produces_double_constraint_graphs(
            self, schema, facts, partition):
        state = run_levels(engine_for(schema, facts, partition), 4)
        assert any(len(g.str_edges) == 2 for g in state.refinable(4, 2))

    def test_no_duplicate_canonical_forms(self, schema, facts, partition):
        state = run_levels(engine_for(schema, facts, partition), 4)
        seen = []
        for refinable, _ in state.table.values():
            seen.extend(canonical_form(g) for g in refinable)
        assert len(seen) == len(set(seen))


class TestSubsumption:
    def test_every_graph_extends_a_predecessor(self, schema, facts, partition):
        # Property: removing some non-head node (plus at most one synthesized
        # constraint) lands in a predecessor level.
        state = run_levels(engine_for(schema, facts, partition), 4)
        tables = {level: {canonical_form(g) for g in refinable}
                  for level, (refinable, _) in state.table.items()}

        def predecessors(m, k):
            pred = set(tables.get((m - 1, k), set()))
            pred |= tables.get((m - 1, k - 1), set())
            return pred

        rng = random.Random(3)
        for (m, k), (refinable, _) in state.table.items():
            if m == 1:
                continue
            sample = rng.sample(refinable, min(10, len(refinable)))
            for g in sample:
                assert self._has_sub_structure(g, predecessors(m, k))

    @staticmethod
    def _has_sub_structure(g, predecessor_canons):
        def moved(node, dropped):
            return node - (node > dropped)

        for drop_idx in range(1, len(g.nodes)):
            nodes = g.nodes[:drop_idx] + g.nodes[drop_idx + 1:]
            edges = frozenset((moved(fk, drop_idx), moved(pk, drop_idx), attr)
                              for fk, pk, attr in g.eq_edges
                              if drop_idx not in (fk, pk))
            strs = tuple((moved(node, drop_idx), *rest)
                         for node, *rest in g.str_edges if node != drop_idx)
            bases = [QueryGraph(nodes, edges, strs)]
            bases += [QueryGraph(nodes, edges, strs[:i] + strs[i + 1:])
                      for i in range(len(strs))]
            if any(canonical_form(b) in predecessor_canons for b in bases):
                return True
        return False


class TestAgainstBruteForce:
    def test_candidate_sets_match_on_random_instances(self):
        # Pruned inductive refinement finds exactly the brute-force space's
        # candidates when run over all relations with the same bounds.
        rng = random.Random(17)
        checked = 0
        for _ in range(25):
            schema, facts, part = gen.random_instance(
                rng, max_relations=3, max_fks=2, max_strs=1)
            eng = RefinementEngine(schema, build_schema_graph(schema), facts,
                                   part, sorted(schema))
            state = RefinementState()
            for m in range(1, 4):
                for k in range(1, min(2, m) + 1):
                    eng.refine(state, m, k)
            mine = set()
            for (m, k), (_, candidates) in state.table.items():
                mine |= {canonical_form(g) for g in candidates}
            brute = {canonical_form(g)
                     for g in brute_force_candidates(facts, part, 3, 2)}
            assert mine == brute
            checked += 1 if brute else 0
        assert checked >= 3


@pytest.fixture(scope="module")
def corpus_runs():
    """(name, facts, partition, synthesis result) for every corpus task."""
    hmap = json.loads((CORPUS / "hmap.json").read_text(encoding="utf-8"))
    runs = []
    for task_dir in sorted(CORPUS.glob("t*/")):
        doc = json.loads((task_dir / "task.json").read_text(encoding="utf-8"))
        prog = minijava.parse_files([task_dir / s for s in doc["source"]])
        facts, part, _ = extract(prog, doc["target"])
        ctx = make_context(hmap, doc["description"])
        result = synthesize(facts.schema, facts, part, ctx, k_bound=2)
        runs.append((task_dir.name, facts, part, result))
    assert len(runs) == 14
    return runs


# Per corpus task: len(state.seen), then (m, k, generated, refinable,
# candidates) per level, recorded before refinement checked candidates on
# the negatives only and skipped the canonical form of exact duplicates.
PINNED_LEVELS = {
    "t01_var_local_double": (19, [(1, 1, 1, 1, 0), (2, 1, 4, 4, 1), (2, 2, 0, 0, 0), (3, 1, 8, 4, 2), (3, 2, 16, 10, 3)]),
    "t02_var_cash_suffix": (19, [(1, 1, 1, 1, 0), (2, 1, 4, 4, 1), (2, 2, 0, 0, 0), (3, 1, 8, 4, 2), (3, 2, 16, 10, 3)]),
    "t03_var_public_field": (19, [(1, 1, 1, 1, 0), (2, 1, 4, 4, 1), (2, 2, 0, 0, 0), (3, 1, 10, 5, 2), (3, 2, 12, 9, 3)]),
    "t04_expr_if_bool_literal": (8, [(1, 1, 1, 1, 0), (2, 1, 2, 2, 1), (2, 2, 0, 0, 0), (3, 1, 0, 0, 0), (3, 2, 8, 5, 3)]),
    "t05_expr_and_condition": (8, [(1, 1, 1, 1, 0), (2, 1, 2, 2, 1), (2, 2, 0, 0, 0), (3, 1, 0, 0, 0), (3, 2, 8, 5, 3)]),
    "t06_stmt_import_log4j": (2, [(1, 1, 2, 2, 1), (2, 1, 0, 0, 0), (2, 2, 0, 0, 0)]),
    "t07_stmt_import_localtime": (2, [(1, 1, 2, 2, 1), (2, 1, 0, 0, 0), (2, 2, 0, 0, 0)]),
    "t08_method_motivating": (2118, [(1, 1, 1, 1, 0), (2, 1, 5, 5, 1), (2, 2, 0, 0, 0), (3, 1, 30, 12, 3), (3, 2, 18, 12, 3), (4, 1, 68, 16, 4), (4, 2, 344, 117, 34), (5, 1, 0, 0, 0), (5, 2, 3520, 747, 243)]),
    "t09_method_param_log4j": (414, [(1, 1, 1, 1, 0), (2, 1, 7, 7, 1), (2, 2, 0, 0, 0), (3, 1, 50, 22, 7), (3, 2, 26, 17, 3), (4, 1, 152, 40, 20), (4, 2, 554, 207, 63)]),
    "t10_method_mutual_recursion": (845, [(1, 1, 1, 1, 0), (2, 1, 2, 2, 0), (2, 2, 0, 0, 0), (3, 1, 6, 3, 0), (3, 2, 4, 4, 0), (4, 1, 0, 0, 0), (4, 2, 67, 27, 0), (5, 2, 384, 94, 0), (6, 2, 1410, 213, 1)]),
    "t11_class_has_subclass": (90, [(1, 1, 2, 2, 0), (2, 1, 6, 4, 0), (2, 2, 14, 8, 2), (3, 1, 5, 2, 0), (3, 2, 138, 56, 10)]),
    "t12_class_comparable": (104, [(1, 1, 2, 2, 0), (2, 1, 3, 2, 0), (2, 2, 10, 4, 0), (3, 1, 0, 0, 0), (3, 2, 49, 18, 4), (4, 2, 130, 36, 12)]),
    "t13_class_log4j_field": (1324, [(1, 1, 2, 2, 0), (2, 1, 12, 8, 2), (2, 2, 10, 4, 0), (3, 1, 59, 22, 8), (3, 2, 171, 58, 12), (4, 1, 181, 54, 32), (4, 2, 1966, 452, 154)]),
    "t14_method_static": (43, [(1, 1, 1, 1, 0), (2, 1, 6, 6, 1), (2, 2, 0, 0, 0), (3, 1, 37, 16, 4), (3, 2, 20, 14, 3)]),
}


def test_kept_graphs_round_trip_exactly_on_corpus(corpus_runs):
    # Rendering each graph refinement kept as a Datalog rule and parsing it
    # back gives the same query: parsing may span a variable class by other
    # equalities, so the two are compared once merged.
    kept = 0
    for name, facts, _, result in corpus_runs:
        for refinable, _ in result.state.table.values():
            for g in refinable:
                back = parse_datalog(render_datalog(g, facts.schema), facts.schema)
                assert canonical_form(merged(back)) == canonical_form(merged(g)), (name, g)
                kept += 1
    assert kept == sum(refinable for _, levels in PINNED_LEVELS.values()
                       for _, _, _, refinable, _ in levels)


def _assert_candidates_are_exact(state, facts, part, label):
    for (m, k), (refinable, candidates) in state.table.items():
        assert len(set(candidates)) == len(candidates), (label, m, k)
        chosen = set(candidates)
        assert chosen <= set(refinable), (label, m, k)
        for g in refinable:
            assert is_refinable(g, facts, part), (label, m, k, g)
            assert (g in chosen) == is_candidate(g, facts, part), (label, m, k, g)


class TestCandidatePath:
    """The inline negatives-only check against ``is_candidate``."""

    def test_pinned_level_counts_on_corpus(self, corpus_runs):
        for name, _, _, result in corpus_runs:
            stats = [(s.m, s.k, s.generated, s.refinable, s.candidates)
                     for s in result.state.stats]
            assert (len(result.state.seen), stats) == PINNED_LEVELS[name], name

    def test_candidates_match_is_candidate_on_corpus(self, corpus_runs):
        for name, facts, part, result in corpus_runs:
            _assert_candidates_are_exact(result.state, facts, part, name)

    def test_candidates_match_is_candidate_on_random_instances(self):
        rng = random.Random(5)
        closure_non_candidates = 0
        for i in range(150):
            schema, facts, part = gen.random_instance(
                rng, max_relations=4, max_fks=2, max_strs=1)
            state = run_levels(RefinementEngine(
                schema, build_schema_graph(schema), facts, part,
                sorted(schema)), 3)
            _assert_candidates_are_exact(state, facts, part, i)
            closure_non_candidates += sum(
                1 for refinable, candidates in state.table.values()
                for g in refinable if g.str_edges and g not in candidates)
        # Refinable graphs with a synthesized constraint that still admit a
        # negative must occur, or a skipped negative check would pass.
        assert closure_non_candidates >= 100


@pytest.fixture
def searched(monkeypatch):
    """The graphs refinement canonicalises, each checked against the search
    over every remaining node."""
    graphs: list[QueryGraph] = []

    def checked(g: QueryGraph):
        form = canonical_form(g)
        assert form == canonical_form_by_search(g), g
        graphs.append(g)
        return form
    monkeypatch.setattr(refine, "canonical_form", checked)
    return graphs


def _repeats_a_relation(g: QueryGraph) -> bool:
    rels = g.nodes[1:]
    return len(set(rels)) < len(rels)


def _cross_check(engine, levels, label) -> int:
    """Run ``engine.refine`` and ``refine_by_compiling`` level by level and
    compare them; returns how many refinable graphs' rows were checked."""
    facts, part = engine.facts, engine.part
    mine, theirs = RefinementState(), RefinementState()
    checked = 0
    for m, k in levels:
        engine.refine(mine, m, k)
        refine_by_compiling(engine, theirs, m, k)
        where = (label, m, k)
        assert mine.refinable(m, k) == theirs.refinable(m, k), where
        assert mine.candidates(m, k) == theirs.candidates(m, k), where
        assert mine.stats[-1] == theirs.stats[-1], where
        assert len(mine.seen) == len(theirs.seen), where
        for g, rows in zip(mine.refinable(m, k), mine.rows[(m, k)], strict=True):
            slots = sorted((node, a.name) for node, rel in enumerate(g.nodes)
                           for a in facts.schema.string_attrs(rel))
            ok, witnesses = refinable_with_witnesses(g, facts, part, slots)
            assert ok, (where, g)
            assert {s: list(engine.witnesses(g, rows, s)) for s in slots} == witnesses, \
                (where, g)
            checked += 1
    for witnesses, constraint in engine.synthesized.items():
        assert syn_lcs([set(w) for w in witnesses]) == constraint, (label, witnesses)
    return checked


class TestIncrementalRows:
    """Rows extended from the parent against compiling every graph anew."""

    def test_matches_compiling_on_corpus(self, corpus_runs, searched):
        for name, facts, part, result in corpus_runs:
            schema = facts.schema
            engine = RefinementEngine(schema, build_schema_graph(schema), facts,
                                      part, sorted(result.reduced.kept))
            assert _cross_check(engine, result.levels_explored, name) > 0, name
        assert sum(map(_repeats_a_relation, searched)) > 1000

    def test_evaluator_joins_in_node_order_on_corpus(self, corpus_runs):
        # Refinement extends assignments in node order; the evaluator's join
        # order agrees, so both bind each node by the same join step.
        joined = 0
        for name, facts, _, result in corpus_runs:
            for refinable, _ in result.state.table.values():
                for g in refinable:
                    at = {node: node for node in range(len(g.nodes))}
                    assert _Compiled(facts, g).at == at, (name, g)
                    joined += len(g.nodes) > 2
        assert joined > 1000

    def test_matches_compiling_on_random_instances(self, searched):
        rng = random.Random(29)
        joined_twice = 0
        synthesized = 0
        for i in range(150):
            schema, facts, part = gen.random_instance(
                rng, max_relations=4, max_fks=2, max_strs=1)
            engine = RefinementEngine(schema, build_schema_graph(schema), facts,
                                      part, sorted(schema))
            levels = [(m, k) for m in range(1, 4) for k in range(1, min(2, m) + 1)]
            _cross_check(engine, levels, i)
            synthesized += len(engine.synthesized)
            state = run_levels(engine, 3)
            joined_twice += sum(
                1 for refinable, _ in state.table.values() for g in refinable
                if sum(len(g.nodes) - 1 in e[:2] for e in g.eq_edges) > 1)
        # A new node joined by several edges must occur, or extending by
        # the first edge alone would pass.
        assert joined_twice >= 50
        assert synthesized >= 100
        assert sum(map(_repeats_a_relation, searched)) >= 100

    def test_synthesize_leaves_no_rows(self, schema, facts, partition, context):
        # Stopped early at m = 5 below the m cap of 8, and run to an m cap
        # of 4.
        for early_stop, max_m, last_m in ((True, None, 5), (False, 4, 4)):
            result = synthesize(schema, facts, partition, context, k_bound=2,
                                early_stop=early_stop, max_relations=max_m)
            assert result.levels_explored[-1][0] == last_m
            assert result.terminated_early == early_stop
            assert result.state.rows == {}

    def test_no_rows_at_the_cap(self, schema, facts, partition, context,
                                monkeypatch):
        kept_after: list[tuple[tuple[int, int], set]] = []
        refine = RefinementEngine.refine

        def recording(engine, state, m, k):
            refine(engine, state, m, k)
            kept_after.append(((m, k), set(state.rows)))
        monkeypatch.setattr(RefinementEngine, "refine", recording)
        result = synthesize(schema, facts, partition, context, k_bound=2,
                            early_stop=False, max_relations=3)
        assert max(m for m, _ in result.levels_explored) == 3
        for (m, k), levels in kept_after:
            # rows of this level unless it is the cap, and of the level
            # before it; none older
            assert all(m - 1 <= lm < 3 for lm, _ in levels), (m, k, levels)
            assert ((m, k) in levels) == (m < 3), (m, k, levels)

    def test_refining_past_the_cap_fails(self, schema, facts, partition):
        engine = RefinementEngine(schema, build_schema_graph(schema), facts,
                                  partition, ["Method", "Parameter", "Type"],
                                  m_cap=2)
        state = run_levels(engine, 2)
        assert state.refinable(2, 1) and (2, 1) not in state.rows
        with pytest.raises(ValueError):
            engine.refine(state, 3, 1)
