import json
import random

from cqsearch import minijava
from cqsearch.core import (FK, PK, STR, AttributeDecl, FactBase, Relation,
                           Schema, make_partition)
from cqsearch.extract import extract
from cqsearch.reduction import DropReason, reduce, reduced_subgraph_size
from conftest import CORPUS
import gen
from oracles import brute_force_candidates, reduce_by_paths


class TestFig1Reduction:
    def test_modifier_is_the_only_dummy(self, schema, facts, partition):
        red = reduce(schema, facts, partition)
        assert red.kept == {"Method", "Parameter", "Type", "Identifier"}
        assert red.dropped == {("Modifier", DropReason.INDISTINGUISHABLE)}

    def test_identifier_kept_by_distinct_names(self, schema, facts, partition):
        # foo vs f2/f3 names differ, so the name path distinguishes.
        red = reduce(schema, facts, partition)
        assert "Identifier" in red.kept

    def test_target_always_kept(self, schema, facts, partition):
        assert partition.target in reduce(schema, facts, partition).kept

    def test_deterministic(self, schema, facts, partition):
        assert reduce(schema, facts, partition) == reduce(schema, facts, partition)

    def test_report_lines_stable(self, schema, facts, partition):
        lines = reduce(schema, facts, partition).report_lines()
        assert lines == ["keep Identifier", "keep Method", "keep Parameter",
                         "keep Type", "drop Modifier (IndistinguishableActivation)"]

    def test_subgraph_size(self, schema, facts, partition):
        red = reduce(schema, facts, partition)
        nodes, edges = reduced_subgraph_size(schema, red.kept)
        assert nodes == 5  # four kept relations plus STR
        # Method->idf/ret, Parameter->idf/type/method, Identifier/Type->STR
        assert edges == 7


class TestDropReasons:
    def test_empty_relation_dropped(self, schema, partition):
        facts = FactBase(schema, [
            Relation("Method", frozenset({("M1", "I1", "T1", "D1"),
                                          ("M2", "I1", "T1", "D1")})),
            Relation("Identifier", frozenset({("I1", "x")})),
            Relation("Type", frozenset({("T1", "int")})),
            Relation("Modifier", frozenset({("D1", "public")})),
            Relation("Parameter", frozenset()),
        ])
        part = make_partition("Method", ["M1"], facts)
        red = reduce(schema, facts, part)
        assert ("Parameter", DropReason.EMPTY_ACTIVATION) in red.dropped

    def test_unreachable_relation(self):
        schema = Schema({
            "A": [AttributeDecl("id", PK)],
            "Island": [AttributeDecl("id", PK), AttributeDecl("s", STR)],
        })
        facts = FactBase(schema, [
            Relation("A", frozenset({("a1",), ("a2",)})),
            Relation("Island", frozenset({("i1", "x")})),
        ])
        part = make_partition("A", ["a1"], facts)
        red = reduce(schema, facts, part)
        assert ("Island", DropReason.UNREACHABLE) in red.dropped
        assert red.kept == {"A"}

    def test_kept_and_dropped_cover_schema(self, schema, facts, partition):
        red = reduce(schema, facts, partition)
        dropped = {name for name, _ in red.dropped}
        assert red.kept | dropped == set(schema)
        assert not red.kept & dropped


class TestReductionSoundness:
    def test_candidates_survive_reduction_on_random_instances(self):
        # Wherever unreduced brute force finds a candidate, one using only
        # kept relations exists too (checked through the reduced search in
        # the acceptance suite; here: each brute-force candidate set has a
        # member over kept relations, on small instances).
        rng = random.Random(13)
        found_any = 0
        for _ in range(30):
            schema, facts, part = gen.random_instance(
                rng, max_relations=3, max_fks=2, max_strs=1)
            cands = brute_force_candidates(facts, part, m_max=3, k_max=2)
            if not cands:
                continue
            found_any += 1
            kept = reduce(schema, facts, part).kept
            assert any(all(rel in kept for rel in g.nodes) for g in cands), \
                f"no candidate over kept={sorted(kept)}"
        assert found_any >= 3  # the generator must exercise the property

    def test_dropping_dummies_preserves_candidate_existence(self):
        # Restricting the space to kept relations never flips the verdict.
        rng = random.Random(99)
        for _ in range(20):
            schema, facts, part = gen.random_instance(
                rng, max_relations=3, max_fks=2, max_strs=1)
            kept = reduce(schema, facts, part).kept
            all_cands = brute_force_candidates(facts, part, m_max=3, k_max=2)
            kept_cands = [g for g in all_cands
                          if all(rel in kept for rel in g.nodes)]
            assert bool(all_cands) == bool(kept_cands)


def _fk(name: str, target: str) -> AttributeDecl:
    return AttributeDecl(name, FK, target)


class TestPathSetContract:
    """Hand-built cases that pin the once-spliced path set exactly."""

    def test_cycle_splices_at_its_first_shared_node(self):
        # The echo over M.m (M -> A -> M) shares M and A with the path
        # M -(n,-)-> B -(x,+)-> A -(a,-)-> T. Spliced at M, the first shared
        # node, it activates {t0} from m1 and nothing from m2, which keeps T.
        # Spliced at A instead it would come after B, which no positive
        # reaches, and T would read EmptyActivation.
        schema = Schema({
            "M": [AttributeDecl("id", PK), _fk("m", "A")],
            "A": [AttributeDecl("id", PK)],
            "B": [AttributeDecl("id", PK), _fk("n", "M"), _fk("x", "A")],
            "T": [AttributeDecl("id", PK), _fk("a", "A")],
        })
        facts = FactBase(schema, [
            Relation("M", frozenset({("m0", "a1"), ("m1", "a1"), ("m2", "a0")})),
            Relation("A", frozenset({("a0",), ("a1",)})),
            Relation("B", frozenset({("b0", "m0", "a0")})),
            Relation("T", frozenset({("t0", "a0")})),
        ])
        part = make_partition("M", ["m1"], facts)
        # Cycles of at most two steps: with three, the triangle M-B-A-M
        # spliced at M walks the same steps as the echo spliced at A.
        red = reduce(schema, facts, part, max_cycle_len=2)
        assert red.report_lines() == ["keep A", "keep B", "keep M", "keep T"]
        assert red == reduce_by_paths(schema, facts, part, max_cycle_len=2)

    def test_super_id_self_loop_takes_no_second_cycle(self):
        # Class.super_id walked backwards is a one-step loop to the
        # subclasses. Spliced once, on Field -(type_id,+)-> Class, it empties
        # f2 (Sub has no subclass). Only after a second cycle at the target
        # (fields of the same declaring class) would it separate f0 from the
        # positives; a spliced path takes no second cycle, so Modifier, with
        # its single row, is indistinguishable.
        schema = Schema({
            "Field": [AttributeDecl("id", PK), _fk("class_id", "Class"),
                      _fk("type_id", "Class")],
            "Class": [AttributeDecl("id", PK), _fk("mdf_id", "Modifier"),
                      _fk("super_id", "Class")],
            "Modifier": [AttributeDecl("id", PK)],
        })
        facts = FactBase(schema, [
            Relation("Field", frozenset({("f0", "Object", "Sub"),
                                         ("f1", "Sub", "Object"),
                                         ("f2", "Sub", "Sub")})),
            Relation("Class", frozenset({("Object", "public", "Object"),
                                         ("Sub", "public", "Object")})),
            Relation("Modifier", frozenset({("public",)})),
        ])
        part = make_partition("Field", ["f1", "f2"], facts)
        red = reduce(schema, facts, part)
        assert red.report_lines() == [
            "keep Class", "keep Field",
            "drop Modifier (IndistinguishableActivation)"]
        assert red == reduce_by_paths(schema, facts, part)

    def test_relation_kept_only_through_a_cycle_at_the_target(self):
        # Every tuple of T points at g1, so T -(g,+)-> G alone cannot tell
        # t1 from t2. The cycle T -(a,+)-> A -(b,-)-> T at the target
        # empties t2 (no row has b = x2) and keeps t1, which keeps G.
        schema = Schema({
            "T": [AttributeDecl("id", PK), _fk("a", "A"), _fk("b", "A"),
                  _fk("g", "G")],
            "A": [AttributeDecl("id", PK)],
            "G": [AttributeDecl("id", PK)],
        })
        facts = FactBase(schema, [
            Relation("T", frozenset({("t1", "x1", "x1", "g1"),
                                     ("t2", "x2", "x1", "g1")})),
            Relation("A", frozenset({("x1",), ("x2",)})),
            Relation("G", frozenset({("g1",)})),
        ])
        part = make_partition("T", ["t1"], facts)
        assert reduce(schema, facts, part).report_lines() == [
            "keep A", "keep G", "keep T"]
        # At max_cycle_len=1 no cycle remains (T has no self foreign key,
        # and echo cycles take two steps), so only T -(g,+)-> G reaches G,
        # and it cannot separate: G drops.
        assert reduce(schema, facts, part, max_cycle_len=1).report_lines() == [
            "keep A", "keep T", "drop G (IndistinguishableActivation)"]

    def test_cycle_memo_tells_attribute_orders_apart(self):
        # Two schemas with the same relations and foreign-key edges, the
        # string attribute first in one and last in the other, so the
        # foreign keys a and b sit at other positions. Compiled loops hold positions, so
        # neither may reuse the other's: the cycle T -(a,+)-> A -(b,-)-> T
        # keeps G only if it reads a and b where they are.
        def instance(t_attrs, t_rows):
            schema = Schema({
                "T": [AttributeDecl("id", PK)] + t_attrs,
                "A": [AttributeDecl("id", PK)],
                "G": [AttributeDecl("id", PK)],
            })
            facts = FactBase(schema, [
                Relation("T", frozenset(t_rows)),
                Relation("A", frozenset({("x1",), ("x2",)})),
                Relation("G", frozenset({("g1",)})),
            ])
            return schema, facts, make_partition("T", ["t1"], facts)

        a, b, g = _fk("a", "A"), _fk("b", "A"), _fk("g", "G")
        s = AttributeDecl("s", STR)
        instances = [
            instance([s, a, b, g], [("t1", "n", "x1", "x1", "g1"),
                                    ("t2", "n", "x2", "x1", "g1")]),
            instance([a, b, g, s], [("t1", "x1", "x1", "g1", "n"),
                                    ("t2", "x2", "x1", "g1", "n")]),
        ]
        for max_len in (8, 1, 2, 8, 0):
            for schema, facts, part in instances + instances[::-1]:
                red = reduce(schema, facts, part, max_cycle_len=max_len)
                assert red == reduce_by_paths(schema, facts, part,
                                              max_cycle_len=max_len)
                assert ("G" in red.kept) == (max_len >= 2)

    def test_reachable_only_along_paths_that_empty_a_positive(self):
        # No R row refers to the positive t1, so every path into R, and on
        # into S, empties it: both read EmptyActivation, not Unreachable.
        schema = Schema({
            "T": [AttributeDecl("id", PK)],
            "R": [AttributeDecl("id", PK), _fk("t", "T")],
            "S": [AttributeDecl("id", PK), _fk("r", "R")],
            "Island": [AttributeDecl("id", PK)],
        })
        facts = FactBase(schema, [
            Relation("T", frozenset({("t1",), ("t2",)})),
            Relation("R", frozenset({("r1", "t2")})),
            Relation("S", frozenset({("s1", "r1")})),
            Relation("Island", frozenset({("i1",)})),
        ])
        part = make_partition("T", ["t1"], facts)
        red = reduce(schema, facts, part)
        assert red.report_lines() == [
            "keep T", "drop Island (Unreachable)",
            "drop R (EmptyActivation)", "drop S (EmptyActivation)"]
        assert red == reduce_by_paths(schema, facts, part)


def _corpus_tasks():
    for task_dir in sorted(CORPUS.glob("t*/")):
        doc = json.loads((task_dir / "task.json").read_text(encoding="utf-8"))
        prog = minijava.parse_files([task_dir / s for s in doc["source"]])
        facts, part, _ = extract(prog, doc["target"])
        yield task_dir.name, facts, part


class TestOracleCrossCheck:
    """``reduce`` against the enumerative oracle, whole report at a time."""

    def test_matches_oracle_on_corpus(self):
        tasks = list(_corpus_tasks())
        assert len(tasks) == 14
        for name, facts, part in tasks:
            assert reduce(facts.schema, facts, part) == \
                reduce_by_paths(facts.schema, facts, part), name

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(4242)
        several_kept = 0
        for i in range(1200):
            schema, facts, part = gen.random_instance(
                rng, max_relations=rng.randint(3, 6), max_fks=rng.randint(1, 3),
                max_strs=1, allow_self=rng.random() < 0.7)
            max_len = rng.choice((2, 3, 8))
            red = reduce(schema, facts, part, max_cycle_len=max_len)
            assert red == reduce_by_paths(schema, facts, part,
                                          max_cycle_len=max_len), i
            several_kept += len(red.kept) > 1
        assert several_kept >= 400  # the draws must separate, not only drop
