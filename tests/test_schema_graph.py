import random

from cqsearch.core import FK, PK, STR, STR_NODE, AttributeDecl, Schema
from cqsearch.extract import extraction_schema
from cqsearch.schema_graph import (PathStep, RelationPath, SchemaEdge,
                                   _enumerate_cycles, activated_relation,
                                   acyclic_paths, augment_with_cycles,
                                   build_schema_graph, compile_path,
                                   cycle_loops, simple_cycles)
import gen
from oracles import activation_brute, cycles_brute, validate_path


class TestBuildSchemaGraph:
    def test_fig1_nodes_and_edges(self, schema):
        g = build_schema_graph(schema)
        assert len(g.nodes) == 6  # five relations plus the string sink
        assert SchemaEdge("Method", "Modifier", "mdf_id") in g.edges
        assert SchemaEdge("Type", STR_NODE, "name") in g.edges

    def test_single_relation_pk_only(self):
        g = build_schema_graph(Schema({"A": [AttributeDecl("id", PK)]}))
        assert len(g.nodes) == 2
        assert g.edges == ()

    def test_parallel_edges_for_two_fks(self):
        schema = Schema({
            "A": [AttributeDecl("id", PK)],
            "B": [AttributeDecl("id", PK), AttributeDecl("x", FK, "A"),
                  AttributeDecl("y", FK, "A")],
        })
        g = build_schema_graph(schema)
        between = [e for e in g.edges if e.src == "B" and e.dst == "A"]
        assert len(between) == 2
        assert {e.attr for e in between} == {"x", "y"}

    def test_dot_output(self, schema):
        dot = build_schema_graph(schema).to_dot()
        assert '"Method" -> "Modifier" [label="mdf_id"]' in dot
        assert dot.startswith("digraph")


class TestAcyclicPaths:
    def test_method_to_type(self, schema):
        g = build_schema_graph(schema)
        paths = acyclic_paths(g, "Method", "Type")
        direct = RelationPath("Method", (PathStep("ret_type_id", 1, "Type"),))
        via_param = RelationPath("Method", (PathStep("method_id", -1, "Parameter"),
                                            PathStep("type_id", 1, "Type")))
        assert direct in paths
        assert via_param in paths

    def test_zero_step_path(self, schema):
        g = build_schema_graph(schema)
        assert acyclic_paths(g, "Method", "Method") == [RelationPath("Method", ())]

    def test_disconnected(self):
        schema = Schema({"A": [AttributeDecl("id", PK)],
                         "B": [AttributeDecl("id", PK)]})
        g = build_schema_graph(schema)
        assert acyclic_paths(g, "A", "B") == []

    def test_no_repeated_relation(self, schema):
        g = build_schema_graph(schema)
        for dst in schema:
            for p in acyclic_paths(g, "Method", dst):
                nodes = p.nodes()
                assert len(set(nodes)) == len(nodes)


class TestAugmentWithCycles:
    def test_modifier_echo_cycle(self, schema):
        # The single-step Method->Modifier path grows a back-and-forth copy.
        g = build_schema_graph(schema)
        p3 = RelationPath("Method", (PathStep("mdf_id", 1, "Modifier"),))
        out = augment_with_cycles([p3], g)
        p4 = RelationPath("Method", (PathStep("mdf_id", 1, "Modifier"),
                                     PathStep("mdf_id", -1, "Method"),
                                     PathStep("mdf_id", 1, "Modifier")))
        assert p3 in out
        assert p4 in out

    def test_no_cycles_no_extras(self):
        # Only string attributes: no foreign-key edges, hence no cycles.
        schema = Schema({"A": [AttributeDecl("id", PK), AttributeDecl("s", STR)]})
        g = build_schema_graph(schema)
        paths = acyclic_paths(g, "A", "A")
        assert augment_with_cycles(paths, g) == paths

    def test_one_extra_path_per_cycle(self):
        # Toy: two relations point at A; the only cycles are the two echoes.
        schema = Schema({
            "A": [AttributeDecl("id", PK)],
            "B": [AttributeDecl("id", PK), AttributeDecl("fa", FK, "A")],
            "C": [AttributeDecl("id", PK), AttributeDecl("ga", FK, "A")],
        })
        g = build_schema_graph(schema)
        cycles = simple_cycles(g)
        brute = cycles_brute(g)
        assert len(cycles) == len(brute) == 2
        out = augment_with_cycles(acyclic_paths(g, "A", "A"), g)
        # the empty path plus one spliced variant per cycle
        assert len(out) == 3

    def test_cycle_count_matches_brute_force(self, schema):
        g = build_schema_graph(schema)
        assert len(simple_cycles(g)) == len(cycles_brute(g))

    def test_matches_brute_force_at_small_bounds(self):
        # max_len bounds every cycle, echoes (2 steps) and self-loop steps
        # (1 step) included.
        def rotation_class(anchor, steps):
            order = [anchor] + [s[2] for s in steps]
            return min((order[i], steps[i:] + steps[:i])
                       for i in range(len(steps)))

        rng = random.Random(11)
        for _ in range(60):
            g = build_schema_graph(gen.random_schema(
                rng, max_relations=4, max_fks=rng.randint(1, 3)))
            for max_len in range(4):
                cycles = simple_cycles(g, max_len)
                mine = {rotation_class(c.anchor, tuple(
                            ("f" if s.direction == 1 else "b", s.attr, s.next)
                            for s in c.steps))
                        for c in cycles}
                assert len(mine) == len(cycles)
                assert all(len(c.steps) <= max_len for c in cycles)
                assert mine == cycles_brute(g, max_len)

    def test_memoised_cycles_equal_a_fresh_enumeration(self):
        rng = random.Random(12)
        schemas = [extraction_schema()] + [
            gen.random_schema(rng, max_relations=5, max_fks=2)
            for _ in range(40)]
        for schema in schemas:
            for max_len in (2, 3, 8):
                fresh = _enumerate_cycles(build_schema_graph(schema), max_len)
                first = simple_cycles(build_schema_graph(schema), max_len)
                assert first == fresh
                first.clear()
                # A second graph over the same schema reads the memo; the
                # caller's edits to the first list must not show.
                assert simple_cycles(build_schema_graph(schema), max_len) == fresh

    def test_memoised_loops_equal_the_path_code(self):
        # Each loop is compiled once per cycle and rotated by slicing; it must
        # equal the rotated walk compiled as a path, on a fresh entry and on
        # a memo hit, and a caller's edits to the cycle list must not reach it.
        rng = random.Random(13)
        schemas = [extraction_schema()] + [
            gen.random_schema(rng, max_relations=5, max_fks=2)
            for _ in range(40)]
        for schema in schemas:
            for max_len in (0, 1, 2, 3, 8):
                for _ in range(2):
                    g = build_schema_graph(schema)
                    cycles = simple_cycles(g, max_len)
                    expected = {rel: [] for rel in schema}
                    for cyc in cycles:
                        for node in cyc.nodes():
                            path = RelationPath(node, cyc.rotated_to(node))
                            loop = tuple(compile_path(path, schema))
                            expected[node].append((cyc.nodes(), loop))
                    assert cycle_loops(g, max_len) == expected
                    cycles.clear()

    def test_cycle_memo_is_keyed_by_declarations(self):
        # Equal declarations in two Schema objects share one entry; the same
        # relations with the string attribute moved compile to other
        # positions, so they get their own.
        def schema(*attrs):
            return Schema({"Class": [AttributeDecl("id", PK), *attrs]})

        sup, name = AttributeDecl("super_id", FK, "Class"), AttributeDecl("name", STR)
        g1, g2 = build_schema_graph(schema(sup, name)), build_schema_graph(schema(sup, name))
        moved = build_schema_graph(schema(name, sup))
        assert g1.schema is not g2.schema
        assert cycle_loops(g1) is cycle_loops(g2)
        assert cycle_loops(moved) is not cycle_loops(g1)
        assert cycle_loops(moved) != cycle_loops(g1)

    def test_augmented_paths_replay_against_schema(self, schema):
        g = build_schema_graph(schema)
        for dst in schema:
            paths = augment_with_cycles(acyclic_paths(g, "Method", dst), g)
            assert all(validate_path(g, p) for p in paths)


class TestActivatedRelation:
    def test_parameter_type_path(self, facts):
        p1 = RelationPath("Method", (PathStep("method_id", -1, "Parameter"),
                                     PathStep("type_id", 1, "Type")))
        t_p = ("M1", "I1", "T3", "MDF1")
        assert activated_relation(t_p, p1, facts) == {("T1", "Log4jUtils")}

    def test_modifier_paths_identical(self, facts):
        direct = RelationPath("Method", (PathStep("mdf_id", 1, "Modifier"),))
        for t in facts.tuples("Method"):
            assert activated_relation(t, direct, facts) == {("MDF1", "public")}

    def test_zero_hop_convention(self, facts):
        t = ("M2", "I2", "T3", "MDF1")
        assert activated_relation(t, RelationPath("Method", ()), facts) == {t}

    def test_repetition_insensitive(self, facts):
        # walking the modifier echo once, twice, or thrice changes nothing
        loop = (PathStep("mdf_id", 1, "Modifier"), PathStep("mdf_id", -1, "Method"))
        for t in facts.tuples("Method"):
            acts = [activated_relation(
                        t, RelationPath("Method", loop * n + loop[:1]), facts)
                    for n in (1, 2, 3)]
            assert acts[0] == acts[1] == acts[2]

    def test_against_product_oracle(self, facts):
        g = build_schema_graph(facts.schema)
        for dst in facts.schema:
            for path in augment_with_cycles(acyclic_paths(g, "Method", dst), g):
                for t in facts.tuples("Method"):
                    assert activated_relation(t, path, facts) == \
                        activation_brute(t, path, facts)

    def test_random_instances_against_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            schema, facts, part = gen.random_instance(rng, max_relations=3)
            g = build_schema_graph(schema)
            for dst in schema:
                paths = acyclic_paths(g, part.target, dst)[:4]
                for path in augment_with_cycles(paths, g)[:12]:
                    for t in sorted(facts.tuples(part.target))[:3]:
                        assert activated_relation(t, path, facts) == \
                            activation_brute(t, path, facts)
