import json
import random
from collections import Counter

import pytest

from cqsearch import minijava, refine
from cqsearch.core import FK, Schema, pred_holds
from cqsearch.datalog import parse_datalog, render_datalog
from cqsearch.extract import extract, extraction_schema
from cqsearch.query import (Codes, GraphError, QueryGraph, Skeletons, _varints,
                            canonical_form, certificate, check_graph, max_multiplicity,
                            merged, multiplicity, render_ra, variables)
from cqsearch.select import make_context, synthesize
from conftest import CORPUS, DESKS_SCHEMA, FIG1C_RULE, fig1c_graph
import gen
from oracles import (canonical_form_by_search, decoded_certificate, homomorphism, isomorphism,
                     tuple_certificate, variable_classes)


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


def strings_moved(g: QueryGraph, rng: random.Random) -> QueryGraph:
    """``g`` with its string constraints moved by a random permutation of
    the non-head nodes of each relation: the same skeleton, isomorphic to
    ``g`` only if the permutation agrees with one of its automorphisms."""
    by_rel: dict[str, list[int]] = {}
    for node in range(1, len(g.nodes)):
        by_rel.setdefault(g.nodes[node], []).append(node)
    moved = {0: 0}
    for nodes in by_rel.values():
        moved.update(zip(nodes, rng.sample(nodes, len(nodes))))
    return QueryGraph(g.nodes, g.eq_edges,
                      tuple(sorted((moved[node], *rest) for node, *rest in g.str_edges)))


def refined_graphs(monkeypatch, runs) -> list[QueryGraph]:
    """Every graph refinement computes a certificate of while synthesizing
    each ``(schema, facts, partition, context)`` of ``runs`` with k bound 2."""
    graphs: list[QueryGraph] = []

    def recorded(g: QueryGraph, skeletons: Skeletons):
        graphs.append(g)
        return certificate(g, skeletons)
    monkeypatch.setattr(refine, "certificate", recorded)
    for schema, facts, part, ctx, max_relations in runs:
        synthesize(schema, facts, part, ctx, k_bound=2, max_relations=max_relations)
    return graphs


def class_mismatches(keys: list, others: list) -> int:
    """How many of the aligned ``keys`` and ``others`` fall in a class of
    one list that is not their class in the other: 0 when the two split the
    items alike."""
    other_of, key_of = {}, {}
    for key, other in zip(keys, others, strict=True):
        other_of.setdefault(key, other)
        key_of.setdefault(other, key)
    return sum(other_of[key] != other or key_of[other] != key
               for key, other in zip(keys, others))


def certificate_mismatches(graphs: list[QueryGraph], rng: random.Random,
                           codes: Codes) -> int:
    """Over ``graphs``, a random head-fixing relabelling of each and a random
    move of each one's string constraints: the graphs whose certificate
    class is not their class by the tuple certificate or by canonical form,
    plus those whose certificate does not decode to their tuple
    certificate; 0 when the keys agree. One skeleton memo of the code
    table ``codes`` serves all of them."""
    graphs = graphs + [h for g in graphs
                       for h in (relabelled(g, rng), strings_moved(g, rng)) if h != g]
    skeletons = Skeletons(codes)
    tuple_skeletons: dict = {}
    certs = [certificate(g, skeletons) for g in graphs]
    assert all(type(cert) is bytes for cert in certs)
    tuples = [tuple_certificate(g, tuple_skeletons) for g in graphs]
    return (class_mismatches(certs, tuples)
            + class_mismatches(certs, [canonical_form(g) for g in graphs])
            + sum(decoded_certificate(cert, codes) != t for cert, t in zip(certs, tuples)))


def small_graph_families() -> list[QueryGraph]:
    """Families of one small graph, its relabellings and its constraints
    moved, over two relations and one-letter literals, so that classes
    often meet."""
    rng = random.Random(17)
    graphs = []
    for _ in range(60):
        schema = gen.random_schema(rng, max_relations=2, max_fks=2, max_strs=2)
        g = gen.random_query_graph(rng, schema, m_max=5, alphabet="a")
        graphs += [g] + [rng.choice((relabelled, strings_moved))(g, rng)
                         for _ in range(4)]
    return graphs


class TestCertificate:
    """Refinement's dedup key against the tuple certificate it is written
    from and the canonical form it replaced."""

    def test_matches_canonical_form_on_corpus(self, monkeypatch):
        hmap = json.loads((CORPUS / "hmap.json").read_text(encoding="utf-8"))
        runs = []
        for task_dir in sorted(CORPUS.glob("t*/")):
            doc = json.loads((task_dir / "task.json").read_text(encoding="utf-8"))
            prog = minijava.parse_files([task_dir / s for s in doc["source"]])
            facts, part, _ = extract(prog, doc["target"])
            runs.append((facts.schema, facts, part,
                         make_context(hmap, doc["description"]), None))
        assert len(runs) == 14
        graphs = refined_graphs(monkeypatch, runs)
        # Over two graphs per skeleton on average, so the memo serves many.
        assert len({(g.nodes, g.eq_edges) for g in graphs}) * 2 < len(graphs)
        assert certificate_mismatches(graphs, random.Random(1), Codes()) == 0

    def test_matches_canonical_form_on_random_instances(self, monkeypatch):
        # The first 30 instances of the soundness suite and of the
        # random-synth benchmark pool.
        rng = random.Random(2023)
        runs = []
        for _ in range(30):
            schema, facts, part = gen.random_instance(
                rng, max_relations=5, max_fks=2, max_strs=1)
            runs.append((schema, facts, part, gen.random_context(rng, schema), 5))
        graphs = refined_graphs(monkeypatch, runs)
        assert len(graphs) > 1000
        assert certificate_mismatches(graphs, random.Random(2), Codes()) == 0

    def test_matches_canonical_form_on_random_graphs(self):
        rng = random.Random(13)
        graphs = []
        for _ in range(1000):
            schema = gen.random_schema(rng, max_relations=3)
            graphs.append(gen.random_query_graph(rng, schema, m_max=7))
        assert certificate_mismatches(graphs, rng, Codes()) == 0

    def test_literals_that_prefix_one_another(self):
        # Literals that prefix one another, the empty literal and non-ASCII
        # ones, split across the two Type nodes of the motivating query in
        # every way: each pair gets its own key, and each key decodes to its
        # graph's tuple certificate.
        g = fig1c_graph()
        literals = ["", "a", "ab", "abc", "b", "bc", "c", "é", "e\u0301", "日本", "日"]
        graphs = [QueryGraph(g.nodes, g.eq_edges,
                             ((1, "name", "equal", x), (3, "name", "prefix", y)))
                  for x in literals for y in literals]
        codes = Codes()
        skeletons = Skeletons(codes)
        certs = [certificate(h, skeletons) for h in graphs]
        assert len(set(certs)) == len(graphs)
        for h, cert in zip(graphs, certs):
            assert decoded_certificate(cert, codes) == tuple_certificate(h, {}), h
            assert certificate(h, Skeletons(codes)) == cert, h
        assert certificate_mismatches(graphs, random.Random(3), codes) == 0

    def test_codes_past_127_take_several_bytes(self):
        assert _varints([0, 127, 128, 300, 16383, 16384]) == \
            b"\x00\x7f\x80\x01\xac\x02\xff\x7f\x80\x80\x01"
        # A table that already holds 300 codes, so every node key and
        # constraint the graphs bring gets a code of two bytes.
        codes = Codes((f"unused{i}", i) for i in range(300))
        rng = random.Random(19)
        graphs = [gen.random_query_graph(rng, gen.random_schema(rng, max_relations=3),
                                         m_max=5)
                  for _ in range(200)]
        assert certificate_mismatches(graphs, rng, codes) == 0
        assert len(codes) > 300
        cert = certificate(graphs[0], Skeletons(codes))
        assert max(cert) >= 0x80
        assert decoded_certificate(cert, codes) == tuple_certificate(graphs[0], {})

    def test_matches_isomorphism_on_small_graphs(self):
        # Certificates are equal exactly when a bijection maps one graph
        # onto the other, and such graphs are equivalent queries.
        graphs = small_graph_families()
        skeletons = Skeletons(Codes())
        certs = [certificate(g, skeletons) for g in graphs]
        same = differ = 0
        for i, a in enumerate(graphs):
            for j in range(i + 1, len(graphs)):
                b = graphs[j]
                equal = certs[i] == certs[j]
                assert equal == (isomorphism(a, b) is not None), (a, b)
                if equal:
                    assert homomorphism(a, b) is not None, (a, b)
                    assert homomorphism(b, a) is not None, (a, b)
                    same += 1
                elif (a.nodes, a.eq_edges) == (b.nodes, b.eq_edges):
                    differ += 1
        # Both outcomes occur among graphs that share a skeleton.
        assert same >= 100 and differ >= 20, (same, differ)

    def test_matches_isomorphism_across_memos_of_one_table(self):
        # The same families through three memos of one table, taken in turn
        # as refinement takes one per seed skeleton, so each family spans
        # them all: keys from different memos are equal exactly when a
        # bijection maps one graph onto the other.
        graphs = small_graph_families()
        codes = Codes()
        memos = [Skeletons(codes) for _ in range(3)]
        certs = [certificate(g, memos[i % 3]) for i, g in enumerate(graphs)]
        # The memos searched many skeletons each on their own.
        assert len(set(memos[0]) & set(memos[1]) & set(memos[2])) >= 20
        assert all(memo.codes is codes for memo in memos)
        crossed = 0
        for i, a in enumerate(graphs):
            for j in range(i + 1, len(graphs)):
                if i % 3 != j % 3:
                    equal = certs[i] == certs[j]
                    assert equal == (isomorphism(a, graphs[j]) is not None), (a, graphs[j])
                    crossed += equal
        assert crossed >= 500, crossed


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


def touched_classes(g: QueryGraph, schema: Schema) -> frozenset[frozenset]:
    """``variables(g, schema)`` as a partition of the ``(node, position)``
    slots that some equality touches."""
    per_node = variables(g, schema)
    classes: dict[int, set] = {}
    for fk, pk, attr in g.eq_edges:
        for node, pos in ((fk, schema.attr_pos(g.nodes[fk], attr)), (pk, 0)):
            classes.setdefault(per_node[node][pos], set()).add((node, pos))
    return frozenset(map(frozenset, classes.values()))


def oracle_classes(g: QueryGraph, schema: Schema) -> frozenset[frozenset]:
    """``oracles.variable_classes`` with each slot as ``(node, position)``."""
    return frozenset(frozenset((node, 0 if attr is None else schema.attr_pos(g.nodes[node], attr))
                               for node, attr in c) for c in variable_classes(g))


class TestVariables:
    """``query.variables``, which the Datalog renderer and the key-aware plan
    both read, against the slot classes of the oracle's own union."""

    def test_matches_the_oracle_on_random_graphs(self):
        rng = random.Random(2808)
        for _ in range(1000):
            schema = gen.random_schema(rng)
            g = gen.random_query_graph(rng, schema, m_max=5)
            loops = {(node, node, a.name) for node, rel in enumerate(g.nodes)
                     for a in schema[rel] if a.kind == FK and a.target == rel
                     and rng.random() < 0.3}
            g = QueryGraph(g.nodes, g.eq_edges | loops, g.str_edges)
            per_node = variables(g, schema)
            assert [len(v) for v in per_node] == [len(schema[rel]) for rel in g.nodes]
            flat = [v for vs in per_node for v in vs]
            assert list(dict.fromkeys(flat)) == list(range(len(set(flat))))  # by first slot
            assert touched_classes(g, schema) == oracle_classes(g, schema), g
            touched = {slot for c in oracle_classes(g, schema) for slot in c}
            counts = Counter(flat)
            assert all(counts[v] == 1 for node, vs in enumerate(per_node)
                       for pos, v in enumerate(vs) if (node, pos) not in touched)

    @pytest.mark.parametrize("nodes, edges, want", [
        (("Person",), {(0, 0, "boss")}, [[0, 0, 1, 2]]),
        (("Person", "Person"), {(0, 1, "boss"), (1, 1, "boss")},
         [[0, 1, 2, 3], [1, 1, 4, 5]]),
        (("Person", "Desk", "Person"),
         {(0, 1, "desk"), (1, 2, "owner"), (1, 2, "backup"), (2, 0, "boss")},
         [[0, 1, 2, 3], [2, 4, 4, 5], [4, 0, 6, 7]]),
    ], ids=["self-loop", "self-loop-on-a-child", "two-keys-into-one-node"])
    def test_hand_built_graphs(self, nodes, edges, want):
        g = QueryGraph(nodes, frozenset(edges), ())
        assert variables(g, DESKS_SCHEMA) == want
        assert touched_classes(g, DESKS_SCHEMA) == oracle_classes(g, DESKS_SCHEMA)
        args = [", ".join(f"V{v}" for v in vs) for vs in want]
        rule = render_datalog(g, DESKS_SCHEMA)
        assert rule == f"out({args[0]}) :- " + \
            ", ".join(f"{rel}({a})" for rel, a in zip(nodes, args)) + "."
        assert merged(parse_datalog(rule, DESKS_SCHEMA)) == merged(g)


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
