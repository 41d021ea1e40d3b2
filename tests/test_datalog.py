import random

import pytest
from hypothesis import given, settings, strategies as st

from cqsearch.datalog import DatalogError, parse_datalog, render_datalog
from cqsearch.query import QueryGraph, canonical_form, merged
from conftest import FIG1C_RULE, fig1_schema, fig1c_graph
import gen
from oracles import homomorphism, variable_classes


def assert_same_query(back: QueryGraph, g: QueryGraph):
    """``back``, parsed from the rendering of ``g``, has g's nodes, string
    constraints and variable classes, though parsing may span a class by
    other equalities. So the two merge to one form and are equivalent: a
    homomorphism maps each onto the other."""
    assert back.nodes == g.nodes
    assert sorted(back.str_edges) == sorted(g.str_edges)
    assert variable_classes(back) == variable_classes(g)
    assert canonical_form(merged(back)) == canonical_form(merged(g))
    assert homomorphism(g, back) is not None
    assert homomorphism(back, g) is not None


class TestRender:
    def test_motivating_rule_is_stable(self, schema):
        got = render_datalog(fig1c_graph(), schema)
        assert got == (
            "out(V0, V1, V2, V3) :- Method(V0, V1, V2, V3), Type(V2, V4), "
            "Parameter(V5, V6, V7, V0), Type(V7, V8), "
            'str_equal(V4, "CacheConfig"), str_equal(V8, "Log4jUtils").')

    def test_string_atoms_render_in_node_order(self, schema):
        # The rule constrains node 2 before node 1; the parsed graph keeps
        # its string constraints sorted, so the rendering lists node 1 first.
        g = parse_datalog('out(M, I, R, D) :- Method(M, I, R, D), Identifier(I, N), '
                          'Type(R, T), str_equal(T, "int"), str_prefix(N, "f").', schema)
        assert render_datalog(g, schema) == (
            "out(V0, V1, V2, V3) :- Method(V0, V1, V2, V3), Identifier(V1, V4), "
            'Type(V2, V5), str_prefix(V4, "f"), str_equal(V5, "int").')

    def test_literal_escaping_round_trips(self, schema):
        g = fig1c_graph()
        for literal in ('say "hi"\\', "a#b", "#", '"#"', "\\#\\", "a # b\n# c"):
            g2 = QueryGraph(g.nodes, g.eq_edges,
                            g.str_edges[:-1] + ((3, "name", "equal", literal),))
            text = render_datalog(g2, schema)
            # A comment after the rule still ends at the end of its line.
            for source in (text, text + "  # trailing \"comment\"\n"):
                back = parse_datalog(source, schema)
                assert canonical_form(back) == canonical_form(g2)


class TestParse:
    def test_motivating_round_trip(self, schema):
        text = render_datalog(fig1c_graph(), schema)
        back = parse_datalog(text, schema)
        assert canonical_form(back) == canonical_form(fig1c_graph())

    def test_hand_written_variable_names(self, schema):
        back = parse_datalog(FIG1C_RULE, schema)
        assert canonical_form(back) == canonical_form(fig1c_graph())

    def test_comments_and_whitespace(self, schema):
        text = ("# the trivial query\n"
                "out(M, I, R, D) :-\n    Method(M, I, R, D).\n")
        back = parse_datalog(text, schema)
        assert back.nodes == ("Method",)

    def test_random_graph_round_trips(self, schema, facts):
        # Parsing inverts rendering up to the choice of pk/fk atoms inside a
        # variable class: the result always evaluates identically and is the
        # same query (``assert_same_query``). Re-rendering is a fixpoint.
        from cqsearch.evaluator import evaluate
        rng = random.Random(61)
        for _ in range(200):
            g = gen.random_query_graph(rng, schema, m_max=4,
                                       allow_disconnected=False)
            # The same graph again with '#', '"' and '\\' in every literal.
            tricky = QueryGraph(g.nodes, g.eq_edges, tuple(
                (node, attr, pred, f'{literal}#"\\')
                for node, attr, pred, literal in g.str_edges))
            for case in (g, tricky):
                text = render_datalog(case, schema)
                back = parse_datalog(text, schema)
                assert evaluate(back, facts) == evaluate(case, facts)
                normalized = render_datalog(back, schema)
                again = parse_datalog(normalized, schema)
                assert canonical_form(again) == canonical_form(back)
                assert_same_query(back, case)

    def test_two_primary_keys_in_one_class_merge(self, schema):
        # Parameters 1 and 2 of method 0 share type 3, and parameter 2's
        # type is also type 4: types 3 and 4 are one tuple. Parsing spans
        # that class with parameter 1's key instead, a graph of another
        # canonical form; merging types 3 and 4 gives both one form.
        g = QueryGraph(
            ("Method", "Parameter", "Parameter", "Type", "Type", "Identifier"),
            frozenset({(1, 0, "method_id"), (2, 0, "method_id"), (1, 3, "type_id"),
                       (2, 3, "type_id"), (2, 4, "type_id"), (1, 5, "idf_id")}),
            ((4, "name", "equal", "x"),))
        back = parse_datalog(render_datalog(g, schema), schema)
        assert (1, 4, "type_id") in back.eq_edges and (2, 4, "type_id") not in back.eq_edges
        assert canonical_form(back) != canonical_form(g)
        assert merged(g) == merged(back) == QueryGraph(
            ("Method", "Parameter", "Parameter", "Type", "Identifier"),
            frozenset({(1, 0, "method_id"), (2, 0, "method_id"), (1, 3, "type_id"),
                       (2, 3, "type_id"), (1, 4, "idf_id")}),
            ((3, "name", "equal", "x"),))
        assert_same_query(back, g)

    def test_merging_repeats_until_nothing_changes(self):
        # Parameter 4 belongs to methods 0 and 1, so they are one tuple; only
        # then are their return types 2 and 3 one tuple, whose constraints
        # the merged type takes both.
        g = QueryGraph(
            ("Method", "Method", "Type", "Type", "Parameter"),
            frozenset({(0, 2, "ret_type_id"), (1, 3, "ret_type_id"),
                       (4, 0, "method_id"), (4, 1, "method_id")}),
            ((2, "name", "equal", "a"), (3, "name", "prefix", "b")))
        assert merged(g) == QueryGraph(
            ("Method", "Type", "Parameter"),
            frozenset({(0, 1, "ret_type_id"), (2, 0, "method_id")}),
            ((1, "name", "equal", "a"), (1, "name", "prefix", "b")))
        assert merged(merged(g)) == merged(g)


class TestParseErrors:
    def test_unknown_relation(self, schema):
        with pytest.raises(DatalogError, match="unknown relation"):
            parse_datalog("out(X) :- Ghost(X).", schema)

    def test_arity_mismatch(self, schema):
        with pytest.raises(DatalogError, match="arity"):
            parse_datalog("out(M, I) :- Method(M, I).", schema)

    def test_head_must_project_first_atom(self, schema):
        with pytest.raises(DatalogError, match="head"):
            parse_datalog("out(T, N) :- Method(M, I, R, D), Type(T, N).", schema)

    def test_fk_fk_join_rejected(self, schema):
        # two foreign keys sharing a variable with no primary key to bridge
        with pytest.raises(DatalogError, match="pk/fk"):
            parse_datalog("out(M, I, R, D) :- Method(M, I, R, D), "
                          "Parameter(P, PI, R, PM).", schema)

    def test_string_variable_cannot_join(self, schema):
        with pytest.raises(DatalogError, match="no pk/fk chain"):
            parse_datalog("out(T, N) :- Type(T, N), Identifier(I, N).", schema)

    def test_unbound_string_variable(self, schema):
        with pytest.raises(DatalogError, match="not bound"):
            parse_datalog('out(T, N) :- Type(T, N), str_equal(Z, "x").', schema)

    def test_duplicate_constraint_on_slot(self, schema):
        with pytest.raises(DatalogError, match="duplicate"):
            parse_datalog('out(T, N) :- Type(T, N), str_prefix(N, "a"), '
                          'str_suffix(N, "b").', schema)

    def test_unknown_predicate(self, schema):
        with pytest.raises(DatalogError, match="predicate"):
            parse_datalog('out(T, N) :- Type(T, N), str_fuzzy(N, "a").', schema)

    def test_syntax_garbage(self, schema):
        with pytest.raises(DatalogError):
            parse_datalog("out(M :- Method(M).", schema)

    @pytest.mark.parametrize("text, message", [
        ('out(T, N) :-\n  Type(T, N),\n  str_equal(N N).', "3:15: expected ), got 'N'"),
        ("out(T, N) :- Type(T, N)", "1:24: expected ., got '<end>'"),
        ("out(T, N) :- Type(T, N) ;", "1:25: cannot tokenize near ';'"),
        ("out(T, N) :- Type(T, N).\n\n  out", "3:3: trailing input after the rule"),
        ("out(T, N) :- Type(T, N),\n\tstr_prefix(N, N).",
         '2:2: str_prefix expects (Variable, "literal")'),
        ('out(T, N) :-\n  Type(T, "Cache").',
         "2:3: Type: literals in relation atoms are not supported"),
        ("out(N, T) :- Type(T, N).", "1:1: head must project the first body atom's variables"),
        ("out(T, N) :- Type(T, N), Identifier(I, N).",
         "1:22: variable 'N' equates attributes that no pk/fk chain can express"),
        ("out(M, I, R, D) :-\n  Method(M, I, R, D),\n  Parameter(P, PI, R, PM).",
         "2:16: variable 'R' equates attributes that no pk/fk chain can express"),
        ('out(T, N) :- Type(T, N),\n  str_equal(Z, "x").',
         "2:3: string variable 'Z' is not bound by any atom"),
        ('out(M, I, R, D) :- Method(M, I, R, D), Type(R, N),\n  str_equal(R, "x").',
         "2:3: string variable 'R' cannot also join relations"),
        ('out(T, N) :- Type(T, N), str_prefix(T, "a").',
         "1:26: Type argument 0 is not a string attribute"),
        ('out(T, N) :- Type(T, N), str_prefix(N, "a"),\n  str_suffix(N, "b").',
         "2:3: duplicate string constraint on Type.name"),
        ('out(X) :-\n  str_equal(X, "a").', "2:3: rule needs at least one relation atom"),
    ], ids=["syntax", "end", "tokenize", "trailing", "str-atom", "literal", "head",
            "no-chain", "no-chain-first-occurrence", "unbound-string", "joining-string",
            "not-a-string-attribute", "duplicate-constraint", "no-relation-atom"])
    def test_error_names_line_and_column(self, schema, text, message):
        with pytest.raises(DatalogError) as info:
            parse_datalog(text, schema)
        assert str(info.value) == message


SCHEMA = fig1_schema()
# Lexemes of the rule syntax, for inputs that get past the tokenizer.
RULE_LEXEMES = sorted(SCHEMA) + [
    "out", "Ghost", "str_equal", "str_prefix", "str_fuzzy", "M", "I", "R", "D",
    "T", "N", "_x", "(", ")", ",", ".", ":-", '"a"', '"#\\""', '"', "# c\n"]


@st.composite
def _graphs(draw):
    """A query graph over the Fig. 1 schema with arbitrary literals."""
    g = gen.random_query_graph(random.Random(draw(st.integers(0, 10_000))), SCHEMA)
    literals = draw(st.lists(st.text(max_size=6), min_size=len(g.str_edges),
                             max_size=len(g.str_edges)))
    return QueryGraph(g.nodes, g.eq_edges, tuple(sorted(
        (node, attr, pred, literal)
        for (node, attr, pred, _), literal in zip(g.str_edges, literals))))


@st.composite
def _damaged_rules(draw):
    """A rendered rule with a stretch of up to 8 characters replaced by a lexeme."""
    text = render_datalog(draw(_graphs()), SCHEMA)
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 8)))
    return text[:i] + draw(st.sampled_from(RULE_LEXEMES + [""])) + text[j:]


class TestParseProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.text(max_size=60) | _damaged_rules()
           | st.lists(st.sampled_from(RULE_LEXEMES), max_size=30).map(" ".join))
    def test_arbitrary_text_raises_only_datalog_errors(self, text):
        try:
            parse_datalog(text, SCHEMA)
        except DatalogError:
            pass

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_graphs())
    def test_parse_inverts_render_up_to_canonical_form(self, g):
        back = parse_datalog(render_datalog(g, SCHEMA), SCHEMA)
        assert_same_query(back, g)
        assert merged(merged(g)) == merged(g)
        # Where a variable class has several spannings, parsing picks one,
        # and the picked graph then round-trips exactly.
        again = parse_datalog(render_datalog(back, SCHEMA), SCHEMA)
        assert canonical_form(again) == canonical_form(back)
