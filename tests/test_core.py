import copy
import gc
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cqsearch.core import (FK, PK, STR, AttributeDecl, FactBase, FactError,
                           InputError, Level, PartitionError, Relation, Schema,
                           SchemaError, Trace, load_facts,
                           make_partition, partition_from_doc, pred_holds,
                           read_input)
from cqsearch.minijava import ParseError, parse
from cqsearch.extract import facts_to_doc
from conftest import REPO, fig1_facts, fig1_relations, fig1_schema
import gen
import oracles


def fig1_facts_doc():
    return {
        "Method": [["M1", "I1", "T3", "MDF1"], ["M2", "I2", "T3", "MDF1"],
                   ["M3", "I3", "T2", "MDF1"]],
        "Parameter": [["P1", "I4", "T1", "M1"], ["P2", "I4", "T2", "M2"],
                      ["P3", "I4", "T1", "M3"]],
        "Identifier": [["I1", "foo"], ["I2", "f2"], ["I3", "f3"], ["I4", "utils"]],
        "Type": [["T1", "Log4jUtils"], ["T2", "int"], ["T3", "CacheConfig"]],
        "Modifier": [["MDF1", "public"]],
    }


class TestReadInput:
    def test_line_ends_read_as_lf(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\r\nb\rc\n")
        assert read_input(path) == "a\nb\nc\n"
        assert read_input(path, str.splitlines) == ["a", "b", "c"]

    @pytest.mark.parametrize("data, where", [
        (b"\xff", "1:1"), (b"ab\r\ncd\re\xe9f", "3:2"), (b"\n\n  [\xc3", "3:4"),
    ], ids=["first-byte", "after-cr-lf-and-cr", "truncated"])
    def test_not_utf8_is_located(self, tmp_path, data, where):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        for decode in (None, json.loads):
            with pytest.raises(InputError, match=f"^{path}: {where}: not UTF-8: "):
                read_input(path, decode)

    def test_json_errors_are_located(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"a": [1,\r\n  2,]}', encoding="utf-8")
        with pytest.raises(InputError, match=f"^{path}: 2:5: Expecting value$"):
            read_input(path, json.loads)
        path.write_text('["[[", {"a": [[]]}, [' + "[" * 5000 + "]]", encoding="utf-8")
        with pytest.raises(InputError,
                           match=f"^{path}: 1:5021: nested 5002 levels deep"):
            read_input(path, json.loads)

    def test_integers_too_long_to_convert_are_located(self, tmp_path):
        # Long digit runs in a string, a fraction or an exponent convert;
        # the first integer literal past the limit is the fault.
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "f.json"
        text = ('{"a": "' + "9" * (limit + 1) + '", "b": [0.' + "1" * (limit + 1)
                + ", 1e5, 12,\n -" + "7" * (limit + 1) + ", " + "8" * (limit + 1) + "]}")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError,
                           match=f"^{path}: 2:2: integer of more than {limit} digits$"):
            read_input(path, json.loads)

        def fails(text):
            raise ValueError("not an integer")
        with pytest.raises(ValueError, match="^not an integer$"):
            read_input(path, fails)

    def test_domain_error_keeps_class_and_fields(self, tmp_path):
        path = tmp_path / "a.java"
        path.write_text("class A {\n  int 5x;\n}", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_input(path, parse)
        assert str(err.value) == f"{path}: 2:7: expected member name, got '5'"
        assert (err.value.line, err.value.col) == (2, 7)

    @pytest.mark.parametrize("text", ["[1]", "[1", "[" * 5000],
                             ids=["decoded", "syntax-error", "too-deep"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_collector_paused_and_restored(self, tmp_path, text, enabled):
        path = tmp_path / "f.json"
        path.write_text(text, encoding="utf-8")
        states = []

        def decode(text):
            states.append(gc.isenabled())
            return json.loads(text)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                read_input(path, decode)
            except InputError:
                pass
            assert states == [False] and gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestTrace:
    def test_spans_add_up_within_the_wall_time(self):
        trace, level = Trace(), Level(1, 1)
        with trace.span("inputs"):
            pass
        with trace.span("refine", level):
            sum(range(1000))
        with trace.span("refine"):
            pass
        with pytest.raises(KeyError), trace.span("select"):
            raise KeyError("a failed stage is still timed")
        assert list(trace.spans) == ["inputs", "refine", "select"]
        assert all(s >= 0 for s in trace.spans.values())
        assert 0 < level.seconds < trace.spans["refine"]
        assert sum(trace.spans.values()) <= trace.wall_s

    def test_level_seconds_are_not_compared(self):
        assert Level(2, 1, generated=3, seconds=1.0) == Level(2, 1, generated=3)
        assert Level(2, 1, rederived=1) != Level(2, 1, dedup_hits=1)


class TestLoadFacts:
    def test_fig1_shape(self):
        schema, facts = load_facts(fig1_schema(), fig1_facts_doc())
        assert len(schema) == 5
        assert [a.name for a in schema["Method"]] == ["id", "idf_id",
                                                      "ret_type_id", "mdf_id"]
        assert len(facts.tuples("Method")) == 3

    def test_empty_relation_accepted(self):
        doc = fig1_facts_doc()
        doc["Modifier"] = []
        doc["Method"] = []
        doc["Parameter"] = []
        _, facts = load_facts(fig1_schema(), doc)
        assert facts.tuples("Modifier") == frozenset()

    def test_omitted_relation_is_empty(self):
        doc = fig1_facts_doc()
        del doc["Modifier"]
        del doc["Method"]
        del doc["Parameter"]
        _, facts = load_facts(fig1_schema(), doc)
        assert facts.tuples("Modifier") == frozenset()

    def test_dangling_foreign_key(self):
        doc = fig1_facts_doc()
        doc["Method"].append(["M9", "I1", "T99", "MDF1"])
        with pytest.raises(FactError, match="dangling"):
            load_facts(fig1_schema(), doc)

    def test_duplicate_primary_key(self):
        doc = fig1_facts_doc()
        doc["Method"].append(["M1", "I2", "T2", "MDF1"])
        with pytest.raises(FactError, match="duplicate primary key"):
            load_facts(fig1_schema(), doc)

    def test_arity_mismatch(self):
        doc = fig1_facts_doc()
        doc["Method"][0] = ["M1", "I1", "T3"]
        with pytest.raises(FactError, match="arity"):
            load_facts(fig1_schema(), doc)

    def test_non_string_value(self):
        doc = fig1_facts_doc()
        doc["Type"][1] = ["T2", 17]
        with pytest.raises(FactError, match="non-string"):
            load_facts(fig1_schema(), doc)

    def test_undeclared_relation(self):
        doc = fig1_facts_doc()
        doc["Mystery"] = [["X1"]]
        with pytest.raises(FactError, match="undeclared"):
            load_facts(fig1_schema(), doc)

    @pytest.mark.parametrize("rel, row, cell, error", [
        ("Method", 0, ["I1"], "Method: non-string value ['I1'] in row "
                              "['M1', ['I1'], 'T3', 'MDF1']"),
        ("Type", 1, {"a": 1}, "Type: non-string value {'a': 1} in row ['T2', {'a': 1}]"),
    ], ids=["list", "dict"])
    def test_list_or_object_cell(self, rel, row, cell, error):
        doc = fig1_facts_doc()
        doc[rel][row][1] = cell
        doc["Identifier"].append(["I9", 17])  # a later fault FactBase would name
        with pytest.raises(FactError) as info:
            load_facts(fig1_schema(), doc)
        assert str(info.value) == error


class TestRowOrder:
    """``by_attr`` and ``matching`` walk a relation's rows in one fixed order."""

    def test_loaded_rows_come_in_document_order_once(self):
        doc = fig1_facts_doc()
        doc["Type"] = [["T3", "CacheConfig"], ["T1", "Log4jUtils"],
                       ["T3", "CacheConfig"], ["T2", "int"]]
        doc["Method"] = [["M3", "I3", "T2", "MDF1"], ["M2", "I2", "T3", "MDF1"],
                         ["M1", "I1", "T3", "MDF1"], ["M2", "I2", "T3", "MDF1"]]
        _, facts = load_facts(fig1_schema(), doc)
        assert facts.matching("Type", (), (), ()) == (
            ("T3", "CacheConfig"), ("T1", "Log4jUtils"), ("T2", "int"))
        assert facts.matching("Type", (), ((1, "contain", "n"),), ()) == (
            ("T3", "CacheConfig"), ("T2", "int"))
        assert facts.by_attr("Method", 2, "T3") == (
            ("M2", "I2", "T3", "MDF1"), ("M1", "I1", "T3", "MDF1"))
        assert facts.by_attr("Method", 3, "MDF1") == (
            ("M3", "I3", "T2", "MDF1"), ("M2", "I2", "T3", "MDF1"),
            ("M1", "I1", "T3", "MDF1"))
        assert len(facts.tuples("Method")) == 3

    def test_built_base_keeps_the_frozenset_order(self):
        relations = fig1_relations()
        facts = FactBase(fig1_schema(), relations)
        for r in relations:
            assert facts.matching(r.name, (), (), ()) == tuple(r.tuples)
        methods = next(r.tuples for r in relations if r.name == "Method")
        assert facts.by_attr("Method", 3, "MDF1") == tuple(methods)

    def test_built_base_keeps_duplicate_rows_once_in_first_order(self):
        rows = (("T3", "CacheConfig"), ("T1", "Log4jUtils"), ("T3", "CacheConfig"),
                ("T2", "int"), ("T1", "Log4jUtils"))
        relations = [r for r in fig1_relations() if r.name != "Type"]
        facts = FactBase(fig1_schema(), relations + [Relation("Type", rows)])
        assert facts.matching("Type", (), (), ()) == (
            ("T3", "CacheConfig"), ("T1", "Log4jUtils"), ("T2", "int"))
        assert len(facts["Type"]) == 3
        assert facts["Type"].tuples == facts.tuples("Type") == frozenset(rows)


# Run in fresh interpreters: the TestRowOrder claims, and the text of a
# FactError among twenty dangling rows of a shuffled document.
HASH_SEED_SWEEP = """
import random
from cqsearch.core import FactBase, FactError, load_facts
from conftest import fig1_relations, fig1_schema

relations = fig1_relations()
facts = FactBase(fig1_schema(), relations)
for r in relations:
    assert facts.matching(r.name, (), (), ()) == tuple(r.tuples), r.name
rng = random.Random(17)
doc = {r.name: [list(t) for t in sorted(r.tuples)] for r in relations}
for rows in doc.values():
    rng.shuffle(rows)
doc["Method"].append(doc["Method"][0])
_, loaded = load_facts(fig1_schema(), doc)
for name, rows in doc.items():
    assert loaded.matching(name, (), (), ()) == tuple(dict.fromkeys(map(tuple, rows))), name
assert loaded.by_attr("Method", 3, "MDF1") == loaded.matching("Method", (), (), ())
doc["Parameter"] += [[f"P{i}", "I4", f"T{i}", "M1"] for i in rng.sample(range(10, 30), 20)]
try:
    load_facts(fig1_schema(), doc)
except FactError as exc:
    print(exc)
"""


def test_row_order_and_errors_hold_under_every_hash_seed():
    path = os.pathsep.join([str(REPO / "src"), str(REPO / "tests"),
                            os.environ.get("PYTHONPATH", "")])
    runs = [subprocess.Popen([sys.executable, "-c", HASH_SEED_SWEEP], text=True,
                             env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for seed in range(4)]
    for seed, run in enumerate(runs):
        out, err = run.communicate(timeout=60)
        assert run.returncode == 0, (seed, err)
        assert out == ("Parameter.type_id: dangling foreign key 'T10' in "
                       "('P10', 'I4', 'T10', 'M1')\n"), (seed, out)


class TestSchemaValidation:
    def test_missing_fk_target(self):
        with pytest.raises(SchemaError, match="target"):
            Schema({"A": [AttributeDecl("id", PK), AttributeDecl("b", FK, "B")]})

    def test_duplicate_attribute(self):
        with pytest.raises(SchemaError, match="duplicate attribute"):
            Schema({"A": [AttributeDecl("id", PK), AttributeDecl("x", STR),
                          AttributeDecl("x", STR)]})

    def test_no_primary_key(self):
        with pytest.raises(SchemaError, match="primary key"):
            Schema({"A": [AttributeDecl("x", STR)]})

    def test_two_primary_keys(self):
        with pytest.raises(SchemaError, match="primary key"):
            Schema({"A": [AttributeDecl("id", PK), AttributeDecl("id2", PK)]})

    def test_pk_must_lead(self):
        with pytest.raises(SchemaError, match="attribute 0"):
            Schema({"A": [AttributeDecl("x", STR), AttributeDecl("id", PK)]})

    def test_str_name_reserved(self):
        with pytest.raises(SchemaError, match="reserved"):
            Schema({"STR": [AttributeDecl("id", PK)]})

    # Each name would print as text no output can read back: a body atom the
    # Datalog parser rejects, a string predicate, a broken DOT node or an
    # ambiguous h-map key Relation.attribute.
    @pytest.mark.parametrize("rel, attr", [
        ("My Rel", "id"), ("str_x", "id"), ('Q"x', "id"), ("A.b", "id"), ("A", "a.b"),
        ("A", "my id"), ("1A", "id"), ("A", "")])
    def test_names_must_be_datalog_names(self, rel, attr):
        with pytest.raises(SchemaError, match=re.escape(repr(attr if rel == "A" else rel))):
            Schema({rel: [AttributeDecl(attr, PK)]})
        doc = {"relations": [{"name": rel, "attributes": [{"name": attr, "kind": "pk"}]}]}
        with pytest.raises(SchemaError):
            Schema.from_doc(doc)

    def test_names_at_the_edge_of_the_rule_are_accepted(self):
        schema = Schema({name: [AttributeDecl("_id9", PK)]
                         for name in ("str", "strx", "Str_x", "_A", "a1_")})
        assert list(schema) == ["str", "strx", "Str_x", "_A", "a1_"]

    def test_string_attrs_are_the_string_declarations_in_order(self):
        rng = random.Random(5)
        for _ in range(30):
            schema = gen.random_schema(rng, max_strs=3)
            for rel in schema:
                assert schema.string_attrs(rel) == tuple(
                    a for a in schema[rel] if a.kind == STR)


class TestMakePartition:
    def test_motivating_split(self, facts):
        part = make_partition("Method", ["M1"], facts)
        assert part.positives == {("M1", "I1", "T3", "MDF1")}
        assert part.negatives == {("M2", "I2", "T3", "MDF1"),
                                  ("M3", "I3", "T2", "MDF1")}

    def test_all_positive_rejected(self, facts):
        with pytest.raises(PartitionError, match="negative"):
            make_partition("Method", ["M1", "M2", "M3"], facts)

    def test_no_positive_rejected(self, facts):
        with pytest.raises(PartitionError, match="positive"):
            make_partition("Method", [], facts)

    def test_unknown_id(self, facts):
        with pytest.raises(PartitionError, match="M9"):
            make_partition("Method", ["M9"], facts)

    def test_unknown_target(self, facts):
        with pytest.raises(PartitionError, match="target"):
            make_partition("Ghost", ["M1"], facts)

    def test_two_positives_leave_one_negative(self, facts):
        part = make_partition("Method", ["M1", "M2"], facts)
        assert len(part.negatives) == 1

    def test_partition_doc(self, facts):
        part = partition_from_doc({"target": "Method", "positive": ["M1"]}, facts)
        assert len(part.positives) == 1


class TestInvariants:
    def test_primary_keys_unique(self, facts):
        for rel in facts:
            assert len({t[0] for t in facts.tuples(rel)}) == len(facts.tuples(rel))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_partition_law(self, seed):
        rng = random.Random(seed)
        facts = fig1_facts()
        ids = ["M1", "M2", "M3"]
        chosen = rng.sample(ids, rng.randint(1, 2))
        part = make_partition("Method", chosen, facts)
        assert part.positives | part.negatives == facts.tuples("Method")
        assert not part.positives & part.negatives
        assert len(part.positives) + len(part.negatives) == len(facts.tuples("Method"))


class TestMatching:
    """``FactBase.matching``, the one key-equality probe of evaluation,
    refinement and reduction."""

    @staticmethod
    def brute(facts, rel, links, strs, self_eq):
        return sorted(t for t in facts.tuples(rel)
                      if all(t[pos] == v for pos, v in links)
                      and all(pred_holds(p, t[pos], lit) for pos, p, lit in strs)
                      and all(t[pos] == t[0] for pos in self_eq))

    def test_matches_brute_force_filter(self):
        rng = random.Random(37)
        cases = Counter()
        for _ in range(80):
            schema = gen.random_schema(rng, max_fks=3, max_strs=2)
            facts = gen.random_facts(rng, schema, max_tuples=8)
            for _ in range(30):
                rel = rng.choice(sorted(schema))
                attrs = schema[rel]

                def value(pos):
                    # Mostly a value the relation holds, sometimes one it lacks.
                    held = sorted({t[pos] for t in facts.tuples(rel)})
                    return rng.choice(held) if held and rng.random() < 0.8 else "nope"

                fk_pos = [i for i, a in enumerate(attrs) if a.kind == FK]
                str_pos = [i for i, a in enumerate(attrs) if a.kind == STR]
                links = [(pos, value(pos))
                         for pos in rng.sample(fk_pos, rng.randint(0, len(fk_pos)))]
                # None, one or several position-0 links: first, as ``join_step``
                # sorts them, or after the others, which takes the ``by_attr``
                # path on the primary key.
                pk_links = [(0, value(0)) for _ in range(rng.choice((0, 0, 1, 1, 2, 3)))]
                links = pk_links + links if rng.random() < 0.7 else links + pk_links
                strs = tuple((pos, rng.choice(("equal", "prefix", "suffix", "contain")),
                              gen.random_string(rng, "abc", 1, 2))
                             for pos in rng.sample(str_pos, rng.randint(0, len(str_pos))))
                self_eq = tuple(rng.sample(fk_pos, rng.randint(0, min(1, len(fk_pos)))))
                got = facts.matching(rel, links, strs, self_eq)
                assert len(set(got)) == len(got)
                assert sorted(got) == self.brute(facts, rel, links, strs, self_eq)
                cases["several position-0"] += len(pk_links) > 1
                cases["position 0 not first"] += bool(pk_links) and links[0][0] != 0
                cases["no links, constrained"] += not links and bool(strs or self_eq)
        assert min(cases.values()) > 20, cases

    def test_first_foreign_key_with_the_larger_pool(self, facts):
        # Parameter.idf_id = I4 holds for all three parameters, method_id = M1
        # for one: whichever pool is probed, the other key still filters it.
        assert len(facts.by_attr("Parameter", 1, "I4")) == 3
        links = [(1, "I4"), (3, "M1")]
        assert facts.matching("Parameter", links) == (("P1", "I4", "T1", "M1"),)
        assert facts.matching("Parameter", [(1, "I4"), (3, "M9")]) == ()

    def test_disagreeing_pins_match_nothing(self, facts):
        m1 = ("M1", "I1", "T3", "MDF1")
        assert facts.matching("Method", [(0, "M1"), (0, "M1")]) == (m1,)
        assert facts.matching("Method", [(0, "M1"), (0, "M2")]) == ()


# --- column-wise loading against the per-row oracle ---------------------------

def _load_docs(schema_doc, facts_doc):
    """``load_facts`` from the two documents, as the CLI reads them."""
    return load_facts(Schema.from_doc(schema_doc), facts_doc)


def _outcome(load, schema_doc, facts_doc):
    """The exception class ``load`` raises on a deep copy of the documents,
    or None when it accepts them."""
    try:
        load(copy.deepcopy(schema_doc), copy.deepcopy(facts_doc))
    except Exception as exc:  # the class is what is compared
        return type(exc)
    return None


def _inject(rng, schema, doc, fault):
    """Apply ``fault`` to ``doc`` in place; False when it has nowhere to go."""
    def rows_where(pred):
        return [(name, row) for name in sorted(doc) for row in doc[name]
                if pred(name, row)]

    def kinds(name, kind):
        return [i for i, a in enumerate(schema[name]) if a.kind == kind]

    if fault == "undeclared-relation":
        doc["Ghost"] = [["g1"]]
        return True
    need_fk = fault in ("empty-foreign-key", "dangling-foreign-key")
    candidates = rows_where(lambda n, r: (not need_fk or kinds(n, FK))
                            and (not fault.startswith("duplicate") or len(r) > 1))
    if not candidates:
        return False
    name, row = rng.choice(candidates)
    rows = doc[name]
    i = rows.index(row)
    if fault == "non-list-row":
        rows[i] = rng.choice(["M1", 5, None, {"id": "M1"}])
    elif fault.endswith("-cell"):
        bad = {"int-cell": 7, "none-cell": None, "list-cell": ["x"],
               "dict-cell": {"x": "y"}}[fault]
        row[rng.randrange(len(row))] = bad
    elif fault == "short-row":
        row.pop()
    elif fault == "long-row":
        row.append("extra")
    elif fault == "empty-primary-key":
        row[0] = ""
    elif fault == "empty-foreign-key":
        row[rng.choice(kinds(name, FK))] = ""
    elif fault == "dangling-foreign-key":
        row[rng.choice(kinds(name, FK))] = "zz-missing"
    elif fault == "duplicate-primary-key":
        other = list(row)
        j = rng.randrange(1, len(row))
        if schema[name][j].kind == FK:
            targets = [r[0] for r in doc.get(schema[name][j].target, [])
                       if r[0] != row[j]]
            if not targets:
                return False
            other[j] = rng.choice(targets)
        else:
            other[j] = row[j] + "x"
        rows.append(other)
    elif fault == "identical-duplicate-row":
        rows.append(list(row))
    else:
        raise AssertionError(fault)
    return True


FAULTS = ["non-list-row", "int-cell", "none-cell", "list-cell", "dict-cell",
          "short-row", "long-row", "empty-primary-key", "empty-foreign-key",
          "duplicate-primary-key", "dangling-foreign-key", "undeclared-relation"]


class TestLoaderAgainstRowOracle:
    """``load_facts`` and ``oracles.load_facts_by_rows`` accept the same
    documents and reject the others with the same exception class."""

    @staticmethod
    def assert_same(schema_doc, facts_doc):
        got = _outcome(_load_docs, schema_doc, facts_doc)
        assert got == _outcome(oracles.load_facts_by_rows, schema_doc, facts_doc)
        if got is None:
            _, facts = _load_docs(schema_doc, facts_doc)
            _, tuples, pk = oracles.load_facts_by_rows(schema_doc, facts_doc)
            for name in tuples:
                assert facts.tuples(name) == tuples[name]
                for key, t in pk[name].items():
                    assert facts.by_attr(name, 0, key) == (t,)
                assert facts.by_attr(name, 0, "zz-missing") == ()
        return got

    @pytest.mark.parametrize("fault", FAULTS)
    def test_every_fault_rejected_alike(self, fault):
        rng = random.Random(f"fault/{fault}")
        injected = 0
        for _ in range(60):
            schema = gen.random_schema(rng, max_fks=3, max_strs=2)
            facts = gen.random_facts(rng, schema, max_tuples=6, min_tuples=1)
            doc = facts_to_doc(facts)
            if not _inject(rng, schema, doc, fault):
                continue
            injected += 1
            assert self.assert_same(schema.to_doc(), doc) is FactError
        assert injected >= 30

    def test_valid_documents_accepted_alike(self):
        rng = random.Random(41)
        for _ in range(100):
            schema = gen.random_schema(rng, max_fks=3, max_strs=2)
            facts = gen.random_facts(rng, schema, max_tuples=8)
            doc = facts_to_doc(facts)
            _inject(rng, schema, doc, "identical-duplicate-row")
            for name in [n for n in doc if not doc[n]]:
                if rng.random() < 0.5:
                    del doc[name]  # an omitted relation is an empty one
            assert self.assert_same(schema.to_doc(), doc) is None

    def test_least_offending_tuple_is_named(self):
        schema_doc = {"relations": [
            {"name": "A", "attributes": [{"name": "id", "kind": "pk"}]},
            {"name": "B", "attributes": [{"name": "id", "kind": "pk"},
                                         {"name": "a", "kind": "fk", "target": "A"}]}]}
        dangling = {"A": [["a1"]], "B": [[f"b{i}", f"zz{i}"] for i in range(20)]}
        with pytest.raises(FactError, match=r"dangling foreign key 'zz0' in \('b0', 'zz0'\)"):
            _load_docs(schema_doc, dangling)
        short = {"A": [["a1"]], "B": [[f"b{i}"] for i in range(20)]}
        with pytest.raises(FactError, match=r"\('b0',\) has arity 1"):
            _load_docs(schema_doc, short)


def _json_values():
    scalars = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
               | st.text(max_size=4))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                        max_leaves=20)


@st.composite
def _valid_documents(draw):
    """A schema from ``gen.random_schema`` and a facts document valid for it,
    with duplicated rows, rows in any order and empty relations omitted."""
    schema = gen.random_schema(random.Random(draw(st.integers(0, 10_000))),
                               max_fks=3, max_strs=2)
    keys = {name: [f"{name}-{i}" for i in range(draw(st.integers(0, 4)))]
            for name in schema}
    changed = True
    while changed:  # a foreign key needs a row in its target to point at
        changed = False
        for name in schema:
            for a in schema[name]:
                if a.kind == FK and keys[name] and not keys[a.target]:
                    keys[a.target] = [f"{a.target}-0"]
                    changed = True
    doc = {}
    for name, attrs in schema.items():
        rows = [[pk] + [draw(st.sampled_from(keys[a.target])) if a.kind == FK
                        else draw(st.text(max_size=3)) for a in attrs[1:]]
                for pk in keys[name]]
        if not rows and draw(st.booleans()):
            continue
        rows += [list(r) for r in draw(st.lists(st.sampled_from(rows), max_size=2))] \
            if rows else []
        doc[name] = draw(st.permutations(rows))
    return schema.to_doc(), doc


class TestPartitionProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_json_values() | st.fixed_dictionaries({
        "target": st.sampled_from(["Method", "Type", "Ghost"]) | _json_values(),
        "positive": st.lists(st.sampled_from(["M1", "M2", "M3", "T1", "M9"]),
                             max_size=4) | _json_values()}))
    def test_arbitrary_documents_raise_only_partition_errors(self, doc):
        facts = fig1_facts()
        try:
            part = partition_from_doc(doc, facts)
        except PartitionError:
            return
        assert part.positives and part.negatives
        assert part.positives | part.negatives == facts.tuples(part.target)
        assert {t[0] for t in part.positives} == set(doc["positive"])


class TestLoadProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_json_values(), _json_values())
    def test_arbitrary_json_raises_only_domain_errors(self, schema_doc, facts_doc):
        try:
            _load_docs(schema_doc, facts_doc)
        except (FactError, SchemaError):
            pass

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.dictionaries(st.sampled_from(["Method", "Type", "Modifier", "Ghost"]),
                           _json_values(), max_size=3))
    def test_arbitrary_rows_raise_only_fact_errors(self, facts_doc):
        try:
            load_facts(fig1_schema(), facts_doc)
        except FactError:
            pass

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_valid_documents(), st.randoms(use_true_random=False))
    def test_row_order_and_duplicates_do_not_change_the_base(self, docs, rng):
        # load_facts checks rows in document order; FactBase built from
        # frozensets checks them in hash order. Both give one base.
        schema_doc, facts_doc = docs
        schema = Schema.from_doc(schema_doc)
        want = FactBase(schema, [Relation(name, frozenset(map(tuple, rows)))
                                 for name, rows in facts_doc.items()])
        shuffled = {}
        for name, rows in facts_doc.items():
            rows = rows + [list(r) for r in rows if rng.random() < 0.3]
            rng.shuffle(rows)
            shuffled[name] = rows
        _, got = load_facts(schema, shuffled)
        for name in schema:
            assert got.tuples(name) == want.tuples(name)
            for t in want.tuples(name):
                assert got.by_attr(name, 0, t[0]) == (t,)
            assert got.by_attr(name, 0, "zz-missing") == ()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_valid_documents())
    def test_facts_to_doc_inverts_load_facts(self, docs):
        schema_doc, facts_doc = docs
        want = {name: [] for name in Schema.from_doc(schema_doc)}
        for name, rows in facts_doc.items():
            want[name] = sorted(map(list, {tuple(r) for r in rows}))
        assert facts_to_doc(_load_docs(schema_doc, facts_doc)[1]) == want
