import gc
import json
import re

import pytest

from cqsearch import minijava as mj
from cqsearch.core import PartitionError
from cqsearch.extract import (ExtractError, _Builder, build_facts, extract,
                              facts_to_doc)
from test_minijava import FIG1_SOURCE


class TestFig1Extraction:
    def test_method_rows_share_types_and_modifiers(self):
        facts, part, _ = extract(mj.parse(FIG1_SOURCE), "Method")
        methods = {t[0]: t for t in facts.tuples("Method")}
        assert len(methods) == 3
        by_name = {}
        idents = {t[0]: t[1] for t in facts.tuples("Identifier")}
        for t in facts.tuples("Method"):
            by_name[idents[t[1]]] = t
        # foo and f2 share the CacheConfig return type row
        assert by_name["foo"][2] == by_name["f2"][2]
        types = {t[0]: t[1] for t in facts.tuples("Type")}
        assert types[by_name["foo"][2]] == "CacheConfig"
        # all three share the public modifier row
        assert len({t[3] for t in facts.tuples("Method")}) == 1

    def test_partition_from_annotations(self):
        facts, part, _ = extract(mj.parse(FIG1_SOURCE), "Method")
        idents = {t[0]: t[1] for t in facts.tuples("Identifier")}
        pos_names = {idents[t[1]] for t in part.positives}
        assert pos_names == {"foo"}
        assert len(part.negatives) == 2

    def test_parameters_share_interned_identifier(self):
        facts, _, _ = extract(mj.parse(FIG1_SOURCE), "Method")
        assert len({t[1] for t in facts.tuples("Parameter")}) == 1  # "utils"


class TestInterning:
    def test_same_type_name_one_row(self):
        prog = mj.parse("class A { Log4jUtils x; Log4jUtils y; }")
        facts, _, _ = build_facts(prog)[0], None, None
        facts = build_facts(prog)[0]
        names = [t[1] for t in facts.tuples("Type")]
        assert names.count("Log4jUtils") == 1
        assert len(facts.tuples("Field")) == 2

    def test_identifier_rows_equal_distinct_names(self):
        prog = mj.parse(FIG1_SOURCE)
        facts = build_facts(prog)[0]
        names = {t[1] for t in facts.tuples("Identifier")}
        # class name, Object, method names, shared parameter name
        assert names == {"Service", "Object", "foo", "f2", "f3", "utils"}
        assert len(facts.tuples("Identifier")) == len(names)


class TestExprRows:
    def test_each_condition_kind_is_recorded(self):
        kinds = {"x": "name", "new Flag()": "new", "x + 1": "arith", "f()": "call",
                 "!x": "not", "-x": "neg", "x && y": "and", "x || y": "or",
                 "x < 1": "compare", "true": "bool_literal", "1": "int_literal",
                 "1.5": "double_literal", '"s"': "string_literal"}
        body = " ".join(f"if ({cond}) {{ }}" for cond in kinds)
        facts = build_facts(mj.parse(f"class A {{ void m() {{ {body} }} }}"))[0]
        assert [t[1] for t in facts.matching("Expr", ())] == list(kinds.values())


class TestClassRows:
    def test_extends_references_superclass_row(self):
        prog = mj.parse("class Base { }\nclass Mid extends Base { }")
        facts = build_facts(prog)[0]
        idents = {t[0]: t[1] for t in facts.tuples("Identifier")}
        rows = {idents[t[1]]: t for t in facts.tuples("Class")}
        assert rows["Mid"][3] == rows["Base"][0]
        assert rows["Base"][3] == rows["Object"][0]
        assert rows["Object"][3] == rows["Object"][0]          # root loops
        assert rows["Object"][4] == "external"

    def test_implicit_rows_in_order_of_first_use(self):
        # An undeclared supertype takes the next Class id, and the root Object
        # the one after it on first use; Object's row and name come first.
        prog = mj.parse("class A extends Missing { }\nclass B implements Runnable { }\n"
                        "class C { }")
        doc = facts_to_doc(build_facts(prog)[0])
        assert doc["Class"] == [
            ["C1", "I3", "MDF1", "C4", "class"], ["C2", "I5", "MDF1", "C6", "class"],
            ["C3", "I6", "MDF1", "C5", "class"], ["C4", "I2", "MDF1", "C5", "external"],
            ["C5", "I1", "MDF1", "C5", "external"], ["C6", "I4", "MDF1", "C5", "external"]]
        assert doc["Identifier"] == [["I1", "Object"], ["I2", "Missing"], ["I3", "A"],
                                     ["I4", "Runnable"], ["I5", "B"], ["I6", "C"]]

    def test_builder_is_freed_by_reference_counting(self):
        # Nothing refers back to the builder, so it goes when build_facts
        # returns, without waiting for a cyclic collection.
        prog = mj.parse(FIG1_SOURCE + "class A extends Missing { }")
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            result = build_facts(prog)
            assert not [o for o in gc.get_objects() if isinstance(o, _Builder)]
            assert result[0].matching("Class", ())
        finally:
            if was:
                gc.enable()

    def test_interface_kind(self):
        prog = mj.parse("interface Greeter { }")
        facts = build_facts(prog)[0]
        kinds = {t[4] for t in facts.tuples("Class")}
        assert "interface" in kinds


class TestDeterminism:
    def test_identical_source_identical_facts(self):
        a = facts_to_doc(build_facts(mj.parse(FIG1_SOURCE))[0])
        b = facts_to_doc(build_facts(mj.parse(FIG1_SOURCE))[0])
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_facts_validate_on_construction(self):
        # FactBase enforces referential integrity; extraction must satisfy it.
        prog = mj.parse("""
import java.util.List;
class A extends Missing {
    public int f;
    int go(int n) {
        double d = 1.0;
        if (n > 1 && ready()) { poke(); }
        for (int i = 0; i < n; i = i + 1) { d = d + i; }
        return n;
    }
}
""")
        facts = build_facts(prog)[0]
        assert len(facts.tuples("IfStmt")) == 1
        assert len(facts.tuples("Expr")) == 2  # if condition and for condition
        assert len(facts.tuples("Call")) == 2  # ready() and poke()
        assert len(facts.tuples("Variable")) == 2  # d and the loop counter


class TestAnnotationErrors:
    def test_wrong_construct_for_target(self):
        with pytest.raises(ExtractError, match=re.escape(
                "<source>:2:33: @pos annotation on a Method construct, "
                "but the target relation is Class")):
            extract(mj.parse(FIG1_SOURCE), "Class")

    def test_no_positive_annotation(self):
        prog = mj.parse("class A { int f() { } }")
        with pytest.raises(ExtractError, match="no @pos"):
            extract(prog, "Method")

    def test_contradictory_annotations(self):
        prog = mj.parse("class A { /*@pos*/ /*@neg*/ int f() { }"
                        " int g() { } /*@neg*/ /*@pos*/ int h() { } }")
        with pytest.raises(PartitionError, match=re.escape(
                "rows annotated both @pos and @neg: M1 at <source>:1:33, "
                "M3 at <source>:1:75")):
            extract(prog, "Method")

    def test_annotation_on_rowless_construct(self):
        with pytest.raises(ExtractError, match=re.escape(
                "<source>:1:30: annotation on a construct that produces no example rows")):
            extract(mj.parse("class A { int f() { /*@pos*/ return 1; } }"),
                    "Method")

    def test_unannotated_targets_default_negative(self):
        prog = mj.parse("class A { /*@pos*/ int f() { } int g() { } int h() { } }")
        _, part, _ = extract(prog, "Method")
        assert len(part.positives) == 1
        assert len(part.negatives) == 2


class TestMultipleFiles:
    def test_merged_programs_renumber_deterministically(self, tmp_path):
        (tmp_path / "a.java").write_text("class A { /*@pos*/ int f() { } }")
        (tmp_path / "b.java").write_text("class B { int g() { } }")
        prog = mj.parse_files([tmp_path / "a.java", tmp_path / "b.java"])
        facts, part, positions = extract(prog, "Method")
        assert len(facts.tuples("Method")) == 2
        assert len(facts.tuples("Class")) == 3  # A, B, Object
        files = {p["file"] for p in positions.values()}
        assert {str(tmp_path / "a.java"), str(tmp_path / "b.java")} <= files

    def test_annotation_errors_name_their_file(self, tmp_path):
        (tmp_path / "a.java").write_text("class A { /*@pos*/ int f() { } }")
        (tmp_path / "b.java").write_text("class B {\n  /*@neg*/ int x;\n}")
        prog = mj.parse_files([tmp_path / "a.java", tmp_path / "b.java"])
        with pytest.raises(ExtractError, match=re.escape(
                f"{tmp_path / 'b.java'}:2:16: @neg annotation on a Field construct")):
            extract(prog, "Method")
