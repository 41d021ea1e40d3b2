import gc
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
from concurrent.futures import Future

import pytest

from cqsearch import bench, minijava
from cqsearch.cli import main
from cqsearch.core import FactError, Schema, load_facts
from cqsearch.datalog import parse_datalog
from cqsearch.evaluator import evaluate
from cqsearch.extract import build_facts, extract
from conftest import CORPUS, REPO
from test_minijava import FIG1_SOURCE
import oracles


@pytest.fixture
def motivating_dir(tmp_path):
    src = tmp_path / "example.java"
    src.write_text(FIG1_SOURCE, encoding="utf-8")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExtractCommand:
    def test_writes_fact_files(self, capsys, motivating_dir):
        out = motivating_dir / "out"
        code, stdout, _ = run(capsys, "extract",
                              str(motivating_dir / "example.java"),
                              "--target", "Method", "-o", str(out))
        assert code == 0
        for name in ("schema.json", "facts.json", "partition.json",
                     "positions.json"):
            assert (out / name).exists()
        facts = json.loads((out / "facts.json").read_text())
        assert len(facts["Method"]) == 3
        part = json.loads((out / "partition.json").read_text())
        assert part == {"target": "Method", "positive": ["M1"]}

    def test_deterministic_outputs(self, capsys, motivating_dir):
        a, b = motivating_dir / "a", motivating_dir / "b"
        run(capsys, "extract", str(motivating_dir / "example.java"),
            "--target", "Method", "-o", str(a))
        run(capsys, "extract", str(motivating_dir / "example.java"),
            "--target", "Method", "-o", str(b))
        assert (a / "facts.json").read_bytes() == (b / "facts.json").read_bytes()


    def test_deep_nesting_exits_one(self, capsys, tmp_path):
        depth = 3000
        path = tmp_path / "deep.java"
        path.write_text(
            "class A { int f() { return " + "(" * depth + "1" + ")" * depth + "; } }",
            encoding="utf-8")
        code, _, err = run(capsys, "extract", str(path), "-o", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith(f"error: ParseError: {path}: 1:") and "nesting deeper" in err, err

    @pytest.mark.parametrize("source, where", [
        (b"\xffclass A { }", "1:1"),
        (b"class A {\r\n  int f() { }\r\n  // caf\xe9\r\n}", "3:9"),
    ], ids=["first-byte", "third-line"])
    def test_non_utf8_source_exits_one(self, capsys, tmp_path, source, where):
        path = tmp_path / "latin1.java"
        path.write_bytes(source)
        code, _, err = run(capsys, "extract", str(path), "-o", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith(f"error: InputError: {path}: {where}: not UTF-8: "), err

    @pytest.mark.parametrize("bad", [0, 1], ids=["first-file", "second-file"])
    def test_parse_error_names_its_file(self, capsys, tmp_path, bad):
        paths = [tmp_path / "a.java", tmp_path / "b.java"]
        for i, path in enumerate(paths):
            path.write_text("class B {\n  int 5x;\n}" if i == bad else "class A { }",
                            encoding="utf-8")
        code, _, err = run(capsys, "extract", *map(str, paths), "-o", str(tmp_path / "out"))
        assert code == 1
        assert err == (f"error: ParseError: {paths[bad]}: 2:7: "
                       f"expected member name, got '5'\n"), err


class TestReduceCommand:
    def test_prints_kept_and_dropped(self, capsys, motivating_dir):
        code, stdout, _ = run(capsys, "reduce",
                              "--source", str(motivating_dir / "example.java"),
                              "--target", "Method")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert "keep Method" in lines
        assert any(l.startswith("drop Modifier") for l in lines)

    def test_json_fact_inputs(self, capsys, motivating_dir):
        out = motivating_dir / "json"
        run(capsys, "extract", str(motivating_dir / "example.java"),
            "--target", "Method", "-o", str(out))
        code, stdout, _ = run(capsys, "reduce",
                              "--schema", str(out / "schema.json"),
                              "--facts", str(out / "facts.json"),
                              "--partition", str(out / "partition.json"))
        assert code == 0
        assert "keep Parameter" in stdout.splitlines()

    # A source that does not parse: each flag error must come before it is read.
    BAD_SOURCE = "class B {\n  int 5x;\n}"

    def test_missing_target_is_named_before_the_source_is_read(self, capsys, tmp_path):
        bad = tmp_path / "bad.java"
        bad.write_text(self.BAD_SOURCE, encoding="utf-8")
        code, stdout, err = run(capsys, "reduce", "--source", str(bad))
        assert (code, stdout) == (1, "")
        assert err == "error: --target is required with --source\n"

    @pytest.mark.parametrize("flag, value", [
        ("--schema", "x.json"), ("--facts", "x.json"), ("--partition", "x.json"),
        ("--positive", "M1")])
    def test_flag_the_source_ignores_is_an_error(self, capsys, tmp_path, flag, value):
        bad = tmp_path / "bad.java"
        bad.write_text(self.BAD_SOURCE, encoding="utf-8")
        code, stdout, err = run(capsys, "reduce", "--source", str(bad),
                                "--target", "Method", flag, value)
        assert (code, stdout) == (1, "")
        assert err == f"error: {flag} cannot be used with --source\n"


class TestSynthesizeCommand:
    def test_motivating_report(self, capsys, motivating_dir, tmp_path):
        report_path = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "synthesize",
            "--source", str(motivating_dir / "example.java"),
            "--target", "Method",
            "--description", "Find all the methods receiving a Log4jUtils-type "
                             "parameter and giving a CacheConfig-type return",
            "--hmap", str(CORPUS / "hmap.json"),
            "--emit", "json", "-o", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["alpha_max"] == 1.0
        assert report["beta_min"] == 9
        assert report["terminated_early"] is True
        assert len(report["queries"]) == 1
        assert report["queries"][0]["graph_size"] == {
            "relations": 4, "eq_constraints": 3, "str_constraints": 2}
        assert report["queries"][0]["k"] == 2

    @pytest.mark.parametrize("task", sorted(CORPUS.glob("*/task.json")),
                             ids=lambda path: path.parent.name)
    def test_emitted_queries_are_pinned(self, capsys, task):
        # The --emit ra and --emit datalog text of every corpus selection,
        # recorded in tests/emitted_queries.json.
        doc = json.loads(task.read_text(encoding="utf-8"))
        want = json.loads((REPO / "tests" / "emitted_queries.json")
                          .read_text(encoding="utf-8"))[doc["name"]]
        for mode in ("ra", "datalog"):
            code, stdout, _ = run(
                capsys, "synthesize",
                "--source", *(str(task.parent / name) for name in doc["source"]),
                "--target", doc["target"], "--description", doc["description"],
                "--hmap", str(CORPUS / "hmap.json"), "--emit", mode)
            assert (code, stdout.splitlines()) == (0, want[mode]), mode

    def test_trace_prints_level_counts(self, capsys):
        task = CORPUS / "t08_method_motivating"
        doc = json.loads((task / "task.json").read_text(encoding="utf-8"))
        code, _, err = run(capsys, "synthesize",
                           "--source", str(task / "example.java"),
                           "--target", doc["target"], "--description", doc["description"],
                           "--hmap", str(CORPUS / "hmap.json"),
                           "--trace", "--emit", "datalog")
        assert code == 0
        assert err.splitlines() == [
            "trace (1,1): |W|=1 generated=1 |S_R|=1 |S_C|=0",
            "trace (2,1): |W|=1 generated=5 |S_R|=5 |S_C|=1",
            "trace (2,2): |W|=1 generated=0 |S_R|=0 |S_C|=0",
            "trace (3,1): |W|=5 generated=30 |S_R|=12 |S_C|=3",
            "trace (3,2): |W|=5 generated=18 |S_R|=12 |S_C|=3",
            "trace (4,1): |W|=12 generated=68 |S_R|=16 |S_C|=4",
            "trace (4,2): |W|=24 generated=344 |S_R|=117 |S_C|=34",
            "trace (5,1): |W|=16 generated=0 |S_R|=0 |S_C|=0",
            "trace (5,2): |W|=133 generated=3520 |S_R|=747 |S_C|=243",
        ]

    def test_exit_two_when_nothing_separates(self, capsys, tmp_path):
        (tmp_path / "same.java").write_text(
            "class A { /*@pos*/ int f() { } int g() { } }", encoding="utf-8")
        code, stdout, _ = run(
            capsys, "synthesize", "--source", str(tmp_path / "same.java"),
            "--target", "Method", "--description", "Find all the methods",
            "--hmap", str(CORPUS / "hmap.json"))
        # f and g differ only by name; identical names would be unseparable,
        # but here names differ, so double-check the exit convention instead
        assert code in (0, 2)

    def test_contradictory_annotations_exit_one(self, capsys, tmp_path):
        (tmp_path / "bad.java").write_text(
            "class A { /*@pos*/ /*@neg*/ int f() { } int g() { } }",
            encoding="utf-8")
        code, _, err = run(
            capsys, "synthesize", "--source", str(tmp_path / "bad.java"),
            "--target", "Method", "--description", "Find all the methods",
            "--hmap", str(CORPUS / "hmap.json"))
        assert code == 1
        assert "PartitionError" in err

    def test_non_utf8_description_file_exits_one(self, capsys, motivating_dir):
        path = motivating_dir / "description.txt"
        path.write_bytes(b"Find all the m\xe9thods")
        code, _, err = run(
            capsys, "synthesize", "--source", str(motivating_dir / "example.java"),
            "--target", "Method", "--description-file", str(path),
            "--hmap", str(CORPUS / "hmap.json"))
        assert code == 1
        assert err.startswith(f"error: InputError: {path}: 1:15: not UTF-8: "), err


# Malformed JSON shapes each loader must reject with its domain error, and
# the start of the error line, where {path} is the file and {end} the column
# past its last byte; a case that returns bytes writes them as the whole file.
BAD_INPUTS = {
    "rows-not-a-list": ("facts", lambda d: d.update(Method=5),
                        "FactError: {path}: Method: rows must be a list"),
    "list-valued-cell": ("facts", lambda d: d["Method"][0].__setitem__(1, ["I1"]),
                         "FactError: {path}: Method: non-string value ['I1']"),
    "relation-entry-not-object": ("schema", lambda d: d["relations"].append("Method"),
                                  "SchemaError: {path}: relation entry without a name"),
    "attribute-without-name": (
        "schema", lambda d: d["relations"][0]["attributes"][1].pop("name"),
        "SchemaError: {path}: Method: attribute without a name"),
    "positive-key-not-string": ("partition", lambda d: d.update(positive=[["M1"]]),
                                "PartitionError: {path}: partition 'target' must be"),
    "hmap-words-not-list": ("hmap", lambda d: d["h"].update({"Method.id": 5}),
                            "ContextError: {path}: h['Method.id'] must be a list"),
    "hmap-dictionary-not-list": ("hmap", lambda d: d.update(dictionary="method"),
                                 "ContextError: {path}: hmap 'dictionary' must be"),
    **{f"{doc}-not-utf8": (doc, lambda d: b"\xff" + json.dumps(d).encode(),
                           "InputError: {path}: 1:1: not UTF-8: invalid start byte")
       for doc in ("schema", "facts", "partition", "hmap")},
    "facts-syntax-error": ("facts", lambda d: b"{\n,",
                           "InputError: {path}: 2:1: Expecting property name"),
    "schema-syntax-error": ("schema", lambda d: json.dumps(d)[:-1].encode(),
                            "InputError: {path}: 1:{end}: Expecting ',' delimiter"),
    "hmap-syntax-error": ("hmap", lambda d: b"{'dictionary': []}",
                          "InputError: {path}: 1:2: Expecting property name"),
    "facts-nested-too-deeply": ("facts", lambda d: b"[" * 200_000,
                                "InputError: {path}: 1:200000: nested 200000 levels"),
    "schema-relations-not-list": ("schema", lambda d: b'{"relations": 3}',
                                  "SchemaError: {path}: schema document must have"),
    "facts-short-row": ("facts", lambda d: b'{"Class": [["C1"]]}',
                        "FactError: {path}: Class: tuple ('C1',) has arity 1"),
    "partition-without-positive": ("partition", lambda d: b'{"target": 3}',
                                   "PartitionError: {path}: partition document needs"),
}


@pytest.mark.parametrize("doc, corrupt, expected", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_malformed_json_input_exits_one(capsys, motivating_dir, doc, corrupt,
                                        expected):
    out = motivating_dir / "json"
    run(capsys, "extract", str(motivating_dir / "example.java"),
        "--target", "Method", "-o", str(out))
    shutil.copy(CORPUS / "hmap.json", out / "hmap.json")
    path = out / f"{doc}.json"
    data = json.loads(path.read_text())
    raw = corrupt(data)
    if isinstance(raw, bytes):
        path.write_bytes(raw)
    else:
        path.write_text(json.dumps(data))
    code, _, err = run(capsys, "synthesize", "--description", "Find all the methods",
                       *(arg for name in ("schema", "facts", "partition", "hmap")
                         for arg in (f"--{name}", str(out / f"{name}.json"))))
    assert code == 1
    end = len(raw) + 1 if isinstance(raw, bytes) else None
    assert err.startswith("error: " + expected.format(path=path, end=end)), err


# Integer flags below their least meaningful value, per subcommand.
BAD_FLAGS = {
    "reduce-max-cycle-len": ("reduce", "--max-cycle-len", "-5"),
    "synthesize-max-cycle-len": ("synthesize", "--max-cycle-len", "-1"),
    "synthesize-k-bound-0": ("synthesize", "--k-bound", "0"),
    "synthesize-k-bound-negative": ("synthesize", "--k-bound", "-1"),
    "synthesize-max-m-0": ("synthesize", "--max-m", "0"),
    "synthesize-max-m-negative": ("synthesize", "--max-m", "-3"),
    "bench-k-bound": ("bench", "--k-bound", "0"),
    "bench-jobs-0": ("bench", "--jobs", "0"),
    "bench-jobs-negative": ("bench", "--jobs", "-2"),
}


def _command_line(command, motivating_dir, tmp_path):
    source = str(motivating_dir / "example.java")
    if command == "bench":
        return ["bench", str(tmp_path)]
    argv = [command, "--source", source, "--target", "Method"]
    if command == "synthesize":
        argv += ["--description", "Find all the methods",
                 "--hmap", str(CORPUS / "hmap.json")]
    return argv


@pytest.mark.parametrize("command, flag, value", BAD_FLAGS.values(),
                         ids=BAD_FLAGS.keys())
def test_bad_flag_value_exits_one(capsys, motivating_dir, tmp_path, command,
                                  flag, value):
    code, stdout, err = run(capsys, *_command_line(command, motivating_dir, tmp_path),
                            f"{flag}={value}")
    assert code == 1
    assert err.startswith(f"error: {flag} must be at least"), err
    assert stdout == ""


def test_least_flag_values_are_accepted(capsys, motivating_dir, tmp_path):
    code, stdout, _ = run(capsys, *_command_line("reduce", motivating_dir, tmp_path),
                          "--max-cycle-len=0")
    assert code == 0
    assert "keep Method" in stdout.splitlines()
    code, _, err = run(capsys, *_command_line("synthesize", motivating_dir, tmp_path),
                       "--k-bound=1", "--max-m=1")
    assert code in (0, 2) and not err


class TestSearchCommand:
    @pytest.fixture
    def target_base(self, tmp_path):
        # ten methods, exactly two match the motivating query
        lines = ["class Big {"]
        lines.append("    CacheConfig hit1(Log4jUtils a) { }")
        lines.append("    CacheConfig hit2(Log4jUtils b) { }")
        lines.append("    CacheConfig near(int c) { }")
        lines.append("    int off(Log4jUtils d) { }")
        for i in range(6):
            lines.append(f"    void filler{i}(int x) {{ }}")
        lines.append("}")
        (tmp_path / "big.java").write_text("\n".join(lines), encoding="utf-8")
        return tmp_path

    def test_finds_matching_methods(self, capsys, target_base):
        out = target_base / "out"
        run(capsys, "extract", str(target_base / "big.java"), "-o", str(out))
        query = target_base / "query.dl"
        query.write_text(
            "out(M, MI, MR, MD) :- Method(M, MI, MR, MD), Type(MR, RN), "
            "Parameter(P, PI, PT, M), Type(PT, PN), "
            'str_equal(RN, "CacheConfig"), str_equal(PN, "Log4jUtils").\n',
            encoding="utf-8")
        code, stdout, _ = run(capsys, "search", str(query),
                              "--schema", str(out / "schema.json"),
                              "--facts", str(out / "facts.json"),
                              "--positions", str(out / "positions.json"))
        assert code == 0
        hits = stdout.strip().splitlines()
        assert len(hits) == 2
        assert all("big.java:" in h for h in hits)

    def test_empty_facts_exit_zero(self, capsys, target_base, tmp_path):
        out = target_base / "out2"
        run(capsys, "extract", str(target_base / "big.java"), "-o", str(out))
        facts = json.loads((out / "facts.json").read_text())
        empty = {name: [] for name in facts}
        (tmp_path / "empty.json").write_text(json.dumps(empty))
        query = tmp_path / "q.dl"
        query.write_text("out(M, MI, MR, MD) :- Method(M, MI, MR, MD).\n")
        code, stdout, _ = run(capsys, "search", str(query),
                              "--schema", str(out / "schema.json"),
                              "--facts", str(tmp_path / "empty.json"))
        assert code == 0
        assert stdout.strip() == ""

    def test_unknown_relation_exit_one(self, capsys, target_base, tmp_path):
        out = target_base / "out3"
        run(capsys, "extract", str(target_base / "big.java"), "-o", str(out))
        query = tmp_path / "q.dl"
        query.write_text("out(X) :- Mystery(X).\n")
        code, _, err = run(capsys, "search", str(query),
                           "--schema", str(out / "schema.json"),
                           "--facts", str(out / "facts.json"))
        assert code == 1
        assert "Mystery" in err

    def test_non_utf8_query_exits_one(self, capsys, target_base):
        out = target_base / "out5"
        run(capsys, "extract", str(target_base / "big.java"), "-o", str(out))
        query = target_base / "q.dl"
        query.write_bytes(b"\xffout(M, MI, MR, MD) :- Method(M, MI, MR, MD).\n")
        code, stdout, err = run(capsys, "search", str(query),
                                "--schema", str(out / "schema.json"),
                                "--facts", str(out / "facts.json"))
        assert code == 1
        assert err.startswith(f"error: InputError: {query}: 1:1: not UTF-8: "), err
        assert stdout == ""

    @pytest.mark.parametrize("rule, message", [
        ("out(X) :- Nope(X.", "1:17: expected ), got '.'"),
        ("out(X) :- Mystery(X).\n", "1:11: unknown relation 'Mystery'"),
        ("out(M, MI, MR, MD) :-\n    Method(M, MI, MR, MD),\n    Type(MR, RN, X).\n",
         "3:5: Type has arity 2, got 3 arguments"),
    ], ids=["syntax-error", "unknown-relation", "third-line"])
    def test_query_error_names_the_file(self, capsys, target_base, monkeypatch,
                                        rule, message):
        out = target_base / "out6"
        run(capsys, "extract", str(target_base / "big.java"), "-o", str(out))
        (target_base / "q.dl").write_text(rule, encoding="utf-8")
        monkeypatch.chdir(target_base)
        code, stdout, err = run(capsys, "search", "q.dl",
                                "--schema", str(out / "schema.json"),
                                "--facts", str(out / "facts.json"))
        assert code == 1
        assert err == f"error: DatalogError: q.dl: {message}\n", err
        assert stdout == ""

    @staticmethod
    def _old_layout(d):
        return {row: {"file": d["files"][f], "line": line, "col": col}
                for row, f, line, col in zip(d["rows"], d["file"], d["line"], d["col"])}

    @staticmethod
    def _with(d, column, i, value):
        d[column][i] = value
        return d

    @pytest.mark.parametrize("corrupt, error", [
        (lambda d: [1, 2], "PositionsError: {path}: positions must be an object of columns"),
        (_old_layout, "PositionsError: {path}: one object per row is the old positions "
                      "layout; re-run `cqsearch extract`"),
        (lambda d: {k: v for k, v in d.items() if k != "col"},
         "PositionsError: {path}: missing column 'col'"),
        (lambda d: dict(d, line="12"), "PositionsError: {path}: column 'line' must be a list"),
        (lambda d: dict(d, line=d["line"][:-1]),
         "PositionsError: {path}: columns 'rows', 'file', 'line' and 'col' have 21, 21, "
         "20 and 21 entries, not one per row"),
        (lambda d: dict(d, rows=["M1"] + d["rows"][1:] + ["M1"], file=d["file"] + [0],
                        line=d["line"] + [1], col=d["col"] + [1]),
         "PositionsError: {path}: duplicate row id 'M1'"),
        (lambda d: dict(d, rows=d["rows"][:-1] + [7]),
         "PositionsError: {path}: rows[20] is 7, not a string"),
        (lambda d: TestSearchCommand._with(d, "line", 2, "3"),
         "PositionsError: {path}: line[2] of row 'M10' is '3', not an integer"),
        (lambda d: TestSearchCommand._with(d, "line", 0, True),
         "PositionsError: {path}: line[0] of row 'C1' is True, not an integer"),
        (lambda d: TestSearchCommand._with(d, "col", 0, 1.0),
         "PositionsError: {path}: col[0] of row 'C1' is 1.0, not an integer"),
        (lambda d: TestSearchCommand._with(d, "file", 3, 1),
         "PositionsError: {path}: file[3] of row 'M2' is 1, not an index into the 1 files"),
        (lambda d: TestSearchCommand._with(d, "file", 3, -1),
         "PositionsError: {path}: file[3] of row 'M2' is -1, not an index into the 1 files"),
        (lambda d: b"\xfe" + json.dumps(d).encode(),
         "InputError: {path}: 1:1: not UTF-8: invalid start byte"),
        (lambda d: json.dumps(d).encode()[:-2], "InputError: {path}: 1:"),
    ], ids=["not-an-object", "old-layout", "missing-column", "column-not-a-list",
            "unequal-lengths", "duplicate-row-id", "row-id-not-a-string",
            "line-not-an-integer", "line-a-bool", "col-a-float", "file-out-of-range",
            "file-negative", "not-utf8", "syntax-error"])
    def test_malformed_positions_exit_one(self, capsys, target_base, corrupt, error):
        out = target_base / "out4"
        run(capsys, "extract", str(target_base / "big.java"), "-o", str(out))
        positions = out / "positions.json"
        doc = json.loads(positions.read_text())
        assert doc["rows"][:4] == ["C1", "M1", "M10", "M2"]  # the row ids the cases name
        assert len(doc["rows"]) == 21
        doc = corrupt(doc)
        if isinstance(doc, bytes):
            positions.write_bytes(doc)
        else:
            positions.write_text(json.dumps(doc))
        query = target_base / "q.dl"
        query.write_text("out(M, MI, MR, MD) :- Method(M, MI, MR, MD).\n")
        code, stdout, err = run(capsys, "search", str(query),
                                "--schema", str(out / "schema.json"),
                                "--facts", str(out / "facts.json"),
                                "--positions", str(positions))
        assert code == 1
        assert err.startswith("error: " + error.format(path=positions)), err
        assert stdout == ""

    def test_positions_are_columns(self, capsys, target_base):
        out = target_base / "out7"
        run(capsys, "extract", str(target_base / "big.java"), "-o", str(out))
        doc = json.loads((out / "positions.json").read_text())
        assert list(doc) == ["files", "rows", "file", "line", "col"]
        assert doc["files"] == [str(target_base / "big.java")]
        i = doc["rows"].index("M2")
        assert (doc["file"][i], doc["line"][i], doc["col"][i]) == (0, 3, 17)


def _search_lines(capsys, query, out):
    code, stdout, err = run(capsys, "search", str(query),
                            "--schema", str(out / "schema.json"),
                            "--facts", str(out / "facts.json"),
                            "--positions", str(out / "positions.json"))
    assert code == 0, err
    return stdout.splitlines()


class TestPositionsRoundTrip:
    """``cqsearch extract`` then ``cqsearch search`` prints the lines the
    in-memory positions give under the one-object-per-row rule."""

    @pytest.mark.parametrize("task", sorted(CORPUS.glob("*/task.json")),
                             ids=lambda path: path.parent.name)
    def test_corpus_task(self, capsys, tmp_path, task):
        doc = json.loads(task.read_text(encoding="utf-8"))
        sources = [str(task.parent / name) for name in doc["source"]]
        out = tmp_path / "out"
        assert run(capsys, "extract", *sources, "--target", doc["target"],
                   "-o", str(out))[0] == 0
        facts, _, positions = extract(minijava.parse_files(sources), doc["target"])
        golden = task.parent / doc["golden"][0]
        query = parse_datalog(golden.read_text(encoding="utf-8"), facts.schema)
        want = oracles.search_lines(evaluate(query, facts), positions)
        assert want and _search_lines(capsys, golden, out) == want

    def test_generated_code_base(self, capsys, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO))
        from perfbench import gen_codebase
        sources = []
        for name, text in gen_codebase.generate(2023, 100).files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
            sources.append(str(tmp_path / name))
        out = tmp_path / "out"
        assert run(capsys, "extract", *sources, "-o", str(out))[0] == 0
        facts, positions, _ = build_facts(minijava.parse_files(sources))
        found = 0
        for task in sorted(CORPUS.glob("*/task.json")):
            doc = json.loads(task.read_text(encoding="utf-8"))
            golden = task.parent / doc["golden"][0]
            query = parse_datalog(golden.read_text(encoding="utf-8"), facts.schema)
            want = oracles.search_lines(evaluate(query, facts), positions)
            assert _search_lines(capsys, golden, out) == want, task.parent.name
            found += len(want)
        assert found > 100


@pytest.mark.parametrize("task", ["t10_method_mutual_recursion", "t08_method_motivating"])
def test_search_output_does_not_depend_on_the_hash_seed(capsys, tmp_path, task):
    # The cyclic query takes the per-head search, the other the semi-joins.
    doc = json.loads((CORPUS / task / "task.json").read_text(encoding="utf-8"))
    out = tmp_path / "out"
    assert run(capsys, "extract", *(str(CORPUS / task / name) for name in doc["source"]),
               "-o", str(out))[0] == 0
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    outputs = set()
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-m", "cqsearch.cli", "search",
             str(CORPUS / task / doc["golden"][0]), "--schema", str(out / "schema.json"),
             "--facts", str(out / "facts.json"), "--positions", str(out / "positions.json")],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and done.stdout, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs


class TestSearchLoading:
    """How ``cqsearch search`` loads its fact files."""

    SCHEMA = {"relations": [
        {"name": "A", "attributes": [{"name": "id", "kind": "pk"}]},
        {"name": "B", "attributes": [{"name": "id", "kind": "pk"},
                                     {"name": "a", "kind": "fk", "target": "A"}]}]}
    # Twenty faulty rows each, so that set iteration order would pick a
    # different one under most hash seeds.
    FAULTY = {
        "dangling-foreign-key": {"A": [["a1"]],
                                 "B": [[f"b{i}", f"zz{i}"] for i in range(20)]},
        "arity": {"A": [["a1"]], "B": [[f"b{i}"] for i in range(20)]},
        "duplicate-primary-key": {"A": [["a1"], ["a2"]],
                                  "B": [[f"b{i}", a] for i in range(10)
                                        for a in ("a1", "a2")]},
    }

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "schema.json").write_text(json.dumps(self.SCHEMA))
        (tmp_path / "q.dl").write_text("out(B, A) :- B(B, A).\n")
        (tmp_path / "good.json").write_text(json.dumps({"A": [["a1"]],
                                                        "B": [["b1", "a1"]]}))
        (tmp_path / "bad.json").write_text(json.dumps(self.FAULTY["arity"]))
        return tmp_path

    def search(self, files, facts):
        return ["search", str(files / "q.dl"), "--schema", str(files / "schema.json"),
                "--facts", str(files / facts)]

    @pytest.mark.parametrize("fault", FAULTY)
    def test_error_does_not_depend_on_the_hash_seed(self, files, fault):
        (files / "faulty.json").write_text(json.dumps(self.FAULTY[fault]))
        path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
        errors = set()
        for seed in ("0", "1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "cqsearch.cli", *self.search(files, "faulty.json")],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                capture_output=True, text=True, timeout=60)
            assert done.returncode == 1 and "FactError" in done.stderr, done.stderr
            errors.add(done.stderr)
        assert len(errors) == 1, errors

    @pytest.mark.parametrize("fault", FAULTY)
    def test_error_does_not_depend_on_row_order(self, fault):
        schema = Schema.from_doc(self.SCHEMA)

        def message(doc):
            with pytest.raises(FactError) as info:
                load_facts(schema, doc)
            return str(info.value)
        want = message(self.FAULTY[fault])
        for seed in range(5):
            rng = random.Random(seed)
            doc = {name: rng.sample(rows, len(rows))
                   for name, rows in self.FAULTY[fault].items()}
            assert message(doc) == want, seed

    @pytest.mark.parametrize("facts, code", [("good.json", 0), ("bad.json", 1)],
                             ids=["found", "fact-error"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_collector_state_is_restored(self, capsys, files, facts, code, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            got, _, err = run(capsys, *self.search(files, facts))
            assert got == code, err
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


    @pytest.mark.parametrize("command", ["search", "graph"])
    def test_no_cyclic_garbage_left(self, capsys, files, command):
        # The parser is built once per process and a fact base is freed by
        # reference counting, so a warm call leaves the collector nothing.
        argv = (self.search(files, "good.json") if command == "search"
                else ["graph", "--schema", str(files / "schema.json")])
        assert run(capsys, *argv)[0] == 0
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            code, _, err = run(capsys, *argv)
            assert code == 0, err
            assert gc.collect() == 0
        finally:
            if was:
                gc.enable()


class TestGraphCommand:
    def test_schema_dot(self, capsys, motivating_dir):
        code, stdout, _ = run(capsys, "graph",
                              "--source", str(motivating_dir / "example.java"))
        assert code == 0
        assert stdout.startswith("digraph")
        assert '"Method" -> "Identifier" [label="idf_id"]' in stdout


class TestBenchCommand:
    def test_single_task_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(CORPUS / "hmap.json", corpus / "hmap.json")
        shutil.copytree(CORPUS / "t07_stmt_import_localtime",
                        corpus / "t07_stmt_import_localtime")
        code, stdout, _ = run(capsys, "bench", str(corpus))
        assert code == 0
        assert "1/1 tasks passed" in stdout

    @pytest.mark.parametrize("task, error", [
        (b"[]", "DomainError: {path}: a task is a JSON object"),
        (b"{bad", "InputError: {path}: 1:2: Expecting property name"),
        (b"\xff{}", "InputError: {path}: 1:1: not UTF-8: invalid start byte"),
        (b'{"name": "x"}', "DomainError: {path}: a task is a JSON object"),
    ], ids=["list", "syntax-error", "not-utf8", "missing-keys"])
    def test_broken_task_is_a_failed_row(self, capsys, tmp_path, task, error):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(CORPUS / "hmap.json", corpus / "hmap.json")
        shutil.copytree(CORPUS / "t07_stmt_import_localtime",
                        corpus / "t07_stmt_import_localtime")
        (corpus / "t00_broken").mkdir()
        (corpus / "t00_broken" / "task.json").write_bytes(task)
        code, stdout, _ = run(capsys, "bench", str(corpus))
        assert code == 2
        rows = stdout.splitlines()
        path = corpus / "t00_broken" / "task.json"
        assert rows[2].startswith("t00_broken "), stdout
        assert "FAIL: " + error.format(path=path) in rows[2], stdout
        assert rows[3].startswith("stmt-import-localtime ") and rows[3].endswith(" ok"), stdout
        assert "1/2 tasks passed" in stdout

    def test_non_utf8_golden_is_a_failed_row_naming_it(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(CORPUS / "hmap.json", corpus / "hmap.json")
        task = corpus / "t07_stmt_import_localtime"
        shutil.copytree(CORPUS / task.name, task)
        (task / "golden.dl").write_bytes(b"\xff")
        code, stdout, _ = run(capsys, "bench", str(corpus))
        assert code == 2
        row = stdout.splitlines()[2]
        assert row.startswith("stmt-import-localtime "), stdout
        assert (f"FAIL: InputError: {task / 'golden.dl'}: 1:1: not UTF-8: "
                "invalid start byte") in row, stdout
        assert "0/1 tasks passed" in stdout

    def test_broken_golden_rule_is_a_failed_row_naming_it(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(CORPUS / "hmap.json", corpus / "hmap.json")
        task = corpus / "t07_stmt_import_localtime"
        shutil.copytree(CORPUS / task.name, task)
        (task / "golden.dl").write_text("out(X) :- Nope(X.", encoding="utf-8")
        code, stdout, _ = run(capsys, "bench", str(corpus))
        assert code == 2
        row = stdout.splitlines()[2]
        assert row.startswith("stmt-import-localtime "), stdout
        assert row.endswith(f"FAIL: DatalogError: {task / 'golden.dl'}: "
                            "1:17: expected ), got '.'"), stdout

    def test_broken_hmap_fails_every_task_by_name(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "hmap.json").write_text("{bad")
        shutil.copytree(CORPUS / "t07_stmt_import_localtime",
                        corpus / "t07_stmt_import_localtime")
        code, stdout, _ = run(capsys, "bench", str(corpus))
        assert code == 2
        assert (f"FAIL: InputError: {corpus / 'hmap.json'}: 1:2: "
                "Expecting property name") in stdout, stdout
        assert "0/1 tasks passed" in stdout

    def test_empty_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "hmap.json").write_text((CORPUS / "hmap.json").read_text())
        code, stdout, _ = run(capsys, "bench", str(corpus))
        assert code == 0
        assert "0/0 tasks passed" in stdout

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_corpus_that_is_not_a_directory_is_an_error(self, capsys, tmp_path, kind):
        corpus = tmp_path / "corpus"
        if kind == "file":
            corpus.write_text("{}")
        code, stdout, err = run(capsys, "bench", str(corpus))
        assert code == 1 and stdout == ""
        assert err == f"error: corpus {corpus} is not a directory\n"

    @pytest.mark.parametrize("tasks, workers", [(2, [2]), (1, [])],
                             ids=["two-tasks", "one-task"])
    def test_pool_has_no_more_workers_than_tasks(self, capsys, tmp_path, monkeypatch,
                                                 tasks, workers):
        class InlinePool:  # records its size and runs each task in this process
            sizes = []

            def __init__(self, max_workers):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(bench, "ProcessPoolExecutor", InlinePool)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(CORPUS / "hmap.json", corpus / "hmap.json")
        for name in ("t06_stmt_import_log4j", "t07_stmt_import_localtime")[:tasks]:
            shutil.copytree(CORPUS / name, corpus / name)
        code, stdout, _ = run(capsys, "bench", str(corpus), "--jobs", "500")
        assert code == 0
        assert f"{tasks}/{tasks} tasks passed" in stdout
        assert InlinePool.sizes == workers

    def test_parallel_jobs(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(CORPUS / "hmap.json", corpus / "hmap.json")
        for name in ("t06_stmt_import_log4j", "t07_stmt_import_localtime"):
            shutil.copytree(CORPUS / name, corpus / name)
        code, stdout, _ = run(capsys, "bench", str(corpus), "--jobs", "2")
        assert code == 0
        assert "2/2 tasks passed" in stdout


def test_run_motivating_script(capsys):
    path = REPO / "scripts" / "run_motivating.py"
    spec = importlib.util.spec_from_file_location("run_motivating", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    hits = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()
            if "\t" in line]
    assert hits == ["M1", "M4"]
