import re
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from cqsearch import minijava as mj
from conftest import CORPUS, REPO
from oracles import parse_by_levels, tokenize_by_lexemes, tokenize_by_scanning

FIG1_SOURCE = """\
class Service {
    /*@pos*/ public CacheConfig foo(Log4jUtils utils) { }
    /*@neg*/ public CacheConfig f2(int utils) { }
    /*@neg*/ public int f3(Log4jUtils utils) { }
}
"""


class TestParse:
    def test_three_methods_with_annotations(self):
        prog = mj.parse(FIG1_SOURCE)
        cls = prog.classes[0]
        assert [m.name for m in cls.methods] == ["foo", "f2", "f3"]
        assert cls.methods[0].annotations == ("pos",)
        assert cls.methods[1].annotations == ("neg",)

    def test_empty_source(self):
        prog = mj.parse("")
        assert prog.imports == [] and prog.classes == []

    def test_two_parameters_in_order(self):
        prog = mj.parse("class A { void f(int a, double b) { } }")
        params = prog.classes[0].methods[0].params
        assert [(p.type_name, p.name) for p in params] == [("int", "a"),
                                                           ("double", "b")]

    def test_imports_and_positions(self):
        prog = mj.parse("import java.time.LocalTime;\nclass A { }")
        assert prog.imports[0].name == "java.time.LocalTime"
        assert prog.classes[0].pos.line == 2

    def test_fields_methods_and_statements(self):
        prog = mj.parse("""
class A extends B {
    public int count = 0;
    int run(int n) {
        double acc = 0.5;
        acc = acc + n;
        helper(acc);
        if (n > 3) { return 1; } else { return 0; }
        for (int i = 0; i < n; i = i + 1) { tick(); }
        return 2;
    }
}
""")
        cls = prog.classes[0]
        assert cls.super_name == "B"
        assert [f.name for f in cls.fields] == ["count"]
        body = cls.methods[0].body
        kinds = [type(s).__name__ for s in body]
        assert kinds == ["DeclStmt", "AssignStmt", "ExprStmt", "IfStmt",
                         "ForStmt", "ReturnStmt"]

    def test_expression_precedence(self):
        prog = mj.parse("class A { int f(boolean a, boolean b, int n) {"
                        " if (a && b || n < 2) { return 1; } return 0; } }")
        cond = prog.classes[0].methods[0].body[0].cond
        assert isinstance(cond, mj.Binary) and cond.op == "||"
        assert cond.left.op == "&&"
        assert cond.right.op == "<"

    def test_stacked_annotations(self):
        prog = mj.parse("class A { /*@pos*/ /*@neg*/ int f() { } }")
        assert prog.classes[0].methods[0].annotations == ("pos", "neg")


def _lexed(tokenize, text):
    """``(kind, value, line, col)`` of every token of ``text``, or the
    ``ParseError`` message, line and column."""
    try:
        return [(t.kind, t.value, *t.pos) for t in tokenize(text)]
    except mj.ParseError as err:
        return ("error", str(err), err.line, err.col)


class TestLexemes:
    """Exact tokens or errors at the edges of the lexical grammar."""

    @pytest.mark.parametrize("text, lexed", [
        ("1.2.3", [("double", "1.2", 1, 1), ("punct", ".", 1, 4),
                   ("int", "3", 1, 5), ("eof", "", 1, 6)]),
        ("5x", [("int", "5", 1, 1), ("ident", "x", 1, 2), ("eof", "", 1, 3)]),
        ("1.x", [("int", "1", 1, 1), ("punct", ".", 1, 2), ("ident", "x", 1, 3),
                 ("eof", "", 1, 4)]),
        ("a\tb", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)]),
        ("a\r\n b", [("ident", "a", 1, 1), ("ident", "b", 2, 2), ("eof", "", 2, 3)]),
        ("/*@pos*/ /*@po*/ x", [("annot", "pos", 1, 1), ("ident", "x", 1, 18),
                                ("eof", "", 1, 19)]),
        ('"a\\\nb" c', [("string", "a\\\nb", 1, 1), ("ident", "c", 2, 4),
                       ("eof", "", 2, 5)]),
        ("a /* \n\n */ b", [("ident", "a", 1, 1), ("ident", "b", 3, 5), ("eof", "", 3, 6)]),
        ("²", [("int", "²", 1, 1), ("eof", "", 1, 2)]),
        ("1²", [("int", "1²", 1, 1), ("eof", "", 1, 3)]),
        ("1.²", [("double", "1.²", 1, 1), ("eof", "", 1, 4)]),
        ("x½ xⅧ", [("ident", "x½", 1, 1), ("ident", "xⅧ", 1, 4), ("eof", "", 1, 6)]),
        ("½", ("error", "1:1: unexpected character '½'", 1, 1)),
        ("x Ⅷ", ("error", "1:3: unexpected character 'Ⅷ'", 1, 3)),
        ("a\n  /* x", ("error", "2:3: unterminated comment", 2, 3)),
        ('x = "ab', ("error", "1:5: unterminated string literal", 1, 5)),
        ('"ab\n"', ("error", "1:1: unterminated string literal", 1, 1)),
        ("x # y", ("error", "1:3: unexpected character '#'", 1, 3)),
        ("", [("eof", "", 1, 1)]),
        ("  ", [("eof", "", 1, 3)]),
        ("// c", [("eof", "", 1, 5)]),
        ("a // c", [("ident", "a", 1, 1), ("eof", "", 1, 7)]),
        ("a\n", [("ident", "a", 1, 1), ("eof", "", 2, 1)]),
        ("a /* x", ("error", "1:3: unterminated comment", 1, 3)),
        ("/*/ x", ("error", "1:1: unterminated comment", 1, 1)),
        ('a "', ("error", "1:3: unterminated string literal", 1, 3)),
        ("/* /*@pos*/ */ x", [("punct", "*", 1, 13), ("punct", "/", 1, 14),
                              ("ident", "x", 1, 16), ("eof", "", 1, 17)]),
        ("/*@posx*/ y", [("ident", "y", 1, 11), ("eof", "", 1, 12)]),
        ('x = "\\"\\"', ("error", "1:5: unterminated string literal", 1, 5)),
        ('"a" "b\n"c"', ("error", "1:5: unterminated string literal", 1, 5)),
    ], ids=["double-then-dot", "int-then-ident", "int-then-dot", "tab", "crlf",
            "annotation", "escaped-newline", "block-comment-newline", "superscript",
            "int-superscript", "double-superscript", "numeric-continues-ident",
            "numeric-start", "letter-number-start", "unterminated-comment",
            "unterminated-string", "newline-in-string", "stray-hash",
            # the ends of input and the comments that the skip group matches
            "empty", "blanks-only", "comment-only", "comment-at-end", "newline-at-end",
            "comment-unterminated-at-end", "comment-closing-overlaps-opening",
            "quote-at-end", "annotation-inside-comment", "annotation-like-comment",
            "escaped-quotes-unclosed", "unclosed-string-closes-on-later-line"])
    def test_exact_tokens_or_error(self, text, lexed):
        assert _lexed(mj.tokenize, text) == lexed

    def test_unclosed_string_is_lexed_once(self):
        # An unclosed string takes the rest of the input as one error token.
        # Lexed as a lone ``"`` instead, each later ``"`` on the line scans
        # to its end again, and the time grows with the square of its length.
        text = 'x = "' + '\\"' * 20_000
        start = time.perf_counter()
        with pytest.raises(mj.ParseError, match="^1:5: unterminated string literal$"):
            mj.tokenize(text)
        assert time.perf_counter() - start < 1.0


class TestParseErrors:
    def test_unsupported_statement(self):
        with pytest.raises(mj.ParseError) as err:
            mj.parse("class A { void f() { while (true) { } } }")
        assert err.value.line == 1

    def test_unterminated_string(self):
        with pytest.raises(mj.ParseError, match="unterminated"):
            mj.parse('class A { void f() { log("oops); } }')

    def test_error_carries_position(self):
        with pytest.raises(mj.ParseError) as err:
            mj.parse("class A {\n  int 5x;\n}")
        assert err.value.line == 2

    def test_comments_are_skipped(self):
        prog = mj.parse("// line comment\n/* block\ncomment */class A { }")
        assert prog.classes[0].name == "A"


def _method_body(stmt: str) -> str:
    return f"class A {{ int f() {{ {stmt} }} }}"


class TestNesting:
    def test_nesting_up_to_the_cap_parses(self):
        # The returned expression is one level, each parenthesis another.
        depth = mj.MAX_NESTING - 1
        src = _method_body("return " + "(" * depth + "1" + ")" * depth + ";")
        node = mj.parse(src).classes[0].methods[0].body[0].value
        assert isinstance(node, mj.Literal)
        with pytest.raises(mj.ParseError, match="nesting deeper"):
            mj.parse(src.replace("(1)", "((1))"))

    @pytest.mark.parametrize("stmt", [
        "return " + "(" * 3000 + "1" + ")" * 3000 + ";",
        "return " + "f(" * 3000 + "1" + ")" * 3000 + ";",
        "return " + "new T(" * 3000 + ")" * 3000 + ";",
        "if (x) " * 3000 + "return 1;",
        "if (x) { " * 3000 + "}" * 3000,
    ], ids=["parentheses", "calls", "constructors", "if-chain", "blocks"])
    def test_deeper_nesting_is_a_parse_error(self, stmt):
        with pytest.raises(mj.ParseError, match="nesting deeper") as err:
            mj.parse(_method_body(stmt))
        assert err.value.line == 1 and err.value.col > 1

    @pytest.mark.parametrize("ops", [["+"], ["*", "+"], ["||", "&&", "==", "<", "+", "*"]],
                             ids=["one-level", "two-levels", "every-level"])
    def test_five_thousand_operand_chains_parse(self, ops):
        # Operands and operators in source order, read back iteratively: the
        # chain's depth must cost no recursion.
        names = [f"a{i}" for i in range(5000)]
        text = names[0] + "".join(f" {ops[i % len(ops)]} {name}"
                                  for i, name in enumerate(names[1:]))
        node = mj.parse(_method_body(f"return {text};")).classes[0].methods[0].body[0].value
        flat, stack = [], [node]
        while stack:
            node = stack.pop()
            if isinstance(node, mj.Binary):
                stack += (node.right, node.op, node.left)
            else:
                flat.append(node if isinstance(node, str) else node.ident)
        assert " ".join(flat) == text

    def test_long_operator_chains_parse(self):
        prog = mj.parse(_method_body("return " + "!" * 3000 + "-x" + " + 1" * 3000 + ";"))
        node = prog.classes[0].methods[0].body[0].value
        assert isinstance(node, mj.Binary) and node.op == "+"
        for _ in range(3000):
            node = node.left
        for op in "!" * 3000 + "-":
            assert isinstance(node, mj.Unary) and node.op == op
            node = node.operand
        assert node == mj.Name("x", node.pos)


# Lexemes of the mini-Java grammar, for inputs that get past the tokenizer.
JAVA_LEXEMES = sorted(mj.KEYWORDS) + [
    "int", "void", "boolean", "String", "A", "B", "x", "f", "{", "}", "(", ")",
    ";", ",", "=", "<", ">", "+", "-", "!", "==", "&&", "||", ".", "/*@pos*/",
    "/*@neg*/", "/* c */", "// c\n", '"s"', '"\\', "1", "2.5", "\n"]


@st.composite
def _damaged_sources(draw):
    """``FIG1_SOURCE`` with a stretch of up to 8 characters replaced by a lexeme."""
    i = draw(st.integers(0, len(FIG1_SOURCE)))
    j = draw(st.integers(i, min(len(FIG1_SOURCE), i + 8)))
    return FIG1_SOURCE[:i] + draw(st.sampled_from(JAVA_LEXEMES + [""])) + FIG1_SOURCE[j:]


# Characters where str.isdigit/isalpha/isalnum and the regex classes \d/\w
# disagree (such as ², ½ and Ⅷ), and other lexemes that abut them.
UNICODE_LEXEMES = ["²", "½", "Ⅷ", "①", "é", "٣", "x", "1", "_", ".", "\\",
                   "\n", "\t", "\r", "\r\n", '"', "/", "*", "/*", "*/", "#",
                   "\f", "\v", "\x80", "\u00a0"]


def _corpus_sources():
    return sorted(CORPUS.glob("*/*.java"))


class TestLexerOracle:
    """``tokenize`` matches the character scanner in ``oracles`` token for
    token and error for error."""

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.text(max_size=60) | _damaged_sources()
           | st.lists(st.sampled_from(JAVA_LEXEMES), max_size=40).map(" ".join)
           | st.text(st.characters(exclude_categories=()), max_size=60)
           | st.lists(st.sampled_from(JAVA_LEXEMES + UNICODE_LEXEMES),
                      max_size=30).map("".join))
    def test_matches_scanner(self, text):
        assert _lexed(mj.tokenize, text) == _lexed(tokenize_by_scanning, text)

    def test_matches_scanner_where_regex_classes_disagree(self):
        chars = [c for c in map(chr, range(sys.maxunicode + 1))
                 if c.isalnum() and not (c.isalpha() or c.isdecimal())]
        assert {"²", "½", "Ⅷ"} <= set(chars)
        for c in chars:
            for text in (c, f"1{c}", f"x{c}", f"1.{c}", f"1.2{c}", f"{c}1",
                         f"{c}x", f"{c}.5", f"a.{c}", f"if.{c}"):
                assert _lexed(mj.tokenize, text) == _lexed(tokenize_by_scanning, text)

    @pytest.mark.parametrize("path", _corpus_sources(), ids=lambda p: p.parent.name)
    def test_matches_scanner_on_corpus(self, path):
        text = path.read_text(encoding="utf-8")
        assert _lexed(mj.tokenize, text) == _lexed(tokenize_by_scanning, text)

    def test_matches_scanner_on_generated_code_base(self):
        sys.path.insert(0, str(REPO))
        from perfbench.gen_codebase import generate
        files = generate(2023, 1000).files
        assert len(files) == 40
        for text in files.values():
            assert _lexed(mj.tokenize, text) == _lexed(tokenize_by_scanning, text)


class TestParseProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.text(max_size=60) | _damaged_sources()
           | st.lists(st.sampled_from(JAVA_LEXEMES), max_size=40).map(" ".join))
    def test_arbitrary_text_raises_only_parse_errors(self, text):
        try:
            mj.parse(text)
        except mj.ParseError:
            pass


# Blanks, line ends and comments that may stand between two tokens.
_GAPS = ["", " ", "  ", "\t", "\n", "\r\n", "\n    ", " // c é\n", "//\n\t",
         " /* a\n b */ ", "/**/", " /*\n\n*/"]
_NAMES = ["a", "b1", "_x", "é", "xⅧ", "名前", "Ω2", "i½", "new_"]
_LITERALS = ["0", "42", "2.5", "true", "false", '"s"', '"a\\"b"', '"\\\\"',
             '"x\\\ny"', '"é ½ //"', '"/* */"']
_BINARY_OPS = ["||", "&&", "==", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/", "%"]


def _operand(draw, depth: int) -> list[str]:
    """Tokens of ``!``/``-`` and a name, a literal, a call, a ``new`` or a
    parenthesised expression; only names and literals at depth 0."""
    tokens = draw(st.lists(st.sampled_from(["!", "-"]), max_size=2))
    kind = draw(st.sampled_from(["name", "literal", "call", "new", "paren"][:5 if depth else 2]))
    if kind == "name" or kind == "literal":
        return tokens + [draw(st.sampled_from(_NAMES if kind == "name" else _LITERALS))]
    if kind == "paren":
        return tokens + ["(", *_expression(draw, depth - 1), ")"]
    tokens += ["new", "T", "("] if kind == "new" else [draw(st.sampled_from(_NAMES)), "("]
    for i in range(draw(st.integers(0, 2))):
        tokens += [","] * (i > 0) + _expression(draw, depth - 1)
    return tokens + [")"]


def _expression(draw, depth: int) -> list[str]:
    tokens = _operand(draw, depth)
    for _ in range(draw(st.integers(0, 4))):
        tokens += [draw(st.sampled_from(_BINARY_OPS)), *_operand(draw, depth)]
    return tokens


@st.composite
def _expression_sources(draw):
    """A method returning a drawn expression, a drawn gap before each token."""
    tokens = ["class", "A", "{", "int", "f", "(", ")", "{", "return",
              *_expression(draw, 2), ";", "}", "}"]
    text = ""
    for token, gap in zip(tokens, draw(st.lists(st.sampled_from(_GAPS), min_size=len(tokens),
                                                max_size=len(tokens)))):
        if not gap and re.match(r"\w\w", text[-1:] + token[:1]) or text[-1:] + gap[:1] == "//":
            gap = " " + gap  # not two words into one, nor "/" and a comment into "//"
        text += gap + token
    return text


def _parsed(parse, text):
    """The ``Program`` of ``text``, or the ``ParseError`` message, line and column."""
    try:
        return parse(text, "a.java")
    except mj.ParseError as err:
        return ("error", str(err), err.line, err.col)


# Sources that fail to lex or to parse, each error at a line and column.
_ERROR_TEXTS = ["½", "x Ⅷ", "a\n  /* x", 'x = "ab', '"ab\n"', "x # y", "a /* x", 'a "',
                "/*/ x", "class A { void f() { while (true) { } } }",
                'class A { void f() { log("oops); } }', "class A {\n  int 5x;\n}",
                "class A {\r\n  int f() { return 1 +; }\n}", "import a.;",
                "class A { int f( { } }", "class A { int x = (1; }", "interface",
                "class A { /*@pos*/ }\n/*@neg*/ int", "class A extends { }",
                "class A { int f() { return " + "(" * 70 + "1" + ")" * 70 + "; } }",
                "class A {\n int f() { for (int i = 0; i < n; i = i + 1 { } }\n}",
                'x = "\\"\\"', 'a "b\n c "d" e']


class TestReplacedFrontend:
    """``tokenize`` and ``parse`` match the lexer and parser they replaced,
    in ``oracles``, token for token, node for node and error for error: the
    lexer with one regex match per lexeme and one ``Token`` per token, and
    the parser over those tokens with one ``expr`` frame per precedence
    level."""

    def assert_matches(self, text):
        lexed = _lexed(mj.tokenize, text)
        assert lexed == _lexed(tokenize_by_lexemes, text)
        parsed = _parsed(mj.parse, text)
        assert parsed == _parsed(parse_by_levels, text)
        return parsed

    @pytest.mark.parametrize("text", _ERROR_TEXTS)
    def test_matches_on_error_texts(self, text):
        parsed = self.assert_matches(text)
        assert parsed[0] == "error" and parsed[1].startswith(f"{parsed[2]}:{parsed[3]}: ")

    @pytest.mark.parametrize("path", _corpus_sources(), ids=lambda p: p.parent.name)
    def test_matches_on_corpus(self, path):
        self.assert_matches(path.read_text(encoding="utf-8"))

    def test_matches_on_generated_code_base(self):
        sys.path.insert(0, str(REPO))
        from perfbench.gen_codebase import generate
        files = generate(2023, 200).files
        assert len(files) == 8
        for text in files.values():
            self.assert_matches(text)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_expression_sources())
    @example("class A { int f() {\n  // c\n  return !-a || b1 && é == xⅧ != 名前 < 1 > 2.5\n"
             "    <= \"a\\\"b\" >= f(x, (y + z) * 3) + new T() - g() * h / i % j;\n"
             "  /* multi\n   line */ } }")
    def test_matches_on_drawn_expressions(self, text):
        self.assert_matches(text)
