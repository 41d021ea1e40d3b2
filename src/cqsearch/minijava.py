"""A small Java-like frontend for example snippets.

Covers imports, class/interface declarations with single inheritance, fields,
methods with parameters, and flat method bodies (local declarations,
assignments, calls, if/for with condition expressions, return). Anything else
is a parse error, never silently skipped. The markers /*@pos*/ and /*@neg*/
survive lexing as annotations and attach to the next declaration or statement.

``tokenize`` matches one regex, ``(skip)(token)``, back to back over the
source, classifies each distinct token text once, and returns the tokens
as columns (``Tokens``): kinds, values and start offsets. A token's line
and column are found from its offset only when a node or an error keeps
them. The parser reads the columns by token index.

Lexical grammar:

- blanks are space, tab and CR, and each counts one column; only LF ends a
  line. ``//`` comments run to the line end and ``/* */`` comments to the
  first ``*/``; an unterminated one is an error at its ``/*``.
- a string is ``"`` to the next unescaped ``"`` on the same line; a
  backslash escapes any character, a line end included. Its value is the
  raw text between the quotes.
- a number is a run of ``str.isdigit`` characters, with at most one ``.``
  between two of them (``1.2.3`` is ``1.2`` ``.`` ``3``); with a dot it is a
  double, else an int. So ``²`` is an int and ``1²`` one int.
- a word starts with a ``str.isalpha`` character or ``_`` and goes on over
  ``str.isalnum`` characters and ``_``; a keyword is a word in ``KEYWORDS``.
  ``½`` or ``Ⅷ`` may go on a word but start no token.
- punctuation is ``== != <= >= && ||`` or one of ``(){};,=<>+-*/%!.``.

Any other character is an ``unexpected character`` error at its position.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import add
from typing import NamedTuple

from .core import DomainError, read_input

MODIFIERS = {"public", "private", "protected", "static", "final", "abstract"}
KEYWORDS = {"class", "interface", "extends", "implements", "import", "if",
            "else", "for", "return", "new", "true", "false"} | MODIFIERS
# Deepest nesting of expressions (parentheses, call and constructor
# arguments) and statement blocks the parser descends into; deeper input is
# a ParseError, not an exhausted interpreter stack.
MAX_NESTING = 64


class ParseError(DomainError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Pos(NamedTuple):
    line: int
    col: int


# --- AST -------------------------------------------------------------------

@dataclass
class Literal:
    kind: str  # int | double | bool | string
    text: str
    pos: Pos


@dataclass
class Name:
    ident: str
    pos: Pos


@dataclass
class Call:
    callee: str
    args: list
    pos: Pos


@dataclass
class New:
    type_name: str
    args: list
    pos: Pos


@dataclass
class Unary:
    op: str
    operand: object
    pos: Pos


@dataclass
class Binary:
    op: str
    left: object
    right: object
    pos: Pos


@dataclass
class DeclStmt:
    type_name: str
    name: str
    init: object | None
    annotations: tuple[str, ...]
    pos: Pos


@dataclass
class AssignStmt:
    name: str
    value: object
    annotations: tuple[str, ...]
    pos: Pos


@dataclass
class ExprStmt:
    expr: object
    annotations: tuple[str, ...]
    pos: Pos


@dataclass
class IfStmt:
    cond: object
    then: list
    orelse: list
    annotations: tuple[str, ...]
    pos: Pos


@dataclass
class ForStmt:
    init: object | None
    cond: object | None
    update: object | None
    body: list
    annotations: tuple[str, ...]
    pos: Pos


@dataclass
class ReturnStmt:
    value: object | None
    annotations: tuple[str, ...]
    pos: Pos


@dataclass
class Param:
    type_name: str
    name: str
    pos: Pos


@dataclass
class FieldDecl:
    modifiers: tuple[str, ...]
    type_name: str
    name: str
    init: object | None
    annotations: tuple[str, ...]
    pos: Pos


@dataclass
class MethodDecl:
    modifiers: tuple[str, ...]
    ret_type: str
    name: str
    params: list[Param]
    body: list
    annotations: tuple[str, ...]
    pos: Pos


@dataclass
class ClassDecl:
    kind: str  # class | interface
    modifiers: tuple[str, ...]
    name: str
    super_name: str | None
    fields: list[FieldDecl]
    methods: list[MethodDecl]
    annotations: tuple[str, ...]
    pos: Pos
    source: str = "<source>"


@dataclass
class ImportDecl:
    name: str
    annotations: tuple[str, ...]
    pos: Pos
    source: str = "<source>"


@dataclass
class Program:
    imports: list[ImportDecl] = field(default_factory=list)
    classes: list[ClassDecl] = field(default_factory=list)
    sources: list[str] = field(default_factory=list)  # the files it was parsed from


# --- lexer -----------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # ident | keyword | int | double | string | punct | annot | eof
    value: str
    pos: Pos


# The lexical grammar as two groups, ``(skip)(token)``, matched back to back
# from the start: a run of blanks, line ends and comments (a ``/* */``
# comment that is not an annotation), then one token. A token is an
# annotation, a string, an unterminated ``/*`` or ``"`` (with the rest of
# the input, so that no later ``/*`` or ``"`` scans to the end again), a
# number, a word, a punctuation mark, any other character, or the empty
# match at the end, which stops the skip group from giving back text there.
# ``re`` of Python 3.10 has no atomic groups or possessive quantifiers, so
# the token group always matching is what keeps the skip group from
# backtracking. It reads ASCII; ``_AsciiClass`` maps any other character to
# a stand-in of its class, and ``\x80`` stands for one that may go on a word
# but start no token.
_STRING = re.compile(r'"(?:[^"\\\n]|\\[\s\S])*"')  # a closed string literal
_LEXEME = re.compile(r"""
    ((?:[ \t\r\n]+|//[^\n]*|/\*(?!@(?:pos|neg)\*/)[\s\S]*?\*/)*)
    ( /\*@(?:pos|neg)\*/
    | """ + _STRING.pattern + r"""
    | /\*[\s\S]*|"[\s\S]*
    | [0-9]+\.[0-9]+|[0-9]+
    | [A-Za-z_][\w\x80]*
    | ==|!=|<=|>=|&&|\|\||[(){};,=<>+\-*/%!.]
    | [\s\S]|\Z )
""", re.VERBOSE)
_UNTERMINATED = {"/*": "unterminated comment", '"': "unterminated string literal"}
_PUNCT = {"==", "!=", "<=", ">=", "&&", "||", *"(){};,=<>+-*/%!."}
_MARKS = ("punct", "keyword")  # the kinds whose values ``_Parser.at`` and ``accept`` match


class _AsciiClass(dict):
    """A ``str.translate`` table, filled in as characters are met: ASCII is
    itself, and any other character a digit, a letter, ``\x80`` (other
    ``str.isalnum``) or ``#`` (unexpected), as ``str`` classes it."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        self[code] = ch if ch.isascii() else (
            "0" if ch.isdigit() else "a" if ch.isalpha()
            else "\x80" if ch.isalnum() else "#")
        return self[code]


class _Lexicon(dict):
    """Token text -> ``(kind, value)``, each distinct text classified once,
    by its ``table`` stand-in. A lexical error is the kind ``error`` with the
    message as its value."""

    def __init__(self, table: _AsciiClass):
        super().__init__()
        self.table = table

    def __missing__(self, text: str) -> tuple[str, str]:
        lexeme = text if text.isascii() else text.translate(self.table)
        first = lexeme[:1]
        if not first:
            entry = ("eof", "")
        elif first == '"':
            entry = (("string", text[1:-1]) if _STRING.fullmatch(lexeme)
                     else ("error", _UNTERMINATED['"']))
        elif lexeme.startswith("/*"):
            entry = (("annot", text[3:6]) if text in ("/*@pos*/", "/*@neg*/")
                     else ("error", _UNTERMINATED["/*"]))
        elif first.isdigit():
            entry = ("double" if "." in text else "int", text)
        elif first.isalpha() or first == "_":
            entry = ("keyword" if text in KEYWORDS else "ident", text)
        elif lexeme in _PUNCT:
            entry = ("punct", text)
        else:
            entry = ("error", f"unexpected character {text!r}")
        self[text] = entry
        return entry


class Tokens(Sequence):
    """The tokens of one source as columns, the last an ``eof``: ``kinds``,
    ``values`` and ``starts``, each token's offset in the source. ``pos``
    finds a token's line and column when asked; indexing and iterating yield
    ``Token``s."""

    __slots__ = ("kinds", "values", "starts", "_src", "_lines")

    def __init__(self, src: str, kinds, values, starts):
        self.kinds, self.values, self.starts = kinds, values, starts
        self._src = src
        self._lines = None  # offset of each line's first character, when asked

    def pos(self, i: int) -> Pos:
        lines = self._lines
        if lines is None:  # a line ends at each LF, in a string or comment too
            lines = self._lines = [0, *accumulate(map((1).__add__,
                                                      map(len, self._src.split("\n"))))]
        start = self.starts[i]
        line = bisect_right(lines, start)
        return tuple.__new__(Pos, (line, start - lines[line - 1] + 1))

    def __getitem__(self, i: int) -> Token:
        return Token(self.kinds[i], self.values[i], self.pos(i))

    def __len__(self) -> int:
        return len(self.kinds)


def tokenize(src: str) -> Tokens:
    """The tokens of ``src`` and a closing ``eof`` token; the first lexical
    error is a ``ParseError`` at its line and column."""
    table = _AsciiClass()
    lexemes = src if src.isascii() else src.translate(table)
    pairs = _LEXEME.findall(lexemes)  # the last token is the empty one at the end
    if len(pairs) > 1 and not pairs[-2][1]:
        pairs.pop()  # input ending in a skip run matches the end twice
    # Each pair's skip run ends where its token starts.
    starts = list(accumulate(map(len, chain.from_iterable(pairs))))[::2]
    _, texts = zip(*pairs)
    if lexemes is not src:  # the texts are the stand-ins; the values are the source's
        texts = list(map(src.__getitem__, map(slice, starts, map(add, starts, map(len, texts)))))
    kinds, values = zip(*map(_Lexicon(table).__getitem__, texts))
    tokens = Tokens(src, kinds, values, starts)
    if "error" in kinds:
        i = kinds.index("error")
        raise ParseError(values[i], *tokens.pos(i))
    return tokens


# --- parser ----------------------------------------------------------------

# Binding strength of each binary operator, loosest first.
_BINARY_LEVEL = {op: level for level, ops in enumerate(
    (("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="), ("+", "-"),
     ("*", "/", "%")), 1) for op in ops}


class _Parser:
    """Recursive descent over the columns of ``Tokens``. A token is its
    index ``i``: ``kinds[i]``, ``values[i]`` and, for a node or an error that
    keeps it, ``pos(i)``."""

    def __init__(self, tokens: Tokens):
        self.kinds, self.values, self.pos = tokens.kinds, tokens.values, tokens.pos
        self.i = 0
        self.depth = 0  # open nested expressions and blocks

    def next(self) -> int:
        """The next token, consumed unless it is ``eof``."""
        i = self.i
        if self.kinds[i] != "eof":
            self.i = i + 1
        return i

    def error(self, msg: str):
        """A ``ParseError`` at the next token."""
        raise ParseError(msg, *self.pos(self.i))

    def at(self, *values: str, ahead: int = 0) -> bool:
        """Whether the token ``ahead`` of the next is one of the punctuation
        marks or keywords ``values``. The tokens end in ``eof``, which
        ``next`` never passes, so ``ahead`` may be 1 unless ``eof`` is next."""
        i = self.i + ahead
        return self.values[i] in values and self.kinds[i] in _MARKS

    def accept(self, value: str) -> bool:
        """Consume the punctuation mark or keyword ``value`` if it is next."""
        i = self.i
        if self.values[i] == value and self.kinds[i] in _MARKS:
            self.i = i + 1
            return True
        return False

    def expect(self, value: str) -> None:
        if not self.accept(value):
            self.error(f"expected {value!r}, got {self.values[self.i]!r}")

    def expect_ident(self, what: str = "identifier") -> int:
        """The next token, consumed; an error unless it is an identifier."""
        i = self.i
        if self.kinds[i] != "ident":
            self.error(f"expected {what}, got {self.values[i]!r}")
        self.i = i + 1
        return i

    def descend(self) -> None:
        """Open one nesting level; ``self.depth -= 1`` closes it."""
        if self.depth == MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1

    def annotations(self) -> tuple[str, ...]:
        marks = []
        while self.kinds[self.i] == "annot":
            marks.append(self.values[self.next()])
        return tuple(marks)

    def modifiers(self) -> tuple[str, ...]:
        mods = []
        while self.at(*MODIFIERS):
            mods.append(self.values[self.next()])
        return tuple(mods)

    def comma_list(self, item) -> list:
        """``(`` item ``,`` … ``)``, the items as ``item()`` parses them."""
        self.expect("(")
        items = []
        if not self.at(")"):
            items.append(item())
            while self.accept(","):
                items.append(item())
        self.expect(")")
        return items

    def statements(self) -> list:
        """``{`` statement … ``}``"""
        self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.statement())
        self.expect("}")
        return stmts

    # program := (import | class)*
    def program(self) -> Program:
        prog = Program()
        while self.kinds[self.i] != "eof":
            ann = self.annotations()
            if self.at("import"):
                prog.imports.append(self.import_decl(ann))
            else:
                prog.classes.append(self.class_decl(ann))
        return prog

    def import_decl(self, ann: tuple[str, ...]) -> ImportDecl:
        start = self.next()  # import
        values = self.values
        parts = [values[self.expect_ident("imported name")]]
        while self.accept("."):
            parts.append(values[self.expect_ident("imported name")])
        self.expect(";")
        return ImportDecl(".".join(parts), ann, self.pos(start))

    def class_decl(self, ann: tuple[str, ...]) -> ClassDecl:
        values = self.values
        mods = self.modifiers()
        if not self.at("class", "interface"):
            self.error(f"expected a declaration, got {values[self.i]!r}")
        kind = values[self.next()]
        name = self.expect_ident("class name")
        super_name = None
        if self.accept("extends") or self.accept("implements"):
            super_name = values[self.expect_ident("superclass name")]
        self.expect("{")
        fields: list[FieldDecl] = []
        methods: list[MethodDecl] = []
        while not self.at("}"):
            member_ann = self.annotations()
            member_mods = self.modifiers()
            type_name = values[self.expect_ident("member type")]
            member = self.expect_ident("member name")
            if self.at("("):
                methods.append(self.method_rest(member_mods, type_name, member, member_ann))
            else:
                fields.append(self.field_rest(member_mods, type_name, member, member_ann))
        self.expect("}")
        return ClassDecl(kind, mods, values[name], super_name, fields, methods,
                         ann, self.pos(name))

    def field_rest(self, mods, type_name, name, ann) -> FieldDecl:
        init = self.expr() if self.accept("=") else None
        self.expect(";")
        return FieldDecl(mods, type_name, self.values[name], init, ann, self.pos(name))

    def method_rest(self, mods, type_name, name, ann) -> MethodDecl:
        params = self.comma_list(self.param)
        body = [] if self.accept(";") else self.statements()
        return MethodDecl(mods, type_name, self.values[name], params, body,
                          ann, self.pos(name))

    def param(self) -> Param:
        p_type = self.values[self.expect_ident("parameter type")]
        p_name = self.expect_ident("parameter name")
        return Param(p_type, self.values[p_name], self.pos(p_name))

    def block(self) -> list:
        self.descend()
        stmts = self.statements() if self.at("{") else [self.statement()]
        self.depth -= 1
        return stmts

    def statement(self):
        ann = self.annotations()
        start = self.i
        if self.kinds[start] == "keyword":
            keyword = self.values[start]
            if keyword == "if":
                return self.if_stmt(ann)
            if keyword == "for":
                return self.for_stmt(ann)
            if keyword != "return":
                self.error(f"unsupported statement {keyword!r}")
            self.i += 1
            value = None if self.at(";") else self.expr()
            self.expect(";")
            return ReturnStmt(value, ann, self.pos(start))
        stmt = self.simple_stmt(ann)
        self.expect(";")
        return stmt

    def simple_stmt(self, ann: tuple[str, ...]):
        """Declaration, assignment, or call, without the trailing semicolon."""
        i, kinds, values = self.i, self.kinds, self.values
        if kinds[i] != "ident":
            self.error(f"unsupported statement {values[i]!r}")
        if kinds[i + 1] == "ident":
            self.i = i + 2
            init = self.expr() if self.accept("=") else None
            return DeclStmt(values[i], values[i + 1], init, ann, self.pos(i + 1))
        if self.at("=", ahead=1):
            self.i = i + 2
            return AssignStmt(values[i], self.expr(), ann, self.pos(i))
        if self.at("(", ahead=1):
            return ExprStmt(self.expr(), ann, self.pos(i))
        self.error(f"unsupported statement starting at {values[i]!r}")

    def if_stmt(self, ann: tuple[str, ...]) -> IfStmt:
        start = self.next()  # if
        self.expect("(")
        cond = self.expr()
        self.expect(")")
        then = self.block()
        orelse = self.block() if self.accept("else") else []
        return IfStmt(cond, then, orelse, ann, self.pos(start))

    def for_stmt(self, ann: tuple[str, ...]) -> ForStmt:
        start = self.next()  # for
        self.expect("(")
        init = None if self.at(";") else self.simple_stmt(())
        self.expect(";")
        cond = None if self.at(";") else self.expr()
        self.expect(";")
        update = None if self.at(")") else self.simple_stmt(())
        self.expect(")")
        body = self.block()
        return ForStmt(init, cond, update, body, ann, self.pos(start))

    def expr(self):
        self.descend()
        node = self.climb(1)
        self.depth -= 1
        return node

    def climb(self, least: int):
        """Precedence climbing: an operand and the binary operators after it
        that bind at ``least`` or tighter, grouped to the left."""
        node = self.unary()
        kinds, values = self.kinds, self.values
        while True:
            i = self.i
            level = _BINARY_LEVEL.get(values[i], 0) if kinds[i] == "punct" else 0
            if level < least:
                return node
            self.i = i + 1
            node = Binary(values[i], node, self.climb(level + 1), self.pos(i))

    def unary(self):
        ops = []
        while self.at("!", "-"):
            ops.append(self.next())
        node = self.primary()
        for i in reversed(ops):
            node = Unary(self.values[i], node, self.pos(i))
        return node

    def primary(self):
        i, values = self.i, self.values
        kind = self.kinds[i]
        if kind == "ident":
            self.i = i + 1
            if self.at("("):
                return Call(values[i], self.comma_list(self.expr), self.pos(i))
            return Name(values[i], self.pos(i))
        if kind in ("int", "double", "string"):
            self.i = i + 1
            return Literal(kind, values[i], self.pos(i))
        if self.at("true", "false"):
            self.i = i + 1
            return Literal("bool", values[i], self.pos(i))
        if self.accept("new"):
            type_name = values[self.expect_ident("type name")]
            return New(type_name, self.comma_list(self.expr), self.pos(i))
        if self.accept("("):
            node = self.expr()
            self.expect(")")
            return node
        self.error(f"expected an expression, got {values[i]!r}")


def parse(source: str, source_name: str = "<source>") -> Program:
    prog = _Parser(tokenize(source)).program()
    for decl in prog.imports + prog.classes:
        decl.source = source_name
    prog.sources = [source_name]
    return prog


def parse_files(paths) -> Program:
    """The merged program of the source files ``paths``, each read by
    ``read_input``, so that an error names its file."""
    parts = [read_input(path, lambda text: parse(text, str(path))) for path in paths]
    if not parts:
        raise ParseError("no input files", 0, 0)
    return Program([d for p in parts for d in p.imports],
                   [c for p in parts for c in p.classes],
                   [name for p in parts for name in p.sources])
