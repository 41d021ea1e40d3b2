"""A small Java-like frontend for example snippets.

Covers imports, class/interface declarations with single inheritance, fields,
methods with parameters, and flat method bodies (local declarations,
assignments, calls, if/for with condition expressions, return). Anything else
is a parse error, never silently skipped. The markers /*@pos*/ and /*@neg*/
survive lexing as annotations and attach to the next declaration or statement.

Lexical grammar (``tokenize``, one regex with a group per lexeme):

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
from dataclasses import dataclass, field
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


# The lexical grammar, one alternative per lexeme, tried in order at each
# offset. A run of blanks, line ends and ``//`` comments is one lexeme, so
# one match, whose line ends ``tokenize`` counts. It reads ASCII;
# ``_AsciiClass`` maps any other character to a stand-in of its class, and
# ``\x80`` stands for one that may go on a word but start no token.
_LEXEME = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]+|//[^\n]*)+)
  | (?P<annot>/\*@(?:pos|neg)\*/)
  | (?P<block>/\*[\s\S]*?\*/)
  | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
  | (?P<open>/\*|")
  | (?P<double>[0-9]+\.[0-9]+)
  | (?P<int>[0-9]+)
  | (?P<word>[A-Za-z_][\w\x80]*)
  | (?P<punct>==|!=|<=|>=|&&|\|\||[(){};,=<>+\-*/%!.])
  | (?P<bad>[\s\S])
""", re.VERBOSE)
_UNTERMINATED = {"/*": "unterminated comment", '"': "unterminated string literal"}


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


def tokenize(src: str) -> list[Token]:
    """The tokens of ``src`` and a closing ``eof`` token; the first lexical
    error is a ``ParseError`` at its line and column."""
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__  # new: no Python-level __new__
    line, line_start = 1, 0  # line_start: offset of the line's first character
    lexemes = src if src.isascii() else src.translate(_AsciiClass())
    for m in _LEXEME.finditer(lexemes):
        kind = m.lastgroup
        start, end = m.span()
        if kind == "skip" or kind == "block":
            if (n := src.count("\n", start, end)):
                line, line_start = line + n, src.rindex("\n", start, end) + 1
            continue
        text = src[start:end]
        pos = new(Pos, (line, start - line_start + 1))
        if kind == "word":
            append(new(Token, ("keyword" if text in KEYWORDS else "ident", text, pos)))
        elif kind == "punct" or kind == "int" or kind == "double":
            append(new(Token, (kind, text, pos)))
        elif kind == "string":
            append(new(Token, ("string", text[1:-1], pos)))
            if (n := text.count("\n")):
                line, line_start = line + n, start + text.rindex("\n") + 1
        elif kind == "annot":
            append(new(Token, ("annot", text[3:6], pos)))
        else:  # open or bad
            raise ParseError(_UNTERMINATED.get(text, f"unexpected character {text!r}"), *pos)
    append(Token("eof", "", Pos(line, len(src) - line_start + 1)))
    return tokens


# --- parser ----------------------------------------------------------------

# Binding strength of each binary operator, loosest first.
_BINARY_LEVEL = {op: level for level, ops in enumerate(
    (("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="), ("+", "-"),
     ("*", "/", "%")), 1) for op in ops}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # open nested expressions and blocks

    def peek(self, offset: int = 0) -> Token:
        """The token ``offset`` ahead of the next; as for ``at``, ``offset``
        may be 1 unless ``eof`` is next."""
        return self.tokens[self.i + offset]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.pos.line, tok.pos.col)

    def at(self, *values: str, ahead: int = 0) -> bool:
        """Whether the token ``ahead`` of the next is one of the punctuation
        marks or keywords ``values``. The tokens end in ``eof``, which
        ``next`` never passes, so ``ahead`` may be 1 unless ``eof`` is next."""
        tok = self.tokens[self.i + ahead]
        return tok.value in values and tok.kind in ("punct", "keyword")

    def accept(self, value: str) -> bool:
        """Consume the punctuation mark or keyword ``value`` if it is next."""
        if self.at(value):
            self.i += 1
            return True
        return False

    def expect(self, value: str) -> Token:
        if not self.at(value):
            self.error(f"expected {value!r}, got {self.peek().value!r}")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.error(f"expected {what}, got {tok.value!r}")
        return self.next()

    def descend(self) -> None:
        """Open one nesting level; ``self.depth -= 1`` closes it."""
        if self.depth == MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1

    def annotations(self) -> tuple[str, ...]:
        marks = []
        while self.peek().kind == "annot":
            marks.append(self.next().value)
        return tuple(marks)

    def modifiers(self) -> tuple[str, ...]:
        mods = []
        while self.at(*MODIFIERS):
            mods.append(self.next().value)
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
        while self.peek().kind != "eof":
            ann = self.annotations()
            if self.at("import"):
                prog.imports.append(self.import_decl(ann))
            else:
                prog.classes.append(self.class_decl(ann))
        return prog

    def import_decl(self, ann: tuple[str, ...]) -> ImportDecl:
        start = self.next()  # import
        parts = [self.expect_ident("imported name").value]
        while self.accept("."):
            parts.append(self.expect_ident("imported name").value)
        self.expect(";")
        return ImportDecl(".".join(parts), ann, start.pos)

    def class_decl(self, ann: tuple[str, ...]) -> ClassDecl:
        mods = self.modifiers()
        if not self.at("class", "interface"):
            self.error(f"expected a declaration, got {self.peek().value!r}")
        kind = self.next().value
        name = self.expect_ident("class name")
        super_name = None
        if self.accept("extends") or self.accept("implements"):
            super_name = self.expect_ident("superclass name").value
        self.expect("{")
        fields: list[FieldDecl] = []
        methods: list[MethodDecl] = []
        while not self.at("}"):
            member_ann = self.annotations()
            member_mods = self.modifiers()
            type_tok = self.expect_ident("member type")
            name_tok = self.expect_ident("member name")
            if self.at("("):
                methods.append(self.method_rest(member_mods, type_tok, name_tok, member_ann))
            else:
                fields.append(self.field_rest(member_mods, type_tok, name_tok, member_ann))
        self.expect("}")
        return ClassDecl(kind, mods, name.value, super_name, fields, methods,
                         ann, name.pos)

    def field_rest(self, mods, type_tok, name_tok, ann) -> FieldDecl:
        init = self.expr() if self.accept("=") else None
        self.expect(";")
        return FieldDecl(mods, type_tok.value, name_tok.value, init, ann, name_tok.pos)

    def method_rest(self, mods, type_tok, name_tok, ann) -> MethodDecl:
        params = self.comma_list(self.param)
        body = [] if self.accept(";") else self.statements()
        return MethodDecl(mods, type_tok.value, name_tok.value, params, body,
                          ann, name_tok.pos)

    def param(self) -> Param:
        p_type = self.expect_ident("parameter type")
        p_name = self.expect_ident("parameter name")
        return Param(p_type.value, p_name.value, p_name.pos)

    def block(self) -> list:
        self.descend()
        stmts = self.statements() if self.at("{") else [self.statement()]
        self.depth -= 1
        return stmts

    def statement(self):
        ann = self.annotations()
        tok = self.peek()
        if self.at("if"):
            return self.if_stmt(ann)
        if self.at("for"):
            return self.for_stmt(ann)
        if self.accept("return"):
            value = None if self.at(";") else self.expr()
            self.expect(";")
            return ReturnStmt(value, ann, tok.pos)
        if tok.kind == "keyword":
            self.error(f"unsupported statement {tok.value!r}")
        stmt = self.simple_stmt(ann)
        self.expect(";")
        return stmt

    def simple_stmt(self, ann: tuple[str, ...]):
        """Declaration, assignment, or call, without the trailing semicolon."""
        tok = self.peek()
        if tok.kind != "ident":
            self.error(f"unsupported statement {tok.value!r}")
        if self.peek(1).kind == "ident":
            type_tok = self.next()
            name_tok = self.next()
            init = self.expr() if self.accept("=") else None
            return DeclStmt(type_tok.value, name_tok.value, init, ann, name_tok.pos)
        if self.at("=", ahead=1):
            name_tok = self.next()
            self.next()
            return AssignStmt(name_tok.value, self.expr(), ann, name_tok.pos)
        if self.at("(", ahead=1):
            return ExprStmt(self.expr(), ann, tok.pos)
        self.error(f"unsupported statement starting at {tok.value!r}")

    def if_stmt(self, ann: tuple[str, ...]) -> IfStmt:
        tok = self.next()  # if
        self.expect("(")
        cond = self.expr()
        self.expect(")")
        then = self.block()
        orelse = self.block() if self.accept("else") else []
        return IfStmt(cond, then, orelse, ann, tok.pos)

    def for_stmt(self, ann: tuple[str, ...]) -> ForStmt:
        tok = self.next()  # for
        self.expect("(")
        init = None if self.at(";") else self.simple_stmt(())
        self.expect(";")
        cond = None if self.at(";") else self.expr()
        self.expect(";")
        update = None if self.at(")") else self.simple_stmt(())
        self.expect(")")
        body = self.block()
        return ForStmt(init, cond, update, body, ann, tok.pos)

    def expr(self):
        self.descend()
        node = self.climb(1)
        self.depth -= 1
        return node

    def climb(self, least: int):
        """Precedence climbing: an operand and the binary operators after it
        that bind at ``least`` or tighter, grouped to the left."""
        node = self.unary()
        tokens = self.tokens
        while True:
            op = tokens[self.i]
            level = _BINARY_LEVEL.get(op.value, 0) if op.kind == "punct" else 0
            if level < least:
                return node
            self.i += 1
            node = Binary(op.value, node, self.climb(level + 1), op.pos)

    def unary(self):
        ops = []
        while self.at("!", "-"):
            ops.append(self.next())
        node = self.primary()
        for tok in reversed(ops):
            node = Unary(tok.value, node, tok.pos)
        return node

    def primary(self):
        tok = self.peek()
        if tok.kind in ("int", "double", "string"):
            return Literal(tok.kind, self.next().value, tok.pos)
        if self.at("true", "false"):
            return Literal("bool", self.next().value, tok.pos)
        if self.accept("new"):
            type_tok = self.expect_ident("type name")
            return New(type_tok.value, self.comma_list(self.expr), tok.pos)
        if tok.kind == "ident":
            self.next()
            if self.at("("):
                return Call(tok.value, self.comma_list(self.expr), tok.pos)
            return Name(tok.value, tok.pos)
        if self.accept("("):
            node = self.expr()
            self.expect(")")
            return node
        self.error(f"expected an expression, got {tok.value!r}")


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
