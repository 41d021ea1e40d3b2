"""A small Java-like frontend for example snippets.

Covers imports, class/interface declarations with single inheritance, fields,
methods with parameters, and flat method bodies (local declarations,
assignments, calls, if/for with condition expressions, return). Anything else
is a parse error, never silently skipped. The markers /*@pos*/ and /*@neg*/
survive lexing as annotations and attach to the next declaration or statement.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

MODIFIERS = {"public", "private", "protected", "static", "final", "abstract"}
KEYWORDS = {"class", "interface", "extends", "implements", "import", "if",
            "else", "for", "return", "new", "true", "false"} | MODIFIERS
# Deepest nesting of expressions (parentheses, call and constructor
# arguments) and statement blocks the parser descends into; deeper input is
# a ParseError, not an exhausted interpreter stack.
MAX_NESTING = 64


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Pos:
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
    source_name: str = "<source>"

    def merged_with(self, other: "Program") -> "Program":
        return Program(self.imports + other.imports,
                       self.classes + other.classes,
                       f"{self.source_name}+{other.source_name}")


# --- lexer -----------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # ident | keyword | int | double | string | punct | annot | eof
    value: str
    pos: Pos


_PUNCT2 = ("==", "!=", "<=", ">=", "&&", "||")
_PUNCT1 = "(){};,=<>+-*/%!."


def tokenize(src: str, source_name: str = "<source>") -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(src)

    def error(msg):
        raise ParseError(msg, line, col)

    def advance(text: str):
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if src.startswith("//", i):
            end = src.find("\n", i)
            end = n if end < 0 else end
            advance(src[i:end])
            i = end
            continue
        if src.startswith("/*@pos*/", i) or src.startswith("/*@neg*/", i):
            text = src[i:i + 8]
            tokens.append(Token("annot", text[3:6], Pos(line, col)))
            advance(text)
            i += len(text)
            continue
        if src.startswith("/*", i):
            end = src.find("*/", i + 2)
            if end < 0:
                error("unterminated comment")
            advance(src[i:end + 2])
            i = end + 2
            continue
        if ch == '"':
            j = i + 1
            while j < n and src[j] != '"':
                if src[j] == "\n":
                    error("unterminated string literal")
                j += 2 if src[j] == "\\" else 1
            if j >= n:
                error("unterminated string literal")
            text = src[i:j + 1]
            tokens.append(Token("string", text[1:-1], Pos(line, col)))
            advance(text)
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot
                                                  and j + 1 < n and src[j + 1].isdigit())):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            text = src[i:j]
            tokens.append(Token("double" if seen_dot else "int", text, Pos(line, col)))
            advance(text)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            text = src[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, Pos(line, col)))
            advance(text)
            i = j
            continue
        two = src[i:i + 2]
        if two in _PUNCT2:
            tokens.append(Token("punct", two, Pos(line, col)))
            advance(two)
            i += 2
            continue
        if ch in _PUNCT1:
            tokens.append(Token("punct", ch, Pos(line, col)))
            advance(ch)
            i += 1
            continue
        error(f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", Pos(line, col)))
    return tokens


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token], source_name: str):
        self.tokens = tokens
        self.i = 0
        self.source_name = source_name
        self.depth = 0  # open nested expressions and blocks

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.pos.line, tok.pos.col)

    def expect_punct(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.value != value:
            self.error(f"expected {value!r}, got {tok.value!r}")
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

    def accept_keyword(self, value: str) -> bool:
        tok = self.peek()
        if tok.kind == "keyword" and tok.value == value:
            self.next()
            return True
        return False

    def annotations(self) -> tuple[str, ...]:
        marks = []
        while self.peek().kind == "annot":
            marks.append(self.next().value)
        return tuple(marks)

    def modifiers(self) -> tuple[str, ...]:
        mods = []
        while self.peek().kind == "keyword" and self.peek().value in MODIFIERS:
            mods.append(self.next().value)
        return tuple(mods)

    # program := (import | class)*
    def program(self) -> Program:
        prog = Program(source_name=self.source_name)
        while self.peek().kind != "eof":
            ann = self.annotations()
            tok = self.peek()
            if tok.kind == "keyword" and tok.value == "import":
                prog.imports.append(self.import_decl(ann))
            else:
                prog.classes.append(self.class_decl(ann))
        return prog

    def import_decl(self, ann: tuple[str, ...]) -> ImportDecl:
        start = self.next()  # import
        parts = [self.expect_ident("imported name").value]
        while self.peek().kind == "punct" and self.peek().value == ".":
            self.next()
            parts.append(self.expect_ident("imported name").value)
        self.expect_punct(";")
        return ImportDecl(".".join(parts), ann, start.pos)

    def class_decl(self, ann: tuple[str, ...]) -> ClassDecl:
        mods = self.modifiers()
        tok = self.peek()
        if tok.kind != "keyword" or tok.value not in ("class", "interface"):
            self.error(f"expected a declaration, got {tok.value!r}")
        kind = self.next().value
        name = self.expect_ident("class name")
        super_name = None
        if self.accept_keyword("extends") or self.accept_keyword("implements"):
            super_name = self.expect_ident("superclass name").value
        self.expect_punct("{")
        fields: list[FieldDecl] = []
        methods: list[MethodDecl] = []
        while not (self.peek().kind == "punct" and self.peek().value == "}"):
            member_ann = self.annotations()
            member_mods = self.modifiers()
            type_tok = self.expect_ident("member type")
            name_tok = self.expect_ident("member name")
            if self.peek().kind == "punct" and self.peek().value == "(":
                methods.append(self.method_rest(member_mods, type_tok, name_tok, member_ann))
            else:
                fields.append(self.field_rest(member_mods, type_tok, name_tok, member_ann))
        self.expect_punct("}")
        return ClassDecl(kind, mods, name.value, super_name, fields, methods,
                         ann, name.pos)

    def field_rest(self, mods, type_tok, name_tok, ann) -> FieldDecl:
        init = None
        if self.peek().kind == "punct" and self.peek().value == "=":
            self.next()
            init = self.expr()
        self.expect_punct(";")
        return FieldDecl(mods, type_tok.value, name_tok.value, init, ann, name_tok.pos)

    def method_rest(self, mods, type_tok, name_tok, ann) -> MethodDecl:
        self.expect_punct("(")
        params: list[Param] = []
        if not (self.peek().kind == "punct" and self.peek().value == ")"):
            while True:
                p_type = self.expect_ident("parameter type")
                p_name = self.expect_ident("parameter name")
                params.append(Param(p_type.value, p_name.value, p_name.pos))
                if self.peek().kind == "punct" and self.peek().value == ",":
                    self.next()
                    continue
                break
        self.expect_punct(")")
        body: list = []
        if self.peek().kind == "punct" and self.peek().value == ";":
            self.next()
        else:
            self.expect_punct("{")
            while not (self.peek().kind == "punct" and self.peek().value == "}"):
                body.append(self.statement())
            self.expect_punct("}")
        return MethodDecl(mods, type_tok.value, name_tok.value, params, body,
                          ann, name_tok.pos)

    def block(self) -> list:
        self.descend()
        if self.peek().kind == "punct" and self.peek().value == "{":
            self.next()
            stmts = []
            while not (self.peek().kind == "punct" and self.peek().value == "}"):
                stmts.append(self.statement())
            self.expect_punct("}")
        else:
            stmts = [self.statement()]
        self.depth -= 1
        return stmts

    def statement(self):
        ann = self.annotations()
        tok = self.peek()
        if tok.kind == "keyword":
            if tok.value == "if":
                return self.if_stmt(ann)
            if tok.value == "for":
                return self.for_stmt(ann)
            if tok.value == "return":
                self.next()
                value = None
                if not (self.peek().kind == "punct" and self.peek().value == ";"):
                    value = self.expr()
                self.expect_punct(";")
                return ReturnStmt(value, ann, tok.pos)
            self.error(f"unsupported statement {tok.value!r}")
        stmt = self.simple_stmt(ann)
        self.expect_punct(";")
        return stmt

    def simple_stmt(self, ann: tuple[str, ...]):
        """Declaration, assignment, or call, without the trailing semicolon."""
        tok = self.peek()
        if tok.kind != "ident":
            self.error(f"unsupported statement {tok.value!r}")
        nxt = self.peek(1)
        if nxt.kind == "ident":
            type_tok = self.next()
            name_tok = self.next()
            init = None
            if self.peek().kind == "punct" and self.peek().value == "=":
                self.next()
                init = self.expr()
            return DeclStmt(type_tok.value, name_tok.value, init, ann, name_tok.pos)
        if nxt.kind == "punct" and nxt.value == "=":
            name_tok = self.next()
            self.next()
            return AssignStmt(name_tok.value, self.expr(), ann, name_tok.pos)
        if nxt.kind == "punct" and nxt.value == "(":
            return ExprStmt(self.expr(), ann, tok.pos)
        self.error(f"unsupported statement starting at {tok.value!r}")

    def if_stmt(self, ann: tuple[str, ...]) -> IfStmt:
        tok = self.next()  # if
        self.expect_punct("(")
        cond = self.expr()
        self.expect_punct(")")
        then = self.block()
        orelse: list = []
        if self.accept_keyword("else"):
            orelse = self.block()
        return IfStmt(cond, then, orelse, ann, tok.pos)

    def for_stmt(self, ann: tuple[str, ...]) -> ForStmt:
        tok = self.next()  # for
        self.expect_punct("(")
        init = None
        if not (self.peek().kind == "punct" and self.peek().value == ";"):
            init = self.simple_stmt(())
        self.expect_punct(";")
        cond = None
        if not (self.peek().kind == "punct" and self.peek().value == ";"):
            cond = self.expr()
        self.expect_punct(";")
        update = None
        if not (self.peek().kind == "punct" and self.peek().value == ")"):
            update = self.simple_stmt(())
        self.expect_punct(")")
        body = self.block()
        return ForStmt(init, cond, update, body, ann, tok.pos)

    # expressions, lowest precedence first
    _BINARY_LEVELS = (("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="),
                      ("+", "-"), ("*", "/", "%"))

    def expr(self, level: int = 0):
        if level == len(self._BINARY_LEVELS):
            return self.unary()
        if level == 0:
            self.descend()
        node = self.expr(level + 1)
        while (self.peek().kind == "punct"
               and self.peek().value in self._BINARY_LEVELS[level]):
            op = self.next()
            right = self.expr(level + 1)
            node = Binary(op.value, node, right, op.pos)
        if level == 0:
            self.depth -= 1
        return node

    def unary(self):
        ops = []
        while self.peek().kind == "punct" and self.peek().value in ("!", "-"):
            ops.append(self.next())
        node = self.primary()
        for tok in reversed(ops):
            node = Unary(tok.value, node, tok.pos)
        return node

    def primary(self):
        tok = self.peek()
        if tok.kind == "int":
            return Literal("int", self.next().value, tok.pos)
        if tok.kind == "double":
            return Literal("double", self.next().value, tok.pos)
        if tok.kind == "string":
            return Literal("string", self.next().value, tok.pos)
        if tok.kind == "keyword" and tok.value in ("true", "false"):
            return Literal("bool", self.next().value, tok.pos)
        if tok.kind == "keyword" and tok.value == "new":
            self.next()
            type_tok = self.expect_ident("type name")
            self.expect_punct("(")
            args = self.call_args()
            return New(type_tok.value, args, tok.pos)
        if tok.kind == "ident":
            name_tok = self.next()
            if self.peek().kind == "punct" and self.peek().value == "(":
                self.next()
                args = self.call_args()
                return Call(name_tok.value, args, name_tok.pos)
            return Name(name_tok.value, name_tok.pos)
        if tok.kind == "punct" and tok.value == "(":
            self.next()
            node = self.expr()
            self.expect_punct(")")
            return node
        self.error(f"expected an expression, got {tok.value!r}")

    def call_args(self) -> list:
        args = []
        if not (self.peek().kind == "punct" and self.peek().value == ")"):
            while True:
                args.append(self.expr())
                if self.peek().kind == "punct" and self.peek().value == ",":
                    self.next()
                    continue
                break
        self.expect_punct(")")
        return args


def parse(source: str, source_name: str = "<source>") -> Program:
    parser = _Parser(tokenize(source, source_name), source_name)
    prog = parser.program()
    for decl in prog.imports + prog.classes:
        decl.source = source_name
    return prog


def _newlines(text: str) -> str:
    """``text`` with each CR LF and lone CR line end read as LF, as reading
    a file in text mode does."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_files(paths) -> Program:
    """The merged program of the UTF-8 source files ``paths``; a file that
    is not UTF-8 is a ``ParseError`` naming it, at its first bad byte."""
    prog: Program | None = None
    for path in paths:
        data = Path(path).read_bytes()
        try:
            text = _newlines(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            before = _newlines(data[:exc.start].decode("utf-8"))
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}",
                             before.count("\n") + 1,
                             len(before) - before.rfind("\n")) from None
        part = parse(text, source_name=str(path))
        prog = part if prog is None else prog.merged_with(part)
    if prog is None:
        raise ParseError("no input files", 0, 0)
    return prog
