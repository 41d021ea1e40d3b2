"""Seeded mini-Java code base for the ``search-codebase`` workload.

The generator writes source files that use every construct the frontend
accepts: imports, classes and interfaces with ``extends``/``implements``,
fields with initialisers, methods with parameters, local declarations,
assignments, calls (nested in arguments and conditions), ``new``, ``if``
with and without ``else`` over literal, ``&&``, ``||``, comparison, negated
and call conditions, ``for`` loops and ``return``.

Method, field, parameter and local names come from small pools shared by
every class, as in real code. That reuse is what makes joins fan out: a call
to ``run`` can resolve to any of the many methods named ``run``.

While it writes, the generator keeps its own model of what it wrote and the
source position of every declaration and statement. ``CodeBase.expected``
answers each corpus golden query (and literal variants) from that model,
independently of the parser, the fact extractor and the evaluator, so a
search result can be checked against it for any seed.

This module imports nothing from the program or the test suite.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

IMPORTS = ("org.log4j.Logger", "org.log4j.Level", "org.log4j.helpers.Loader",
           "java.time.LocalTime", "java.time.LocalDate", "java.util.List",
           "java.util.Map", "java.io.File", "org.apache.commons.Strings")
VALUE_TYPES = ("int", "double", "boolean", "String", "long")
REF_TYPES = ("Log4jUtils", "CacheConfig", "List", "Map", "File")
INTERFACES = ("Comparable", "Runnable", "Serializable")
CLASS_STEMS = ("Account", "Ledger", "Cache", "Report", "Task", "Node", "Queue",
               "Parser", "Loader", "Session", "Order", "Billing")
METHOD_NAMES = ("run", "get", "set", "load", "save", "ping", "echo", "tick",
                "tock", "compute", "update", "reset", "check", "apply",
                "build", "close", "open", "flush", "merge", "split", "scan",
                "parse", "render", "size")
FIELD_NAMES = ("cash", "pettycash", "cashFlow", "total", "count", "rate",
               "name", "config", "logger", "items", "limit", "balance")
LOCAL_NAMES = ("a", "b", "n", "i", "tmp", "sum", "acc", "flag", "value", "x")
METHOD_MODIFIERS = ((), ("public",), ("public", "static"), ("private",),
                    ("static",), ("public", "final"), ("static", "final"),
                    ("protected",))
FIELD_MODIFIERS = ((), ("public",), ("private",), ("public", "static"),
                   ("private", "final"), ("protected",))
CLASS_MODIFIERS = ((), ("public",), ("public", "final"), ("abstract",))

# Sizes per class. The defaults give about 23 facts per class.
MAX_FIELDS = 3
MAX_METHODS = 4
MAX_PARAMS = 3
MAX_STATEMENTS = 5

CLASSES_PER_FILE = 25


Pos = tuple  # (file name, line, column), columns counted from 1


@dataclass
class _Method:
    name: str
    ret: str
    modifiers: str
    param_types: list[str]
    pos: Pos
    calls: set[str] = field(default_factory=set)


@dataclass
class _Class:
    name: str
    kind: str
    super_name: str | None
    pos: Pos
    field_types: list[str] = field(default_factory=list)


@dataclass
class CodeBase:
    """Generated sources plus the generator's model of them."""
    files: dict[str, str] = field(default_factory=dict)
    imports: list[tuple[str, Pos]] = field(default_factory=list)
    classes: list[_Class] = field(default_factory=list)
    fields: list[tuple[str, str, str, Pos]] = field(default_factory=list)  # name, type, modifiers
    methods: list[_Method] = field(default_factory=list)
    variables: list[tuple[str, Pos]] = field(default_factory=list)  # type
    ifs: list[tuple[str, Pos]] = field(default_factory=list)  # condition kind

    def expected(self, task: str, literal: str) -> frozenset[Pos]:
        """Positions the golden query of corpus task ``task``, with its
        string literal replaced by ``literal``, must return."""
        if task == "var-local-double":
            return frozenset(p for t, p in self.variables if t == literal)
        if task == "var-cash-suffix":
            return frozenset(p for n, _, _, p in self.fields if n.endswith(literal))
        if task == "var-public-field":
            return frozenset(p for _, _, m, p in self.fields if m == literal)
        if task in ("expr-if-bool-literal", "expr-and-condition"):
            return frozenset(p for k, p in self.ifs if k == literal)
        if task == "stmt-import-log4j":
            return frozenset(p for n, p in self.imports if n.startswith(literal))
        if task == "stmt-import-localtime":
            return frozenset(p for n, p in self.imports if n == literal)
        if task == "method-motivating":
            return frozenset(m.pos for m in self.methods
                             if m.ret == "CacheConfig" and literal in m.param_types)
        if task == "method-param-log4j":
            return frozenset(m.pos for m in self.methods if literal in m.param_types)
        if task == "method-mutual-recursion":
            # M1 calls some name n2, and a method named n2 calls M1's name.
            calls_by_name: dict[str, set[str]] = {}
            for m in self.methods:
                calls_by_name.setdefault(m.name, set()).update(m.calls)
            return frozenset(
                m.pos for m in self.methods
                if any(m.name in calls_by_name.get(n2, ()) for n2 in m.calls))
        if task == "class-has-subclass":
            supers = {c.super_name for c in self.classes}
            return frozenset(c.pos for c in self.classes
                             if c.kind == literal and c.name in supers)
        if task == "class-comparable":
            return frozenset(c.pos for c in self.classes if c.super_name == literal)
        if task == "class-log4j-field":
            return frozenset(c.pos for c in self.classes if literal in c.field_types)
        if task == "method-static":
            return frozenset(m.pos for m in self.methods if m.modifiers.endswith(literal))
        raise KeyError(f"no model answer for task {task!r}")


class _Writer:
    """Source text of one file, tracking the line each appended line gets."""

    def __init__(self, name: str):
        self.name = name
        self.lines: list[str] = []

    def line(self, depth: int, text: str, anchor: str | None = None) -> Pos | None:
        """Append ``text`` indented by ``depth``; return the position of the
        first occurrence of ``anchor`` in it, found as a whole token."""
        indent = "    " * depth
        self.lines.append(indent + text)
        if anchor is None:
            return None
        return (self.name, len(self.lines), len(indent) + _token_index(text, anchor) + 1)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _token_index(text: str, token: str) -> int:
    start = 0
    while True:
        i = text.index(token, start)
        before = text[i - 1] if i else " "
        after = text[i + len(token)] if i + len(token) < len(text) else " "
        if not (before.isalnum() or before == "_") and not (after.isalnum() or after == "_"):
            return i
        start = i + 1


class _Deck:
    """Draws names so that each is used equally often: shuffled rounds
    through the pool. Uneven name counts would make the join fan-out, and
    with it the cost of a search, swing from one seed to the next."""

    def __init__(self, rng: random.Random, names: tuple[str, ...]):
        self.rng = rng
        self.names = names
        self.round: list[str] = []

    def draw(self) -> str:
        if not self.round:
            self.round = list(self.names)
            self.rng.shuffle(self.round)
        return self.round.pop()


class _Generator:
    def __init__(self, rng: random.Random, base: CodeBase):
        self.rng = rng
        self.base = base
        self.method_names = _Deck(rng, METHOD_NAMES)
        self.callees = _Deck(rng, METHOD_NAMES)

    # -- expressions: source text, with the names of the methods it calls ----

    def call(self, depth: int = 0) -> tuple[str, set[str]]:
        rng = self.rng
        callee = self.callees.draw()
        args, calls = [], {callee}
        for _ in range(rng.randint(0, 2)):
            if depth < 1 and rng.random() < 0.25:
                text, inner = self.call(depth + 1)
                args.append(text)
                calls |= inner
            else:
                args.append(self.atom())
        return f"{callee}({', '.join(args)})", calls

    def atom(self) -> str:
        rng = self.rng
        choice = rng.randrange(5)
        if choice == 0:
            return str(rng.randint(0, 99))
        if choice == 1:
            return f"{rng.randint(0, 9)}.{rng.randint(0, 9)}"
        if choice == 2:
            return f'"{rng.choice(FIELD_NAMES)}"'
        if choice == 3:
            return rng.choice(("true", "false"))
        return rng.choice(LOCAL_NAMES)

    def value(self) -> tuple[str, set[str]]:
        rng = self.rng
        choice = rng.randrange(5)
        if choice == 0:
            return self.call()
        if choice == 1:
            return f"new {rng.choice(REF_TYPES)}({self.atom()})", set()
        if choice == 2:
            return (f"{rng.choice(LOCAL_NAMES)} {rng.choice('+-*/%')} "
                    f"{self.atom()}"), set()
        if choice == 3:
            return f"-{rng.choice(LOCAL_NAMES)}", set()
        return self.atom(), set()

    def condition(self) -> tuple[str, str, set[str]]:
        rng = self.rng
        a, b = rng.sample(LOCAL_NAMES, 2)
        choice = rng.randrange(7)
        if choice == 0:
            return rng.choice(("true", "false")), "bool_literal", set()
        if choice == 1:
            return f"{a} && {b}", "and", set()
        if choice == 2:
            return f"{a} && ({b} > {rng.randint(0, 9)})", "and", set()
        if choice == 3:
            return f"{a} || {b}", "or", set()
        if choice == 4:
            op = rng.choice(("==", "!=", "<", ">", "<=", ">="))
            return f"{a} {op} {rng.randint(0, 9)}", "compare", set()
        if choice == 5:
            return f"!{a}", "not", set()
        text, calls = self.call()
        return text, "call", calls

    # -- statements ----------------------------------------------------------

    def statements(self, w: _Writer, depth: int, method: _Method,
                   count: int, nested: bool = True):
        rng = self.rng
        for _ in range(count):
            choice = rng.randrange(8 if nested else 5)
            if choice <= 1:
                typ = rng.choice(VALUE_TYPES + REF_TYPES[:2])
                name = rng.choice(LOCAL_NAMES)
                if rng.random() < 0.7:
                    text, calls = self.value()
                    method.calls |= calls
                    pos = w.line(depth, f"{typ} {name} = {text};", name)
                else:
                    pos = w.line(depth, f"{typ} {name};", name)
                self.base.variables.append((typ, pos))
            elif choice == 2:
                text, calls = self.value()
                method.calls |= calls
                w.line(depth, f"{rng.choice(LOCAL_NAMES)} = {text};")
            elif choice in (3, 4):
                text, calls = self.call()
                method.calls |= calls
                w.line(depth, f"{text};")
            elif choice in (5, 6):
                cond, kind, calls = self.condition()
                method.calls |= calls
                pos = w.line(depth, f"if ({cond}) {{", "if")
                self.base.ifs.append((kind, pos))
                self.statements(w, depth + 1, method, rng.randint(1, 2), nested=False)
                if rng.random() < 0.3:
                    w.line(depth, "} else {")
                    self.statements(w, depth + 1, method, 1, nested=False)
                w.line(depth, "}")
            else:
                var = rng.choice(LOCAL_NAMES)
                bound = rng.randint(1, 9)
                pos = w.line(depth, f"for (int {var} = 0; {var} < {bound}; "
                                    f"{var} = {var} + 1) {{", var)
                self.base.variables.append(("int", pos))
                self.statements(w, depth + 1, method, 1, nested=False)
                w.line(depth, "}")

    # -- declarations --------------------------------------------------------

    def klass(self, w: _Writer, name: str, earlier: list[str]):
        rng, base = self.rng, self.base
        kind = "interface" if rng.random() < 0.1 else "class"
        mods = " ".join(rng.choice(CLASS_MODIFIERS))
        roll = rng.random()
        if earlier and roll < 0.35:
            super_name, clause = rng.choice(earlier), "extends"
        elif roll < 0.55:
            super_name, clause = rng.choice(INTERFACES), "implements"
        else:
            super_name, clause = None, ""
        head = f"{mods} {kind} {name}".strip()
        if super_name:
            head += f" {clause} {super_name}"
        cls = _Class(name, kind, super_name, w.line(0, head + " {", name))
        base.classes.append(cls)
        for _ in range(rng.randint(0, MAX_FIELDS)):
            typ = rng.choice(VALUE_TYPES + REF_TYPES)
            fname = rng.choice(FIELD_NAMES)
            fmods = " ".join(rng.choice(FIELD_MODIFIERS))
            init = f" = {self.atom()}" if rng.random() < 0.3 else ""
            pos = w.line(1, f"{fmods} {typ} {fname}{init};".strip(), fname)
            base.fields.append((fname, typ, fmods, pos))
            cls.field_types.append(typ)
        for _ in range(rng.randint(1, MAX_METHODS)):
            ret = rng.choice(VALUE_TYPES + REF_TYPES + ("void",))
            mname = self.method_names.draw()
            mmods = " ".join(rng.choice(METHOD_MODIFIERS))
            params = [(rng.choice(VALUE_TYPES + REF_TYPES), f"p{i}")
                      for i in range(rng.randint(0, MAX_PARAMS))]
            sig = ", ".join(f"{t} {p}" for t, p in params)
            # The method name is the first whole-token occurrence after the
            # modifiers and return type, which are never method names.
            pos = w.line(1, f"{mmods} {ret} {mname}({sig}) {{".strip(), mname)
            method = _Method(mname, ret, mmods, [t for t, _ in params], pos)
            base.methods.append(method)
            self.statements(w, 2, method, rng.randint(0, MAX_STATEMENTS))
            if rng.random() < 0.5:
                text, calls = self.value()
                method.calls |= calls
                w.line(2, f"return {text};")
            w.line(1, "}")
        w.line(0, "}")


def generate(seed: int, classes: int) -> CodeBase:
    """A code base of ``classes`` classes, split into files of
    ``CLASSES_PER_FILE`` classes, fully determined by ``seed``."""
    rng = random.Random(f"search-codebase/{seed}")
    base = CodeBase()
    names = [f"{rng.choice(CLASS_STEMS)}{i}" for i in range(classes)]
    gen = _Generator(rng, base)
    for f, start in enumerate(range(0, classes, CLASSES_PER_FILE)):
        w = _Writer(f"Unit{f:03d}.java")
        for imp in rng.sample(IMPORTS, rng.randint(1, 3)):
            base.imports.append((imp, w.line(0, f"import {imp};", "import")))
        for i in range(start, min(start + CLASSES_PER_FILE, classes)):
            gen.klass(w, names[i], names[:i])
        base.files[w.name] = w.text()
    return base
