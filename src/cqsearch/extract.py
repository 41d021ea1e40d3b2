"""Fact extraction from parsed snippets into the fixed relational schema.

One row per declaration/statement construct, with Identifier, Type, and
Modifier rows interned by text (one row per distinct name). A declaration's
modifier list is interned as a single space-joined Modifier row. Classes
without an extends/implements clause reference an implicit external "Object"
row whose super is itself; named but undeclared supertypes also get implicit
external rows. Ids are assigned in source order, so identical source yields
byte-identical facts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import minijava as mj
from .core import (FK, PK, STR, AttributeDecl, DomainError, FactBase,
                   PartitionError, Relation, RelationPartition, Schema,
                   make_partition)


class ExtractError(DomainError):
    """Annotations that cannot be mapped onto the requested target relation."""


def extraction_schema() -> Schema:
    pk = lambda: AttributeDecl("id", PK)
    fk = lambda name, target: AttributeDecl(name, FK, target)
    s = lambda name: AttributeDecl(name, STR)
    return Schema({
        "Method": [pk(), fk("idf_id", "Identifier"), fk("ret_type_id", "Type"),
                   fk("mdf_id", "Modifier")],
        "Parameter": [pk(), fk("idf_id", "Identifier"), fk("type_id", "Type"),
                      fk("method_id", "Method")],
        "Field": [pk(), fk("idf_id", "Identifier"), fk("type_id", "Type"),
                  fk("mdf_id", "Modifier"), fk("class_id", "Class")],
        "Variable": [pk(), fk("idf_id", "Identifier"), fk("type_id", "Type"),
                     fk("method_id", "Method")],
        "Class": [pk(), fk("idf_id", "Identifier"), fk("mdf_id", "Modifier"),
                  fk("super_id", "Class"), s("class_kind")],
        "Identifier": [pk(), s("name")],
        "Type": [pk(), s("name")],
        "Modifier": [pk(), s("name")],
        "Call": [pk(), fk("caller_method_id", "Method"),
                 fk("callee_idf_id", "Identifier")],
        "Import": [pk(), s("name")],
        "IfStmt": [pk(), fk("method_id", "Method"), fk("cond_expr_id", "Expr")],
        "Expr": [pk(), s("kind"), fk("method_id", "Method")],
    })


_ID_PREFIX = {
    "Method": "M", "Parameter": "P", "Field": "F", "Variable": "V",
    "Class": "C", "Identifier": "I", "Type": "T", "Modifier": "MDF",
    "Call": "CALL", "Import": "IMP", "IfStmt": "IF", "Expr": "E",
}


def _expr_kind(node) -> str:
    if isinstance(node, mj.Literal):
        return f"{node.kind}_literal"
    if isinstance(node, mj.Name):
        return "name"
    if isinstance(node, mj.Call):
        return "call"
    if isinstance(node, mj.New):
        return "new"
    if isinstance(node, mj.Unary):
        return "not" if node.op == "!" else "neg"
    if isinstance(node, mj.Binary):
        if node.op == "&&":
            return "and"
        if node.op == "||":
            return "or"
        if node.op in ("==", "!=", "<", ">", "<=", ">="):
            return "compare"
        return "arith"
    raise ExtractError(f"unknown expression node {type(node).__name__}")


@dataclass
class _Builder:
    source: str = ""  # file of the import or class being walked
    rows: dict[str, list[tuple]] = field(default_factory=dict)
    interned: dict[tuple[str, str], str] = field(default_factory=dict)
    positions: dict[str, dict] = field(default_factory=dict)
    annotated: list[tuple[str, str, str]] = field(default_factory=list)  # (mark, relation, id)
    counters: dict[str, int] = field(default_factory=dict)

    def new_id(self, relation: str) -> str:
        n = self.counters.get(relation, 0) + 1
        self.counters[relation] = n
        return f"{_ID_PREFIX[relation]}{n}"

    def add(self, relation: str, values: tuple, pos: mj.Pos | None = None) -> str:
        row_id = self.new_id(relation)
        self.rows.setdefault(relation, []).append((row_id,) + values)
        if pos is not None:
            self.positions[row_id] = {"file": self.source, "line": pos.line,
                                      "col": pos.col}
        return row_id

    def intern(self, relation: str, name: str) -> str:
        key = (relation, name)
        got = self.interned.get(key)
        if got is None:
            got = self.add(relation, (name,))
            self.interned[key] = got
        return got

    def identifier(self, name: str) -> str:
        return self.intern("Identifier", name)

    def type_row(self, name: str) -> str:
        return self.intern("Type", name)

    def modifier(self, mods: tuple[str, ...]) -> str:
        return self.intern("Modifier", " ".join(mods))

    def annotate(self, marks: tuple[str, ...], relation: str | None,
                 row_id: str | None, pos: mj.Pos):
        if not marks:
            return
        if relation is None or row_id is None:
            raise ExtractError(
                f"{self.source}:{pos.line}:{pos.col}: annotation on a construct "
                "that produces no example rows")
        for mark in marks:
            self.annotated.append((mark, relation, row_id))


def _walk_calls(builder: _Builder, node, method_id: str):
    """One Call row per call in ``node``, in source order. Iterative: operator
    chains nest as deep as they are long."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, mj.Call):
            callee = builder.identifier(node.callee)
            builder.add("Call", (method_id, callee), node.pos)
            stack.extend(reversed(node.args))
        elif isinstance(node, mj.New):
            stack.extend(reversed(node.args))
        elif isinstance(node, mj.Unary):
            stack.append(node.operand)
        elif isinstance(node, mj.Binary):
            stack += (node.right, node.left)


def _walk_statements(builder: _Builder, stmts, method_id: str):
    for stmt in stmts:
        if isinstance(stmt, mj.DeclStmt):
            row = builder.add("Variable",
                              (builder.identifier(stmt.name),
                               builder.type_row(stmt.type_name), method_id),
                              stmt.pos)
            builder.annotate(stmt.annotations, "Variable", row, stmt.pos)
            if stmt.init is not None:
                _walk_calls(builder, stmt.init, method_id)
        elif isinstance(stmt, mj.AssignStmt):
            builder.annotate(stmt.annotations, None, None, stmt.pos)
            _walk_calls(builder, stmt.value, method_id)
        elif isinstance(stmt, mj.ExprStmt):
            builder.annotate(stmt.annotations, None, None, stmt.pos)
            _walk_calls(builder, stmt.expr, method_id)
        elif isinstance(stmt, mj.IfStmt):
            expr_row = builder.add("Expr", (_expr_kind(stmt.cond), method_id),
                                   stmt.pos)
            _walk_calls(builder, stmt.cond, method_id)
            if_row = builder.add("IfStmt", (method_id, expr_row), stmt.pos)
            builder.annotate(stmt.annotations, "IfStmt", if_row, stmt.pos)
            _walk_statements(builder, stmt.then, method_id)
            _walk_statements(builder, stmt.orelse, method_id)
        elif isinstance(stmt, mj.ForStmt):
            builder.annotate(stmt.annotations, None, None, stmt.pos)
            if stmt.init is not None:
                _walk_statements(builder, [stmt.init], method_id)
            if stmt.cond is not None:
                builder.add("Expr", (_expr_kind(stmt.cond), method_id), stmt.pos)
                _walk_calls(builder, stmt.cond, method_id)
            if stmt.update is not None:
                _walk_statements(builder, [stmt.update], method_id)
            _walk_statements(builder, stmt.body, method_id)
        elif isinstance(stmt, mj.ReturnStmt):
            builder.annotate(stmt.annotations, None, None, stmt.pos)
            if stmt.value is not None:
                _walk_calls(builder, stmt.value, method_id)
        else:
            raise ExtractError(f"unknown statement node {type(stmt).__name__}")


def _class_ref(builder: _Builder, known: dict[str, str], name: str) -> str:
    """The Class row id of ``name``: its declaration's, else an implicit
    external row, made on first use, whose super is the implicit root
    ``Object``, itself its own super. A module-level function, so that no
    closure refers to itself and the builder is freed by reference counting."""
    got = known.get(name)
    if got is None:
        got = known[name] = builder.new_id("Class")
        root = got if name == "Object" else _class_ref(builder, known, "Object")
        builder.rows["Class"].append((got, builder.identifier(name),
                                      builder.modifier(()), root, "external"))
    return got


def build_facts(prog: mj.Program) -> tuple[FactBase, dict[str, dict],
                                           list[tuple[str, str, str]]]:
    """All rows for a program: facts, source positions, annotation records."""
    builder = _Builder()
    for imp in prog.imports:
        builder.source = imp.source
        row = builder.add("Import", (imp.name,), imp.pos)
        builder.annotate(imp.annotations, "Import", row, imp.pos)

    # Class ids first so supertype references can resolve.
    known: dict[str, str] = {}  # class name -> Class row id
    class_rows: dict[str, mj.ClassDecl] = {}
    for cls in prog.classes:
        row_id = builder.new_id("Class")
        known.setdefault(cls.name, row_id)
        class_rows[row_id] = cls
        builder.positions[row_id] = {"file": cls.source,
                                     "line": cls.pos.line, "col": cls.pos.col}

    classes = builder.rows.setdefault("Class", [])
    for row_id, cls in class_rows.items():
        super_ref = _class_ref(builder, known, cls.super_name or "Object")
        classes.append((row_id, builder.identifier(cls.name),
                        builder.modifier(cls.modifiers), super_ref, cls.kind))
        builder.annotate(cls.annotations, "Class", row_id, cls.pos)

    for row_id, cls in class_rows.items():
        builder.source = cls.source
        for fld in cls.fields:
            frow = builder.add("Field",
                               (builder.identifier(fld.name),
                                builder.type_row(fld.type_name),
                                builder.modifier(fld.modifiers), row_id),
                               fld.pos)
            builder.annotate(fld.annotations, "Field", frow, fld.pos)
        for method in cls.methods:
            mrow = builder.add("Method",
                               (builder.identifier(method.name),
                                builder.type_row(method.ret_type),
                                builder.modifier(method.modifiers)),
                               method.pos)
            builder.annotate(method.annotations, "Method", mrow, method.pos)
            for param in method.params:
                builder.add("Parameter",
                            (builder.identifier(param.name),
                             builder.type_row(param.type_name), mrow),
                            param.pos)
            _walk_statements(builder, method.body, mrow)

    schema = extraction_schema()
    relations = [Relation(name, tuple(builder.rows.get(name, ()))) for name in schema]
    return FactBase(schema, relations), builder.positions, builder.annotated


def extract(prog: mj.Program, target: str) -> tuple[FactBase, RelationPartition,
                                                    dict[str, dict]]:
    """Facts plus the target partition from /*@pos*/ and /*@neg*/ markers.

    Unannotated target rows count as negative; the partition must cover the
    whole target relation.
    """
    facts, positions, annotated = build_facts(prog)
    if target not in facts.schema:
        raise ExtractError(f"unknown target relation {target!r}")
    def at(row_id: str) -> str:
        where = positions[row_id]
        return f"{where['file']}:{where['line']}:{where['col']}"

    pos_ids, neg_ids = set(), set()
    for mark, relation, row_id in annotated:
        if relation != target:
            raise ExtractError(
                f"{at(row_id)}: @{mark} annotation on a {relation} construct, "
                f"but the target relation is {target}")
        (pos_ids if mark == "pos" else neg_ids).add(row_id)
    if both := pos_ids & neg_ids:
        raise PartitionError("rows annotated both @pos and @neg: " + ", ".join(
            f"{row_id} at {at(row_id)}" for row_id in sorted(both)))
    if not pos_ids:
        raise ExtractError(f"{', '.join(prog.sources)}: no @pos annotations "
                           "for the target relation")
    part = make_partition(target, pos_ids, facts)
    return facts, part, positions


def facts_to_doc(facts: FactBase) -> dict:
    """The facts.json document of ``facts``: each relation's rows, which are
    distinct, sorted."""
    return {name: sorted([list(t) for t in facts.matching(name, ())])
            for name in facts.schema}


def positions_to_doc(positions: dict[str, dict]) -> dict:
    """The positions.json document of ``positions``, one column per field:
    the sorted file table ``files``, the sorted row ids ``rows``, and per row
    its file's index into ``files``, its line and its column."""
    files = sorted({where["file"] for where in positions.values()})
    index = {name: i for i, name in enumerate(files)}
    rows = sorted(positions)
    wheres = [positions[row_id] for row_id in rows]
    return {"files": files, "rows": rows,
            "file": [index[where["file"]] for where in wheres],
            "line": [where["line"] for where in wheres],
            "col": [where["col"] for where in wheres]}
