"""Single-rule Datalog rendering and parsing of query graphs.

A graph renders as one rule: the head projects every attribute of node 0,
the body has one relation atom per node in node order, equality edges
become shared variables (``query.variables``, class i named ``V{i}``), and
string constraints become str_<predicate>(Var, "literal") atoms in the
graph's ``str_edges`` order.
Parsing inverts this: the i-th relation atom is node i, and each shared
variable becomes the primary-key/foreign-key equality edges of a fixed
spanning of its class of slots.
"""
from __future__ import annotations

import re

from .core import FK, STR, DomainError, Schema, line_col
from .query import PREDICATES, QueryGraph, escaped, variables


class DatalogError(DomainError):
    """Rule text that does not describe a legal conjunctive query."""


def render_datalog(g: QueryGraph, schema: Schema) -> str:
    names = [[f"V{v}" for v in node] for node in variables(g, schema)]
    body = [f"{rel}({', '.join(args)})" for rel, args in zip(g.nodes, names)]
    body += [f'str_{pred}({names[node][schema.attr_pos(g.nodes[node], attr)]}, '
             f'"{escaped(literal)}")' for node, attr, pred, literal in g.str_edges]
    return f"out({', '.join(names[0])}) :- {', '.join(body)}."


# A comment runs from '#' to the end of the line; a '#' inside a string
# literal is matched as part of the literal first. Any other character that
# is not white space is ``bad``.
_TOKEN = re.compile(r'''\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)
                          |(?P<str>"(?:[^"\\]|\\.)*")
                          |(?P<punct>:-|[(),.])
                          |(?P<comment>\#[^\n]*)
                          |(?P<bad>\S)
                          )''', re.VERBOSE)


def _error(text: str, offset: int, message: str) -> DatalogError:
    return DatalogError(f"{line_col(text, offset)}: {message}")


def _tokenize(text: str):
    """(kind, value, offset of the first character) per token, then an end token."""
    out = []
    for m in _TOKEN.finditer(text):
        kind, at = m.lastgroup, m.start(m.lastgroup)
        if kind == "bad":
            raise _error(text, at, f"cannot tokenize near {text[at:at + 20]!r}")
        if kind != "comment":
            value = re.sub(r"\\(.)", r"\1", m[kind][1:-1]) if kind == "str" else m[kind]
            out.append((kind, value, at))
    return out + [("punct", "<end>", len(text))]


def _parse_atoms(text: str):
    """(name, [(kind, value, offset) per argument], offset of the name) per atom."""
    tokens = _tokenize(text)
    i = 0

    def expect(kind, value=None):
        nonlocal i
        got_kind, got, at = tokens[i]
        if got_kind != kind or (value is not None and got != value):
            raise _error(text, at, f"expected {value or kind}, got {got!r}")
        i += 1
        return got

    def comma_list(item):
        nonlocal i
        items = [item()]
        while tokens[i][:2] == ("punct", ","):
            i += 1
            items.append(item())
        return items

    def argument():
        nonlocal i
        kind, value, at = tokens[i]
        if kind not in ("name", "str"):
            raise _error(text, at, f"expected an argument, got {value!r}")
        i += 1
        return kind, value, at

    def atom():
        at = tokens[i][2]
        name = expect("name")
        expect("punct", "(")
        args = comma_list(argument)
        expect("punct", ")")
        return name, args, at

    head = atom()
    expect("punct", ":-")
    atoms = [head] + comma_list(atom)
    expect("punct", ".")
    if i != len(tokens) - 1:
        raise _error(text, tokens[i][2], "trailing input after the rule")
    return atoms


def parse_datalog(text: str, schema: Schema) -> QueryGraph:
    """The rule's query graph, which the schema licenses (``check_graph``):
    node i is the i-th relation atom, and its string constraints are sorted.
    Every error is a ``DatalogError`` at a ``line:col``: a syntax error at
    the offending token; an atom that names no relation or does not fit it
    at the atom's name; a variable no pk/fk chain can express at its first
    occurrence in a relation atom; a string variable that is unbound, joins
    relations, names no string attribute or is constrained twice at the
    offending ``str_*`` atom; a rule with no relation atom at its first body
    atom."""
    atoms = _parse_atoms(text)
    if atoms[0][0] != "out":
        raise _error(text, atoms[0][2], "rule must start with an out(...) head")
    head_args = atoms[0][1]
    rel_atoms = []
    str_atoms = []
    for name, args, at in atoms[1:]:
        if name.startswith("str_"):
            pred = name[4:]
            if pred not in PREDICATES:
                raise _error(text, at, f"unknown string predicate {name!r}")
            if len(args) != 2 or args[0][0] != "name" or args[1][0] != "str":
                raise _error(text, at, f"{name} expects (Variable, \"literal\")")
            str_atoms.append((pred, args[0][1], args[1][1], at))
        else:
            if name not in schema:
                raise _error(text, at, f"unknown relation {name!r}")
            if any(kind != "name" for kind, _, _ in args):
                raise _error(text, at, f"{name}: literals in relation atoms are not supported")
            if len(args) != len(schema[name]):
                raise _error(text, at, f"{name} has arity {len(schema[name])}, "
                                       f"got {len(args)} arguments")
            rel_atoms.append((name, [v for _, v, _ in args], [a for _, _, a in args]))
    if not rel_atoms:
        raise _error(text, atoms[1][2], "rule needs at least one relation atom")
    if [v for _, v, _ in head_args] != rel_atoms[0][1] \
            or any(k != "name" for k, _, _ in head_args):
        raise _error(text, atoms[0][2], "head must project the first body atom's variables")

    slots_by_var: dict[str, list[tuple[int, int]]] = {}
    for idx, (_, vars_, _) in enumerate(rel_atoms):
        for pos, var in enumerate(vars_):
            slots_by_var.setdefault(var, []).append((idx, pos))

    # A class of two or more slots is expressible when its key slots all
    # belong to one relation, every other slot is a foreign key into it, and
    # two key slots have a foreign key to meet through. It is spanned by an
    # edge from its least foreign key to every key slot and one from every
    # other foreign key to its least key slot.
    eq_edges = set()
    for var in sorted(slots_by_var):
        slots = slots_by_var[var]
        if len(slots) == 1:
            continue
        keys = [(i, pos) for i, pos in slots if pos == 0]
        fks = [(i, pos) for i, pos in slots if pos != 0]
        keyed = {rel_atoms[i][0] for i, _ in keys}
        if len(keyed) != 1 or (len(keys) > 1 and not fks) or any(
                schema[rel_atoms[i][0]][pos].kind != FK
                or schema[rel_atoms[i][0]][pos].target not in keyed for i, pos in fks):
            first, pos = slots[0]
            raise _error(text, rel_atoms[first][2][pos], f"variable {var!r} equates "
                         "attributes that no pk/fk chain can express")
        for (fi, fp), (pi, _) in [(fks[0], k) for k in keys] + [(f, keys[0]) for f in fks[1:]]:
            eq_edges.add((fi, pi, schema[rel_atoms[fi][0]][fp].name))

    str_edges = []
    for pred, var, literal, at in str_atoms:
        slots = slots_by_var.get(var)
        if not slots:
            raise _error(text, at, f"string variable {var!r} is not bound by any atom")
        if len(slots) != 1:
            raise _error(text, at, f"string variable {var!r} cannot also join relations")
        idx, pos = slots[0]
        rel = rel_atoms[idx][0]
        if schema[rel][pos].kind != STR:
            raise _error(text, at, f"{rel} argument {pos} is not a string attribute")
        attr = schema[rel][pos].name
        if any(s[:2] == (idx, attr) for s in str_edges):
            raise _error(text, at, f"duplicate string constraint on {rel}.{attr}")
        str_edges.append((idx, attr, pred, literal))

    return QueryGraph(tuple(rel for rel, _, _ in rel_atoms), frozenset(eq_edges),
                      tuple(sorted(str_edges)))
