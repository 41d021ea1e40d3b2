"""Single-rule Datalog rendering and parsing of query graphs.

A graph renders as one rule: the head projects every attribute of node 0,
the body has one relation atom per node in node order, equality edges
become shared variables, and string constraints become
str_<predicate>(Var, "literal") atoms in the graph's ``str_edges`` order.
Parsing inverts this: the i-th relation atom is node i, and shared variables
are decomposed into primary-key/foreign-key equality edges through a
deterministic spanning of each variable class.
"""
from __future__ import annotations

import re

from .core import FK, STR, DomainError, Schema, line_col
from .query import GraphError, PREDICATES, QueryGraph, check_graph


class DatalogError(DomainError):
    """Rule text that does not describe a legal conjunctive query."""


def render_datalog(g: QueryGraph, schema: Schema) -> str:
    classes: dict[tuple[int, int], tuple[int, int]] = {}  # (node, pos) slots

    def find(slot):
        while classes.get(slot, slot) != slot:
            slot = classes[slot]
        return slot

    for fk, pk, attr in g.eq_edges:
        ra, rb = find((fk, schema.attr_pos(g.nodes[fk], attr))), find((pk, 0))
        if ra != rb:
            classes[max(ra, rb)] = min(ra, rb)

    names: dict[tuple[int, int], str] = {}
    counter = 0
    body = []
    for node, rel in enumerate(g.nodes):
        args = []
        for pos in range(len(schema[rel])):
            root = find((node, pos))
            if root not in names:
                names[root] = f"V{counter}"
                counter += 1
            args.append(names[root])
        body.append(f"{rel}({', '.join(args)})")
    for node, attr, pred, literal in g.str_edges:
        var = names[find((node, schema.attr_pos(g.nodes[node], attr)))]
        literal = literal.replace("\\", "\\\\").replace('"', '\\"')
        body.append(f'str_{pred}({var}, "{literal}")')
    head_args = [names[find((0, pos))] for pos in range(len(schema[g.nodes[0]]))]
    return f"out({', '.join(head_args)}) :- {', '.join(body)}."


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
    """The rule's query graph, checked: node i is the i-th relation atom,
    and its string constraints are sorted. Every error is a ``DatalogError``
    at a ``line:col``: a syntax error at the offending token; an atom that
    names no relation or does not fit it at the atom's name; a variable no
    pk/fk chain can express at its first occurrence in a relation atom; a
    string variable that is unbound, joins relations, names no string
    attribute or is constrained twice at the offending ``str_*`` atom; a
    rule with no relation atom at its first body atom."""
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

    eq_edges = set()
    for var in sorted(slots_by_var):
        slots = slots_by_var[var]
        if len(slots) == 1:
            continue
        pairs = []
        for fi, fp in slots:
            frel = rel_atoms[fi][0]
            attr = schema[frel][fp]
            if attr.kind != FK:
                continue
            for pi, pp in slots:
                if pp == 0 and (fi, fp) != (pi, pp) and rel_atoms[pi][0] == attr.target:
                    pairs.append(((fi, fp), (pi, pp)))
        # Deterministic spanning of the class through legal pk/fk pairs.
        parent = {s: s for s in slots}

        def find(s):
            while parent[s] != s:
                s = parent[s]
            return s

        chosen = []
        for fk_slot, pk_slot in sorted(pairs):
            if find(fk_slot) != find(pk_slot):
                parent[find(fk_slot)] = find(pk_slot)
                chosen.append((fk_slot, pk_slot))
        if len({find(s) for s in slots}) != 1:
            first, pos = slots[0]
            raise _error(text, rel_atoms[first][2][pos], f"variable {var!r} equates "
                         "attributes that no pk/fk chain can express")
        for (fi, fp), (pi, _) in chosen:
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

    g = QueryGraph(tuple(rel for rel, _, _ in rel_atoms), frozenset(eq_edges),
                   tuple(sorted(str_edges)))
    try:
        check_graph(g, schema)
    except GraphError as exc:
        raise DatalogError(str(exc)) from exc
    return g
