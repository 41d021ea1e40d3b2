"""Conjunctive queries and their graph form.

A query is a projection of a selection over a product of aliased relations;
its graph form has one node per alias, one labeled edge per pk/fk equality
atom, and one (predicate, literal) decoration per constrained string slot.
The two forms are interconvertible up to alias renaming; canonical forms make
that renaming irrelevant for deduplication and golden comparisons.

The projection head is always the first alias and names the partition target.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping
from .core import FK, STR, Schema, pred_holds

# String predicates, strongest first. equal implies prefix and suffix,
# either of which implies contain.
PREDICATES = ("equal", "prefix", "suffix", "contain")


class GraphError(Exception):
    """Query graph edge or constraint that the schema does not license."""


@dataclass(frozen=True, order=True)
class Equality:
    """fk_alias.fk_attr = pk_alias.pk_attr (the referenced primary key)."""
    fk_alias: str
    fk_attr: str
    pk_alias: str
    pk_attr: str


@dataclass(frozen=True, order=True)
class StringAtom:
    alias: str
    attr: str
    pred: str
    literal: str


Atom = Equality | StringAtom


@dataclass(frozen=True)
class ConjunctiveQuery:
    product: tuple[tuple[str, str], ...]  # (alias, relation), head first
    conditions: tuple[Atom, ...]

    @property
    def head_alias(self) -> str:
        return self.product[0][0]

    @property
    def head_relation(self) -> str:
        return self.product[0][1]

    def relation_of(self, alias: str) -> str:
        for a, r in self.product:
            if a == alias:
                return r
        raise GraphError(f"unknown alias {alias!r}")


@dataclass(frozen=True)
class QueryGraph:
    nodes: tuple[tuple[str, str], ...]  # (relation, alias), head first
    eq_edges: frozenset[tuple[str, str, str]]  # (fk_alias, pk_alias, fk_attr)
    str_edges: tuple[tuple[str, str, str, str], ...]  # (alias, attr, pred, literal), sorted

    @staticmethod
    def empty() -> "QueryGraph":
        return QueryGraph((), frozenset(), ())

    @property
    def head_alias(self) -> str:
        return self.nodes[0][1]

    @property
    def head_relation(self) -> str:
        return self.nodes[0][0]

    def aliases(self) -> tuple[str, ...]:
        return tuple(a for _, a in self.nodes)

    def relation_of(self, alias: str) -> str:
        for r, a in self.nodes:
            if a == alias:
                return r
        raise GraphError(f"unknown alias {alias!r}")

    def constrained_slots(self) -> frozenset[tuple[str, str]]:
        return frozenset((a, attr) for a, attr, _, _ in self.str_edges)

    def with_node(self, relation: str, alias: str,
                  edges: frozenset[tuple[str, str, str]]) -> "QueryGraph":
        return QueryGraph(self.nodes + ((relation, alias),),
                          self.eq_edges | edges, self.str_edges)

    def with_constraint(self, alias: str, attr: str, pred: str, literal: str) -> "QueryGraph":
        extra = (alias, attr, pred, literal)
        return QueryGraph(self.nodes, self.eq_edges,
                          tuple(sorted(self.str_edges + (extra,))))

    def size(self) -> tuple[int, int, int]:
        """(relations, equality constraints, string constraints)."""
        return (len(self.nodes), len(self.eq_edges), len(self.str_edges))

    def complexity(self) -> int:
        return len(self.nodes) + len(self.eq_edges) + len(self.str_edges)


def multiplicity(g: QueryGraph, relation: str) -> int:
    return sum(1 for r, _ in g.nodes if r == relation)


def max_multiplicity(g: QueryGraph) -> int:
    counts: dict[str, int] = {}
    for r, _ in g.nodes:
        counts[r] = counts.get(r, 0) + 1
    return max(counts.values(), default=0)


def _check_edge(schema: Schema, fk_rel: str, fk_attr: str, pk_rel: str):
    attr = schema.attr(fk_rel, fk_attr)
    if attr.kind != FK or attr.target != pk_rel:
        raise GraphError(
            f"{fk_rel}.{fk_attr} is not a foreign key referencing {pk_rel}")


def _check_string_slot(schema: Schema, rel: str, attr: str):
    if schema.attr(rel, attr).kind != STR:
        raise GraphError(f"{rel}.{attr} is not a string attribute")


def check_graph(g: QueryGraph, schema: Schema) -> None:
    """Raise ``GraphError`` unless the schema licenses ``g``: known relations,
    unique aliases, each equality edge a foreign key referencing its target
    node's relation, each string edge on a string attribute with a known
    predicate. An attribute its relation lacks is a ``SchemaError``."""
    aliases: set[str] = set()
    for rel, alias in g.nodes:
        if rel not in schema:
            raise GraphError(f"unknown relation {rel!r}")
        if alias in aliases:
            raise GraphError(f"duplicate alias {alias!r}")
        aliases.add(alias)
    for fk_alias, pk_alias, attr in sorted(g.eq_edges):
        _check_edge(schema, g.relation_of(fk_alias), attr, g.relation_of(pk_alias))
    for alias, attr, pred, _ in g.str_edges:
        _check_string_slot(schema, g.relation_of(alias), attr)
        if pred not in PREDICATES:
            raise GraphError(f"unknown predicate {pred!r}")


def join_step(schema: Schema, g: QueryGraph, at: Mapping[str, int], alias: str):
    """``(relation, pin, eqs, strs, self_eq)``: what ``FactBase.matching``
    binds node ``alias`` of a checked graph with, once the nodes ``at`` maps
    to assignment positions are bound. ``pin`` is the ``(j, pos)`` of a bound
    node's foreign key holding the node's primary key, if any; ``eqs`` its
    other equalities with bound nodes, ``(pos, j, jpos)``; ``strs`` its
    string constraints ``(pos, pred, literal)``; ``self_eq`` the positions of
    its foreign keys that must equal its own primary key."""
    rel = g.relation_of(alias)
    pins, checks, self_eq = [], [], []
    for fk_alias, pk_alias, attr in sorted(g.eq_edges):
        if fk_alias == pk_alias == alias:
            self_eq.append(schema.attr_pos(rel, attr))
        elif pk_alias == alias and fk_alias in at:
            pins.append((at[fk_alias], schema.attr_pos(g.relation_of(fk_alias), attr)))
        elif fk_alias == alias and pk_alias in at:
            checks.append((schema.attr_pos(rel, attr), at[pk_alias], 0))
    strs = tuple((schema.attr_pos(rel, attr), pred, literal)
                 for a, attr, pred, literal in g.str_edges if a == alias)
    return (rel, pins[0] if pins else None,
            tuple([(0, j, pos) for j, pos in pins[1:]] + checks), strs, tuple(self_eq))


def to_graph(q: ConjunctiveQuery, schema: Schema) -> QueryGraph:
    eqs = [c for c in q.conditions if isinstance(c, Equality)]
    g = QueryGraph(tuple((r, a) for a, r in q.product),
                   frozenset((c.fk_alias, c.pk_alias, c.fk_attr) for c in eqs),
                   tuple(sorted((c.alias, c.attr, c.pred, c.literal)
                                for c in q.conditions if isinstance(c, StringAtom))))
    check_graph(g, schema)
    for c in eqs:
        pk_rel = g.relation_of(c.pk_alias)
        if schema.pk_attr(pk_rel).name != c.pk_attr:
            raise GraphError(
                f"{c.pk_alias}.{c.pk_attr} is not the primary key of {pk_rel}")
    return g


def from_graph(g: QueryGraph, schema: Schema) -> ConjunctiveQuery:
    """Induced query with fresh aliases A1..Am in node order."""
    check_graph(g, schema)
    rename = {alias: f"A{i + 1}" for i, (_, alias) in enumerate(g.nodes)}
    rel_of = {a: r for r, a in g.nodes}
    product = tuple((rename[a], r) for r, a in g.nodes)
    conds: list[Atom] = [
        Equality(rename[fk_alias], attr, rename[pk_alias],
                 schema.pk_attr(rel_of[pk_alias]).name)
        for fk_alias, pk_alias, attr in sorted(g.eq_edges)]
    conds += [StringAtom(rename[alias], attr, pred, literal)
              for alias, attr, pred, literal in g.str_edges]
    order = {rename[a]: i for i, (_, a) in enumerate(g.nodes)}
    conds.sort(key=lambda c: ((order[c.fk_alias], c.fk_attr, order[c.pk_alias], 0)
                              if isinstance(c, Equality)
                              else (order[c.alias], c.attr, 0, 1)))
    return ConjunctiveQuery(product, tuple(conds))


# --- canonical form -------------------------------------------------------
#
# Graphs that differ only by alias renaming must collapse to one key: the
# least encoding, over the node orders that keep the head at position 0, of
# the nodes' keys in order. A node's key is its relation, its equality edges
# to nodes placed before it (kind, attribute, position; a self-loop is an
# edge to its own position) and its string constraints. The relation comes
# first, so the least encoding lists the other nodes in sorted relation order
# and only nodes of one relation compete for a position; ties between them
# are kept until a later position breaks them.

def canonical_form(g: QueryGraph):
    n = len(g.nodes)
    if n == 0:
        return ("empty",)
    index = {a: i for i, (_, a) in enumerate(g.nodes)}
    rels = [r for r, _ in g.nodes]
    adj: list[list] = [[] for _ in range(n)]
    for fk_alias, pk_alias, attr in g.eq_edges:
        i, j = index[fk_alias], index[pk_alias]
        adj[i].append(("f", attr, j))
        if i != j:
            adj[j].append(("p", attr, i))
    strs = [()] * n
    if g.str_edges:
        by_node: dict[int, list] = {}
        for alias, attr, pred, literal in g.str_edges:
            by_node.setdefault(index[alias], []).append((attr, pred, literal))
        for i, s in by_node.items():
            strs[i] = tuple(sorted(s))

    def key(pos, x):
        p = pos[x]
        return (rels[x], tuple(sorted([(kind, attr, pos[o])
                                       for kind, attr, o in adj[x] if pos[o] <= p])),
                strs[x])

    groups: list[list[int]] = []  # the other nodes by relation, sorted
    for x in sorted(range(1, n), key=rels.__getitem__):
        if groups and rels[groups[-1][0]] == rels[x]:
            groups[-1].append(x)
        else:
            groups.append([x])
    pos = [n] * n  # node positions, n while unplaced
    pos[0] = 0
    encoding = [key(pos, 0)]
    # The placements whose encodings tie for least so far. At each position
    # they extend by the least key among their unplaced nodes of its
    # relation; a relation with one node extends a single placement directly.
    states = [pos]
    p = 0
    for group in groups:
        if len(group) == 1 and len(states) == 1:
            (x,), (pos,) = group, states
            p += 1
            pos[x] = p
            encoding.append(key(pos, x))
            continue
        for _ in group:
            p += 1
            low, ties = None, []
            for pos in states:
                for x in group:
                    if pos[x] != n:
                        continue
                    pos[x] = p
                    k = key(pos, x)
                    pos[x] = n
                    if low is None or k < low:
                        low, ties = k, [(pos, x)]
                    elif k == low:
                        ties.append((pos, x))
            encoding.append(low)
            states = []
            for pos, x in ties:
                pos = pos.copy() if len(ties) > 1 else pos
                pos[x] = p
                states.append(pos)
    return tuple(encoding)


# --- relational-algebra rendering -----------------------------------------

def render_ra(q: ConjunctiveQuery) -> str:
    head = q.head_alias
    product = " × ".join(f"ρ_{a}({r})" for a, r in q.product)
    if not q.conditions:
        return f"Π_({head}.*)(σ_true({product}))"
    parts = []
    for atom in q.conditions:
        if isinstance(atom, Equality):
            parts.append(f"({atom.fk_alias}.{atom.fk_attr} = {atom.pk_alias}.{atom.pk_attr})")
        else:
            parts.append(f'{atom.pred}({atom.alias}.{atom.attr}, "{atom.literal}")')
    theta = " ∧ ".join(parts)
    return f"Π_({head}.*)(σ_Θ({product})) where Θ := {theta}"
