"""Conjunctive queries as query graphs.

A query is a projection of a selection over a product of relations, and its
graph is the one form the package keeps of it: one node per relation
occurrence, one labeled edge per pk/fk equality, and one (predicate,
literal) decoration per constrained string slot. A node is known by its
position: node 0 is the projection head, which names the partition target,
and the renderers name node i ``A{i+1}``. A graph says everything the query
says up to node order; canonical forms make node order irrelevant for
golden comparisons and selection, and certificates, compact ``bytes`` keys
with the same classes, for refinement's deduplication.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping
from .core import FK, STR, DomainError, Schema

# String predicates, strongest first. equal implies prefix and suffix,
# either of which implies contain.
PREDICATES = ("equal", "prefix", "suffix", "contain")


class GraphError(DomainError):
    """Query graph edge or constraint that the schema does not license."""


@dataclass(frozen=True)
class QueryGraph:
    nodes: tuple[str, ...]  # the relation of each node, head first
    eq_edges: frozenset[tuple[int, int, str]]  # (fk_node, pk_node, fk_attr)
    str_edges: tuple[tuple[int, str, str, str], ...]  # (node, attr, pred, literal), sorted

    @staticmethod
    def empty() -> "QueryGraph":
        return QueryGraph((), frozenset(), ())

    def constrained_slots(self) -> frozenset[tuple[int, str]]:
        return frozenset((node, attr) for node, attr, _, _ in self.str_edges)

    def with_node(self, relation: str,
                  edges: frozenset[tuple[int, int, str]]) -> "QueryGraph":
        """``self`` plus node ``len(self.nodes)`` of ``relation``."""
        return QueryGraph(self.nodes + (relation,), self.eq_edges | edges,
                          self.str_edges)

    def with_constraint(self, node: int, attr: str, pred: str, literal: str) -> "QueryGraph":
        extra = (node, attr, pred, literal)
        return QueryGraph(self.nodes, self.eq_edges,
                          tuple(sorted(self.str_edges + (extra,))))

    def size(self) -> tuple[int, int, int]:
        """(relations, equality constraints, string constraints)."""
        return (len(self.nodes), len(self.eq_edges), len(self.str_edges))

    def complexity(self) -> int:
        return len(self.nodes) + len(self.eq_edges) + len(self.str_edges)


def multiplicity(g: QueryGraph, relation: str) -> int:
    return g.nodes.count(relation)


def max_multiplicity(g: QueryGraph) -> int:
    return max(Counter(g.nodes).values(), default=0)


def check_graph(g: QueryGraph, schema: Schema) -> None:
    """Raise ``GraphError`` unless the schema licenses ``g``: known relations,
    edges and constraints between existing nodes, each equality edge a
    foreign key referencing its target node's relation, each string edge on
    a string attribute with a known predicate. An attribute its relation
    lacks is a ``SchemaError``."""
    for rel in g.nodes:
        if rel not in schema:
            raise GraphError(f"unknown relation {rel!r}")
    nodes = range(len(g.nodes))
    for fk, pk, attr in sorted(g.eq_edges):
        if fk not in nodes or pk not in nodes:
            raise GraphError(f"equality edge {(fk, pk, attr)!r} leaves the nodes")
        a = schema.attr(g.nodes[fk], attr)
        if a.kind != FK or a.target != g.nodes[pk]:
            raise GraphError(f"{g.nodes[fk]}.{attr} is not a foreign key "
                             f"referencing {g.nodes[pk]}")
    for node, attr, pred, _ in g.str_edges:
        if node not in nodes:
            raise GraphError(f"string constraint on a missing node {node!r}")
        if schema.attr(g.nodes[node], attr).kind != STR:
            raise GraphError(f"{g.nodes[node]}.{attr} is not a string attribute")
        if pred not in PREDICATES:
            raise GraphError(f"unknown predicate {pred!r}")


def join_step(schema: Schema, g: QueryGraph, at: Mapping[int, int], node: int):
    """``(relation, links, strs, self_eq)``: what ``FactBase.matching`` binds
    ``node`` of a checked graph with, once the nodes ``at`` maps to
    assignment positions are bound (refinement, which binds in node order,
    passes a ``range``). ``links`` are its key equalities with bound nodes,
    sorted: ``(pos, j, jpos)`` says position ``pos`` of its tuple equals
    position ``jpos`` of the tuple bound at ``j``, and a bound node's foreign
    key holding its primary key has ``pos`` 0, so it comes first. ``strs``
    are its string constraints ``(pos, pred, literal)``; ``self_eq`` the
    sorted positions of its foreign keys that must equal its own primary key."""
    rel = g.nodes[node]
    links, self_eq = [], []
    for fk, pk, attr in g.eq_edges:
        if fk == pk == node:
            self_eq.append(schema.attr_pos(rel, attr))
        elif pk == node and fk in at:
            links.append((0, at[fk], schema.attr_pos(g.nodes[fk], attr)))
        elif fk == node and pk in at:
            links.append((schema.attr_pos(rel, attr), at[pk], 0))
    strs = tuple((schema.attr_pos(rel, attr), pred, literal)
                 for i, attr, pred, literal in g.str_edges if i == node)
    return rel, tuple(sorted(links)), strs, tuple(sorted(self_eq))


def variables(g: QueryGraph, schema: Schema) -> list[list[int]]:
    """Per node, per position of its tuples: the variable there, the class of
    ``(node, position)`` slots that the equality edges unite, numbered in
    order of first slot. A slot no equality touches is a class of its own.

    Slots are numbered in that order too, and each class is held by the
    least of its slots, so one pass in slot order finds every slot's root."""
    starts = list(accumulate((len(schema[rel]) for rel in g.nodes), initial=0))
    rep = list(range(starts[-1]))
    for fk, pk, attr in g.eq_edges:
        a, b = starts[fk] + schema.attr_pos(g.nodes[fk], attr), starts[pk]
        while rep[a] != a:
            a = rep[a]
        while rep[b] != b:
            b = rep[b]
        rep[max(a, b)] = min(a, b)
    for slot in range(len(rep)):
        rep[slot] = rep[rep[slot]]
    ids: dict[int, int] = {}
    flat = [ids.setdefault(root, len(ids)) for root in rep]
    return [flat[start:end] for start, end in zip(starts, starts[1:])]


def to_graph(g: QueryGraph, schema: Schema) -> QueryGraph:
    """``g``, checked. Kept only because perfbench/workloads.py calls it;
    the benchmark's next change deletes it."""
    check_graph(g, schema)
    return g


def from_graph(g: QueryGraph, schema: Schema) -> QueryGraph:
    """``g``, checked. Kept only because perfbench/tracer.py times it; the
    benchmark's next change deletes it."""
    check_graph(g, schema)
    return g


# --- canonical form -------------------------------------------------------
#
# Graphs that differ only in node order must collapse to one key: the least
# encoding, over the node orders that keep the head at position 0, of the
# nodes' keys in order. A node's key is its relation, its equality edges to
# nodes placed before it (kind, attribute, position; a self-loop is an edge
# to its own position) and its string constraints. The relation comes first,
# so the least encoding lists the other nodes in sorted relation order and
# only nodes of one relation compete for a position; ties between them are
# kept until a later position breaks them.
#
# Refinement needs only some key that two graphs share exactly when they are
# isomorphic with the head fixed, and most of the graphs it meets differ
# from others only in their string constraints. Its key is a certificate:
# the least encoding of the graph's skeleton (its nodes and equality edges),
# and the least, over every placement that reaches that encoding, of the
# string constraints relabelled by the placement and sorted. The placements
# are one labelling composed with each automorphism of the skeleton, so the
# search runs once per skeleton and serves all of its constrained variants
# (McKay & Piperno 2014, "Practical graph isomorphism, II"). The encoding
# lists every edge at its later endpoint, so it fixes the labelled skeleton:
# equal certificates mean isomorphic graphs, and isomorphic graphs get equal
# certificates.
#
# A run holds every certificate it has met, so a certificate is stored as
# one ``bytes``, which the garbage collector does not track. It is a list of
# varints: the length of the skeleton's least encoding, a code per node key
# of that encoding, then a code per relabelled string constraint, each code
# from a first-met table (``Codes``) that one run shares. The length ends the
# skeleton part and the table maps keys to codes one to one, so the bytes
# decode to the one tuple certificate they were written from: equal bytes
# mean equal certificates. ``marshal`` and ``pickle`` cannot serve, since
# they write back-references and so can encode equal keys differently.

def _least_placements(g: QueryGraph) -> tuple[tuple, list[list[int]]]:
    """The least encoding of ``g`` and every placement (node -> position)
    that reaches it."""
    n = len(g.nodes)
    if n == 0:
        return ("empty",), [[]]
    rels = g.nodes
    adj: list[list] = [[] for _ in range(n)]
    for i, j, attr in g.eq_edges:
        adj[i].append(("f", attr, j))
        if i != j:
            adj[j].append(("p", attr, i))
    strs = [()] * n
    if g.str_edges:
        by_node: dict[int, list] = {}
        for i, attr, pred, literal in g.str_edges:
            by_node.setdefault(i, []).append((attr, pred, literal))
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
    return tuple(encoding), states


def canonical_form(g: QueryGraph):
    return _least_placements(g)[0]


class Codes(dict):
    """A first-met code table: each key its number, a key it lacks the next."""

    def __missing__(self, key) -> int:
        code = self[key] = len(self)
        return code


class Skeletons(dict):
    """``certificate``'s memo of skeleton searches, tied to the table its keys use."""

    def __init__(self, codes: Codes):
        self.codes = codes


def _varints(ints: list[int]) -> bytes:
    """``ints`` as unsigned LEB128 varints: seven bits a byte, low bits
    first, the high bit set on every byte of an integer but its last."""
    if max(ints, default=0) < 0x80:
        return bytes(ints)
    out = bytearray()
    for i in ints:
        while i >= 0x80:
            out.append(i & 0x7F | 0x80)
            i >>= 7
        out.append(i)
    return bytes(out)


def certificate(g: QueryGraph, skeletons: Skeletons) -> bytes:
    """A key two graphs share exactly when their canonical forms are equal,
    if both were certified through memos of one table ``skeletons.codes``.

    ``skeletons`` keeps the least placements of each skeleton it has met, by
    ``(nodes, eq_edges)``, with its part of the key: its least encoding's
    length and a code per node key. A code per constraint follows."""
    skeleton = (g.nodes, g.eq_edges)
    found = skeletons.get(skeleton)
    if found is None:
        encoding, placements = _least_placements(QueryGraph(g.nodes, g.eq_edges, ()))
        head = _varints([len(encoding), *[skeletons.codes[key] for key in encoding]])
        found = skeletons[skeleton] = (head, placements)
    head, placements = found
    if not g.str_edges:
        return head
    least = min(tuple(sorted([(pos[x], attr, pred, literal)
                              for x, attr, pred, literal in g.str_edges]))
                for pos in placements)
    return head + _varints([skeletons.codes[c] for c in least])


def merged(g: QueryGraph) -> QueryGraph:
    """``g`` with every set of nodes whose primary keys its equalities make
    equal merged into one node, for comparing queries rather than graphs.

    Such nodes bind one tuple, and they share a relation, since a foreign
    key references one relation. Merging makes the merged nodes' foreign
    keys equal too, which can merge more nodes, so it repeats until nothing
    changes. A merged node takes the least position among its nodes and
    the union of their edges and constraints. Spannings of one variable
    class by different equalities, as ``parse_datalog`` may pick, merge to
    the same graph; synthesis keeps its own graphs.
    """
    rep = list(range(len(g.nodes)))

    def find(x: int) -> int:
        while rep[x] != x:
            x = rep[x]
        return x

    changed = True
    while changed:
        changed = False
        referenced: dict[tuple[int, str], int] = {}  # foreign key -> a pk node
        for fk, pk, attr in sorted(g.eq_edges):
            a, b = find(referenced.setdefault((find(fk), attr), pk)), find(pk)
            if a != b:
                rep[max(a, b)] = min(a, b)
                changed = True
    kept = sorted({find(x) for x in range(len(g.nodes))})
    new = [kept.index(find(x)) for x in range(len(g.nodes))]
    return QueryGraph(tuple(g.nodes[x] for x in kept),
                      frozenset((new[fk], new[pk], attr) for fk, pk, attr in g.eq_edges),
                      tuple(sorted({(new[x], *rest) for x, *rest in g.str_edges})))


# --- relational-algebra rendering -----------------------------------------

def escaped(literal: str) -> str:
    """``literal`` with ``\\`` and ``"`` escaped by a backslash, to be put between double quotes."""
    return literal.replace("\\", "\\\\").replace('"', '\\"')


def render_ra(g: QueryGraph, schema: Schema) -> str:
    """``g`` as relational algebra, node i named ``A{i+1}``. The atoms are
    sorted together by ``(fk node, attribute, pk node, 0)`` for an equality
    and ``(node, attribute, 0, 1)`` for a string constraint, so the two
    kinds interleave by node."""
    product = " × ".join(f"ρ_A{i + 1}({rel})" for i, rel in enumerate(g.nodes))
    if not g.eq_edges and not g.str_edges:
        return f"Π_(A1.*)(σ_true({product}))"
    atoms = [((fk, attr, pk, 0),
              f"(A{fk + 1}.{attr} = A{pk + 1}.{schema.pk_attr(g.nodes[pk]).name})")
             for fk, pk, attr in g.eq_edges]
    atoms += [((node, attr, 0, 1), f'{pred}(A{node + 1}.{attr}, "{escaped(literal)}")')
              for node, attr, pred, literal in g.str_edges]
    atoms.sort(key=lambda a: a[0])
    theta = " ∧ ".join(text for _, text in atoms)
    return f"Π_(A1.*)(σ_Θ({product})) where Θ := {theta}"
