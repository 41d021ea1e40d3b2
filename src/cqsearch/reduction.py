"""Dummy-relation removal.

A relation is kept iff some undirected relation path from the target both
(a) activates a positive and a negative tuple differently, and (b) empties no
positive's activation. Everything else cannot help separate the partition and
is dropped before query enumeration. The examined path set is the acyclic
paths plus every cycle spliced in once, at the first node it shares with the
path, and this set is the contract. It does not cover every walk: only echo
cycles (one edge out and straight back) are idempotent under repetition,
while a one-step loop such as the one from the self foreign key
``Class.super_id`` can activate different tuples on a second lap.

The path set is never built. ``reduce`` walks the tree of simple paths from
the target depth first, and every tree node judges its last relation on the
paths that end there. A node carries a *plain* vector (the activations along
its acyclic prefix) and a set of *spliced* vectors (the same prefix with one
cycle spliced in). A cycle's first shared node depends only on the prefix, so
at ``nodes[i]`` the walk splices every cycle that contains ``nodes[i]`` and no
earlier node, into the plain vector only, and carries the result down the
subtree; a spliced vector never takes a second cycle. The compiled loops
(``schema_graph.cycle_loops``) are memoised by the schema's declarations, as a
compiled step holds attribute positions, and ``max_cycle_len``. A vector is
the pair ``(P, N)`` of the distinct activation sets of the positives and of
the negatives: equal sets stay equal under every step. A vector in which a
positive's activation is empty is *dead* (it stays empty) and is discarded,
and a subtree with no live vector is skipped. A relation no live vector
reaches reads EmptyActivation if foreign keys join it to the target at all,
else Unreachable.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import STR, FactBase, RelationPartition, Schema
from .schema_graph import (SchemaGraph, build_schema_graph, compile_step,
                           cycle_loops, step_image)


class DropReason(str, Enum):
    EMPTY_ACTIVATION = "EmptyActivation"
    INDISTINGUISHABLE = "IndistinguishableActivation"
    UNREACHABLE = "Unreachable"


@dataclass(frozen=True)
class ReducedRepresentation:
    kept: frozenset[str]
    dropped: frozenset[tuple[str, DropReason]]

    def report_lines(self) -> list[str]:
        lines = [f"keep {name}" for name in sorted(self.kept)]
        lines += [f"drop {name} ({reason.value})" for name, reason in sorted(self.dropped)]
        return lines


def _component(g: SchemaGraph, start: str) -> set[str]:
    """Relations joined to ``start`` by foreign keys, in either direction."""
    seen = {start}
    todo = [start]
    while todo:
        for step, _ in g.moves_from(todo.pop()):
            if step.next not in seen:
                seen.add(step.next)
                todo.append(step.next)
    return seen


def reduce(schema: Schema, facts: FactBase, part: RelationPartition,
           *, max_cycle_len: int = 8) -> ReducedRepresentation:
    g = build_schema_graph(schema)
    sides: dict = {}  # (activation sets of one side, compiled step) -> image

    def side(acts_set, step):
        key = (acts_set, step)
        out = sides.get(key)
        if out is None:
            out = sides[key] = frozenset(frozenset(step_image(facts, a, step))
                                         for a in acts_set)
        return out

    def advance(vector, steps):
        """The vector after ``steps``, or None once it is dead."""
        pos, neg = vector
        for step in steps:
            pos = side(pos, step)
            if frozenset() in pos:
                return None
            neg = side(neg, step)
        return pos, neg

    loops = cycle_loops(g, max_cycle_len)
    moves = {rel: [(step.next, compile_step(schema, rel, step))
                   for step, _ in g.moves_from(rel)]
             for rel in schema}
    total: set[str] = set()  # judged on some live vector
    kept: set[str] = set()

    def walk(rel, prefix, plain, spliced):
        if plain is not None:
            for members, loop in loops[rel]:
                if members.isdisjoint(prefix):
                    vector = advance(plain, loop)
                    if vector is not None and vector != plain:
                        spliced.add(vector)
        vectors = list(spliced) if plain is None else [plain, *spliced]
        if vectors:
            total.add(rel)
            # some positive and some negative activate differently
            if any(pos and neg and len(pos | neg) > 1 for pos, neg in vectors):
                kept.add(rel)
        prefix.add(rel)
        for next_rel, step in moves[rel]:
            if next_rel in prefix:
                continue
            below = advance(plain, (step,)) if plain is not None else None
            carried = {v for v in (advance(v, (step,)) for v in spliced)
                       if v is not None and v != below}
            if below is not None or carried:
                walk(next_rel, prefix, below, carried)
        prefix.remove(rel)

    root = (frozenset(frozenset({t}) for t in part.positives),
            frozenset(frozenset({t}) for t in part.negatives))
    walk(part.target, set(), root, set())

    reached = _component(g, part.target)
    dropped: set[tuple[str, DropReason]] = set()
    for rel in schema:
        if rel in kept:
            continue
        if rel in total:
            dropped.add((rel, DropReason.INDISTINGUISHABLE))
        elif rel in reached:
            dropped.add((rel, DropReason.EMPTY_ACTIVATION))
        else:
            dropped.add((rel, DropReason.UNREACHABLE))
    return ReducedRepresentation(frozenset(kept), frozenset(dropped))


def reduced_subgraph_size(schema: Schema, kept: frozenset[str]) -> tuple[int, int]:
    """(nodes, edges) of the schema subgraph induced by kept relations + STR:
    an edge per kept string attribute and per foreign key between kept relations."""
    edges = sum(1 for rel in kept for a in schema[rel]
                if a.kind == STR or a.target in kept)
    return len(kept) + 1, edges
