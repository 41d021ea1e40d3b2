"""Bounded inductive enumeration of refinable queries and candidates.

The (m, k) table holds, per level, the refinable query graphs with exactly m
relation nodes and maximal relation multiplicity exactly k. Level (m, k) is
built by expanding level (m-1, k) graphs with a relation below multiplicity k
and level (m-1, k-1) graphs with a relation at exactly k-1. Each expansion
wires the fresh node to the existing graph through every non-empty subset of
schema-legal equality edges, so enumerated graphs stay connected; each
refinable expansion additionally spawns one graph per unconstrained string
slot carrying that slot's synthesized strongest constraint.

Graphs whose induced query already excludes a positive are never expanded
further: strengthening a selection condition only shrinks its result.

Each new graph is compiled once. The witness pass proves that it admits every
positive, so candidacy (admitting exactly the positives) is then checked on
the negatives only, on the same compiled graph; a string-closure graph is
refinable by construction and gets the same negatives-only check. Duplicates
are found by canonical form, except that a graph equal to one of the level's
refinable graphs is recognised before its canonical form is computed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .core import FactBase, RelationPartition, Schema
from .evaluator import _Compiled, admits_any, refinable_with_witnesses
from .query import QueryGraph, canonical_form, multiplicity
from .schema_graph import SchemaGraph
from .strings import syn_lcs


@dataclass
class LevelStats:
    m: int
    k: int
    worklist: int = 0
    generated: int = 0
    refinable: int = 0
    candidates: int = 0


@dataclass
class RefinementState:
    table: dict[tuple[int, int], tuple[list[QueryGraph], list[QueryGraph]]] = field(
        default_factory=dict)
    seen: set = field(default_factory=set)
    stats: list[LevelStats] = field(default_factory=list)

    def refinable(self, m: int, k: int) -> list[QueryGraph]:
        return self.table.get((m, k), ([], []))[0]

    def candidates(self, m: int, k: int) -> list[QueryGraph]:
        return self.table.get((m, k), ([], []))[1]

    def generated_total(self) -> int:
        return sum(s.generated for s in self.stats)


class RefinementEngine:
    def __init__(self, schema: Schema, graph: SchemaGraph, facts: FactBase,
                 part: RelationPartition, relations: list[str]):
        self.schema = schema
        self.graph = graph
        self.facts = facts
        self.part = part
        self.relations = sorted(relations)
        self.negatives = sorted(part.negatives)

    def expand(self, g: QueryGraph, rel: str) -> list[QueryGraph]:
        """All one-node extensions of ``g`` with ``rel``, connected.

        The empty graph only ever grows the projection head.
        """
        if not g.nodes:
            if rel != self.part.target:
                return []
            return [QueryGraph(((rel, "A1"),), frozenset(), ())]
        alias = f"A{len(g.nodes) + 1}"
        options: list[tuple[str, str, str]] = []
        for existing_rel, existing_alias in g.nodes:
            for e in self.graph.fk_edges:
                if e.src == rel and e.dst == existing_rel:
                    options.append((alias, existing_alias, e.attr))
                if e.src == existing_rel and e.dst == rel:
                    options.append((existing_alias, alias, e.attr))
        options = sorted(set(options))
        out = []
        for n in range(1, len(options) + 1):
            for subset in combinations(options, n):
                out.append(g.with_node(rel, alias, frozenset(subset)))
        return out

    def _string_slots(self, g: QueryGraph) -> list[tuple[str, str]]:
        constrained = g.constrained_slots()
        slots = []
        for rel, alias in g.nodes:
            for attr in self.schema.string_attrs(rel):
                if (alias, attr.name) not in constrained:
                    slots.append((alias, attr.name))
        return sorted(slots)

    def refine(self, state: RefinementState, m: int, k: int) -> None:
        """Fill table level (m, k) from its predecessor levels."""
        if m == 1 and k == 1:
            seeds = [(QueryGraph.empty(), k)]
        else:
            seeds = [(g, k) for g in state.refinable(m - 1, k)]
            if k > 1:
                seeds += [(g, k - 1) for g in state.refinable(m - 1, k - 1)]
        stats = LevelStats(m, k, worklist=len(seeds))
        refinable: list[QueryGraph] = []
        candidates: list[QueryGraph] = []
        # The refinable graphs of this level. A graph derived again exactly
        # (its string constraints added in another order, or an augmented
        # parent expanded) has the same nodes, so it recurs only within the
        # level, and matching it here spares its canonical form.
        produced: set[QueryGraph] = set()

        def is_new(g: QueryGraph) -> bool:
            """Count ``g`` as generated; is it new to the whole search?"""
            stats.generated += 1
            if g in produced:
                return False
            canon = canonical_form(g)
            if canon in state.seen:
                return False
            state.seen.add(canon)
            return True

        def keep(g: QueryGraph, compiled) -> None:
            # g admits every positive; it is a candidate if no negative.
            produced.add(g)
            refinable.append(g)
            if not admits_any(compiled, self.facts, self.negatives):
                candidates.append(g)

        for g, source_k in seeds:
            for rel in self.relations:
                mult = multiplicity(g, rel)
                if source_k == k:
                    if mult >= k:
                        continue
                elif mult != k - 1:
                    continue
                for v in self.expand(g, rel):
                    if not is_new(v):
                        continue
                    compiled = _Compiled(self.facts, v)
                    slots = self._string_slots(v)
                    ok, witnesses = refinable_with_witnesses(
                        compiled, self.facts, self.part, slots)
                    if not ok:
                        continue
                    keep(v, compiled)
                    # String constraints close under iteration within the
                    # level: an augmented graph re-enters with its remaining
                    # slots (witnesses recomputed in the stronger context), so
                    # graphs can carry several synthesized constraints.
                    queue = [(v, slots, witnesses)]
                    while queue:
                        base, base_slots, base_witnesses = queue.pop()
                        for slot in base_slots:
                            constraint = syn_lcs(base_witnesses[slot])
                            if constraint is None:
                                continue
                            pred, literal = constraint
                            augmented = base.with_constraint(
                                slot[0], slot[1], pred, literal)
                            if not is_new(augmented):
                                continue
                            compiled = _Compiled(self.facts, augmented)
                            keep(augmented, compiled)
                            rest = self._string_slots(augmented)
                            if rest:
                                ok2, w2 = refinable_with_witnesses(
                                    compiled, self.facts, self.part, rest)
                                assert ok2, "string closure preserves refinability"
                                queue.append((augmented, rest, w2))
        stats.refinable = len(refinable)
        stats.candidates = len(candidates)
        state.table[(m, k)] = (refinable, candidates)
        state.stats.append(stats)
