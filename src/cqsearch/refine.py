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

No graph is evaluated from scratch. Each refinable graph keeps its
satisfying assignments (its ``Rows``): per positive, and per negative it
still admits, the tuples bound to its nodes in node order. A child of
``expand`` is its parent plus one unconstrained node whose equality edges
all touch that node, so its assignments are the parent's, each extended by
the tuples ``FactBase.matching`` returns for the links of the new node's
``join_step``, as ``_Compiled.assignments`` binds every node: a primary-key
probe when an existing node's foreign key holds the new node's key, else the
smallest pool among its links. A string-closure child is its base
plus one constraint, so its assignments are the base's filtered by it. The
witness sets synLCS reads are a slot's column of the positives' rows; a
graph is refinable iff every positive keeps an assignment and a candidate
iff no negative does (incremental view maintenance in its semi-naive form).

Rows are kept only where a later level reads them: never at the engine's
``m_cap``, and a level's rows are dropped once the level after the next
starts. Duplicates are found by certificate (``query.certificate``), except
that a graph equal to one of the level's refinable graphs is recognised
before its certificate is computed. The certificate runs one isomorphism
search per skeleton, a graph without its string constraints. A child's
skeleton is its seed's skeleton plus the new node and its edges, so only
the children of seeds with one skeleton can share a skeleton: a level keeps
the searches of each seed skeleton until its last seed is expanded.

synLCS is pure, so the engine keeps each constraint it synthesizes under its
witness sets and synthesizes it once per engine, that is once per synthesis
run: the graphs of every level read columns of the same positives, and a run
sees only a few distinct witness sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

from .core import FactBase, Level, RelationPartition, Trace, Tuple, pred_holds
from .query import QueryGraph, certificate, join_step, multiplicity
from .strings import syn_lcs

# One satisfying assignment: the tuple bound to each node, in node order.
Assignment = tuple[Tuple, ...]


class Rows(NamedTuple):
    """Satisfying assignments of one graph.

    ``positives`` holds one tuple of assignments per positive, in sorted
    order; ``negatives`` one per negative the graph still admits, so it is
    empty exactly when the graph is a candidate.
    """
    positives: tuple[tuple[Assignment, ...], ...]
    negatives: tuple[tuple[Assignment, ...], ...]


@dataclass
class RefinementState:
    table: dict[tuple[int, int], tuple[list[QueryGraph], list[QueryGraph]]] = field(
        default_factory=dict)
    seen: set = field(default_factory=set)
    # Per level, the Rows of each refinable graph, aligned with the table.
    rows: dict[tuple[int, int], list[Rows]] = field(default_factory=dict)
    trace: Trace = field(default_factory=Trace)

    def refinable(self, m: int, k: int) -> list[QueryGraph]:
        return self.table.get((m, k), ([], []))[0]

    def candidates(self, m: int, k: int) -> list[QueryGraph]:
        return self.table.get((m, k), ([], []))[1]

    def generated_total(self) -> int:
        return sum(level.generated for level in self.trace.levels)


class RefinementEngine:
    def __init__(self, facts: FactBase, part: RelationPartition,
                 relations: list[str], m_cap: int | None = None):
        """``m_cap`` is the last level the caller refines; none keeps rows
        at every level."""
        self.schema = facts.schema
        self.facts = facts
        self.part = part
        self.relations = sorted(relations)
        self.m_cap = m_cap
        self.head_rows = Rows(tuple(((t,),) for t in sorted(part.positives)),
                              tuple(((t,),) for t in sorted(part.negatives)))
        # syn_lcs of every witness-set tuple synthesized so far.
        self.synthesized: dict[tuple[frozenset[str], ...], tuple[str, str] | None] = {}

    def expand(self, g: QueryGraph, rel: str) -> list[QueryGraph]:
        """All one-node extensions of ``g`` with ``rel``, connected: the new
        node is node ``len(g.nodes)``, with every non-empty subset of the
        legal edges between it and the others: a foreign key of either
        node's relation into the other's.

        The empty graph only ever grows the projection head.
        """
        if not g.nodes:
            if rel != self.part.target:
                return []
            return [QueryGraph((rel,), frozenset(), ())]
        new, decls = len(g.nodes), self.schema[rel]
        options = sorted(
            [(new, node, a.name) for node, existing in enumerate(g.nodes)
             for a in decls if a.target == existing]
            + [(node, new, a.name) for node, existing in enumerate(g.nodes)
               for a in self.schema[existing] if a.target == rel])
        out = []
        for n in range(1, len(options) + 1):
            for subset in combinations(options, n):
                out.append(g.with_node(rel, frozenset(subset)))
        return out

    def _string_slots(self, g: QueryGraph) -> list[tuple[int, str]]:
        """The unconstrained string slots ``(node, attr)`` of ``g``, sorted."""
        constrained = g.constrained_slots()
        return sorted((node, attr.name) for node, rel in enumerate(g.nodes)
                      for attr in self.schema.string_attrs(rel)
                      if (node, attr.name) not in constrained)

    def witnesses(self, g: QueryGraph, rows: Rows,
                  slot: tuple[int, str]) -> tuple[frozenset[str], ...]:
        """Per positive, in sorted order, the values ``slot``, a ``(node,
        attr)`` pair, takes: a column of the positives' rows, which hold one
        tuple per node in node order."""
        node, attr = slot
        pos = self.schema.attr_pos(g.nodes[node], attr)
        return tuple([frozenset([a[node][pos] for a in group])
                      for group in rows.positives])

    def constraint(self, witnesses: tuple, trace: Trace) -> tuple[str, str] | None:
        """``syn_lcs(witnesses)``, computed once per engine; ``trace`` counts calls and misses."""
        trace.syn_lcs_calls += 1
        if witnesses not in self.synthesized:
            trace.syn_lcs_misses += 1
            self.synthesized[witnesses] = syn_lcs(witnesses)
        return self.synthesized[witnesses]

    def _extended(self, v: QueryGraph, rows: Rows) -> Rows | None:
        """Rows of ``v``, its parent's ``rows`` extended by its last node;
        None when some positive keeps no assignment."""
        if len(v.nodes) == 1:
            return self.head_rows
        last = len(v.nodes) - 1
        rel, links, strs, self_eq = join_step(self.schema, v, range(last), last)
        matching = self.facts.matching

        def extend(group: tuple[Assignment, ...]) -> tuple[Assignment, ...]:
            out = []
            for a in group:
                values = [(pos, a[j][jpos]) for pos, j, jpos in links]
                out.extend(a + (t,) for t in matching(rel, values, strs, self_eq))
            return tuple(out)

        positives = []
        for group in rows.positives:
            got = extend(group)
            if not got:
                return None
            positives.append(got)
        negatives = tuple(got for got in map(extend, rows.negatives) if got)
        return Rows(tuple(positives), negatives)

    def _constrained(self, g: QueryGraph, rows: Rows, slot: tuple[int, str],
                     pred: str, literal: str) -> Rows:
        """Rows of ``g`` with ``pred(slot, literal)`` added."""
        node, attr = slot
        pos = self.schema.attr_pos(g.nodes[node], attr)

        def keep(group):
            return tuple(a for a in group if pred_holds(pred, a[node][pos], literal))

        negatives = tuple(got for got in map(keep, rows.negatives) if got)
        return Rows(tuple(map(keep, rows.positives)), negatives)

    def _parents(self, state: RefinementState, m: int,
                 k: int) -> list[tuple[QueryGraph, Rows]]:
        graphs = state.refinable(m, k)
        if not graphs:
            return []
        rows = state.rows.get((m, k))
        if rows is None:
            raise ValueError(f"level {(m, k)} kept no rows to refine from "
                             f"(m_cap {self.m_cap})")
        return list(zip(graphs, rows))

    def refine(self, state: RefinementState, m: int, k: int) -> None:
        """Fill table level (m, k) from its predecessor levels, as a level of ``state.trace``."""
        state.trace.levels.append(level := Level(m, k))
        with state.trace.span("refine", level):
            for old in [old for old in state.rows if old[0] <= m - 2]:
                del state.rows[old]
            if m == 1 and k == 1:
                seeds = [(QueryGraph.empty(), k, self.head_rows)]
            else:
                seeds = [(g, k, r) for g, r in self._parents(state, m - 1, k)]
                seeds += [(g, k - 1, r) for g, r in self._parents(state, m - 1, k - 1)]
            level.worklist = len(seeds)
            refinable: list[QueryGraph] = []
            candidates: list[QueryGraph] = []
            level_rows: list[Rows] | None = (
                [] if self.m_cap is None or m < self.m_cap else None)
            # The refinable graphs of this level. A graph derived again exactly
            # (its string constraints added in another order, or an augmented
            # parent expanded) has the same nodes, so it recurs only within the
            # level, and matching it here spares its certificate.
            produced: set[QueryGraph] = set()

            def is_new(g: QueryGraph) -> bool:
                """Count ``g`` as generated; is it new to the whole search?"""
                level.generated += 1
                if g in produced:
                    level.rederived += 1
                    return False
                key = certificate(g, skeletons)
                if key in state.seen:
                    level.dedup_hits += 1
                    return False
                state.seen.add(key)
                return True

            def keep(g: QueryGraph, rows: Rows) -> None:
                # g admits every positive; it is a candidate if no negative.
                produced.add(g)
                refinable.append(g)
                if level_rows is not None:
                    level_rows.append(rows)
                if not rows.negatives:
                    candidates.append(g)

            # Per seed skeleton, the searches of its children's skeletons,
            # which ``is_new`` reads as ``skeletons``; kept until the last
            # seed with that skeleton.
            last = {(g.nodes, g.eq_edges): i for i, (g, _, _) in enumerate(seeds)}
            by_seed: dict = {}
            for i, (g, source_k, rows) in enumerate(seeds):
                seed_skeleton = (g.nodes, g.eq_edges)
                skeletons = by_seed.setdefault(seed_skeleton, {})
                if last[seed_skeleton] == i:
                    del by_seed[seed_skeleton]
                for rel in self.relations:
                    mult = multiplicity(g, rel)  # the child's largest must be k
                    if (mult >= k) if source_k == k else (mult != k - 1):
                        continue
                    for v in self.expand(g, rel):
                        if not is_new(v):
                            continue
                        v_rows = self._extended(v, rows)
                        if v_rows is None:
                            continue
                        keep(v, v_rows)
                        # String constraints close under iteration within the
                        # level: an augmented graph re-enters with its remaining
                        # slots (witnesses read from its filtered rows), so
                        # graphs can carry several synthesized constraints.
                        queue = [(v, self._string_slots(v), v_rows)]
                        while queue:
                            base, base_slots, base_rows = queue.pop()
                            for slot in base_slots:
                                constraint = self.constraint(
                                    self.witnesses(base, base_rows, slot), state.trace)
                                if constraint is None:
                                    continue
                                pred, literal = constraint
                                augmented = base.with_constraint(
                                    slot[0], slot[1], pred, literal)
                                if not is_new(augmented):
                                    continue
                                aug_rows = self._constrained(base, base_rows, slot,
                                                             pred, literal)
                                assert all(aug_rows.positives), \
                                    "string closure preserves refinability"
                                keep(augmented, aug_rows)
                                rest = self._string_slots(augmented)
                                if rest:
                                    queue.append((augmented, rest, aug_rows))
            level.refinable = len(refinable)
            level.candidates = len(candidates)
            state.table[(m, k)] = (refinable, candidates)
            if level_rows is not None:
                state.rows[(m, k)] = level_rows
