"""Dual-metric candidate selection blended with the refinement loop.

Named-entity coverage measures how much of the description's vocabulary the
query's selection condition touches, through a hand-written mapping from
relation attributes to words; structural complexity is relation count plus
atom count. Both are read off the query graph, where every atom is one edge.
Queries are ranked by coverage first (higher wins), complexity second (lower
wins); synthesis keeps exactly the top equivalence class, and only its
graphs are reported.

The loop walks levels (m, k) in increasing order and stops early once
coverage has hit its schema-wide upper bound and every query still derivable
from the current refinable frontier is provably no simpler than the
selection; derivation strictly grows complexity, which makes the frontier
minimum a sound bound.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import FK, DomainError, FactBase, RelationPartition, Schema, Trace
from .query import QueryGraph, canonical_form
from .reduction import ReducedRepresentation, reduce
from .refine import RefinementEngine, RefinementState


class ContextError(DomainError):
    """Unusable entity context (empty description entity set, bad h map)."""


@dataclass(frozen=True)
class EntityContext:
    dictionary: frozenset[str]
    h: dict[tuple[str, str], frozenset[str]]
    entities: frozenset[str]  # named entities of the description

    def __post_init__(self):
        if not self.entities <= self.dictionary:
            raise ContextError("description entities must come from the dictionary")
        for key, words in self.h.items():
            if not words <= self.dictionary:
                raise ContextError(f"h{key!r} maps outside the dictionary")


def extract_entities(description: str, dictionary: Iterable[str]) -> frozenset[str]:
    """Lowercase alphanumeric tokens resolved against the dictionary.

    Plural forms fall back to their singular ('methods' -> 'method').
    """
    words = frozenset(dictionary)
    found = set()
    for token in re.findall(r"[a-z0-9]+", description.lower()):
        if token in words:
            found.add(token)
        elif token.endswith("s") and token[:-1] in words:
            found.add(token[:-1])
        elif token.endswith("es") and token[:-2] in words:
            found.add(token[:-2])
    return frozenset(found)


def load_hmap(doc: dict) -> tuple[frozenset[str], dict[tuple[str, str], frozenset[str]]]:
    if not isinstance(doc, dict) or "dictionary" not in doc or "h" not in doc:
        raise ContextError("hmap document needs 'dictionary' and 'h'")
    dictionary, entries = doc["dictionary"], doc["h"]
    if not isinstance(dictionary, list) or not all(isinstance(w, str) for w in dictionary):
        raise ContextError("hmap 'dictionary' must be a list of words")
    if not isinstance(entries, dict):
        raise ContextError("hmap 'h' must map Relation.attribute to words")
    h = {}
    for key, words in entries.items():
        rel, _, attr = key.partition(".")
        if not rel or not attr:
            raise ContextError(f"h key {key!r} is not Relation.attribute")
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise ContextError(f"h[{key!r}] must be a list of words")
        h[(rel, attr)] = frozenset(words)
    return frozenset(dictionary), h


def make_context(hmap_doc: dict, description: str) -> EntityContext:
    dictionary, h = load_hmap(hmap_doc)
    return EntityContext(dictionary, h, extract_entities(description, dictionary))


def condition_attrs(g: QueryGraph, schema: Schema) -> frozenset[tuple[str, str]]:
    """(relation, attribute) pairs appearing in the selection condition.

    An equality edge touches its foreign key and the referenced primary key.
    """
    pairs = set()
    for fk, pk, attr in g.eq_edges:
        pk_rel = g.nodes[pk]
        pairs.add((pk_rel, schema.pk_attr(pk_rel).name))
        pairs.add((g.nodes[fk], attr))
    for node, attr, _, _ in g.str_edges:
        pairs.add((g.nodes[node], attr))
    return frozenset(pairs)


def _coverage(pairs: Iterable[tuple[str, str]], ctx: EntityContext) -> Fraction:
    """Fraction of description entities that the h map reaches from ``pairs``."""
    if not ctx.entities:
        raise ContextError("no named entities in the description")
    covered = set()
    for pair in pairs:
        covered |= ctx.h.get(pair, frozenset()) & ctx.entities
    return Fraction(len(covered), len(ctx.entities))


def coverage(g: QueryGraph, schema: Schema, ctx: EntityContext) -> Fraction:
    """Fraction of description entities the condition's attributes reach."""
    return _coverage(condition_attrs(g, schema), ctx)


def rank(g: QueryGraph, schema: Schema, ctx: EntityContext) -> tuple[Fraction, int]:
    """``(coverage, -complexity)``: of two queries, the greater key ranks higher."""
    return coverage(g, schema, ctx), -g.complexity()


@dataclass(frozen=True)
class SelectedQuery:
    """A selected query's graph; the result's ``alpha_max`` and ``beta_min`` rank it."""
    graph: QueryGraph

    @property
    def query(self) -> QueryGraph:
        """``graph``. Kept only because perfbench/workloads.py reads it; the
        benchmark's next change deletes it."""
        return self.graph


@dataclass
class SynthesisResult:
    selected: tuple[SelectedQuery, ...]
    alpha_max: Fraction | None
    beta_min: int | None
    terminated_early: bool
    reduced: ReducedRepresentation
    state: RefinementState

    @property
    def trace(self) -> Trace:
        return self.state.trace

    @property
    def levels_explored(self) -> tuple[tuple[int, int], ...]:
        return tuple((level.m, level.k) for level in self.trace.levels)


def coverage_upper_bound(schema: Schema, kept: frozenset[str],
                         ctx: EntityContext) -> Fraction:
    """Description entities reachable through kept relations' attributes."""
    return _coverage(((rel, a.name) for rel in kept for a in schema[rel]
                      if a.kind != FK or a.target in kept), ctx)


def _frontier_min_beta(state: RefinementState, m: int, k: int,
                       k_cap: int) -> int | None:
    """Least complexity among refinable graphs future levels can build on."""
    graphs: list[QueryGraph] = []
    for j in range(1, k + 1):
        graphs += state.refinable(m, j)
    if k < min(k_cap, m):
        for j in range(k, min(k_cap, m) + 1):
            graphs += state.refinable(m - 1, j)
    if not graphs:
        return None
    return min(g.complexity() for g in graphs)


def synthesize(schema: Schema, facts: FactBase, part: RelationPartition,
               ctx: EntityContext, k_bound: int = 2, *,
               early_stop: bool = True, use_reduction: bool = True,
               max_relations: int | None = None, max_cycle_len: int = 8,
               trace: Trace | None = None) -> SynthesisResult:
    if not ctx.entities:
        raise ContextError("no named entities in the description")
    trace = Trace() if trace is None else trace
    with trace.span("reduce"):
        if use_reduction:
            reduced = reduce(schema, facts, part, max_cycle_len=max_cycle_len)
        else:
            reduced = ReducedRepresentation(frozenset(schema), frozenset())
    kept = reduced.kept
    alpha_bound = coverage_upper_bound(schema, kept, ctx)

    m_cap = k_bound * len(kept)
    if max_relations is not None:
        m_cap = min(m_cap, max_relations)

    engine = RefinementEngine(facts, part, sorted(kept), m_cap=m_cap)
    state = RefinementState(trace=trace)
    best: tuple[Fraction, int] | None = None  # rank of the selected class
    selected: dict = {}  # canonical form -> graph, for the top-ranked class
    terminated_early = False

    for m in range(1, m_cap + 1):
        if terminated_early:
            break
        for k in range(1, min(k_bound, m) + 1):
            if (m, k) != (1, 1):
                if not state.refinable(m - 1, k) and not state.refinable(m - 1, k - 1):
                    continue
            engine.refine(state, m, k)
            with trace.span("select"):
                for g in state.candidates(m, k):
                    key = rank(g, schema, ctx)
                    if best is None or key > best:
                        best, selected = key, {canonical_form(g): g}
                    elif key == best:
                        selected.setdefault(canonical_form(g), g)
                if early_stop and selected and best[0] == alpha_bound:
                    frontier = _frontier_min_beta(state, m, k, k_bound)
                    if frontier is None or -best[1] <= frontier:
                        terminated_early = True
                        break

    with trace.span("select"):
        state.rows.clear()  # the assignments serve only the next level
        alpha_max, beta_min = (best[0], -best[1]) if best else (None, None)
        chosen = tuple(SelectedQuery(selected[c]) for c in sorted(selected))
    return SynthesisResult(chosen, alpha_max, beta_min, terminated_early,
                           reduced, state)
