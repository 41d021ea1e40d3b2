"""Schema graph and undirected relation paths.

The schema graph has one node per relation plus the STR sink, and one labeled
edge per foreign key / string attribute. Relation paths walk foreign-key edges
in either direction, recording the direction; chaining key equalities along a
path from a start tuple yields its activated tuple set. Dummy-relation
detection (``reduction.reduce``) computes these activations over the whole
path set in one walk without building paths; the path helpers here spell the
set out one path at a time. Both take a step with ``compile_step`` and
``step_image``, which probes ``FactBase.by_attr`` once per tuple.

Path enumeration is acyclic paths plus each cycle spliced in once, and that
once-spliced path set is the contract. Activation is not insensitive to
repeating a cycle in general. Only echo cycles are idempotent: one foreign-key
edge walked out and straight back (follow the key, then collect all
referrers), which computes a same-key-value closure. A one-step self-loop, a
two-cycle over parallel edges or a longer cycle can activate different tuples
on each lap; the extraction schema's self foreign key ``Class.super_id``
yields such one-step loops.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .core import FK, STR, STR_NODE, FactBase, Schema, Tuple


@dataclass(frozen=True)
class SchemaEdge:
    src: str
    dst: str  # relation name or STR_NODE
    attr: str


class PathStep(NamedTuple):
    attr: str
    direction: int  # +1 follows the foreign key, -1 walks it backwards
    next: str


@dataclass(frozen=True)
class RelationPath:
    start: str
    steps: tuple[PathStep, ...]

    @property
    def end(self) -> str:
        return self.steps[-1].next if self.steps else self.start

    def nodes(self) -> tuple[str, ...]:
        return (self.start,) + tuple(s.next for s in self.steps)

    def __str__(self) -> str:
        out = [self.start]
        for s in self.steps:
            arrow = "+" if s.direction == 1 else "-"
            out.append(f"-({s.attr},{arrow})-> {s.next}")
        return " ".join(out)


class SchemaGraph:
    def __init__(self, schema: Schema):
        self.schema = schema
        self.nodes: tuple[str, ...] = tuple(sorted(schema)) + (STR_NODE,)
        edges = []
        for rel in schema:
            for a in schema[rel]:
                if a.kind == FK:
                    edges.append(SchemaEdge(rel, a.target, a.name))
                elif a.kind == STR:
                    edges.append(SchemaEdge(rel, STR_NODE, a.name))
        self.edges: tuple[SchemaEdge, ...] = tuple(
            sorted(edges, key=lambda e: (e.src, e.dst, e.attr)))
        self.fk_edges: tuple[SchemaEdge, ...] = tuple(
            e for e in self.edges if e.dst != STR_NODE)
        # Every legal single step out of a relation, with the edge it walks.
        moves: dict[str, list[tuple[PathStep, SchemaEdge]]] = {r: [] for r in schema}
        for e in self.fk_edges:
            moves[e.src].append((PathStep(e.attr, 1, e.dst), e))
            moves[e.dst].append((PathStep(e.attr, -1, e.src), e))
        self._moves: dict[str, tuple[tuple[PathStep, SchemaEdge], ...]] = {
            rel: tuple(sorted(ms, key=lambda m: m[0])) for rel, ms in moves.items()}
        self._steps: dict[str, tuple[PathStep, ...]] = {
            rel: tuple(step for step, _ in moves)
            for rel, moves in self._moves.items()}
        # The schema's declarations as plain strings, which hash fast.
        self.decl_key = tuple((rel, tuple((a.name, a.kind, a.target) for a in attrs))
                              for rel, attrs in schema.items())

    def steps_from(self, rel: str) -> tuple[PathStep, ...]:
        """Every legal single step out of ``rel``, in deterministic order."""
        return self._steps[rel]

    def moves_from(self, rel: str) -> tuple[tuple[PathStep, SchemaEdge], ...]:
        """``steps_from`` paired with the foreign-key edge each step walks."""
        return self._moves[rel]

    def to_dot(self) -> str:
        lines = ["digraph schema {"]
        for n in self.nodes:
            shape = "box" if n != STR_NODE else "ellipse"
            lines.append(f'  "{n}" [shape={shape}];')
        for e in self.edges:
            lines.append(f'  "{e.src}" -> "{e.dst}" [label="{e.attr}"];')
        lines.append("}")
        return "\n".join(lines)


def build_schema_graph(schema: Schema) -> SchemaGraph:
    return SchemaGraph(schema)


def acyclic_paths(g: SchemaGraph, src: str, dst: str) -> list[RelationPath]:
    """All simple undirected relation paths src -> dst.

    src == dst yields just the zero-step path (cycles through src are handled
    by augmentation).
    """
    if src == dst:
        return [RelationPath(src, ())]
    out: list[RelationPath] = []

    def walk(cur: str, visited: set[str], steps: list[PathStep]):
        for step in g.steps_from(cur):
            if step.next in visited:
                continue
            steps.append(step)
            if step.next == dst:
                out.append(RelationPath(src, tuple(steps)))
            else:
                visited.add(step.next)
                walk(step.next, visited, steps)
                visited.remove(step.next)
            steps.pop()

    walk(src, {src}, [])
    out.sort(key=lambda p: p.steps)
    return out


@dataclass(frozen=True)
class Cycle:
    """A closed walk with distinct interior nodes, in canonical form.

    Covers proper simple cycles, single self-loop steps, and the two-step
    back-and-forth over one edge.
    """
    anchor: str
    steps: tuple[PathStep, ...]

    def nodes(self) -> frozenset[str]:
        return frozenset((self.anchor,) + tuple(s.next for s in self.steps))

    def rotated_to(self, node: str) -> tuple[PathStep, ...]:
        order = [self.anchor] + [s.next for s in self.steps]
        idx = order.index(node)
        return self.steps[idx:] + self.steps[:idx]


# By (``SchemaGraph.decl_key``, max_len): the cycles and their ``cycle_loops``.
# Keyed by declarations, not names and edges: compiled steps hold positions.
_CYCLES: dict[tuple, tuple[tuple[Cycle, ...], dict[str, list]]] = {}
_CYCLES_SIZE = 16


def simple_cycles(g: SchemaGraph, max_len: int = 8) -> list[Cycle]:
    """Enumerate cycles up to ``max_len`` steps, one canonical walk each.

    Memoised per schema in a small bounded table; every call returns a fresh
    list.
    """
    key = (g.decl_key, max_len)
    entry = _CYCLES.get(key)
    if entry is None:
        cycles = tuple(_enumerate_cycles(g, max_len))
        loops: dict[str, list] = {rel: [] for rel in g.schema}
        for cyc in cycles:
            # Step i leaves order[i] in every rotation: compile once, slice.
            order = (cyc.anchor,) + tuple(s.next for s in cyc.steps[:-1])
            steps = tuple(compile_step(g.schema, cur, step)
                          for cur, step in zip(order, cyc.steps))
            members = cyc.nodes()
            for node in members:  # rotated to its first visit, as ``rotated_to``
                i = order.index(node)
                loops[node].append((members, steps[i:] + steps[:i]))
        if len(_CYCLES) >= _CYCLES_SIZE:
            del _CYCLES[next(iter(_CYCLES))]
        entry = _CYCLES[key] = (cycles, loops)
    return list(entry[0])


def cycle_loops(g: SchemaGraph, max_len: int = 8) -> dict[str, list]:
    """Per relation, (members, compiled loop from it) per cycle; read only."""
    simple_cycles(g, max_len)  # fills the entry
    return _CYCLES[(g.decl_key, max_len)][1]


def _enumerate_cycles(g: SchemaGraph, max_len: int) -> list[Cycle]:
    raw: set[tuple[str, tuple[PathStep, ...]]] = set()

    # Echo cycles: out and straight back over the same edge (two steps).
    for e in g.fk_edges:
        if max_len >= 2:
            raw.add((e.src, (PathStep(e.attr, 1, e.dst), PathStep(e.attr, -1, e.src))))
            raw.add((e.dst, (PathStep(e.attr, -1, e.src), PathStep(e.attr, 1, e.dst))))
        if e.src == e.dst and max_len >= 1:  # self-loop: single steps close too
            raw.add((e.src, (PathStep(e.attr, 1, e.dst),)))
            raw.add((e.src, (PathStep(e.attr, -1, e.src),)))

    # Proper cycles: distinct edges, no repeated interior node.
    def walk(start: str, cur: str, steps: list[PathStep],
             used: set[SchemaEdge], visited: set[str]):
        if len(steps) >= max_len:
            return
        for step, edge in g.moves_from(cur):
            if edge in used:
                continue
            if step.next == start:
                if len(steps) >= 1 and step.next != cur:
                    raw.add((start, tuple(steps + [step])))
                continue
            if step.next in visited:
                continue
            steps.append(step)
            used.add(edge)
            visited.add(step.next)
            walk(start, step.next, steps, used, visited)
            visited.remove(step.next)
            used.remove(edge)
            steps.pop()

    for start in sorted(g.schema):
        walk(start, start, [], set(), {start})

    # Deduplicate rotations of the same closed walk: normalize every cycle to
    # its lexicographically least (anchor, steps) rotation. Reversed
    # traversals are distinct cycles on purpose: activation follows key
    # direction, so walking a cycle the other way constrains differently
    # (back-and-forth echoes coincide with their reversal and dedupe anyway).
    canon: dict[tuple, Cycle] = {}
    for anchor, steps in raw:
        variants = []
        order = [anchor] + [s.next for s in steps]
        for i in range(len(steps)):
            variants.append((order[i], steps[i:] + steps[:i]))
        best = min(variants)
        canon[best] = Cycle(best[0], best[1])
    return sorted(canon.values(), key=lambda c: (c.anchor, c.steps))


def augment_with_cycles(paths: Iterable[RelationPath], g: SchemaGraph,
                        max_cycle_len: int = 8,
                        cycles: list[Cycle] | None = None) -> list[RelationPath]:
    """Each input path, plus each cycle spliced once at its first shared node."""
    if cycles is None:
        cycles = simple_cycles(g, max_cycle_len)
    out: list[RelationPath] = []
    seen: set[tuple] = set()

    def emit(p: RelationPath):
        key = (p.start, p.steps)
        if key not in seen:
            seen.add(key)
            out.append(p)

    for path in paths:
        emit(path)
        nodes = path.nodes()
        for cyc in cycles:
            cyc_nodes = cyc.nodes()
            splice_at = next((i for i, n in enumerate(nodes) if n in cyc_nodes), None)
            if splice_at is None:
                continue
            loop = cyc.rotated_to(nodes[splice_at])
            steps = path.steps[:splice_at] + loop + path.steps[splice_at:]
            emit(RelationPath(path.start, steps))
    return out


def compile_step(schema: Schema, cur: str, step: PathStep) -> tuple[int, int, str]:
    """``(pos, next_pos, next relation)`` of ``step`` out of ``cur``: position
    ``pos`` of a ``cur`` tuple equals position ``next_pos`` of the tuples it
    reaches, and one of the two is the primary key's, 0."""
    if step.direction == 1:
        return schema.attr_pos(cur, step.attr), 0, step.next
    return 0, schema.attr_pos(step.next, step.attr), step.next


def step_image(facts: FactBase, tuples: Iterable[Tuple],
               step: tuple[int, int, str]) -> set[Tuple]:
    """Tuples one compiled step reaches from ``tuples`` by key equality."""
    pos, next_pos, next_rel = step
    by_attr = facts.by_attr
    hits: set[Tuple] = set()
    for t in tuples:
        hits.update(by_attr(next_rel, next_pos, t[pos]))
    return hits


def compile_path(path: RelationPath, schema: Schema) -> list[tuple[int, int, str]]:
    """Per step: ``compile_step``'s (pos, next_pos, next relation)."""
    return [compile_step(schema, cur, step)
            for cur, step in zip(path.nodes(), path.steps)]


def activated_relation(t0: Tuple, path: RelationPath, facts: FactBase,
                       _compiled=None) -> frozenset[Tuple]:
    """Terminal tuples reachable from ``t0`` by chaining key equalities.

    The zero-step path returns {t0}.
    """
    steps = _compiled if _compiled is not None else compile_path(path, facts.schema)
    frontier: set[Tuple] = {t0}
    for step in steps:
        frontier = step_image(facts, frontier, step)
        if not frontier:
            break
    return frozenset(frontier)
