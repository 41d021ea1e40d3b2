"""In-memory evaluation of conjunctive queries over a fact base.

A query graph is checked against the schema (``check_graph``) and compiled
once (``_Compiled``): into one join step per node, each built by
``join_step``, the function refinement builds the step of its new node with,
and, when its equalities form no cycle, into a plan of semi-joins.

``evaluate`` takes the links of a join step to one earlier node, its key
equalities with it in either direction, as one edge with a composite key;
a self-equality is a ``self_eq`` check. When the edges form a forest, it is
evaluated set at a time, bottom up (Yannakakis 1981): each node starts from
the tuples ``FactBase.selected`` gives for its string constraints and
``self_eq``, and each edge, from the leaves up, keeps the parent's tuples
whose key matches some child tuple's. The answer is the head's remaining
tuples, or nothing when a node has none left. When the edges form a cycle,
``evaluate`` searches per head tuple: it walks the join steps depth first
and binds each node through ``FactBase.matching``. Either way the result is
the deduplicated projection onto the head; semantics match the naive
selection over the full Cartesian product (the test suite certifies this
against a product oracle, and the two ways against each other).

A graph the schema does not license is an ``EvalError``; so is one checked
against a partition whose target is not its head's relation. Refinement
compiles no graph; ``refinable_with_witnesses`` and ``admits_any`` are the
from-scratch evaluation the test suite holds it against.
"""
from __future__ import annotations

from itertools import compress
from operator import itemgetter

from .core import DomainError, FactBase, RelationPartition, SchemaError, Tuple
from .query import GraphError, QueryGraph, check_graph, join_step


class EvalError(DomainError):
    """Query the schema does not license, or checked against a partition
    whose target is not its head's relation."""


class _Compiled:
    """Query graph compiled against one fact base into per-node join steps.

    Nodes join in node order, except that a node waits until it is connected
    to a joined one: each step takes the first remaining node with an
    equality edge to the joined ones, or the first remaining when none has
    one. A graph refinement builds is therefore joined in node order, the
    order it extends assignments in. ``steps[i]`` is the ``join_step`` of
    the i-th node to join, its links naming earlier nodes by these join
    positions, and ``at`` maps each node to its position. ``semijoins`` is
    the plan ``_semijoins`` makes, or None for a graph with a cycle.
    """

    def __init__(self, facts: FactBase, g: QueryGraph):
        try:
            check_graph(g, facts.schema)
        except (GraphError, SchemaError) as exc:
            raise EvalError(str(exc)) from exc
        self.facts = facts
        neighbours: list[set[int]] = [set() for _ in g.nodes]
        for fk, pk, _ in g.eq_edges:
            neighbours[fk].add(pk)
            neighbours[pk].add(fk)
        self.at: dict[int, int] = {}
        self.steps = []
        remaining = list(range(len(g.nodes)))
        while remaining:
            node = next((x for x in remaining if not neighbours[x].isdisjoint(self.at)),
                        remaining[0])
            self.steps.append(join_step(facts.schema, g, self.at, node))
            self.at[node] = len(self.at)
            remaining.remove(node)
        self.semijoins = _semijoins(self.steps)

    @staticmethod
    def of(facts: FactBase, q) -> "_Compiled":
        if isinstance(q, _Compiled):
            return q
        if not isinstance(q, QueryGraph):
            raise EvalError(f"cannot evaluate {type(q).__name__}")
        return _Compiled(facts, q)

    def assignments(self, head_tuple: Tuple):
        """Yield every satisfying assignment binding the head to the tuple
        with ``head_tuple``'s primary key: one tuple per node, in join order.

        Depth first over an explicit stack of match iterators, one per bound
        node, so that no closure refers to itself: the fact base is freed by
        reference counting once the last query over it is gone."""
        matching, steps = self.facts.matching, self.steps
        rel, _, strs, self_eq = steps[0]
        bound: list[Tuple] = []
        pending = [iter(matching(rel, ((0, head_tuple[0]),), strs, self_eq))]
        while pending:
            t = next(pending[-1], None)
            if t is None:
                pending.pop()
                if bound:
                    bound.pop()
                continue
            bound.append(t)
            if len(bound) == len(steps):
                yield tuple(bound)
                bound.pop()
                continue
            rel, links, strs, self_eq = steps[len(bound)]
            values = [(pos, bound[j][jpos]) for pos, j, jpos in links]
            pending.append(iter(matching(rel, values, strs, self_eq)))

    def exists(self, head_tuple: Tuple) -> bool:
        for _ in self.assignments(head_tuple):
            return True
        return False


def _compiled_for(q, facts: FactBase, part: RelationPartition) -> _Compiled:
    """``q`` compiled against ``facts``; its head must range over the target."""
    c = _Compiled.of(facts, q)
    head = c.steps[0][0] if c.steps else None
    if head != part.target:
        raise EvalError(f"query head {head!r} is not the target {part.target!r}")
    return c


def _semijoins(steps):
    """``(parent, child, parent_key, child_key)`` per edge of the forest that
    the equalities between distinct nodes form, children before their
    parents, or None when they form a cycle. Nodes are join positions, and
    a child's links, all to one parent, make one edge: its keys are
    ``itemgetter``s of their positions in the parent's and the child's
    tuples.

    A node joins once it is connected to a joined one, so each node but the
    first of its component has an edge to an earlier one, its parent. The
    edges form a forest exactly when no node has edges to two earlier ones."""
    plan = []
    for child in range(len(steps) - 1, 0, -1):
        links = steps[child][1]
        parents = {j for _, j, _ in links}
        if len(parents) > 1:
            return None
        if parents:
            plan.append((parents.pop(), child, itemgetter(*(link[2] for link in links)),
                         itemgetter(*(link[0] for link in links))))
    return plan


def _by_semijoins(c: _Compiled) -> frozenset[Tuple]:
    """``evaluate`` of a graph without cycles: its semi-join plan, bottom up."""
    rows = [c.facts.selected(rel, strs, self_eq) for rel, _, strs, self_eq in c.steps]
    for parent, child, parent_key, child_key in c.semijoins:
        keys = set(map(child_key, rows[child]))
        rows[parent] = list(compress(rows[parent],
                                     map(keys.__contains__, map(parent_key, rows[parent]))))
    return frozenset(rows[0]) if all(rows) else frozenset()


def _per_head(c: _Compiled) -> frozenset[Tuple]:
    """``evaluate`` by a depth-first search from each head tuple."""
    rel, _, strs, self_eq = c.steps[0]
    return frozenset(t for t in c.facts.selected(rel, strs, self_eq) if c.exists(t))


def evaluate(q, facts: FactBase) -> frozenset[Tuple]:
    """Deduplicated head tuples admitting a satisfying assignment: by
    semi-joins, or per head tuple when the query's equalities form a cycle."""
    c = _Compiled.of(facts, q)
    if not c.steps:
        raise EvalError("cannot evaluate the empty query")
    return _per_head(c) if c.semijoins is None else _by_semijoins(c)


def is_refinable(q, facts: FactBase, part: RelationPartition) -> bool:
    """Does the query still admit every positive tuple?"""
    c = _compiled_for(q, facts, part)
    return all(c.exists(t) for t in sorted(part.positives))


def admits_any(q, facts: FactBase, head_tuples) -> bool:
    """Does the query admit any of ``head_tuples``, tried in the given order?"""
    c = _Compiled.of(facts, q)
    return any(c.exists(t) for t in head_tuples)


def is_candidate(q, facts: FactBase, part: RelationPartition) -> bool:
    """Does the query admit exactly the positive tuples?"""
    c = _compiled_for(q, facts, part)
    return (is_refinable(c, facts, part)
            and not admits_any(c, facts, sorted(part.negatives)))


def refinable_with_witnesses(
        g, facts: FactBase, part: RelationPartition,
        slots: list[tuple[int, str]]) -> tuple[bool, dict[tuple[int, str], list[set[str]]]]:
    """One pass per positive: refinability plus witness values per string
    slot ``(node, attr)``.

    Returns (refinable, {slot: [witness set per positive, in sorted order]}).
    Bails out as not refinable on the first positive with no assignment.
    ``g`` is a query graph or one already compiled against ``facts``.
    """
    c = _compiled_for(g, facts, part)
    positions = {}
    for node, attr in slots:
        if node not in c.at:
            raise GraphError(f"no node {node!r}")
        i = c.at[node]
        positions[(node, attr)] = (i, facts.schema.attr_pos(c.steps[i][0], attr))
    witnesses: dict[tuple[int, str], list[set[str]]] = {s: [] for s in slots}
    for t in sorted(part.positives):
        per_slot: dict[tuple[int, str], set[str]] = {s: set() for s in slots}
        any_assignment = False
        for assignment in c.assignments(t):
            any_assignment = True
            for slot, (i, pos) in positions.items():
                per_slot[slot].add(assignment[i][pos])
            if not slots:
                break
        if not any_assignment:
            return False, {}
        for s in slots:
            witnesses[s].append(per_slot[s])
    return True, witnesses


def collect_witnesses(g: QueryGraph, node: int, attr: str,
                      part: RelationPartition, facts: FactBase) -> dict[Tuple, frozenset[str]]:
    """Per positive head tuple, the values slot ``(node, attr)`` takes across
    its assignments."""
    ok, per_slot = refinable_with_witnesses(g, facts, part, [(node, attr)])
    if not ok:
        raise EvalError("witness collection requires a refinable query graph")
    sets = per_slot[(node, attr)]
    return {t: frozenset(s) for t, s in zip(sorted(part.positives), sets)}
