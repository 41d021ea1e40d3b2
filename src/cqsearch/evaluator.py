"""In-memory evaluation of conjunctive queries over a fact base.

A query graph is checked against the schema (``check_graph``).
``evaluate`` runs a plan that knows keys (``_key_aware``), read from the
graph and the schema, for every graph, with a cycle or without. Its
variables are the classes of ``(node, position)`` slots that the
equalities unite (``query.variables``). It drops every non-head node that
only its primary key touches and that has no string constraint or
self-loop: the fact base resolves every foreign key, so such a node holds
for any binding. It joins every other non-head node whose key variable
another node holds into each such node, a dict lookup that never adds a
row, projects what is left onto the variables the factors share,
deduplicated, and searches per head row over these small factors, each
indexed by the variables bound before it. It is variable elimination as in
bucket elimination and InsideOut (Dechter 1999; Abo Khamis, Ngo & Rudra
2016), key joins first, since they never grow a factor.

It gives the deduplicated projection onto the head; semantics match the
naive selection over the full Cartesian product (the test suite certifies
this against a product oracle and a search per head tuple).

``refinable_with_witnesses`` compiles a graph (``_Compiled``) into the join
step per node that refinement binds a new node with (``join_step``).
Refinement compiles no graph; it and ``evaluate`` are the from-scratch
evaluation the test suite holds refinement against. A graph the schema does
not license is an ``EvalError``; so is one checked against a partition whose
target is not its head's relation, and one compiled against another fact base.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain, compress
from operator import add, eq, itemgetter

from .core import DomainError, FactBase, RelationPartition, SchemaError, Tuple
from .query import GraphError, QueryGraph, check_graph, join_step, variables as query_variables


class EvalError(DomainError):
    """Query the schema does not license, or checked against a partition
    whose target is not its head's relation, or compiled against another
    fact base."""


def _licensed(g, facts: FactBase) -> QueryGraph:
    """``g``, if it is a query graph that the schema of ``facts`` licenses."""
    if not isinstance(g, QueryGraph):
        raise EvalError(f"cannot evaluate {type(g).__name__}")
    try:
        check_graph(g, facts.schema)
    except (GraphError, SchemaError) as exc:
        raise EvalError(str(exc)) from exc
    return g


def _on_target(g: QueryGraph, part: RelationPartition) -> None:
    """Raise unless the head of ``g`` ranges over the target of ``part``."""
    head = g.nodes[0] if g.nodes else None
    if head != part.target:
        raise EvalError(f"query head {head!r} is not the target {part.target!r}")


class _Compiled:
    """Query graph compiled against one fact base into per-node join steps.

    Nodes join in node order, except that a node waits until it is connected
    to a joined one: each step takes the first remaining node with an
    equality edge to the joined ones, or the first remaining when none has
    one. A graph refinement builds is therefore joined in node order, the
    order it extends assignments in. ``steps[i]`` is the ``join_step`` of
    the i-th node to join, its links naming earlier nodes by these join
    positions, and ``at`` maps each node to its position, in join order.
    ``graph`` is the graph compiled.
    """

    def __init__(self, facts: FactBase, g: QueryGraph):
        self.facts, self.graph = facts, _licensed(g, facts)
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

    @staticmethod
    def of(facts: FactBase, q) -> "_Compiled":
        if isinstance(q, _Compiled):
            if q.facts is not facts:
                raise EvalError("query compiled against another fact base")
            return q
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


def _variables(g: QueryGraph, facts: FactBase) -> list[list[int | None]]:
    """Per node, per position of its tuples: the variable there
    (``query.variables``), or None where no equality touches it."""
    per_node = query_variables(g, facts.schema)
    sizes = Counter(chain.from_iterable(per_node))
    return [[v if sizes[v] > 1 else None for v in node] for node in per_node]


def _agreeing(rows, pairs) -> list[Tuple]:
    """The ``rows`` that hold one value at both columns of every pair."""
    for p, q in pairs:
        rows = list(compress(rows, map(eq, map(itemgetter(p), rows), map(itemgetter(q), rows))))
    return rows


def _no_key(_) -> tuple:
    return ()


def _key(columns):
    """A row's key at ``columns``, by ``itemgetter``: one column gives its value."""
    return itemgetter(*columns) if columns else _no_key


def _factors(g: QueryGraph, facts: FactBase):
    """Steps (a) and (b) of ``_key_aware``: ``[variables per column, rows]``
    per factor, the head's first, or None when a factor keeps no row."""
    factors: dict[int, list] = {}  # by its first node
    for i, (variables, rel) in enumerate(zip(_variables(g, facts), g.nodes)):
        strs = tuple((facts.schema.attr_pos(rel, attr), pred, literal)
                     for node, attr, pred, literal in g.str_edges if node == i)
        if i and not strs and variables[0] is not None \
                and variables.count(None) == len(variables) - 1:
            continue  # (a): only its primary key is touched
        first: dict[int, int] = {}
        rows = _agreeing(facts.matching(rel, (), strs),
                         [(first[v], p) for p, v in enumerate(variables)
                          if v is not None and first.setdefault(v, p) != p])
        if not rows:
            return None
        factors[i] = [variables, rows]
    for k in [k for k in factors if k]:  # (b)
        variables, rows = factors[k]
        holders = [f for j, f in factors.items()
                   if j != k and variables[0] is not None and variables[0] in f[0]]
        if not holders:
            continue
        del factors[k]
        by_key = dict(zip(map(itemgetter(0), rows), rows))
        for f in holders:
            columns, held = f
            found = list(map(by_key.get, map(itemgetter(columns.index(variables[0])), held)))
            held = _agreeing(list(map(add, compress(held, found), filter(None, found))),
                             [(columns.index(v), len(columns) + p)
                              for p, v in enumerate(variables)
                              if p and v is not None and v in columns])
            if not held:
                return None
            f[:] = [columns + [None] + variables[1:], held]
    return list(factors.values())


def _connected(factors, variables: set) -> tuple[list, list]:
    """The ``(variables, rows)`` factors that ``variables`` reach through shared
    variables, and the others."""
    reached, frontier, component = set(), set(variables), []
    while frontier:
        reached |= frontier
        component += [f for f in factors if not reached.isdisjoint(f[0])]
        factors = [f for f in factors if reached.isdisjoint(f[0])]
        frontier = {v for f in component for v in f[0]} - reached
    return component, factors


def _cost(factor, at: dict[int, int]) -> tuple:
    """How ``_indexed`` ranks a factor: first those that bound variables
    index, the ones that only check a key before the ones that grow the
    binding, these by the mean number of rows per key; then the rest, by
    their number of rows."""
    variables, rows = factor
    bound = [p for p, v in enumerate(variables) if v in at]
    if not bound:
        return (1, 0, len(rows))
    if len(bound) == len(variables):
        return (0, 0, 0)
    return (0, 1, len(rows) / len(set(map(_key(bound), rows))))


def _indexed(factors, at: dict[int, int], width: int) -> list:
    """The search steps over the ``(variables, rows)`` ``factors`` once the
    variables of ``at`` are bound at those positions of a binding ``width``
    values long, each step the factor of least ``_cost``. A step is ``(key,
    index, grows, reads_first)``: the ``key`` of the binding, the ``index``
    of the factor's rows by their key, whether the step ``grows`` the binding
    by the values of the factor's unbound variables, listed per key in
    ``index``, or only looks the key up in the set ``index``, and whether the
    key reads the first ``width`` values only."""
    steps, first, factors = [], width, list(factors)
    while factors:
        costs = [_cost(f, at) for f in factors]
        variables, rows = factors.pop(costs.index(min(costs)))
        bound = [p for p, v in enumerate(variables) if v in at]
        new = [p for p, v in enumerate(variables) if v not in at]
        key = _key([at[variables[p]] for p in bound])
        reads_first = all(at[variables[p]] < first for p in bound)
        if not new:
            steps.append((key, set(map(_key(bound), rows)), False, reads_first))
            continue
        index: dict = {}
        for k, row in zip(map(_key(bound), rows), rows):
            index.setdefault(k, []).append(row)
        steps.append((key, index, True, reads_first))
        for p in new:
            at[variables[p]] = width + p
        width += len(variables)
    return steps


def _holds(binding: tuple, steps, i: int = 0) -> bool:
    """Can ``binding`` grow through ``steps[i:]``? Depth first; a module-level
    function, so that no closure refers to itself."""
    for i in range(i, len(steps)):
        key, index, grows = steps[i]
        if not grows:
            if key(binding) not in index:
                return False
            continue
        for values in index.get(key(binding), ()):
            if _holds(binding + values, steps, i + 1):
                return True
        return False
    return True


def _key_aware(g: QueryGraph, facts: FactBase) -> frozenset[Tuple]:
    """``evaluate`` by a plan that knows keys.

    Each node is a factor: its tuples, each position the variable
    (``_variables``) that the equalities make it. Then:

    (a) a non-head node that only its primary key touches, with no string
        constraint or self-loop, holds for every binding, since
        ``FactBase`` resolves every foreign key: it is dropped;
    (b) every other non-head factor whose primary-key variable some other
        factor holds is joined into each such factor, by a dict lookup that
        never adds a row, and removed. A factor's rows are thus its node's
        tuples followed by the tuples it took in, the head's tuple first;
    (c) each other factor is projected onto the variables it shares,
        deduplicated; one that shares none has rows, so it holds;
    (d) the factors the head reaches are searched per head row, each indexed
        by the variables bound before it. A factor that the head's values
        alone index filters the head rows first, at C level. Every other
        component is searched once.
    """
    factors = _factors(g, facts)
    if factors is None:
        return frozenset()
    counts = Counter(v for variables, _ in factors for v in set(variables))
    shared = [[v for v in dict.fromkeys(variables) if v is not None and counts[v] > 1]
              for variables, _ in factors]
    (head_columns, rows), *others = factors
    projected = [(variables, set(zip(*[map(itemgetter(columns.index(v)), held)
                                       for v in variables])))
                 for variables, (columns, held) in zip(shared[1:], others) if variables]
    component, projected = _connected(projected, set(shared[0]))
    while projected:
        apart, projected = _connected(projected, set(projected[0][0]))
        if not _holds((), [step[:3] for step in _indexed(apart, {}, 0)]):
            return frozenset()
    search = []
    for key, index, grows, reads_head in _indexed(
            component, {v: head_columns.index(v) for v in shared[0]}, len(head_columns)):
        if reads_head:
            rows = list(compress(rows, map(index.__contains__, map(key, rows))))
        if grows or not reads_head:
            search.append((key, index, grows))
    arity = len(facts.schema[g.nodes[0]])
    return frozenset(row[:arity] for row in rows if _holds(row, search))


def evaluate(g: QueryGraph, facts: FactBase) -> frozenset[Tuple]:
    """Deduplicated head tuples admitting a satisfying assignment."""
    if not _licensed(g, facts).nodes:
        raise EvalError("cannot evaluate the empty query")
    return _key_aware(g, facts)


def is_candidate(g: QueryGraph, facts: FactBase, part: RelationPartition) -> bool:
    """Does the query admit every positive tuple and no negative one?"""
    _on_target(_licensed(g, facts), part)
    answer = _key_aware(g, facts)
    return part.positives <= answer and answer.isdisjoint(part.negatives)


def refinable_with_witnesses(
        g, facts: FactBase, part: RelationPartition,
        slots: list[tuple[int, str]]) -> tuple[bool, dict[tuple[int, str], list[set[str]]]]:
    """One pass per positive: refinability plus witness values per string
    slot ``(node, attr)``.

    Returns (refinable, {slot: [witness set per positive, in sorted order]}).
    Bails out as not refinable on the first positive with no assignment.
    ``g`` is a query graph or one already compiled against ``facts``.
    """
    c = _Compiled.of(facts, g)
    _on_target(c.graph, part)
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
