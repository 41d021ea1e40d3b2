"""In-memory evaluation of conjunctive queries over a fact base.

Evaluation enumerates satisfying assignments with a backtracking join that
binds the most constrained alias next and prunes through the fact base's
per-attribute indexes; the result set is the deduplicated projection onto the
head alias. Semantics match the naive selection over the full Cartesian
product (the test suite certifies this against a product oracle).

Evaluation works on the query graph; a conjunctive query is converted with
``to_graph`` on entry, so a query the schema does not license is an
``EvalError``.

``_Compiled`` serves ``evaluate``, the ``is_*`` checks and the test suite's
oracles. Refinement does not compile its graphs: it extends each parent's
satisfying assignments by one node (see ``refine``), and
``refinable_with_witnesses`` and ``admits_any`` are the from-scratch
evaluation the test suite holds it against.
"""
from __future__ import annotations

from .core import FactBase, RelationPartition, SchemaError, Tuple, pred_holds
from .query import ConjunctiveQuery, GraphError, QueryGraph, to_graph


class EvalError(Exception):
    """Query references aliases or attributes the schema cannot resolve."""


class _Compiled:
    """Query normalized to positional constraints against one fact base."""

    def __init__(self, facts: FactBase, g: QueryGraph):
        schema = facts.schema
        self.facts = facts
        self.aliases = []
        self.relation = {}
        for rel, alias in g.nodes:
            if rel not in schema:
                raise EvalError(f"unknown relation {rel!r}")
            if alias in self.relation:
                raise EvalError(f"duplicate alias {alias!r}")
            self.aliases.append(alias)
            self.relation[alias] = rel
        # eq constraint: value at (fk_alias, fk_pos) == primary key of pk_alias
        self.eq: list[tuple[str, int, str]] = []
        self.self_eq: dict[str, list[int]] = {a: [] for a in self.aliases}
        for fk_alias, pk_alias, attr in sorted(g.eq_edges):
            if fk_alias not in self.relation or pk_alias not in self.relation:
                raise EvalError(f"equality over unknown alias {fk_alias!r}/{pk_alias!r}")
            pos = self._pos(self.relation[fk_alias], attr)
            if fk_alias == pk_alias:
                self.self_eq[fk_alias].append(pos)
            else:
                self.eq.append((fk_alias, pos, pk_alias))
        self.strs: dict[str, list[tuple[int, str, str]]] = {a: [] for a in self.aliases}
        for alias, attr, pred, literal in g.str_edges:
            if alias not in self.relation:
                raise EvalError(f"string constraint over unknown alias {alias!r}")
            pos = self._pos(self.relation[alias], attr)
            self.strs[alias].append((pos, pred, literal))
        self.head = self.aliases[0] if self.aliases else None
        self._base: dict[str, tuple[Tuple, ...]] = {}
        self._order_cache: dict[bool, list[str]] = {}

    def _pos(self, rel: str, attr: str) -> int:
        try:
            return self.facts.schema.attr_pos(rel, attr)
        except SchemaError as exc:
            raise EvalError(str(exc)) from exc

    @staticmethod
    def of(facts: FactBase, q) -> "_Compiled":
        if isinstance(q, _Compiled):
            return q
        if isinstance(q, ConjunctiveQuery):
            try:
                q = to_graph(q, facts.schema)
            except (GraphError, SchemaError) as exc:
                raise EvalError(str(exc)) from exc
        if not isinstance(q, QueryGraph):
            raise EvalError(f"cannot evaluate {type(q).__name__}")
        return _Compiled(facts, q)

    def base_tuples(self, alias: str) -> tuple[Tuple, ...]:
        """Relation tuples pre-filtered by the alias's string constraints."""
        got = self._base.get(alias)
        if got is None:
            got = self.facts.selected(self.relation[alias],
                                      tuple(self.strs[alias]),
                                      tuple(self.self_eq[alias]))
            self._base[alias] = got
        return got

    def plan(self, head_first: bool) -> list[str]:
        """Join order: smallest base relation first, then most-connected."""
        cached = self._order_cache.get(head_first)
        if cached is not None:
            return cached
        degree: dict[str, list[str]] = {a: [] for a in self.aliases}
        for fk_alias, _, pk_alias in self.eq:
            degree[fk_alias].append(pk_alias)
            degree[pk_alias].append(fk_alias)
        remaining = list(self.aliases)
        order: list[str] = []
        if head_first and self.head is not None:
            order.append(self.head)
            remaining.remove(self.head)
        while remaining:
            placed = set(order)
            connected = [a for a in remaining if any(o in placed for o in degree[a])]
            pool = connected or remaining
            nxt = min(pool, key=lambda a: (len(self.base_tuples(a)),
                                           -len(degree[a]), self.aliases.index(a)))
            order.append(nxt)
            remaining.remove(nxt)
        self._order_cache[head_first] = order
        return order

    def _candidates(self, alias: str, bound: dict[str, Tuple]):
        """Tuples for `alias` consistent with already-bound neighbours."""
        facts = self.facts
        rel = self.relation[alias]
        # A pk-side constraint against a bound fk pins the tuple outright.
        pinned = None
        checks: list[tuple[int, str]] = []  # fk view: (pos, required pk value)
        for fk_alias, pos, pk_alias in self.eq:
            if fk_alias == alias and pk_alias in bound:
                checks.append((pos, bound[pk_alias][0]))
            elif pk_alias == alias and fk_alias in bound:
                value = bound[fk_alias][pos]
                if pinned is not None and pinned != value:
                    return ()
                pinned = value
        if pinned is not None:
            t = facts.pk_lookup(rel, pinned)
            if t is None:
                return ()
            pool = (t,)
        elif checks:
            pos, value = checks[0]
            pool = facts.by_attr(rel, pos, value)
            checks = checks[1:]
        else:
            return self.base_tuples(alias)
        pool = tuple(t for t in pool
                     if all(t[pos] == v for pos, v in checks)
                     and all(pred_holds(p, t[spos], lit)
                             for spos, p, lit in self.strs[alias])
                     and all(t[spos] == t[0] for spos in self.self_eq[alias]))
        return pool

    def assignments(self, fixed: dict[str, Tuple] | None = None):
        """Yield full alias -> tuple assignments satisfying every atom."""
        order = self.plan(head_first=bool(fixed))
        bound: dict[str, Tuple] = {}
        if fixed:
            bound.update(fixed)

        def extend(i: int):
            if i == len(order):
                yield dict(bound)
                return
            alias = order[i]
            if alias in bound:
                # Pre-fixed: still must satisfy constraints against neighbours.
                t = bound[alias]
                ok = (all(pred_holds(p, t[pos], lit) for pos, p, lit in self.strs[alias])
                      and all(t[pos] == t[0] for pos in self.self_eq[alias]))
                if ok:
                    for fk_alias, pos, pk_alias in self.eq:
                        if fk_alias == alias and pk_alias in bound:
                            ok = ok and t[pos] == bound[pk_alias][0]
                        elif pk_alias == alias and fk_alias in bound:
                            ok = ok and bound[fk_alias][pos] == t[0]
                if ok:
                    yield from extend(i + 1)
                return
            for t in self._candidates(alias, bound):
                bound[alias] = t
                yield from extend(i + 1)
                del bound[alias]

        yield from extend(0)

    def exists(self, head_tuple: Tuple) -> bool:
        for _ in self.assignments({self.head: head_tuple}):
            return True
        return False


def evaluate(q, facts: FactBase) -> frozenset[Tuple]:
    """Deduplicated head tuples admitting a satisfying assignment."""
    c = _Compiled.of(facts, q)
    if c.head is None:
        raise EvalError("cannot evaluate the empty query")
    return frozenset(t for t in facts.tuples(c.relation[c.head]) if c.exists(t))


def is_refinable(q, facts: FactBase, part: RelationPartition) -> bool:
    """Does the query still admit every positive tuple?"""
    c = _Compiled.of(facts, q)
    return all(c.exists(t) for t in sorted(part.positives))


def admits_any(q, facts: FactBase, head_tuples) -> bool:
    """Does the query admit any of ``head_tuples``, tried in the given order?"""
    c = _Compiled.of(facts, q)
    return any(c.exists(t) for t in head_tuples)


def is_candidate(q, facts: FactBase, part: RelationPartition) -> bool:
    """Does the query admit exactly the positive tuples?"""
    c = _Compiled.of(facts, q)
    return (is_refinable(c, facts, part)
            and not admits_any(c, facts, sorted(part.negatives)))


def refinable_with_witnesses(
        g, facts: FactBase, part: RelationPartition,
        slots: list[tuple[str, str]]) -> tuple[bool, dict[tuple[str, str], list[set[str]]]]:
    """One pass per positive: refinability plus witness values per string slot.

    Returns (refinable, {slot: [witness set per positive, in sorted order]}).
    Bails out as not refinable on the first positive with no assignment.
    ``g`` is a query graph or one already compiled against ``facts``.
    """
    c = _Compiled.of(facts, g)
    schema = facts.schema
    positions = {}
    for alias, attr in slots:
        if alias not in c.relation:
            raise GraphError(f"unknown alias {alias!r}")
        positions[(alias, attr)] = schema.attr_pos(c.relation[alias], attr)
    witnesses: dict[tuple[str, str], list[set[str]]] = {s: [] for s in slots}
    for t in sorted(part.positives):
        per_slot: dict[tuple[str, str], set[str]] = {s: set() for s in slots}
        any_assignment = False
        for assignment in c.assignments({c.head: t}):
            any_assignment = True
            for (alias, attr), pos in positions.items():
                per_slot[(alias, attr)].add(assignment[alias][pos])
            if not slots:
                break
        if not any_assignment:
            return False, {}
        for s in slots:
            witnesses[s].append(per_slot[s])
    return True, witnesses


def collect_witnesses(g: QueryGraph, alias: str, attr: str,
                      part: RelationPartition, facts: FactBase) -> dict[Tuple, frozenset[str]]:
    """Per positive head tuple, the slot values seen across its assignments."""
    ok, per_slot = refinable_with_witnesses(g, facts, part, [(alias, attr)])
    if not ok:
        raise EvalError("witness collection requires a refinable query graph")
    sets = per_slot[(alias, attr)]
    return {t: frozenset(s) for t, s in zip(sorted(part.positives), sets)}
