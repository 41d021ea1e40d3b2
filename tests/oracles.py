"""Independent reference implementations the test suite checks against.

Everything here trades efficiency for obviousness: a mini-Java scanner
that reads one character at a time, per-row fact checks, full Cartesian
products, exhaustive substring scans, unpruned breadth-first search over the
query space, a search for homomorphisms between query graphs. None of it
shares search machinery with the package. Query graphs are read as the
package writes them: node i is position i, the head 0. The shared
primitives are:

- ``minijava``'s ``Token``, ``Pos``, ``ParseError`` and ``KEYWORDS``, the
  types and keyword set ``tokenize_by_scanning`` writes its tokens and
  errors in, and nothing of ``tokenize``'s regex;

- the evaluator inside the brute-force enumerator and inside
  ``refine_by_compiling``, which the suite certifies separately against the
  product oracle;
- ``query.join_step``, which compiles a node into the evaluator's join step
  and refinement's alike (the evaluator maps nodes to join positions,
  refinement binds them in node order), so ``refine_by_compiling`` shares
  it with ``refine``; criterion 6 certifies it through ``evaluate``;
- ``FactBase.matching``, which binds that join step's links, and
  ``FactBase.by_attr``, the one index it probes, which ``step_image`` also
  probes for the key equality of each schema-path step, so reduction rests
  on it too; criterion 6, ``activation_brute`` (against
  ``activated_relation``) and a brute-force filter over the relation's
  tuples (``test_core.TestMatching``) certify them, and ``test_core``
  checks the primary-key probes against ``load_facts_by_rows``'s key map;
- ``query.QueryGraph``, the one query form, which ``naive_evaluate`` and
  ``coverage_by_atoms`` read by their own definitions (a selection over the
  product, the atoms the edges and constraints are), not through the
  product's renderers or ``select.condition_attrs``;
- ``Schema.from_doc`` inside ``load_facts_by_rows``, which reads the schema
  document the same way as the product;
- synLCS, which defines the string part of the query space and has its own
  oracle;
- ``query.canonical_form`` inside the enumerator and ``refine_by_compiling``,
  which the suite checks against ``canonical_form_by_search``;
- the engine's ``expand``, which defines the graph part of it;
- the path helpers of ``schema_graph`` behind ``reduce_by_paths``, which the
  suite checks against ``activation_brute`` and ``cycles_brute``;
- ``SchemaGraph.fk_edges``, the edge set ``validate_path`` replays a path
  against.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from cqsearch.core import (FK, PK, FactBase, FactError, RelationPartition, Schema,
                           pred_holds)
from cqsearch.evaluator import (_Compiled, admits_any, evaluate,
                                 refinable_with_witnesses)
from cqsearch.minijava import KEYWORDS, ParseError, Pos, Token
from cqsearch.query import QueryGraph, canonical_form, multiplicity
from cqsearch.reduction import DropReason, ReducedRepresentation
from cqsearch.refine import LevelStats, RefinementEngine, RefinementState
from cqsearch.schema_graph import (RelationPath, SchemaEdge, activated_relation,
                                   acyclic_paths, augment_with_cycles,
                                   build_schema_graph, compile_path,
                                   simple_cycles)
from cqsearch.strings import syn_lcs


# --- mini-Java tokens by scanning one character at a time ------------------

_PUNCT2 = ("==", "!=", "<=", ">=", "&&", "||")
_PUNCT1 = "(){};,=<>+-*/%!."


def tokenize_by_scanning(src: str) -> list[Token]:
    """``minijava.tokenize`` as a character-by-character scanner, the
    reference its one regex must match token for token and error for error."""
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(src)

    def error(msg):
        raise ParseError(msg, line, col)

    def advance(text: str):
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if src.startswith("//", i):
            end = src.find("\n", i)
            end = n if end < 0 else end
            advance(src[i:end])
            i = end
            continue
        if src.startswith("/*@pos*/", i) or src.startswith("/*@neg*/", i):
            text = src[i:i + 8]
            tokens.append(Token("annot", text[3:6], Pos(line, col)))
            advance(text)
            i += len(text)
            continue
        if src.startswith("/*", i):
            end = src.find("*/", i + 2)
            if end < 0:
                error("unterminated comment")
            advance(src[i:end + 2])
            i = end + 2
            continue
        if ch == '"':
            j = i + 1
            while j < n and src[j] != '"':
                if src[j] == "\n":
                    error("unterminated string literal")
                j += 2 if src[j] == "\\" else 1
            if j >= n:
                error("unterminated string literal")
            text = src[i:j + 1]
            tokens.append(Token("string", text[1:-1], Pos(line, col)))
            advance(text)
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot
                                                  and j + 1 < n and src[j + 1].isdigit())):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            text = src[i:j]
            tokens.append(Token("double" if seen_dot else "int", text, Pos(line, col)))
            advance(text)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            text = src[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, Pos(line, col)))
            advance(text)
            i = j
            continue
        two = src[i:i + 2]
        if two in _PUNCT2:
            tokens.append(Token("punct", two, Pos(line, col)))
            advance(two)
            i += 2
            continue
        if ch in _PUNCT1:
            tokens.append(Token("punct", ch, Pos(line, col)))
            advance(ch)
            i += 1
            continue
        error(f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", Pos(line, col)))
    return tokens


# --- search output ---------------------------------------------------------------

def search_lines(hits, positions: dict[str, dict]) -> list[str]:
    """``cqsearch search``'s lines for ``hits`` as it printed them from
    one-object-per-row positions: the sorted row ids, each followed by a tab
    and ``file:line:col`` when ``positions`` has the row."""
    lines = []
    for t in sorted(hits):
        where = positions.get(t[0])
        lines.append(t[0] if where is None
                     else f"{t[0]}\t{where['file']}:{where['line']}:{where['col']}")
    return lines


# --- per-row fact loading ------------------------------------------------------

def load_facts_by_rows(schema_doc, facts_doc):
    """``core.load_facts`` as it was before the column-wise checks: every row
    and cell checked in a Python loop, then arity, kinds and keys tuple by
    tuple, then every foreign key. Returns the schema, the tuples of every
    declared relation and each relation's primary-key index."""
    schema = Schema.from_doc(schema_doc)
    if not isinstance(facts_doc, dict):
        raise FactError("facts document must be an object of relation -> rows")
    tuples: dict[str, frozenset] = {}
    for name, rows in facts_doc.items():
        if not isinstance(rows, list):
            raise FactError(f"{name}: rows must be a list, got {rows!r}")
        rel = set()
        for row in rows:
            if not isinstance(row, list):
                raise FactError(f"{name}: row {row!r} is not a list")
            for v in row:
                if not isinstance(v, str):
                    raise FactError(f"{name}: non-string value {v!r} in row {row!r}")
            rel.add(tuple(row))
        tuples[name] = frozenset(rel)
    for name in tuples:
        if name not in schema:
            raise FactError(f"facts for undeclared relation {name!r}")
    tuples = {name: tuples.get(name, frozenset()) for name in schema}
    pk: dict[str, dict] = {}
    for name, rel in tuples.items():
        attrs = schema[name]
        index = {}
        for t in rel:
            if len(t) != len(attrs):
                raise FactError(f"{name}: tuple {t!r} has arity {len(t)}")
            for v, a in zip(t, attrs):
                if a.kind in (PK, FK) and not v:
                    raise FactError(f"{name}.{a.name}: empty key value in {t!r}")
            if t[0] in index:
                raise FactError(f"{name}: duplicate primary key {t[0]!r}")
            index[t[0]] = t
        pk[name] = index
    for name, rel in tuples.items():
        for i, a in enumerate(schema[name]):
            if a.kind == FK:
                for t in rel:
                    if t[i] not in pk[a.target]:
                        raise FactError(f"{name}.{a.name}: dangling foreign key {t[i]!r}")
    return schema, tuples, pk


# --- naive query evaluation -------------------------------------------------

def naive_evaluate(g: QueryGraph, facts: FactBase,
                   max_rows: int = 200_000) -> frozenset:
    """Selection over the materialized Cartesian product, projected on node 0."""
    schema = facts.schema
    nodes = list(g.nodes)
    eqs = [(fk, attr, pk) for fk, pk, attr in sorted(g.eq_edges)]
    strs = list(g.str_edges)
    pools = [sorted(facts.tuples(rel)) for rel in nodes]
    size = 1
    for pool in pools:
        size *= len(pool)
        if size > max_rows:
            raise ValueError(f"product too large for the naive oracle ({size})")
    out = set()
    for row in product(*pools):
        ok = True
        for fk, attr, pk in eqs:
            pos = schema.attr_pos(nodes[fk], attr)
            if row[fk][pos] != row[pk][0]:
                ok = False
                break
        if ok:
            for node, attr, pred, literal in strs:
                pos = schema.attr_pos(nodes[node], attr)
                if not pred_holds(pred, row[node][pos], literal):
                    ok = False
                    break
        if ok:
            out.add(row[0])
    return frozenset(out)


# --- query containment by homomorphism ----------------------------------------

def variable_classes(g: QueryGraph) -> frozenset[frozenset]:
    """The slots ``g``'s equalities make equal, one class per variable of its
    Datalog rule: a foreign key as ``(node, attr)``, a primary key as
    ``(node, None)``. Slots no equality touches are left out."""
    classes: list[set] = []
    for fk, pk, attr in g.eq_edges:
        ends = [(fk, attr), (pk, None)]
        touched = [c for c in classes if not c.isdisjoint(ends)]
        joined = set(ends).union(*touched)
        classes = [c for c in classes if c not in touched] + [joined]
    return frozenset(frozenset(c) for c in classes)


def homomorphism(src: QueryGraph, dst: QueryGraph) -> tuple[int, ...] | None:
    """A map of ``src``'s nodes onto ``dst``'s that keeps the head, each
    node's relation, each equality (its two slots equal in ``dst``) and each
    string constraint, found by search; None if there is none. One from
    ``src`` to ``dst`` proves every answer of ``dst`` an answer of ``src``,
    so one each way proves the queries equivalent (Chandra & Merlin 1977)."""
    class_of = {slot: c for c in variable_classes(dst) for slot in c}
    strs = set(dst.str_edges)

    def holds(h: list[int]) -> bool:
        """Do the atoms of the nodes ``h`` maps hold in ``dst``?"""
        for fk, pk, attr in src.eq_edges:
            if fk < len(h) and pk < len(h):
                a, b = (h[fk], attr), (h[pk], None)
                if a != b and b not in class_of.get(a, ()):
                    return False
        return all((h[x], attr, pred, literal) in strs
                   for x, attr, pred, literal in src.str_edges if x < len(h))

    def extend(h: list[int]):
        if len(h) == len(src.nodes):
            return tuple(h)
        for y, rel in enumerate(dst.nodes):
            if rel == src.nodes[len(h)] and holds(h + [y]):
                found = extend(h + [y])
                if found is not None:
                    return found
        return None

    if src.nodes[0] != dst.nodes[0] or not holds([0]):
        return None
    return extend([0])


# --- named-entity coverage on the rendered query ------------------------------

def coverage_by_atoms(g: QueryGraph, schema: Schema, ctx) -> Fraction:
    """Coverage by its definition over the conjunctive query's atoms.

    Each equality edge is an atom that names a foreign key and the primary
    key of the node it references, each string constraint an atom on one
    string attribute; the words h maps them to are intersected with the
    description's entities.
    """
    pairs = set()
    for fk, pk, attr in g.eq_edges:
        pairs.add((g.nodes[fk], attr))
        pairs.update((g.nodes[pk], a.name) for a in schema[g.nodes[pk]] if a.kind == PK)
    for node, attr, _, _ in g.str_edges:
        pairs.add((g.nodes[node], attr))
    covered = set()
    for pair in pairs:
        covered |= ctx.h.get(pair, frozenset()) & ctx.entities
    return Fraction(len(covered), len(ctx.entities))


# --- longest-common-substring brute force ------------------------------------

def lcs_brute(witness_sets) -> tuple[str, str] | None:
    """All-substrings scan over the first positive's witnesses."""
    if not witness_sets or any(not ws for ws in witness_sets):
        return None
    candidates = set()
    for w in witness_sets[0]:
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                candidates.add(w[i:j])
    common = [c for c in candidates
              if all(any(c in w for w in ws) for ws in witness_sets)]
    if not common:
        return None
    best = max(len(c) for c in common)
    literal = min(c for c in common if len(c) == best)
    for pred in ("equal", "prefix", "suffix", "contain"):
        if all(any(pred_holds(pred, w, literal) for w in ws) for ws in witness_sets):
            return pred, literal
    raise AssertionError("unreachable: contain holds for a common substring")


# --- activated-relation brute force ------------------------------------------

def activation_brute(t0, path: RelationPath, facts: FactBase,
                     max_rows: int = 500_000) -> frozenset:
    """Materialize the full chained product, filter each hop, project last."""
    schema = facts.schema
    if not path.steps:
        return frozenset({t0})
    pools = [sorted(facts.tuples(s.next)) for s in path.steps]
    size = 1
    for pool in pools:
        size *= max(len(pool), 1)
        if size > max_rows:
            raise ValueError("chain product too large for the oracle")
    out = set()
    rels = [path.start] + [s.next for s in path.steps]
    for chain in product(*pools):
        row = (t0,) + chain
        ok = True
        for i, step in enumerate(path.steps):
            if step.direction == 1:
                pos = schema.attr_pos(rels[i], step.attr)
                if row[i][pos] != row[i + 1][0]:
                    ok = False
                    break
            else:
                pos = schema.attr_pos(rels[i + 1], step.attr)
                if row[i][0] != row[i + 1][pos]:
                    ok = False
                    break
        if ok:
            out.add(row[-1])
    return frozenset(out)


# --- path replay against the schema graph's foreign-key edges ---------------

def has_step(g, rel: str, step) -> bool:
    """Whether ``step`` out of ``rel`` walks a foreign-key edge of ``g``."""
    if step.direction == 1:
        return SchemaEdge(rel, step.next, step.attr) in g.fk_edges
    return SchemaEdge(step.next, rel, step.attr) in g.fk_edges


def validate_path(g, path: RelationPath) -> bool:
    """Replay a path against the schema graph's edge set."""
    cur = path.start
    if cur not in g.schema:
        return False
    for step in path.steps:
        if step.next not in g.schema or not has_step(g, cur, step):
            return False
        cur = step.next
    return True


# --- dummy-relation removal over the materialized path set -----------------

def reduce_by_paths(schema: Schema, facts: FactBase, part: RelationPartition,
                    max_cycle_len: int = 8) -> ReducedRepresentation:
    """``reduce`` by its definition: build every once-spliced path, judge each.

    For each relation, every acyclic path from the target plus every cycle
    spliced once at its first shared node is activated from every positive
    and negative tuple.
    """
    g = build_schema_graph(schema)
    cycles = simple_cycles(g, max_cycle_len)
    kept: set[str] = set()
    dropped: set[tuple[str, DropReason]] = set()
    positives = sorted(part.positives)
    negatives = sorted(part.negatives)
    for rel in schema:
        paths = augment_with_cycles(acyclic_paths(g, part.target, rel), g,
                                    cycles=cycles)
        if not paths:
            dropped.add((rel, DropReason.UNREACHABLE))
            continue
        keep = False
        some_path_total = False  # a path along which every positive activates
        for path in paths:
            compiled = compile_path(path, schema)
            pos_acts = {t: activated_relation(t, None, facts, _compiled=compiled)
                        for t in positives}
            if any(not act for act in pos_acts.values()):
                continue
            some_path_total = True
            neg_acts = [activated_relation(t, None, facts, _compiled=compiled)
                        for t in negatives]
            if any(pos_acts[tp] != act for tp in positives for act in neg_acts):
                keep = True
                break
        if keep:
            kept.add(rel)
        elif some_path_total:
            dropped.add((rel, DropReason.INDISTINGUISHABLE))
        else:
            dropped.add((rel, DropReason.EMPTY_ACTIVATION))
    return ReducedRepresentation(frozenset(kept), frozenset(dropped))


# --- closed-walk enumeration for the cycle toy tests -------------------------

def cycles_brute(graph, max_len: int = 8) -> set:
    """Closed walks of at most ``max_len`` steps with distinct interior
    nodes, up to rotation.

    Includes the two-step back-and-forth over one edge and one-step
    self-loops, mirroring what augmentation is allowed to splice.
    """
    raw = set()
    for e in graph.fk_edges:
        if max_len >= 2:
            raw.add((e.src, (("f", e.attr, e.dst), ("b", e.attr, e.src))))
        if e.src == e.dst and max_len >= 1:
            raw.add((e.src, (("f", e.attr, e.src),)))
            raw.add((e.src, (("b", e.attr, e.src),)))

    def walk(start, cur, steps, used, visited):
        if len(steps) >= max_len:
            return
        moves = []
        for e in graph.fk_edges:
            key = (e.src, e.dst, e.attr)
            if e.src == cur:
                moves.append((("f", e.attr, e.dst), e.dst, key))
            if e.dst == cur:
                moves.append((("b", e.attr, e.src), e.src, key))
        for tag, nxt, key in moves:
            if key in used:
                continue
            if nxt == start and steps:
                raw.add((start, tuple(steps + [tag])))
                continue
            if nxt in visited or nxt == start:
                continue
            walk(start, nxt, steps + [tag], used | {key}, visited | {nxt})

    for node in graph.schema:
        walk(node, node, [], set(), {node})

    def normalize(anchor, steps):
        # rotations only: reversed traversals stay distinct cycles
        order = [anchor] + [s[2] for s in steps]
        variants = [(order[i], steps[i:] + steps[:i])
                    for i in range(len(steps))]
        return min(variants)

    return {normalize(a, s) for a, s in raw}


# --- canonical form by search over all remaining nodes ---------------------

def canonical_form_by_search(g: QueryGraph):
    """``query.canonical_form`` as it was before the relation groups: a
    branch-and-bound over every remaining node at every position. It ignores
    an equality whose two ends are one node."""
    n = len(g.nodes)
    if n == 0:
        return ("empty",)
    out_edges: list[list] = [[] for _ in g.nodes]
    for fk, pk, attr in g.eq_edges:
        out_edges[fk].append(("f", attr, pk))
        out_edges[pk].append(("p", attr, fk))
    strs: list[list] = [[] for _ in g.nodes]
    for node, attr, pred, literal in g.str_edges:
        strs[node].append((attr, pred, literal))

    def node_key(node, placed_index):
        # Edges to already-placed nodes, by placed position; string constraints.
        edges = sorted((kind, attr, placed_index[other])
                       for kind, attr, other in out_edges[node]
                       if other in placed_index)
        return (g.nodes[node], tuple(edges), tuple(sorted(strs[node])))

    best: list = [None]

    def place(order, placed_index, encoding):
        if best[0] is not None and tuple(encoding) > best[0][:len(encoding)]:
            return
        if len(order) == n:
            enc = tuple(encoding)
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        remaining = [a for a in range(n) if a not in placed_index]
        keyed = [(node_key(a, placed_index), a) for a in remaining]
        min_key = min(k for k, _ in keyed)
        for key, a in keyed:
            if key != min_key:
                continue
            placed_index[a] = len(order)
            order.append(a)
            encoding.append(key)
            place(order, placed_index, encoding)
            encoding.pop()
            order.pop()
            del placed_index[a]

    head_key = node_key(0, {})
    place([0], {0: 0}, [head_key])
    return best[0]


# --- unpruned enumeration of the connected-expansion query space -------------

def enumerate_query_space(facts: FactBase, part: RelationPartition,
                          m_max: int, k_max: int):
    """Every graph reachable by head-first expansion plus synLCS constraints.

    No reduction, no refinability pruning, no early stop: children of a graph
    are every one-node extension over every non-empty subset of legal edges,
    plus every single-slot strongest-constraint augmentation. Yields each
    canonical graph once, paired with its ``_Compiled`` against ``facts``.
    """
    schema = facts.schema
    fk_edges = [(rel, a.name, a.target)
                for rel in schema for a in schema[rel] if a.kind == "fk"]

    def expansions(g: QueryGraph):
        if len(g.nodes) >= m_max:
            return
        new = len(g.nodes)
        for rel in sorted(schema):
            if multiplicity(g, rel) >= k_max:
                continue
            options = set()
            for node, existing_rel in enumerate(g.nodes):
                for src, attr, dst in fk_edges:
                    if src == rel and dst == existing_rel:
                        options.add((new, node, attr))
                    if src == existing_rel and dst == rel:
                        options.add((node, new, attr))
            options = sorted(options)
            for mask in range(1, 1 << len(options)):
                subset = frozenset(o for i, o in enumerate(options)
                                   if mask >> i & 1)
                yield g.with_node(rel, subset)

    def string_children(g: QueryGraph, compiled: _Compiled):
        constrained = g.constrained_slots()
        slots = [(node, a.name)
                 for node, rel in enumerate(g.nodes) for a in schema[rel]
                 if a.kind == "str" and (node, a.name) not in constrained]
        if not slots:
            return
        ok, witnesses = refinable_with_witnesses(compiled, facts, part, slots)
        if not ok:
            return
        for slot in slots:
            got = syn_lcs(witnesses[slot])
            if got is not None:
                yield g.with_constraint(slot[0], slot[1], *got)

    start = QueryGraph((part.target,), frozenset(), ())
    seen = {canonical_form(start)}
    queue = [start]
    while queue:
        g = queue.pop()
        compiled = _Compiled(facts, g)
        yield g, compiled
        for child in list(expansions(g)) + list(string_children(g, compiled)):
            canon = canonical_form(child)
            if canon not in seen:
                seen.add(canon)
                queue.append(child)


def brute_force_candidates(facts: FactBase, part: RelationPartition,
                           m_max: int, k_max: int) -> list[QueryGraph]:
    return [g for g, compiled in enumerate_query_space(facts, part, m_max, k_max)
            if evaluate(compiled, facts) == part.positives]


# --- refinement level by compiling and joining every graph --------------------

def refine_by_compiling(engine: RefinementEngine, state: RefinementState,
                        m: int, k: int) -> None:
    """``engine.refine`` with every graph evaluated from scratch.

    Each new graph is compiled and joined per positive for refinability and
    witnesses, then per negative for candidacy; a string-closure graph is
    compiled again. Fills ``state`` exactly as ``engine.refine`` does, rows
    apart.
    """
    schema, facts, part = engine.schema, engine.facts, engine.part
    negatives = sorted(part.negatives)

    def string_slots(g: QueryGraph) -> list[tuple[int, str]]:
        constrained = g.constrained_slots()
        return sorted((node, a.name) for node, rel in enumerate(g.nodes)
                      for a in schema.string_attrs(rel)
                      if (node, a.name) not in constrained)

    if m == 1 and k == 1:
        seeds = [(QueryGraph.empty(), k)]
    else:
        seeds = [(g, k) for g in state.refinable(m - 1, k)]
        if k > 1:
            seeds += [(g, k - 1) for g in state.refinable(m - 1, k - 1)]
    stats = LevelStats(m, k, worklist=len(seeds))
    refinable: list[QueryGraph] = []
    candidates: list[QueryGraph] = []
    produced: set[QueryGraph] = set()

    def is_new(g: QueryGraph) -> bool:
        stats.generated += 1
        if g in produced:
            return False
        canon = canonical_form(g)
        if canon in state.seen:
            return False
        state.seen.add(canon)
        return True

    def keep(g: QueryGraph, compiled) -> None:
        produced.add(g)
        refinable.append(g)
        if not admits_any(compiled, facts, negatives):
            candidates.append(g)

    for g, source_k in seeds:
        for rel in engine.relations:
            mult = multiplicity(g, rel)
            if (mult >= k) if source_k == k else (mult != k - 1):
                continue
            for v in engine.expand(g, rel):
                if not is_new(v):
                    continue
                compiled = _Compiled(facts, v)
                slots = string_slots(v)
                ok, witnesses = refinable_with_witnesses(compiled, facts, part, slots)
                if not ok:
                    continue
                keep(v, compiled)
                queue = [(v, slots, witnesses)]
                while queue:
                    base, base_slots, base_witnesses = queue.pop()
                    for slot in base_slots:
                        constraint = syn_lcs(base_witnesses[slot])
                        if constraint is None:
                            continue
                        augmented = base.with_constraint(slot[0], slot[1], *constraint)
                        if not is_new(augmented):
                            continue
                        compiled = _Compiled(facts, augmented)
                        keep(augmented, compiled)
                        rest = string_slots(augmented)
                        if rest:
                            ok, w = refinable_with_witnesses(compiled, facts, part, rest)
                            assert ok, "string closure preserves refinability"
                            queue.append((augmented, rest, w))
    stats.refinable = len(refinable)
    stats.candidates = len(candidates)
    state.table[(m, k)] = (refinable, candidates)
    state.stats.append(stats)
