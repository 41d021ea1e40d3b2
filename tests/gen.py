"""Seeded random schemas, facts, partitions, queries, and entity contexts."""
from __future__ import annotations

import random

from cqsearch.core import (FK, PK, STR, AttributeDecl, FactBase, Relation,
                           Schema)
from cqsearch.core import RelationPartition
from cqsearch.query import QueryGraph
from cqsearch.select import EntityContext

WORD_POOL = ["alpha", "beta", "gamma", "delta", "echo", "fox", "golf",
             "hotel", "india", "juliet"]


def random_string(rng: random.Random, alphabet="abc", lo=1, hi=5) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def random_schema(rng: random.Random, max_relations: int = 4,
                  max_fks: int = 2, max_strs: int = 1,
                  allow_self: bool = True) -> Schema:
    n = rng.randint(2, max_relations)
    names = [f"R{i}" for i in range(n)]
    rels = {}
    for i, name in enumerate(names):
        attrs = [AttributeDecl("id", PK)]
        for j in range(rng.randint(0, max_fks)):
            target = rng.choice(names)
            if target == name and not allow_self:
                target = names[(i + 1) % n]
            attrs.append(AttributeDecl(f"fk{j}", FK, target))
        for j in range(rng.randint(0, max_strs)):
            attrs.append(AttributeDecl(f"s{j}", STR))
        rels[name] = attrs
    return Schema(rels)


def random_facts(rng: random.Random, schema: Schema,
                 max_tuples: int = 6, min_tuples: int = 0,
                 alphabet: str = "abc") -> FactBase:
    counts = {rel: rng.randint(min_tuples, max_tuples) for rel in schema}
    # Foreign keys need non-empty targets; bump transitively to one tuple.
    changed = True
    while changed:
        changed = False
        for rel in schema:
            for a in schema[rel]:
                if a.kind == FK and counts[a.target] == 0 and counts[rel] > 0:
                    counts[a.target] = 1
                    changed = True
    pks = {rel: [f"{rel.lower()}{i}" for i in range(counts[rel])]
           for rel in schema}
    relations = []
    for rel in schema:
        tuples = set()
        for pk in pks[rel]:
            row = [pk]
            for a in schema[rel][1:]:
                if a.kind == FK:
                    row.append(rng.choice(pks[a.target]))
                else:
                    row.append(random_string(rng, alphabet))
            tuples.add(tuple(row))
        relations.append(Relation(rel, frozenset(tuples)))
    return FactBase(schema, relations)


def random_partition(rng: random.Random, facts: FactBase) -> RelationPartition | None:
    eligible = [rel for rel in facts if len(facts.tuples(rel)) >= 2]
    if not eligible:
        return None
    target = rng.choice(sorted(eligible))
    tuples = sorted(facts.tuples(target))
    n_pos = rng.randint(1, min(2, len(tuples) - 1))
    positives = frozenset(rng.sample(tuples, n_pos))
    return RelationPartition(target, positives,
                             frozenset(tuples) - positives)


def random_instance(rng: random.Random, **schema_kwargs):
    """A (schema, facts, partition) triple; retries until non-trivial."""
    while True:
        schema = random_schema(rng, **schema_kwargs)
        facts = random_facts(rng, schema)
        part = random_partition(rng, facts)
        if part is not None:
            return schema, facts, part


def random_context(rng: random.Random, schema: Schema) -> EntityContext:
    dictionary = frozenset(WORD_POOL)
    h = {}
    for rel in schema:
        for a in schema[rel]:
            if rng.random() < 0.7:
                h[(rel, a.name)] = frozenset(
                    rng.sample(WORD_POOL, rng.randint(1, 3)))
    entities = frozenset(rng.sample(WORD_POOL, rng.randint(1, 4)))
    return EntityContext(dictionary, h, entities)


def random_query_graph(rng: random.Random, schema: Schema,
                       m_max: int = 4, allow_disconnected: bool = True,
                       alphabet: str = "abc") -> QueryGraph:
    """A schema-legal query graph with random joins and string constraints."""
    fk_edges = [(rel, a.name, a.target)
                for rel in schema for a in schema[rel] if a.kind == FK]
    rels = sorted(schema)
    head = rng.choice(rels)
    g = QueryGraph((head,), frozenset(), ())
    for _ in range(rng.randint(0, m_max - 1)):
        rel = rng.choice(rels)
        new = len(g.nodes)
        options = set()
        for node, existing_rel in enumerate(g.nodes):
            for src, attr, dst in fk_edges:
                if src == rel and dst == existing_rel:
                    options.add((new, node, attr))
                if src == existing_rel and dst == rel:
                    options.add((node, new, attr))
        options = sorted(options)
        if options:
            chosen = frozenset(rng.sample(options, rng.randint(1, len(options))))
            g = g.with_node(rel, chosen)
        elif allow_disconnected and rng.random() < 0.3:
            g = g.with_node(rel, frozenset())
    # sprinkle string constraints, literals sometimes unrelated to the data
    for node, rel in enumerate(g.nodes):
        for a in schema[rel]:
            if a.kind == STR and rng.random() < 0.4:
                pred = rng.choice(("equal", "prefix", "suffix", "contain"))
                literal = random_string(rng, alphabet, 1, 3)
                g = g.with_constraint(node, a.name, pred, literal)
    return g
