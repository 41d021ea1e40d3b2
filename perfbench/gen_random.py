"""Seeded random synthesis instances for the ``random-synth`` workload.

Each instance is a (schema, facts, partition, entity context) quadruple. A
pool draws its instances one after another from a single ``random.Random``
seeded with the pool seed, so a pool's first n instances do not depend on
its size. The shapes and the order of draws are those of the soundness
suite (acceptance criterion 3): at most five relations, two foreign keys and
one string attribute per relation, at most six tuples per relation, and the
entity context drawn right after its instance. With seed 2023 a pool holds
that suite's instances, in its order.

This module owns its generator on purpose: it imports nothing from the test
suite, so editing a test cannot change a benchmark workload.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from cqsearch.core import (FK, PK, STR, AttributeDecl, FactBase, Relation,
                           RelationPartition, Schema)
from cqsearch.select import EntityContext

MAX_RELATIONS = 5
MAX_FKS = 2
MAX_STRS = 1
MAX_TUPLES = 6
ALPHABET = "abc"
WORDS = ("alpha", "beta", "gamma", "delta", "echo", "fox", "golf", "hotel",
         "india", "juliet")


@dataclass(frozen=True)
class Instance:
    index: int
    schema: Schema
    facts: FactBase
    part: RelationPartition
    ctx: EntityContext


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 5)))


def _schema(rng: random.Random) -> Schema:
    names = [f"R{i}" for i in range(rng.randint(2, MAX_RELATIONS))]
    rels = {}
    for name in names:
        attrs = [AttributeDecl("id", PK)]
        attrs += [AttributeDecl(f"fk{j}", FK, rng.choice(names))
                  for j in range(rng.randint(0, MAX_FKS))]
        attrs += [AttributeDecl(f"s{j}", STR)
                  for j in range(rng.randint(0, MAX_STRS))]
        rels[name] = attrs
    return Schema(rels)


def _facts(rng: random.Random, schema: Schema) -> FactBase:
    counts = {rel: rng.randint(0, MAX_TUPLES) for rel in schema}
    # A foreign key needs a non-empty target: bump targets to one tuple until
    # every populated relation's references resolve.
    changed = True
    while changed:
        changed = False
        for rel in schema:
            for a in schema[rel]:
                if a.kind == FK and counts[rel] and not counts[a.target]:
                    counts[a.target] = 1
                    changed = True
    keys = {rel: [f"{rel.lower()}{i}" for i in range(counts[rel])]
            for rel in schema}
    relations = []
    for rel in schema:
        rows = set()
        for key in keys[rel]:
            row = [key]
            for a in schema[rel][1:]:
                row.append(rng.choice(keys[a.target]) if a.kind == FK
                           else _word(rng))
            rows.add(tuple(row))
        relations.append(Relation(rel, frozenset(rows)))
    return FactBase(schema, relations)


def _partition(rng: random.Random, facts: FactBase) -> RelationPartition | None:
    eligible = sorted(rel for rel in facts if len(facts.tuples(rel)) >= 2)
    if not eligible:
        return None
    target = rng.choice(eligible)
    tuples = sorted(facts.tuples(target))
    positives = frozenset(rng.sample(tuples, rng.randint(1, min(2, len(tuples) - 1))))
    return RelationPartition(target, positives, frozenset(tuples) - positives)


def _context(rng: random.Random, schema: Schema) -> EntityContext:
    h = {(rel, a.name): frozenset(rng.sample(WORDS, rng.randint(1, 3)))
         for rel in schema for a in schema[rel] if rng.random() < 0.7}
    entities = frozenset(rng.sample(WORDS, rng.randint(1, 4)))
    return EntityContext(frozenset(WORDS), h, entities)


def _instance(rng: random.Random, index: int) -> Instance:
    """Redraws until the fact base has a relation with two tuples to split."""
    while True:
        schema = _schema(rng)
        facts = _facts(rng, schema)
        part = _partition(rng, facts)
        if part is not None:
            return Instance(index, schema, facts, part, _context(rng, schema))


def pool(seed: int, size: int) -> list[Instance]:
    rng = random.Random(seed)
    return [_instance(rng, i) for i in range(size)]
