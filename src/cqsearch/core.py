"""Typed relational facts: schemas, relations, tuples, and target partitions.

A schema types every relation attribute as a primary key (always attribute 0),
a foreign key into another relation, or a string. Facts are immutable once
loaded; referential integrity is checked at ingestion, and all downstream
machinery (path activation, query evaluation) relies on that.

Values are plain Python strings for both entity ids and text; the attribute
kind carries the distinction.

Loading checks each relation one column at a time: ``load_facts`` that rows
are lists, ``FactBase`` the arity, string cells, non-empty keys, unique
primary keys and foreign keys that resolve, each in one C-level pass per
column. A failed check names the first offending row of the document (a row
that is not a list, or a list or object cell) or the least offending tuple
in sorted order (the rest), whatever the hash seed.

The fact base holds each relation once, as the tuple of its rows in the
order they were decoded; its checks, its indexes, ``by_attr`` and
``matching`` walk them in that order. Consecutive rows were allocated one
after the other, so the walk stays in the CPU's caches where one over a
frozenset, in hash order, misses them.
"""
from __future__ import annotations

import gc
import json
import re
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path
from time import perf_counter
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

PK = "pk"
FK = "fk"
STR = "str"

# Reserved schema-graph node name for the string sink.
STR_NODE = "STR"

# A relation or attribute name: a Datalog name, so every output can spell it.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

Tuple = tuple[str, ...]


def pred_holds(pred: str, value: str, literal: str) -> bool:
    """Does the string ``value`` satisfy ``pred(value, literal)``?"""
    if pred == "equal":
        return value == literal
    if pred == "prefix":
        return value.startswith(literal)
    if pred == "suffix":
        return value.endswith(literal)
    if pred == "contain":
        return literal in value
    raise ValueError(f"unknown string predicate {pred!r}")


class DomainError(Exception):
    """Base of the errors a bad input raises: each message says what is
    wrong and where, so the CLI prints it as it stands."""


def line_col(text: str, offset: int) -> str:
    """``line:col`` of ``offset`` in ``text``, both counted from 1."""
    line, col = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    return f"{line}:{col}"


class InputError(DomainError):
    """A file that is not UTF-8, not JSON or nested too deeply to decode."""

    def __init__(self, path, text: str, offset: int, message: str):
        super().__init__(f"{path}: {line_col(text, offset)}: {message}")


@contextmanager
def collector_paused():
    """Pause the cyclic collector, and restore its state on the way out."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def decoding(path):
    """Pause the cyclic collector: decoded input is acyclic, so collections
    would cost as much as decoding and free nothing. A ``DomainError`` raised
    inside gets ``path`` in front of its message, unless it starts with it."""
    with collector_paused():
        try:
            yield
        except DomainError as exc:
            if not str(exc).startswith(f"{path}: "):
                exc.args = (f"{path}: {exc}",)
            raise


# A JSON string, bracket or number; a number's groups are its integer digits,
# its fraction and its exponent.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]'
                         r'|-?([0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?', re.S)


def read_input(path, decode=None):
    """``decode`` of the text, LF line ends as in text mode, of the UTF-8 file
    ``path``, or the text; ``decode`` runs inside ``decoding(path)``. Bytes
    that are not UTF-8, JSON syntax errors, nesting too deep to decode and
    integers too long to convert are an ``InputError``."""
    data, fault = Path(path).read_bytes(), None
    try:
        text, data = data.decode("utf-8"), None  # the bytes are not held while decoding
    except UnicodeDecodeError as exc:
        text, fault = data[:exc.start].decode("utf-8"), f"not UTF-8: {exc.reason}"
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if fault:
        raise InputError(path, text, len(text), fault)
    try:
        with decoding(path):
            return (decode or str)(text)
    except json.JSONDecodeError as exc:
        raise InputError(path, text, exc.pos, exc.msg) from None
    except ValueError as exc:  # an integer literal with more digits than int() converts
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        at = next(m.start() for m in _JSON_TOKEN.finditer(text)
                  if m[1] and not (m[2] or m[3]) and len(m[1]) > limit)
        raise InputError(path, text, at, f"integer of more than {limit} digits") from None
    except RecursionError:  # at the first bracket of the deepest level, not in a string
        brackets = [m for m in _JSON_TOKEN.finditer(text) if m[0] in "[]{}"]
        depths = list(accumulate(1 if m[0] in "[{" else -1 for m in brackets))
        deepest = max(depths)
        raise InputError(path, text, brackets[depths.index(deepest)].start(),
                         f"nested {deepest} levels deep, too deep to decode") from None


class SchemaError(DomainError):
    """Malformed schema document (names, keys, foreign-key targets)."""


class FactError(DomainError):
    """Facts that do not fit the schema (arity, kinds, dangling keys)."""


class PositionsError(DomainError):
    """A positions.json document that is not the columns ``extract`` writes."""


class PartitionError(DomainError):
    """Degenerate or inconsistent positive/negative split of the target."""


@dataclass(frozen=True)
class AttributeDecl:
    name: str
    kind: str  # PK | FK | STR
    target: str | None = None  # FK only: referenced relation


class Schema(Mapping[str, tuple[AttributeDecl, ...]]):
    """Ordered mapping relation name -> attribute declarations.

    Every relation has exactly one primary key and it sits at position 0.
    """

    def __init__(self, relations: Mapping[str, Iterable[AttributeDecl]]):
        rels: dict[str, tuple[AttributeDecl, ...]] = {}
        for name, attrs in relations.items():
            attrs = tuple(attrs)
            if not _NAME.fullmatch(name) or name.startswith("str_"):
                raise SchemaError(f"relation name {name!r} is not a name matching "
                                  f"{_NAME.pattern} without the prefix 'str_'")
            if name == STR_NODE:
                raise SchemaError(f"{STR_NODE!r} is reserved for the string sink")
            if not attrs:
                raise SchemaError(f"relation {name!r} has no attributes")
            seen = set()
            for a in attrs:
                if not _NAME.fullmatch(a.name):
                    raise SchemaError(f"relation {name!r}: attribute name {a.name!r} "
                                      f"does not match {_NAME.pattern}")
                if a.name in seen:
                    raise SchemaError(f"relation {name!r}: duplicate attribute {a.name!r}")
                seen.add(a.name)
                if a.kind not in (PK, FK, STR):
                    raise SchemaError(f"{name}.{a.name}: unknown kind {a.kind!r}")
                if a.kind == FK and a.target is None:
                    raise SchemaError(f"{name}.{a.name}: a foreign key needs a target")
                if a.kind != FK and a.target is not None:
                    raise SchemaError(f"{name}.{a.name}: only a foreign key has a target")
            pks = [a for a in attrs if a.kind == PK]
            if len(pks) != 1:
                raise SchemaError(f"relation {name!r} needs exactly one primary key, has {len(pks)}")
            if attrs[0].kind != PK:
                raise SchemaError(f"relation {name!r}: primary key must be attribute 0")
            rels[name] = attrs
        for name, attrs in rels.items():
            for a in attrs:
                if a.kind == FK and a.target not in rels:
                    raise SchemaError(
                        f"{name}.{a.name}: foreign key target {a.target!r} not in schema")
        self._decls = rels
        self._pos = {(name, a.name): i
                     for name, attrs in rels.items()
                     for i, a in enumerate(attrs)}
        self._strings = {name: tuple(a for a in attrs if a.kind == STR)
                         for name, attrs in rels.items()}

    def __getitem__(self, name: str) -> tuple[AttributeDecl, ...]:
        return self._decls[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._decls)

    def __len__(self) -> int:
        return len(self._decls)

    def attr_pos(self, rel: str, attr: str) -> int:
        got = self._pos.get((rel, attr))
        if got is None:
            raise SchemaError(f"relation {rel!r} has no attribute {attr!r}")
        return got

    def attr(self, rel: str, name: str) -> AttributeDecl:
        return self._decls[rel][self.attr_pos(rel, name)]

    def pk_attr(self, rel: str) -> AttributeDecl:
        return self._decls[rel][0]

    def string_attrs(self, rel: str) -> tuple[AttributeDecl, ...]:
        return self._strings[rel]

    @staticmethod
    def from_doc(doc: dict) -> "Schema":
        entries = doc.get("relations") if isinstance(doc, dict) else None
        if not isinstance(entries, list):
            raise SchemaError("schema document must have a 'relations' list")
        rels: dict[str, list[AttributeDecl]] = {}
        for entry in entries:
            if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
                raise SchemaError(f"relation entry without a name: {entry!r}")
            name = entry["name"]
            if name in rels:
                raise SchemaError(f"duplicate relation {name!r}")
            decls = entry.get("attributes", [])
            if not isinstance(decls, list):
                raise SchemaError(f"{name}: 'attributes' must be a list")
            attrs = []
            for a in decls:
                if not isinstance(a, dict) or not isinstance(a.get("name"), str):
                    raise SchemaError(f"{name}: attribute without a name: {a!r}")
                target = a.get("target")
                if target is not None and not isinstance(target, str):
                    raise SchemaError(f"{name}.{a['name']}: target must be a relation name")
                attrs.append(AttributeDecl(a["name"], a.get("kind"), target))
            rels[name] = attrs
        return Schema(rels)

    def to_doc(self) -> dict:
        out = []
        for name, attrs in self._decls.items():
            entry = {"name": name, "attributes": []}
            for a in attrs:
                rec = {"name": a.name, "kind": a.kind}
                if a.kind == FK:
                    rec["target"] = a.target
                entry["attributes"].append(rec)
            out.append(entry)
        return {"relations": out}


@dataclass(frozen=True)
class Relation:
    """A relation's rows: any collection of tuples, a frozenset or the rows a
    loader decoded. Identical duplicate rows count once in a ``FactBase``."""
    name: str
    tuples: Collection[Tuple]

    def __len__(self) -> int:
        return len(self.tuples)


@dataclass(frozen=True)
class RelationPartition:
    """Positive/negative split of the target relation's tuples.

    Disjoint, jointly exhaustive over the target, and both sides non-empty.
    """
    target: str
    positives: frozenset[Tuple]
    negatives: frozenset[Tuple]


class FactBase(Mapping[str, Relation]):
    """Validated relations with lazy per-attribute indexes.

    Immutable after construction; safe to share. Every declared relation is
    present (possibly empty), every foreign-key value resolves. Each is held
    once, as the tuple of its rows in the order its ``Relation.tuples``
    iterates, identical duplicates kept at their first occurrence;
    ``tuples`` and ``facts[name]`` build a frozenset of them on each call.

    Construction checks each relation column by column, one C-level pass per
    check and no Python loop per row: arity, string cells, non-empty primary
    and foreign keys, unique primary keys (the primary-key index is built in
    the same pass; rows are deduplicated only when it is shorter than they
    are), then every foreign key against its target's index. A failed check
    names the least offending tuple in sorted order, so the ``FactError``
    does not depend on set iteration order (``PYTHONHASHSEED``).
    """

    def __init__(self, schema: Schema, relations: Iterable[Relation]):
        self.schema = schema
        rows: dict[str, tuple[Tuple, ...]] = {}
        for r in relations:
            if r.name not in schema:
                raise FactError(f"facts for undeclared relation {r.name!r}")
            if r.name in rows:
                raise FactError(f"duplicate relation {r.name!r} in facts")
            rows[r.name] = tuple(r.tuples)
        self._rows = {name: rows.get(name, ()) for name in schema}
        self._by_attr: dict[tuple[str, int], dict[str, tuple[Tuple, ...]]] = {}
        self._validate()

    def _validate(self):
        fk_columns = []  # (relation, position, set of values), checked last
        keys: dict[str, dict[str, Tuple]] = {}  # primary-key index per relation
        for name, tuples in self._rows.items():
            attrs = self.schema[name]
            if set(map(len, tuples)) - {len(attrs)}:
                t = _least(t for t in tuples if len(t) != len(attrs))
                raise FactError(
                    f"{name}: tuple {t!r} has arity {len(t)}, schema says {len(attrs)}")
            if not _all_of(chain.from_iterable(tuples), str):
                t = _least(t for t in tuples if not all(isinstance(v, str) for v in t))
                i = next(i for i, v in enumerate(t) if not isinstance(v, str))
                raise FactError(f"{name}.{attrs[i].name}: non-string value {t[i]!r} in {t!r}")
            pk_index = dict(zip(map(itemgetter(0), tuples), tuples))
            empty = [0] if "" in pk_index else []
            for i, a in enumerate(attrs):
                if a.kind == FK:
                    values = set(map(itemgetter(i), tuples))
                    if "" in values:
                        empty.append(i)
                    fk_columns.append((name, i, values))
            if empty:
                t = _least(t for t in tuples if not all(t[i] for i in empty))
                i = next(i for i in empty if not t[i])
                raise FactError(f"{name}.{attrs[i].name}: empty key value in {t!r}")
            if len(pk_index) != len(tuples):  # identical rows kept once, then keys
                tuples = self._rows[name] = tuple(dict.fromkeys(tuples))
                pk_index = dict(zip(map(itemgetter(0), tuples), tuples))
            if len(pk_index) != len(tuples):
                pks = Counter(map(itemgetter(0), tuples))
                t = _least(t for t in tuples if pks[t[0]] > 1)
                raise FactError(f"{name}: duplicate primary key {t[0]!r} in {t!r}")
            keys[name] = pk_index
        for name, i, values in fk_columns:
            a = self.schema[name][i]
            target = keys[a.target]
            if not target.keys() >= values:
                t = _least(t for t in self._rows[name] if t[i] not in target)
                raise FactError(
                    f"{name}.{a.name}: dangling foreign key {t[i]!r} in {t!r}")

    def __getitem__(self, name: str) -> Relation:
        return Relation(name, self.tuples(name))

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def tuples(self, rel: str) -> frozenset[Tuple]:
        return frozenset(self._rows[rel])

    def by_attr(self, rel: str, pos: int, value: str) -> tuple[Tuple, ...]:
        """All tuples of ``rel`` whose attribute at ``pos`` equals ``value``,
        in the order of its rows: at most one at the primary key, ``pos`` 0."""
        key = (rel, pos)
        index = self._by_attr.get(key)
        if index is None:
            built: dict[str, list[Tuple]] = {}
            for t in self._rows[rel]:
                built.setdefault(t[pos], []).append(t)
            index = {v: tuple(ts) for v, ts in built.items()}
            self._by_attr[key] = index
        return index.get(value, ())

    def matching(self, rel: str, links: Sequence[tuple[int, str]],
                 strs: tuple[tuple[int, str, str], ...] = (),
                 self_eq: tuple[int, ...] = ()) -> tuple[Tuple, ...]:
        """Tuples of ``rel``, in the order of its rows, with value ``v`` at
        every ``(pos, v)`` of ``links``, meeting every string constraint
        ``(pos, pred, literal)`` in ``strs`` and equal to their own primary
        key at every position in ``self_eq``: the fact base's one filtered
        read, over the one index kind, ``by_attr``, that reduction probes
        too. Takes the pool of a single link or of a first link at the
        primary key, else the smallest pool among ``links``, else the
        smallest among the ``equal`` constraints, each a link to its
        literal, else all rows."""
        if not links:
            equal = [self.by_attr(rel, pos, literal)
                     for pos, pred, literal in strs if pred == "equal"]
            pool = min(equal, key=len) if equal else self._rows[rel]
        else:
            pos, v = links[0]
            if pos == 0 or len(links) == 1:
                pool = self.by_attr(rel, pos, v)
            else:
                pool = min((self.by_attr(rel, pos, v) for pos, v in links), key=len)
        if len(links) > 1 or strs or self_eq:
            return _filtered(pool, links, strs, self_eq)
        return pool


def _filtered(rows: Iterable[Tuple], links: Sequence[tuple[int, str]],
              strs: tuple[tuple[int, str, str], ...],
              self_eq: tuple[int, ...]) -> tuple[Tuple, ...]:
    """The ``rows`` that meet ``links``, ``strs`` and ``self_eq`` as ``matching`` says, in order."""
    return tuple(t for t in rows
                 if all(t[pos] == v for pos, v in links)
                 and all(pred_holds(p, t[pos], lit) for pos, p, lit in strs)
                 and all(t[pos] == t[0] for pos in self_eq))


def load_facts(schema: Schema, facts_doc: dict) -> tuple[Schema, FactBase]:
    """``schema`` and the fact base of the facts.json document ``facts_doc``,
    each relation's rows in document order.

    Only the JSON shape is checked here: rows are lists, one C-level pass
    per relation, and no cell is a list or object. ``FactBase`` checks the
    rest, and fails on such a cell too, since it is not a string; only then
    is the document searched for one, so that a shape fault comes first.
    """
    if not isinstance(facts_doc, dict):
        raise FactError("facts document must be an object of relation -> rows")
    if not all(isinstance(rows, list) and _all_of(rows, list) for rows in facts_doc.values()):
        raise _shape_fault(facts_doc)
    try:
        return schema, FactBase(schema, [Relation(name, tuple(map(tuple, rows)))
                                         for name, rows in facts_doc.items()])
    except FactError as exc:
        raise (_shape_fault(facts_doc) or exc) from None


def _shape_fault(facts_doc: dict) -> FactError | None:
    """The fault of the first relation of ``facts_doc`` that has one: rows
    that are not a list, else a row that is not a list, else a list or object cell."""
    for name, rows in facts_doc.items():
        if not isinstance(rows, list):
            return FactError(f"{name}: rows must be a list, got {rows!r}")
        for row in rows:
            if not isinstance(row, list):
                return FactError(f"{name}: row {row!r} is not a list")
        for row in rows:
            for v in row:
                if isinstance(v, (list, dict)):
                    return FactError(f"{name}: non-string value {v!r} in row {row!r}")
    return None


_POSITION_COLUMNS = ("files", "rows", "file", "line", "col")


def load_positions(doc: dict) -> Callable[[str], str | None]:
    """``file:line:col`` of a row id, or None, from the positions.json
    document ``doc``: the sorted file table ``files``, and per row its id in
    ``rows``, its file's index into ``files`` in ``file``, its ``line`` and its
    ``col``. Each column is checked in one C-level pass; a fault is a
    ``PositionsError`` naming the first offending entry."""
    if not isinstance(doc, dict):
        raise PositionsError("positions must be an object of columns "
                             + ", ".join(_POSITION_COLUMNS))
    missing = [name for name in _POSITION_COLUMNS if name not in doc]
    if missing and all(isinstance(v, dict) for v in doc.values()):
        raise PositionsError("one object per row is the old positions layout; "
                             "re-run `cqsearch extract` to write it as columns")
    if missing:
        raise PositionsError(f"missing column {missing[0]!r}")
    for name in _POSITION_COLUMNS:
        if not isinstance(doc[name], list):
            raise PositionsError(f"column {name!r} must be a list, got {doc[name]!r}")
    files, rows, file, line, col = (doc[name] for name in _POSITION_COLUMNS)
    if not len(rows) == len(file) == len(line) == len(col):
        raise PositionsError(f"columns 'rows', 'file', 'line' and 'col' have "
                             f"{len(rows)}, {len(file)}, {len(line)} and {len(col)} "
                             f"entries, not one per row")
    for name in ("files", "rows"):
        if not _all_of(doc[name], str):
            i, v = next((i, v) for i, v in enumerate(doc[name]) if not isinstance(v, str))
            raise PositionsError(f"{name}[{i}] is {v!r}, not a string")
    index = dict(zip(rows, range(len(rows))))
    if len(index) != len(rows):
        counts = Counter(rows)
        raise PositionsError(f"duplicate row id {min(r for r in counts if counts[r] > 1)!r}")
    for name in ("file", "line", "col"):
        if set(map(type, doc[name])) - {int}:  # bool is not int here
            i, v = next((i, v) for i, v in enumerate(doc[name]) if type(v) is not int)
            raise PositionsError(f"{name}[{i}] of row {rows[i]!r} is {v!r}, not an integer")
    if file and (min(file) < 0 or max(file) >= len(files)):
        i = next(i for i, v in enumerate(file) if not 0 <= v < len(files))
        raise PositionsError(f"file[{i}] of row {rows[i]!r} is {file[i]}, not an "
                             f"index into the {len(files)} files")

    def location(row_id: str) -> str | None:
        i = index.get(row_id)
        return None if i is None else f"{files[file[i]]}:{line[i]}:{col[i]}"
    return location


def _all_of(values: Iterable, kind: type) -> bool:
    """Is every value an instance of ``kind``? One pass, no Python loop per value."""
    return all(issubclass(k, kind) for k in set(map(type, values)))


def _least(tuples: Iterable[Tuple]) -> Tuple:
    """The least of ``tuples`` in sorted order, or by ``repr`` when they hold
    values that do not compare (a fact base built in Python, not loaded)."""
    tuples = list(tuples)
    try:
        return min(tuples)
    except TypeError:
        return min(tuples, key=repr)


def make_partition(target: str, positive_ids: Iterable[str],
                   facts: FactBase) -> RelationPartition:
    """Split the target relation by primary key; everything unlisted is negative."""
    if target not in facts.schema:
        raise PartitionError(f"unknown target relation {target!r}")
    wanted = set(positive_ids)
    positives = set()
    for pid in sorted(wanted):
        t = facts.by_attr(target, 0, pid)
        if not t:
            raise PartitionError(f"{target}: no tuple with primary key {pid!r}")
        positives.add(t[0])
    negatives = facts.tuples(target) - positives
    if not positives:
        raise PartitionError("no positive tuples")
    if not negatives:
        raise PartitionError("no negative tuples: every target tuple is positive")
    return RelationPartition(target, frozenset(positives), frozenset(negatives))


def partition_from_doc(doc: dict, facts: FactBase) -> RelationPartition:
    try:
        target = doc["target"]
        positive = doc["positive"]
    except (KeyError, TypeError):
        raise PartitionError("partition document needs 'target' and 'positive'")
    if not isinstance(target, str) or not isinstance(positive, list) \
            or not all(isinstance(p, str) for p in positive):
        raise PartitionError("partition 'target' must be a relation name and "
                             "'positive' a list of primary keys")
    return make_partition(target, positive, facts)


@dataclass
class Level:
    """A refined level's counts: of the graphs ``generated``, ``rederived`` recurred
    within the level and ``dedup_hits`` were isomorphic to one seen before."""
    m: int
    k: int
    worklist: int = 0
    generated: int = 0
    rederived: int = 0
    dedup_hits: int = 0
    refinable: int = 0
    candidates: int = 0
    seconds: float = field(default=0.0, compare=False)


@dataclass
class Trace:
    """The record of one synthesis run: seconds per stage (``inputs``, ``reduce``,
    ``refine``, ``select``), a ``Level`` per refined level, the synLCS memo's calls
    and misses, and ``wall_s`` from the trace's making to the close of its last span.
    A search records its own stages."""
    spans: dict[str, float] = field(default_factory=dict)
    levels: list[Level] = field(default_factory=list)
    syn_lcs_calls: int = 0
    syn_lcs_misses: int = 0
    wall_s: float = 0.0
    started: float = field(default_factory=perf_counter)

    @contextmanager
    def span(self, name: str, level: Level | None = None):
        """Add the seconds inside to stage ``name`` and give them to ``level``: the
        clock is read as a span opens and closes, never per graph."""
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.spans[name] = self.spans.get(name, 0.0) + end - start
            self.wall_s = end - self.started
            if level is not None:
                level.seconds = end - start
