import json
from pathlib import Path

import pytest

from cqsearch.core import (FK, PK, STR, AttributeDecl, FactBase, Relation,
                           Schema, make_partition)
from cqsearch.query import QueryGraph
from cqsearch.select import EntityContext, extract_entities, load_hmap

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

MOTIVATING_DESCRIPTION = ("Find all the methods receiving a Log4jUtils-type "
                          "parameter and giving a CacheConfig-type return")


def fig1_schema() -> Schema:
    return Schema({
        "Method": [AttributeDecl("id", PK),
                   AttributeDecl("idf_id", FK, "Identifier"),
                   AttributeDecl("ret_type_id", FK, "Type"),
                   AttributeDecl("mdf_id", FK, "Modifier")],
        "Parameter": [AttributeDecl("id", PK),
                      AttributeDecl("idf_id", FK, "Identifier"),
                      AttributeDecl("type_id", FK, "Type"),
                      AttributeDecl("method_id", FK, "Method")],
        "Identifier": [AttributeDecl("id", PK), AttributeDecl("name", STR)],
        "Type": [AttributeDecl("id", PK), AttributeDecl("name", STR)],
        "Modifier": [AttributeDecl("id", PK), AttributeDecl("name", STR)],
    })


def fig1_relations() -> list[Relation]:
    return [
        Relation("Method", frozenset({
            ("M1", "I1", "T3", "MDF1"),
            ("M2", "I2", "T3", "MDF1"),
            ("M3", "I3", "T2", "MDF1")})),
        Relation("Parameter", frozenset({
            ("P1", "I4", "T1", "M1"),
            ("P2", "I4", "T2", "M2"),
            ("P3", "I4", "T1", "M3")})),
        Relation("Identifier", frozenset({
            ("I1", "foo"), ("I2", "f2"), ("I3", "f3"), ("I4", "utils")})),
        Relation("Type", frozenset({
            ("T1", "Log4jUtils"), ("T2", "int"), ("T3", "CacheConfig")})),
        Relation("Modifier", frozenset({("MDF1", "public")})),
    ]


def fig1_facts(schema=None) -> FactBase:
    return FactBase(schema or fig1_schema(), fig1_relations())


# The motivating target query as a hand-written rule; it parses to ``fig1c_graph()``.
FIG1C_RULE = ('out(M, MIdf, MRet, MMdf) :- Method(M, MIdf, MRet, MMdf), '
              'Type(MRet, RetName), Parameter(P, PIdf, PType, M), '
              'Type(PType, ParName), str_equal(RetName, "CacheConfig"), '
              'str_equal(ParName, "Log4jUtils").')


def fig1c_graph() -> QueryGraph:
    """The motivating target query: CacheConfig return, Log4jUtils parameter."""
    return QueryGraph(
        ("Method", "Type", "Parameter", "Type"),
        frozenset({(0, 1, "ret_type_id"), (2, 0, "method_id"), (2, 3, "type_id")}),
        ((1, "name", "equal", "CacheConfig"), (3, "name", "equal", "Log4jUtils")))


@pytest.fixture
def schema():
    return fig1_schema()


@pytest.fixture
def facts(schema):
    return fig1_facts(schema)


@pytest.fixture
def partition(facts):
    return make_partition("Method", ["M1"], facts)


@pytest.fixture(scope="session")
def hmap_doc():
    return json.loads((CORPUS / "hmap.json").read_text(encoding="utf-8"))


@pytest.fixture
def context(hmap_doc):
    dictionary, h = load_hmap(hmap_doc)
    return EntityContext(dictionary, h,
                         extract_entities(MOTIVATING_DESCRIPTION, dictionary))
