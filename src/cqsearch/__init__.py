"""Conjunctive query synthesis from annotated code examples.

Pipeline: extract relational facts from example snippets (or load them from
JSON), drop relations that cannot separate the positive examples from the
negative ones, enumerate refinable query graphs bounded by relation
multiplicity, synthesize string constraints from longest common substrings,
and select the candidates that maximize named-entity coverage and minimize
structural complexity.
"""

from .core import (AttributeDecl, DomainError, FactBase, FactError,
                   InputError, PartitionError, PositionsError, Relation,
                   RelationPartition, Schema, SchemaError, Tuple, load_facts,
                   load_positions, make_partition)
from .datalog import DatalogError, parse_datalog, render_datalog
from .evaluator import (EvalError, collect_witnesses, evaluate, is_candidate,
                        is_refinable)
from .extract import ExtractError, extract, extraction_schema
from .query import (GraphError, QueryGraph, canonical_form, multiplicity,
                    render_ra)
from .reduction import DropReason, ReducedRepresentation, reduce
from .schema_graph import (RelationPath, SchemaGraph, activated_relation,
                           acyclic_paths, augment_with_cycles,
                           build_schema_graph)
from .select import (ContextError, EntityContext, SynthesisResult, compare,
                     coverage, extract_entities, make_context, synthesize)
from .strings import syn_lcs

__all__ = [name for name in dir() if not name.startswith("_")]
