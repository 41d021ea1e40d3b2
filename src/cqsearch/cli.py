"""Command-line pipeline: extract, reduce, synthesize, search, bench, graph.

All I/O goes through files and stdout. Exit codes: 0 on success (synthesize
additionally requires a non-empty selection), 2 when a synthesis or bench run
completes but falls short (no query / failed tasks), 1 on errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

from . import minijava
from .core import (DomainError, Schema, Trace, collector_paused, decoding, load_facts,
                   load_positions, make_partition, partition_from_doc, read_input)
from .datalog import parse_datalog, render_datalog
from .evaluator import evaluate
from .extract import extract, extraction_schema, facts_to_doc, positions_to_doc
from .query import escaped, max_multiplicity, render_ra
from .reduction import reduce
from .schema_graph import build_schema_graph
from .select import ContextError, make_context, synthesize


class CliError(Exception):
    pass


def _load_facts(schema_path: str, facts_path: str, trace: Trace | None = None):
    """The schema, read first so that a ``SchemaError`` names it, and the fact
    base, each in a span of ``trace``, if given: ``schema`` and ``facts``."""
    trace = Trace() if trace is None else trace
    with trace.span("schema"):
        schema = read_input(schema_path, lambda text: Schema.from_doc(json.loads(text)))
    # One collector pause; the text is freed before the build, the document before gc resumes.
    with trace.span("facts"), decoding(facts_path):
        return load_facts(schema, read_input(facts_path, json.loads))


def _load_inputs(args):
    """Facts and partition from either annotated sources or JSON documents.
    A flag the chosen input ignores is an error, raised before any file is read."""
    if args.source:
        if not args.target:
            raise CliError("--target is required with --source")
        for flag in ("schema", "facts", "partition", "positive"):
            if getattr(args, flag):
                raise CliError(f"--{flag} cannot be used with --source")
        facts, part, _ = extract(minijava.parse_files(args.source), args.target)
        return facts.schema, facts, part
    if not (args.schema and args.facts):
        raise CliError("need either --source or --schema/--facts")
    if args.partition:
        for flag in ("target", "positive"):
            if getattr(args, flag):
                raise CliError(f"--{flag} cannot be used with --partition")
    elif not (args.target and args.positive):
        raise CliError("a partition is required (--partition or --target/--positive)")
    schema, facts = _load_facts(args.schema, args.facts)
    if args.partition:
        part = read_input(args.partition, lambda text: partition_from_doc(json.loads(text), facts))
    else:
        part = make_partition(args.target, args.positive, facts)
    return schema, facts, part


_encode_str = json.encoder.encode_basestring_ascii  # the C encoder where there is one


def indented_json(doc, pad: str = "\n") -> str:
    """``json.dumps(doc, indent=2)``, without the stdlib's pure-Python
    encoder: strings by the C ``encode_basestring_ascii``, each list of
    strings in one ``join``, and any other scalar by ``json.dumps``'s C path.
    ``pad`` starts the lines of ``doc``'s closing bracket. It keeps no closure
    or cycle, so it leaves the collector nothing. Object keys must be
    strings."""
    if isinstance(doc, str):
        return _encode_str(doc)
    inner = pad + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [_encode_str(key) + ": " + indented_json(value, inner)
             for key, value in doc.items()]) + pad + "}")
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        try:  # a row of strings, by far the most common list
            items = ("," + inner).join(map(_encode_str, doc))
        except TypeError:
            items = ("," + inner).join([indented_json(item, inner) for item in doc])
        return "[" + inner + items + pad + "]"
    return json.dumps(doc)


def _write_json(path, doc, indented: bool = True) -> None:
    """``doc`` and a line end in ``path``: laid out as ``json.dumps(doc,
    indent=2)``, or compact on one line."""
    text = indented_json(doc) if indented else json.dumps(doc)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _query_graph_dot(graph) -> str:
    lines = ["digraph query {"]
    for i, rel in enumerate(graph.nodes, 1):  # node i - 1 is named A{i}
        lines.append(f'  "A{i}" [label="{rel} (A{i})", shape=box];')
    for fk, pk, attr in sorted(graph.eq_edges):
        lines.append(f'  "A{fk + 1}" -> "A{pk + 1}" [label="{attr}"];')
    for i, (node, attr, pred, literal) in enumerate(graph.str_edges):
        label = escaped(f'({pred}, "{escaped(literal)}")')
        lines.append(f'  "str{i}" [label="{label}", shape=ellipse];')
        lines.append(f'  "A{node + 1}" -> "str{i}" [label="{attr}"];')
    lines.append("}")
    return "\n".join(lines)


# --- subcommands ------------------------------------------------------------

def cmd_extract(args) -> int:
    # One collector pause from reading the first source to writing the last
    # file, as in cmd_search: the tokens, the AST, the rows and the documents
    # are acyclic, so a collection would walk them and free nothing.
    with collector_paused():
        return _extract(args)


def _extract(args) -> int:
    from .extract import build_facts
    prog = minijava.parse_files(args.source)
    if args.target:
        facts, part, positions = extract(prog, args.target)
    else:
        # Plain fact dump, e.g. an unannotated base for `search` to run over.
        facts, positions, _ = build_facts(prog)
        part = None
    docs = {"schema.json": facts.schema.to_doc(), "facts.json": facts_to_doc(facts)}
    if part is not None:
        docs["partition.json"] = {"target": part.target,
                                  "positive": sorted(t[0] for t in part.positives)}
    docs["positions.json"] = positions_to_doc(positions)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        _write_json(outdir / name, doc, indented=name != "positions.json")
    print(f"wrote {', '.join(docs)} to {outdir}")
    return 0


def cmd_reduce(args) -> int:
    schema, facts, part = _load_inputs(args)
    reduced = reduce(schema, facts, part, max_cycle_len=args.max_cycle_len)
    for line in reduced.report_lines():
        print(line)
    return 0


def cmd_synthesize(args) -> int:
    if not (args.description_file or args.description):
        raise CliError("a description is required (--description or --description-file)")
    trace = Trace()
    with trace.span("inputs"):
        schema, facts, part = _load_inputs(args)
        description = (read_input(args.description_file).strip() if args.description_file
                       else args.description)
        ctx = read_input(args.hmap, lambda text: make_context(json.loads(text), description))
        if not ctx.entities:
            raise ContextError(f"{args.description_file or args.hmap}: no named entities in "
                               "the description: none of its words is in the hmap dictionary")
    result = synthesize(schema, facts, part, ctx, k_bound=args.k_bound,
                        early_stop=not args.no_early_stop,
                        use_reduction=not args.no_reduction,
                        max_relations=args.max_m,
                        max_cycle_len=args.max_cycle_len, trace=trace)
    report = _report(result, schema)
    if args.trace:
        for s in trace.levels:
            print(f"trace ({s.m},{s.k}): |W|={s.worklist} generated={s.generated} "
                  f"|S_R|={s.refinable} |S_C|={s.candidates}", file=sys.stderr)
    _emit(args, result, report)
    if args.output:
        _write_json(args.output, report)
    return 0 if result.selected else 2


def _report(result, schema) -> dict:
    queries = []
    for sel in result.selected:
        rels, eq, strs = sel.graph.size()
        queries.append({
            "ra": render_ra(sel.graph, schema),
            "datalog": render_datalog(sel.graph, schema),
            "alpha": float(result.alpha_max),
            "alpha_exact": str(result.alpha_max),
            "beta": result.beta_min,
            "graph_size": {"relations": rels, "eq_constraints": eq,
                           "str_constraints": strs},
            "k": max_multiplicity(sel.graph),
        })
    return {
        "queries": queries,
        "alpha_max": None if result.alpha_max is None else float(result.alpha_max),
        "beta_min": result.beta_min,
        "terminated_early": result.terminated_early,
        "levels_explored": [list(l) for l in result.levels_explored],
        "reduced": {"kept": sorted(result.reduced.kept),
                    "dropped": [[name, reason.value]
                                for name, reason in sorted(result.reduced.dropped)]},
        "explored_graphs": result.state.generated_total(),
        "wall_time_s": round(result.trace.wall_s, 4),
        "trace": {key: value for key, value in asdict(result.trace).items()
                  if key != "started"},
    }


def _emit(args, result, report):
    mode = args.emit
    if mode == "json":
        print(indented_json(report))
        return
    if mode == "dot":
        for sel in result.selected:
            print(_query_graph_dot(sel.graph))
        return
    if mode in ("ra", "datalog"):
        for q in report["queries"]:
            print(q[mode])
        return
    # default pretty text
    if not report["queries"]:
        print("no query candidate within bounds")
    for i, q in enumerate(report["queries"], 1):
        print(f"[{i}] alpha={q['alpha_exact']} beta={q['beta']} "
              f"|G_Q|={tuple(q['graph_size'].values())} k={q['k']}")
        print(f"    {q['ra']}")
        print(f"    {q['datalog']}")
    print(f"levels explored: {report['levels_explored']}, "
          f"early stop: {report['terminated_early']}, "
          f"wall time: {report['wall_time_s']}s")


def cmd_search(args) -> int:
    # One collector pause from reading the facts to printing the last line:
    # what a search allocates is acyclic, so a collection would walk the
    # whole fact base and free nothing. The fact base goes with _search's
    # frame, by reference counting, before the collector resumes.
    with collector_paused():
        return _search(args)


def _search(args) -> int:
    trace = Trace()
    schema, facts = _load_facts(args.schema, args.facts, trace)
    with trace.span("positions"):
        location = (read_input(args.positions, lambda text: load_positions(json.loads(text)))
                    if args.positions else {}.get)
    with trace.span("query"):
        query = read_input(args.query, lambda text: parse_datalog(text, schema))
    with trace.span("evaluate"):
        answer = evaluate(query, facts)
    with trace.span("print"):
        for t in sorted(answer):
            where = location(t[0])
            print(t[0] if where is None else f"{t[0]}\t{where}")
    if args.trace:
        for name, seconds in trace.spans.items():
            print(f"trace {name}: {seconds:.6f}s", file=sys.stderr)
        print(f"trace wall: {trace.wall_s:.6f}s", file=sys.stderr)
    return 0


def cmd_graph(args) -> int:
    if args.source:
        if args.schema:
            raise CliError("--schema cannot be used with --source")
        minijava.parse_files(args.source)  # the sources must parse; the schema is fixed
        schema = extraction_schema()
    elif args.schema:
        schema = read_input(args.schema, lambda text: Schema.from_doc(json.loads(text)))
    else:
        raise CliError("need --schema or --source")
    print(build_schema_graph(schema).to_dot())
    return 0


def cmd_bench(args) -> int:
    from .bench import run_corpus, render_table
    if not Path(args.corpus).is_dir():
        raise CliError(f"corpus {args.corpus} is not a directory")
    results = run_corpus(Path(args.corpus), k_bound=args.k_bound,
                         early_stop=not args.no_early_stop,
                         use_reduction=not args.no_reduction,
                         jobs=args.jobs)
    print(render_table(results))
    if args.output:
        _write_json(args.output, [r.to_doc() for r in results])
    return 0 if all(r.passed for r in results) else 2


@cache  # argparse objects refer to each other: build them once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqsearch",
        description="Synthesize and run conjunctive code-search queries")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_opts(p):
        p.add_argument("--source", nargs="+", help="annotated .java example files")
        p.add_argument("--target", help="target relation of the partition")
        p.add_argument("--schema", help="schema.json path")
        p.add_argument("--facts", help="facts.json path")
        p.add_argument("--partition", help="partition.json path")
        p.add_argument("--positive", nargs="+", help="positive primary keys")
        p.add_argument("--max-cycle-len", type=int, default=8)

    p = sub.add_parser("extract", help="turn annotated sources into fact files")
    p.add_argument("source", nargs="+", help=".java files, annotated or plain")
    p.add_argument("--target", help="partition target; omit for a plain fact dump")
    p.add_argument("-o", "--output", default="out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("reduce", help="report kept and dropped relations")
    add_input_opts(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("synthesize", help="synthesize queries for a task")
    add_input_opts(p)
    p.add_argument("--description", help="natural-language description")
    p.add_argument("--description-file")
    p.add_argument("--hmap", required=True, help="hmap.json path")
    p.add_argument("--k-bound", type=int, default=2)
    p.add_argument("--max-m", type=int, default=None,
                   help="cap on relation occurrences per query")
    p.add_argument("--no-early-stop", action="store_true")
    p.add_argument("--no-reduction", action="store_true")
    p.add_argument("--emit", choices=["text", "ra", "datalog", "dot", "json"],
                   default="text")
    p.add_argument("--trace", action="store_true")
    p.add_argument("-o", "--output", help="write the JSON report here")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("search", help="evaluate a query file against facts")
    p.add_argument("query", help="single-rule datalog file")
    p.add_argument("--schema", required=True)
    p.add_argument("--facts", required=True)
    p.add_argument("--positions", help="positions.json for source locations")
    p.add_argument("--trace", action="store_true",
                   help="print each stage's seconds and the wall time to stderr")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bench", help="run the bundled task corpus")
    p.add_argument("corpus", help="corpus directory")
    p.add_argument("--k-bound", type=int, default=2)
    p.add_argument("--no-early-stop", action="store_true")
    p.add_argument("--no-reduction", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output", help="write per-task JSON here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("graph", help="dump the schema graph as DOT")
    p.add_argument("--schema")
    p.add_argument("--source", nargs="+")
    p.set_defaults(func=cmd_graph)
    return parser


# Least accepted value of each integer flag, where a subcommand has it.
_FLAG_MINIMUMS = {"max_cycle_len": 0, "k_bound": 1, "max_m": 1, "jobs": 1}


def _check_flags(args) -> None:
    for name, least in _FLAG_MINIMUMS.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            raise CliError(f"{flag} must be at least {least}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:  # domain errors carry their own context
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
