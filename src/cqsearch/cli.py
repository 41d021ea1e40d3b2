"""Command-line pipeline: extract, reduce, synthesize, search, bench, graph.

All I/O goes through files and stdout. Exit codes: 0 on success (synthesize
additionally requires a non-empty selection), 2 when a synthesis or bench run
completes but falls short (no query / failed tasks), 1 on errors.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from pathlib import Path

from . import minijava
from .core import (DomainError, Schema, collector_paused, decoding, load_facts,
                   load_positions, make_partition, partition_from_doc, read_input)
from .datalog import parse_datalog, render_datalog
from .evaluator import evaluate
from .extract import extract, extraction_schema, facts_to_doc, positions_to_doc
from .query import max_multiplicity, render_ra
from .reduction import reduce
from .schema_graph import build_schema_graph
from .select import make_context, synthesize


class CliError(Exception):
    pass


def _load_facts(schema_path: str, facts_path: str):
    """The schema, read first so that a ``SchemaError`` names it, and the fact base."""
    schema = read_input(schema_path, lambda text: Schema.from_doc(json.loads(text)))
    # One collector pause; the text is freed before the build, the document before gc resumes.
    with decoding(facts_path):
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
    schema, facts = _load_facts(args.schema, args.facts)
    if args.partition:
        part = read_input(args.partition, lambda text: partition_from_doc(json.loads(text), facts))
    elif args.target and args.positive:
        part = make_partition(args.target, args.positive, facts)
    else:
        raise CliError("a partition is required (--partition or --target/--positive)")
    return schema, facts, part


def _query_graph_dot(graph) -> str:
    lines = ["digraph query {"]
    for i, rel in enumerate(graph.nodes, 1):  # node i - 1 is named A{i}
        lines.append(f'  "A{i}" [label="{rel} (A{i})", shape=box];')
    for fk, pk, attr in sorted(graph.eq_edges):
        lines.append(f'  "A{fk + 1}" -> "A{pk + 1}" [label="{attr}"];')
    for i, (node, attr, pred, literal) in enumerate(graph.str_edges):
        lines.append(f'  "str{i}" [label="({pred}, \\"{literal}\\")", shape=ellipse];')
        lines.append(f'  "A{node + 1}" -> "str{i}" [label="{attr}"];')
    lines.append("}")
    return "\n".join(lines)


# --- subcommands ------------------------------------------------------------

def cmd_extract(args) -> int:
    from .extract import build_facts
    prog = minijava.parse_files(args.source)
    if args.target:
        facts, part, positions = extract(prog, args.target)
    else:
        # Plain fact dump, e.g. an unannotated base for `search` to run over.
        facts, positions, _ = build_facts(prog)
        part = None
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    written = ["schema.json", "facts.json", "positions.json"]
    (outdir / "schema.json").write_text(
        json.dumps(facts.schema.to_doc(), indent=2) + "\n", encoding="utf-8")
    (outdir / "facts.json").write_text(
        json.dumps(facts_to_doc(facts), indent=2) + "\n", encoding="utf-8")
    if part is not None:
        (outdir / "partition.json").write_text(json.dumps(
            {"target": part.target,
             "positive": sorted(t[0] for t in part.positives)}, indent=2) + "\n",
            encoding="utf-8")
        written.insert(2, "partition.json")
    (outdir / "positions.json").write_text(
        json.dumps(positions_to_doc(positions)) + "\n", encoding="utf-8")
    print(f"wrote {', '.join(written)} to {outdir}")
    return 0


def cmd_reduce(args) -> int:
    schema, facts, part = _load_inputs(args)
    reduced = reduce(schema, facts, part, max_cycle_len=args.max_cycle_len)
    for line in reduced.report_lines():
        print(line)
    return 0


def cmd_synthesize(args) -> int:
    schema, facts, part = _load_inputs(args)
    if args.description_file:
        description = read_input(args.description_file).strip()
    elif args.description:
        description = args.description
    else:
        raise CliError("a description is required (--description or --description-file)")
    ctx = read_input(args.hmap, lambda text: make_context(json.loads(text), description))
    started = time.monotonic()
    result = synthesize(schema, facts, part, ctx, k_bound=args.k_bound,
                        early_stop=not args.no_early_stop,
                        use_reduction=not args.no_reduction,
                        max_relations=args.max_m,
                        max_cycle_len=args.max_cycle_len)
    elapsed = time.monotonic() - started
    report = _report(result, schema, elapsed)
    if args.trace:
        for s in result.state.stats:
            print(f"trace ({s.m},{s.k}): |W|={s.worklist} generated={s.generated} "
                  f"|S_R|={s.refinable} |S_C|={s.candidates}", file=sys.stderr)
    _emit(args, result, report)
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n",
                                     encoding="utf-8")
    return 0 if result.selected else 2


def _report(result, schema, elapsed: float) -> dict:
    queries = []
    for sel in result.selected:
        rels, eq, strs = sel.graph.size()
        queries.append({
            "ra": render_ra(sel.graph, schema),
            "datalog": render_datalog(sel.graph, schema),
            "alpha": float(sel.alpha),
            "alpha_exact": str(sel.alpha),
            "beta": sel.beta,
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
        "wall_time_s": round(elapsed, 4),
    }


def _emit(args, result, report):
    mode = args.emit
    if mode == "json":
        print(json.dumps(report, indent=2))
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
    schema, facts = _load_facts(args.schema, args.facts)
    location = (read_input(args.positions, lambda text: load_positions(json.loads(text)))
                if args.positions else {}.get)
    query = read_input(args.query, lambda text: parse_datalog(text, schema))
    for t in sorted(evaluate(query, facts)):
        where = location(t[0])
        print(t[0] if where is None else f"{t[0]}\t{where}")
    return 0


def cmd_graph(args) -> int:
    if args.source:
        prog = minijava.parse_files(args.source)
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
        Path(args.output).write_text(
            json.dumps([r.to_doc() for r in results], indent=2) + "\n",
            encoding="utf-8")
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
