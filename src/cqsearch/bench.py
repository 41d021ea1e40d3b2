"""Task-corpus runner.

A corpus directory holds hmap.json plus one subdirectory per task, each with
task.json (description, target, source files, golden rule files, expected
sizes). Tasks are extracted, synthesized, and compared against their golden
query set by the canonical form of each query's merged graph, never by text.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import minijava
from .core import DomainError, Trace, read_input
from .datalog import parse_datalog, render_datalog
from .extract import extract
from .query import canonical_form, max_multiplicity, merged
from .reduction import reduced_subgraph_size
from .select import make_context, synthesize


@dataclass
class TaskResult:
    name: str
    category: str
    passed: bool
    gq: tuple[int, int, int] | None
    k: int | None
    reduced_size: tuple[int, int]
    wall_time_s: float
    selected: list[str] = field(default_factory=list)
    golden: list[str] = field(default_factory=list)
    explored: int = 0
    terminated_early: bool = False
    error: str | None = None

    def to_doc(self) -> dict:
        return {**asdict(self), "wall_time_s": round(self.wall_time_s, 4)}


def _task_doc(text: str) -> dict:
    """The task.json document ``text``, each field checked for its type."""
    doc = json.loads(text)
    if not (isinstance(doc, dict) and {"source", "target", "description"} <= doc.keys()):
        raise DomainError("a task is a JSON object with source, target and description")
    for key in ("source", "golden"):
        files = doc.get(key, [])
        if not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
            raise DomainError(f"{key!r} must be a list of file names, got {files!r}")
    if not doc["source"]:
        raise DomainError("'source' must name at least one file")
    for key in ("target", "description", "name", "category"):
        if not isinstance(doc.get(key, ""), str):
            raise DomainError(f"{key!r} must be a string, got {doc[key]!r}")
    expected = doc.get("expected", {})
    if not (isinstance(expected, dict) and isinstance(expected.get("gq", []), list)
            and type(expected.get("k", 0)) is int):  # bool is not int here
        raise DomainError(f"'expected' must be an object with a list 'gq' and an "
                          f"integer 'k', got {expected!r}")
    return doc


def run_task(task_dir: str | Path, hmap_path: str | Path, k_bound: int = 2,
             early_stop: bool = True, use_reduction: bool = True) -> TaskResult:
    """One task's row; a task that cannot run is a failed row with its error."""
    task_dir = Path(task_dir)
    name, category = task_dir.name, "?"
    trace = Trace()
    try:
        with trace.span("inputs"):
            doc = read_input(task_dir / "task.json", _task_doc)
            name = doc.get("name", name)
            category = doc.get("category", category)
            prog = minijava.parse_files([task_dir / s for s in doc["source"]])
            facts, part, _ = extract(prog, doc["target"])
            schema = facts.schema
            ctx = read_input(hmap_path,
                             lambda text: make_context(json.loads(text), doc["description"]))
        result = synthesize(schema, facts, part, ctx, k_bound=k_bound, early_stop=early_stop,
                            use_reduction=use_reduction, trace=trace)

        golden = [read_input(task_dir / f, lambda text: parse_datalog(text, schema))
                  for f in doc.get("golden", [])]
        golden_canon = {canonical_form(merged(g)) for g in golden}
        selected_canon = {canonical_form(merged(s.graph)) for s in result.selected}
        passed = bool(golden_canon) and golden_canon == selected_canon

        gq = result.selected[0].graph.size() if result.selected else None
        k = max_multiplicity(result.selected[0].graph) if result.selected else None
        expected = doc.get("expected")
        if passed and expected:
            passed = (list(expected.get("gq", list(gq))) == list(gq)
                      and expected.get("k", k) == k)
        return TaskResult(
            name, category, passed, gq, k,
            reduced_subgraph_size(schema, result.reduced.kept), trace.wall_s,
            selected=[render_datalog(s.graph, schema) for s in result.selected],
            golden=[render_datalog(g, schema) for g in golden],
            explored=result.state.generated_total(),
            terminated_early=result.terminated_early)
    except Exception as exc:  # a broken task must not abort the run
        return TaskResult(name, category, False, None, None, (0, 0),
                          trace.wall_s, error=f"{type(exc).__name__}: {exc}")


def run_corpus(corpus: Path, k_bound: int = 2, early_stop: bool = True,
               use_reduction: bool = True) -> list[TaskResult]:
    return [run_task(task.parent, corpus / "hmap.json", k_bound, early_stop, use_reduction)
            for task in sorted(corpus.glob("*/task.json"))]


def render_table(results: list[TaskResult]) -> str:
    header = f"{'task':<28} {'cat':<8} {'|G_Q|':<10} {'k':<3} {'|G_Γ′|':<9} {'time':<7} result"
    lines = [header, "-" * len(header)]
    for r in results:
        gq = "-" if r.gq is None else f"({r.gq[0]},{r.gq[1]},{r.gq[2]})"
        size = f"({r.reduced_size[0]},{r.reduced_size[1]})"
        status = "ok" if r.passed else (f"FAIL: {r.error}" if r.error else "FAIL")
        lines.append(f"{r.name:<28} {r.category:<8} {gq:<10} {r.k or '-':<3} "
                     f"{size:<9} {r.wall_time_s:<7.2f} {status}")
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} tasks passed")
    return "\n".join(lines)
