"""Task-corpus runner.

A corpus directory holds hmap.json plus one subdirectory per task, each with
task.json (description, target, source files, golden rule files, expected
sizes). Tasks are extracted, synthesized, and compared against their golden
query set by the canonical form of each query's merged graph, never by text.
"""
from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import minijava
from .core import DomainError, read_input
from .datalog import parse_datalog, render_datalog
from .extract import extract
from .query import canonical_form, max_multiplicity, merged
from .reduction import reduced_subgraph_size
from .schema_graph import build_schema_graph
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
        return {
            "name": self.name, "category": self.category, "passed": self.passed,
            "gq": list(self.gq) if self.gq else None, "k": self.k,
            "reduced_size": list(self.reduced_size),
            "wall_time_s": round(self.wall_time_s, 4),
            "selected": self.selected, "golden": self.golden,
            "explored": self.explored,
            "terminated_early": self.terminated_early,
            "error": self.error,
        }


def _task_doc(text: str) -> dict:
    doc = json.loads(text)
    if not (isinstance(doc, dict) and {"source", "target", "description"} <= doc.keys()):
        raise DomainError("a task is a JSON object with source, target and description")
    return doc


def run_task(task_dir: str, hmap_path: str, k_bound: int = 2,
             early_stop: bool = True, use_reduction: bool = True) -> TaskResult:
    """One task's row; a task that cannot run is a failed row with its error."""
    task_dir = Path(task_dir)
    name, category = task_dir.name, "?"
    started = time.monotonic()
    try:
        doc = read_input(task_dir / "task.json", _task_doc)
        name = doc.get("name", name)
        category = doc.get("category", category)
        prog = minijava.parse_files([task_dir / s for s in doc["source"]])
        facts, part, _ = extract(prog, doc["target"])
        schema = facts.schema
        ctx = read_input(hmap_path, lambda text: make_context(json.loads(text), doc["description"]))
        result = synthesize(schema, facts, part, ctx, k_bound=k_bound,
                            early_stop=early_stop, use_reduction=use_reduction)
        elapsed = time.monotonic() - started

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
        graph = build_schema_graph(schema)
        return TaskResult(
            name, category, passed, gq, k,
            reduced_subgraph_size(graph, result.reduced.kept), elapsed,
            selected=[render_datalog(s.graph, schema) for s in result.selected],
            golden=[render_datalog(g, schema) for g in golden],
            explored=result.state.generated_total(),
            terminated_early=result.terminated_early)
    except Exception as exc:  # a broken task must not abort the run
        return TaskResult(name, category, False, None, None, (0, 0),
                          time.monotonic() - started, error=f"{type(exc).__name__}: {exc}")


def discover_tasks(corpus: Path) -> list[Path]:
    return sorted(p.parent for p in corpus.glob("*/task.json"))


def run_corpus(corpus: Path, k_bound: int = 2, early_stop: bool = True,
               use_reduction: bool = True, jobs: int = 1) -> list[TaskResult]:
    hmap = corpus / "hmap.json"
    tasks = discover_tasks(corpus)
    jobs = min(jobs, len(tasks))  # a pool starts all its workers at once
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_task, str(t), str(hmap), k_bound,
                                   early_stop, use_reduction) for t in tasks]
            return [f.result() for f in futures]
    return [run_task(str(t), str(hmap), k_bound, early_stop, use_reduction)
            for t in tasks]


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
