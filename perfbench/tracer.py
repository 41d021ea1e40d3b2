"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces public functions of the cqsearch modules with
wrappers that time and count their calls. A function is replaced in every
cqsearch module that holds it under some name, because ``from .x import f``
copies the reference: ``canonical_form`` lives in ``query`` but is called
through ``refine`` and ``select``, and ``reduction`` calls its own copy of
``activated_relation``. Methods are replaced on their class.

Each wrapper records a span. A span's self time is its duration minus the
durations of the wrapped calls made inside it, so the self times of nested
layers add up without double counting. Counting-only wrappers (for functions
called millions of times, such as ``compile_path``) record no span; their
time stays in the caller's self time.

``Tracer.metrics`` gives the per-layer metrics BENCHMARK.json names. A name
ending in ``.s`` is seconds of self time summed over the run, one ending in
``.calls`` a call count; the others are counters read from return values or
ratios of counters. Counters are exact and repeat from one traced run of a
seed to the next.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _rows(facts) -> int:
    return sum(len(facts.tuples(rel)) for rel in facts)


class Tracer:
    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.active = True
        self._stack: list[float] = []  # per open span: time spent in child spans
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, span: str, fn):
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[span] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[span] += 1
        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observed(self, fn, observe):
        """Call ``observe(result, *args)`` after each traced call."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                observe(result, *args)
            return result
        return wrapper

    def _replace(self, module, attr: str, new) -> None:
        """Point every cqsearch-module reference to ``module.attr`` at ``new``."""
        old = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "cqsearch" or name.startswith("cqsearch.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._patched.append((mod, key, old))
                    setattr(mod, key, new)

    def _replace_method(self, cls, attr: str, new) -> None:
        self._patched.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, new)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        (cli, core, datalog, evaluator, extract, minijava, query, reduction,
         refine, schema_graph, select, strings) = (
            importlib.import_module(f"cqsearch.{name}") for name in (
                "cli", "core", "datalog", "evaluator", "extract", "minijava",
                "query", "reduction", "refine", "schema_graph", "select",
                "strings"))
        count = self.counts

        def timed(module, attr, span, observe=None):
            fn = self._timed(span, getattr(module, attr))
            if observe is not None:
                fn = self._observed(fn, observe)
            self._replace(module, attr, fn)

        def on_cycles(result, *_):
            count["schema_graph.cycles"] += len(result)

        def on_paths(result, *_):
            count["schema_graph.paths"] += len(result)

        def on_reduce(result, *_):
            count["reduction.kept"] += len(result.kept)
            count["reduction.dropped"] += len(result.dropped)

        def on_syn_lcs(result, *_):
            count["strings.constraints"] += result is not None

        def on_synthesize(result, *_):
            count["select.levels"] += len(result.levels_explored)
            count["select.early_stops"] += bool(result.terminated_early)

        def on_evaluate(result, *_):
            count["evaluator.evaluate.results"] += len(result)

        def on_load_facts(result, *_):
            count["core.load_facts.rows"] += _rows(result[1])

        def on_tokenize(result, *_):
            count["minijava.tokens"] += len(result)

        def on_build_facts(result, *_):
            count["extract.facts"] += _rows(result[0])

        timed(schema_graph, "simple_cycles", "schema_graph.simple_cycles", on_cycles)
        timed(schema_graph, "acyclic_paths", "schema_graph.acyclic_paths")
        timed(schema_graph, "augment_with_cycles", "schema_graph.augment_with_cycles",
              on_paths)
        self._replace(schema_graph, "compile_path",
                      self._counted("schema_graph.compile_path",
                                    schema_graph.compile_path))
        timed(schema_graph, "activated_relation", "schema_graph.activated_relation")
        timed(reduction, "reduce", "reduction.reduce", on_reduce)
        timed(query, "canonical_form", "query.canonical_form")
        timed(query, "from_graph", "select.from_graph")
        timed(evaluator, "refinable_with_witnesses", "evaluator.refinable_with_witnesses")
        timed(evaluator, "is_candidate", "evaluator.is_candidate")
        timed(evaluator, "evaluate", "evaluator.evaluate", on_evaluate)
        timed(strings, "syn_lcs", "strings.syn_lcs", on_syn_lcs)
        timed(select, "synthesize", "select.synthesize", on_synthesize)
        timed(select, "coverage", "select.coverage")
        timed(core, "load_facts", "core.load_facts", on_load_facts)
        timed(datalog, "parse_datalog", "datalog.parse_datalog")
        timed(minijava, "parse", "minijava.parse")
        timed(minijava, "tokenize", "minijava.tokenize", on_tokenize)
        timed(extract, "build_facts", "extract.build_facts", on_build_facts)
        timed(cli, "cmd_search", "cli.search")
        timed(cli, "cmd_extract", "cli.extract")

        engine = refine.RefinementEngine
        self._replace_method(engine, "expand", self._timed("refine.expand", engine.expand))
        timed_refine = self._timed("refine.refine", engine.refine)

        def traced_refine(eng, state, m, k):
            # Counters come from the state's public record of the level, read
            # outside the span so the bookkeeping is not charged to refine.
            generated, seen = state.generated_total(), len(state.seen)
            timed_refine(eng, state, m, k)
            if self.active:
                new = state.generated_total() - generated
                count["refine.generated"] += new
                count["refine.dedup_hits"] += new - (len(state.seen) - seen)
                count["refine.refinable"] += len(state.refinable(m, k))
                count["refine.candidates"] += len(state.candidates(m, k))
        self._replace_method(engine, "refine", traced_refine)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Run harness work (output checks) without recording it."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- results -------------------------------------------------------------

    def metrics(self, names, wall_s: float) -> dict[str, float]:
        """The metrics ``names`` by name, for a traced pass of ``wall_s``."""
        count = self.counts
        derived = {
            "trace.wall_s": wall_s,
            "reduction.paths_per_relation": _ratio(
                count["schema_graph.paths"], self.calls["schema_graph.augment_with_cycles"]),
            "refine.refinable_ratio": _ratio(count["refine.refinable"],
                                             count["refine.generated"]),
            "refine.candidate_ratio": _ratio(count["refine.candidates"],
                                             count["refine.refinable"]),
        }
        values: dict[str, float] = {}
        for name in names:
            if name in derived:
                values[name] = derived[name]
            elif name.endswith(".s"):
                values[name] = self.self_s[name[:-2]]
            elif name.endswith(".calls"):
                values[name] = self.calls[name[:-6]]
            else:
                values[name] = count[name]
        return values


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
