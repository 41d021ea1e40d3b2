"""The benchmark's hold on the program.

``perfbench/tracer.py`` patches functions and methods of the cqsearch
modules by name and reads the refinement state's public record. A product
rename or move must fail here, not first in a traced benchmark run; so must
a change that breaks a recorded digest or a benchmark gate.
"""
import subprocess
import sys

from cqsearch import cli, evaluator, query, refine, select
from cqsearch.datalog import parse_datalog
from conftest import REPO, acyclic
from oracles import evaluate_per_head

sys.path.insert(0, str(REPO))
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import SearchCodebase  # noqa: E402


def test_tracer_installs_counts_and_uninstalls(schema, facts, partition, context):
    before = (query.canonical_form, select.canonical_form,
              evaluator.refinable_with_witnesses, select.synthesize,
              refine.RefinementEngine.refine, refine.RefinementEngine.expand)
    tracer = Tracer()
    tracer.install()
    try:
        assert select.canonical_form is not before[1]
        result = select.synthesize(schema, facts, partition, context, k_bound=2)
    finally:
        tracer.uninstall()
    after = (query.canonical_form, select.canonical_form,
             evaluator.refinable_with_witnesses, select.synthesize,
             refine.RefinementEngine.refine, refine.RefinementEngine.expand)
    assert after == before

    metrics = tracer.metrics(["refine.generated", "refine.dedup_hits", "refine.refinable",
                              "refine.candidates", "refine.expand.calls",
                              "query.canonical_form.calls",
                              "select.synthesize.calls", "select.levels"], 1.0)
    assert metrics["refine.generated"] == result.state.generated_total() > 0
    # The tracer's dedup hits are the trace's graphs caught by either check.
    assert metrics["refine.dedup_hits"] == sum(
        s.rederived + s.dedup_hits for s in result.trace.levels) > 0
    assert metrics["refine.refinable"] == sum(
        len(refinable) for refinable, _ in result.state.table.values())
    assert metrics["refine.candidates"] > 0
    assert metrics["refine.expand.calls"] > 0
    assert metrics["query.canonical_form.calls"] > 0
    assert metrics["select.synthesize.calls"] == 1
    assert metrics["select.levels"] == len(result.levels_explored)


def test_search_codebase_at_fan_out(tmp_path):
    """Every golden query searched over a generated 200-class code base
    finds exactly the positions the generator expects."""
    workload = SearchCodebase(REPO, 7, tmp_path, classes=200)
    workload.prepare()
    workload.setup()
    ops = workload.operations()
    assert len(ops) == 21
    for op in ops:
        assert workload.check(op, workload.run(op)) is None, op


def test_search_codebase_key_aware_agrees_with_per_head_search(tmp_path):
    """The 21 queries over the 1000-class code base the benchmark builds:
    each answer equals the per-head search's, and the one with a cycle,
    ``method-mutual-recursion``, has 1,767 answers."""
    workload = SearchCodebase(REPO, 0, tmp_path)
    workload.prepare()
    workload.setup()
    _, facts = cli._load_facts(tmp_path / "facts" / "schema.json",
                               tmp_path / "facts" / "facts.json")
    ops, cyclic = sorted(workload.operations()), []
    assert len(ops) == 21
    for op in ops:
        text = (tmp_path / "queries" / f"{op}.dl").read_text(encoding="utf-8")
        g = parse_datalog(text, facts.schema)
        c = evaluator._Compiled(facts, g)
        answer = evaluator.evaluate(g, facts)
        assert answer == evaluate_per_head(c), op
        if not acyclic(c):
            cyclic.append(op)
            assert len(answer) == 1767
    assert cyclic == ["method-mutual-recursion"]


def test_benchmark_selfcheck_passes():
    done = subprocess.run([sys.executable, str(REPO / "perfbench" / "selfcheck.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
