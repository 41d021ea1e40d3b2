"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Random suites are seeded and sized exactly as stated; tolerances are exact
(set equality, zero violations) throughout. Run with `pytest -s` to see the
per-criterion lines as they complete.
"""
import json
import random
import time

import pytest

from cqsearch import minijava
from cqsearch.core import (FK, PK, AttributeDecl, FactBase, Relation, Schema,
                           make_partition)
from cqsearch.evaluator import evaluate, refinable_with_witnesses
from cqsearch.extract import extract
from cqsearch.query import canonical_form
from cqsearch.reduction import reduce
from cqsearch.schema_graph import (Cycle, PathStep, RelationPath, SchemaEdge,
                                   activated_relation, acyclic_paths,
                                   build_schema_graph, simple_cycles)
from cqsearch.select import coverage, make_context, synthesize
from cqsearch.strings import syn_lcs
from cqsearch.bench import run_corpus

from conftest import CORPUS, MOTIVATING_DESCRIPTION, fig1_facts, fig1_schema
import gen
from oracles import (activation_brute, brute_force_candidates,
                     coverage_by_atoms, lcs_brute, naive_evaluate)


def report(criterion: str, ok: bool, detail: str):
    print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'} :: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_motivating_example():
    """cmd_synthesize on the annotated source returns exactly the target query."""
    task_dir = CORPUS / "t08_method_motivating"
    prog = minijava.parse_files([task_dir / "example.java"])
    facts, part, _ = extract(prog, "Method")
    ctx = make_context(json.loads((CORPUS / "hmap.json").read_text()),
                       MOTIVATING_DESCRIPTION)
    started = time.monotonic()
    result = synthesize(facts.schema, facts, part, ctx, k_bound=2)
    elapsed = time.monotonic() - started

    want = canonical_form(
        __import__("cqsearch.datalog", fromlist=["parse_datalog"]).parse_datalog(
            (task_dir / "golden.dl").read_text(), facts.schema))
    got = {canonical_form(s.graph) for s in result.selected}
    ok = (got == {want} and result.alpha_max == 1 and result.beta_min == 9
          and result.terminated_early and elapsed < 5.0)
    report("criterion 1 (motivating example)", ok,
           f"|S_Q|={len(result.selected)} alpha={result.alpha_max} "
           f"beta={result.beta_min} early={result.terminated_early} "
           f"time={elapsed:.2f}s")


def test_criterion_2_dummy_relation_detection():
    schema = fig1_schema()
    facts = fig1_facts(schema)
    part = make_partition("Method", ["M1"], facts)
    red = reduce(schema, facts, part)
    dropped = {name for name, _ in red.dropped}
    ok = (red.kept == {"Method", "Parameter", "Type", "Identifier"}
          and dropped == {"Modifier"})
    report("criterion 2 (dummy-relation detection)", ok,
           f"kept={sorted(red.kept)} dropped={sorted(dropped)}")


def test_criterion_3_soundness_suite():
    rng = random.Random(2023)
    violations = 0
    returned = 0
    for _ in range(500):
        schema, facts, part = gen.random_instance(
            rng, max_relations=5, max_fks=2, max_strs=1)
        ctx = gen.random_context(rng, schema)
        result = synthesize(schema, facts, part, ctx, k_bound=2,
                            max_relations=5)
        for sel in result.selected:
            returned += 1
            if evaluate(sel.graph, facts) != part.positives:
                violations += 1
    report("criterion 3 (soundness, 500 instances)", violations == 0,
           f"{returned} selected queries checked, {violations} violations")


def _completeness_instances(count=200):
    """Random instances on which unreduced brute force finds a candidate."""
    rng = random.Random(404)
    found = []
    attempts = 0
    while len(found) < count:
        attempts += 1
        schema, facts, part = gen.random_instance(
            rng, max_relations=4, max_fks=2, max_strs=1)
        if sum(len(facts.tuples(r)) for r in schema) > 15:
            continue
        cands = brute_force_candidates(facts, part, m_max=4, k_max=2)
        if cands:
            ctx = gen.random_context(rng, schema)
            found.append((schema, facts, part, ctx, cands))
    return found, attempts


@pytest.fixture(scope="module")
def completeness_instances():
    return _completeness_instances()


def test_criterion_4_completeness_suite(completeness_instances):
    instances, attempts = completeness_instances
    misses = 0
    for schema, facts, part, ctx, _ in instances:
        result = synthesize(schema, facts, part, ctx, k_bound=2,
                            max_relations=4)
        if not result.selected:
            misses += 1
    report("criterion 4 (completeness, 200 instances)", misses == 0,
           f"{len(instances)} realizable instances "
           f"(from {attempts} sampled), {misses} misses")


def test_criterion_5_optimality_suite(completeness_instances):
    """Selected queries equal the best bounded candidates, exactly.

    The comparison space is the selection's own guarantee: every bounded
    candidate over the non-dummy relations. The unreduced space can contain
    candidates that strictly dominate on coverage by bolting a semantically
    vacuous dummy relation onto the product purely because its attributes
    carry description words; the coverage upper bound is computed over kept
    relations and never claims to dominate those.
    """
    instances, _ = completeness_instances
    violations = []
    for i, (schema, facts, part, ctx, cands) in enumerate(instances):
        kept = reduce(schema, facts, part).kept
        ranked = []
        for g in cands:
            if any(rel not in kept for rel in g.nodes):
                continue
            alpha = coverage(g, schema, ctx)
            assert alpha == coverage_by_atoms(g, schema, ctx)
            ranked.append(((alpha, -g.complexity()), canonical_form(g)))
        assert ranked, "criterion 4 guarantees a kept-only candidate"
        best_key = max(key for key, _ in ranked)
        best_class = {canon for key, canon in ranked if key == best_key}

        result = synthesize(schema, facts, part, ctx, k_bound=2,
                            max_relations=4)
        got_key = (result.alpha_max, -(result.beta_min or 0))
        got_class = {canonical_form(s.graph) for s in result.selected}
        if got_key != best_key or got_class != best_class:
            violations.append((i, "optimum mismatch"))
            continue
        slow = synthesize(schema, facts, part, ctx, k_bound=2,
                          max_relations=4, early_stop=False)
        if {canonical_form(s.graph) for s in slow.selected} != got_class or \
                (slow.alpha_max, slow.beta_min) != (result.alpha_max, result.beta_min):
            violations.append((i, "early-stop mismatch"))
    report("criterion 5 (optimality, 200 instances)", not violations,
           f"{len(instances)} instances, violations: {violations[:3]}")


def test_criterion_6_evaluator_oracle():
    rng = random.Random(606)
    mismatches = 0
    for _ in range(1000):
        schema, facts, _ = gen.random_instance(
            rng, max_relations=4, max_fks=2, max_strs=1)
        g = gen.random_query_graph(rng, schema, m_max=4)
        if evaluate(g, facts) != naive_evaluate(g, facts):
            mismatches += 1
    report("criterion 6 (evaluator vs product oracle, 1000 queries)",
           mismatches == 0, f"{mismatches} mismatches")


def test_criterion_7_synlcs_oracle():
    rng = random.Random(707)
    mismatches = 0
    for _ in range(500):
        sets = [frozenset(gen.random_string(rng, "abcd", 1, 32)
                          for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4))]
        if syn_lcs(sets) != lcs_brute(sets):
            mismatches += 1

    # refinability preserved when the synthesized constraint lands in a graph
    broken = 0
    checked = 0
    rng2 = random.Random(708)
    while checked < 60:
        schema, facts, part = gen.random_instance(
            rng2, max_relations=3, max_fks=2, max_strs=1)
        g = gen.random_query_graph(rng2, schema, m_max=3,
                                   allow_disconnected=False)
        if g.nodes[0] != part.target or g.str_edges:
            continue
        slots = [(node, a.name) for node, rel in enumerate(g.nodes)
                 for a in schema.string_attrs(rel)]
        if not slots:
            continue
        ok, witnesses = refinable_with_witnesses(g, facts, part, slots)
        if not ok:
            continue
        for slot in slots:
            got = syn_lcs(witnesses[slot])
            if got is None:
                continue
            checked += 1
            augmented = g.with_constraint(slot[0], slot[1], *got)
            if not part.positives <= evaluate(augmented, facts):
                broken += 1
    ok = mismatches == 0 and broken == 0
    report("criterion 7 (synLCS oracle, 500 witness sets)", ok,
           f"{mismatches} oracle mismatches, {broken}/{checked} "
           f"refinability breaks")


def _walked_edge(cur: str, step: PathStep) -> SchemaEdge:
    """The foreign-key edge a step out of relation ``cur`` walks."""
    return (SchemaEdge(cur, step.next, step.attr) if step.direction == 1
            else SchemaEdge(step.next, cur, step.attr))


def _is_echo(cycle: Cycle) -> bool:
    """One foreign-key edge out and straight back over the same edge."""
    if len(cycle.steps) != 2:
        return False
    out, back = cycle.steps
    return (out.direction != back.direction
            and _walked_edge(cycle.anchor, out) == _walked_edge(out.next, back))


def _laps(t0, start: str, loop: tuple[PathStep, ...], facts) -> list:
    """Activations from ``t0`` after walking ``loop`` 1, 2 and 3 times."""
    return [activated_relation(t0, RelationPath(start, loop * reps), facts)
            for reps in (1, 2, 3)]


def test_criterion_8_cycle_repetition_insensitivity():
    """Activation of a path with a cycle repeated 1, 2, or 3 times.

    Activation is existential chaining with fresh witnesses per step, so
    repetition insensitivity holds exactly for echo cycles: one foreign-key
    edge walked out and straight back (same holder relation and attribute,
    opposite direction). An echo computes a same-key-value closure, which is
    idempotent. A one-step self-loop, a two-cycle over parallel edges or any
    longer cycle composes a map that need not be idempotent, so repeating it
    can walk further. The reduction's contract is therefore the once-spliced
    path set, not every walk.

    Over 200 seeded cases (a random cycle spliced into a random acyclic path
    from a random target tuple) this asserts:
    - echo cycles: the three activations are equal, with zero violations;
    - every other cycle: each of the three activations equals the
      chained-product oracle, with no case skipped. How many of these cases
      are repetition-sensitive is reported, not bounded.
    Both classes must occur. Two hand-built counterexamples pin where the
    property stops: tuples x -> y -> z chained by a self foreign key, where
    one lap from x activates {y} and two laps {z}; and a two-cycle over two
    parallel foreign keys, where each lap moves one step along a chain.
    """
    # Self foreign key N.next: x -> y -> z -> z. The one-step loop is a cycle
    # the reduction splices; its laps from x activate {y}, {z}, {z}.
    chain_schema = Schema({"N": [AttributeDecl("id", PK),
                                 AttributeDecl("next", FK, "N")]})
    chain = FactBase(chain_schema, [Relation("N", frozenset(
        {("x", "y"), ("y", "z"), ("z", "z")}))])
    self_loop = (PathStep("next", 1, "N"),)
    assert self_loop in {c.steps for c in
                         simple_cycles(build_schema_graph(chain_schema))}
    assert _laps(("x", "y"), "N", self_loop, chain) == [
        {("y", "z")}, {("z", "z")}, {("z", "z")}]

    # Parallel foreign keys B.x, B.y -> A: A -(x,-)-> B -(y,+)-> A moves one
    # step along a1 -> a2 -> a3 per lap, and a3 has no referrer through x.
    pair_schema = Schema({
        "A": [AttributeDecl("id", PK)],
        "B": [AttributeDecl("id", PK), AttributeDecl("x", FK, "A"),
              AttributeDecl("y", FK, "A")],
    })
    pair = FactBase(pair_schema, [
        Relation("A", frozenset({("a1",), ("a2",), ("a3",)})),
        Relation("B", frozenset({("b1", "a1", "a2"), ("b2", "a2", "a3")})),
    ])
    two_cycle = (PathStep("x", -1, "B"), PathStep("y", 1, "A"))
    assert two_cycle in {c.steps for c in
                         simple_cycles(build_schema_graph(pair_schema))}
    assert _laps(("a1",), "A", two_cycle, pair) == [{("a2",)}, {("a3",)}, set()]

    rng = random.Random(808)
    checked = 0
    echo_cases = echo_violations = 0
    other_cases = sensitive = mismatches = 0
    first_failure = None
    while checked < 200:
        schema, facts, part = gen.random_instance(
            rng, max_relations=4, max_fks=2, max_strs=1)
        graph = build_schema_graph(schema)
        cycles = simple_cycles(graph)
        if not cycles:
            continue
        cycle = rng.choice(cycles)
        bases = [p for rel in schema
                 for p in acyclic_paths(graph, part.target, rel)
                 if set(p.nodes()) & set(cycle.nodes())]
        if not bases:
            continue
        base = rng.choice(bases)
        anchor_idx = next(i for i, n in enumerate(base.nodes())
                          if n in cycle.nodes())
        loop = cycle.rotated_to(base.nodes()[anchor_idx])
        tuples = sorted(facts.tuples(part.target))
        if not tuples:
            continue
        t0 = rng.choice(tuples)
        paths = [RelationPath(base.start, base.steps[:anchor_idx] + loop * reps
                              + base.steps[anchor_idx:])
                 for reps in (1, 2, 3)]
        acts = [activated_relation(t0, path, facts) for path in paths]
        checked += 1
        repeats = acts[0] == acts[1] == acts[2]
        if _is_echo(cycle):
            echo_cases += 1
            wrong = 0 if repeats else 1
            echo_violations += wrong
        else:
            other_cases += 1
            sensitive += not repeats
            # The largest chain product among these cases is 810,000 rows.
            wrong = sum(act != activation_brute(t0, path, facts,
                                                max_rows=5_000_000)
                        for act, path in zip(acts, paths))
            mismatches += wrong
        if wrong and first_failure is None:
            first_failure = (cycle.steps, base, t0, [sorted(a) for a in acts])
    ok = (echo_cases > 0 and other_cases > 0
          and echo_violations == 0 and mismatches == 0)
    detail = (f"echo cycles: {echo_violations} violations in {echo_cases} "
              f"cases; other cycles: {mismatches} oracle mismatches in "
              f"{3 * other_cases} activations, {sensitive} of {other_cases} "
              f"cases repetition-sensitive")
    if first_failure:
        detail += (f"; first failure: cycle={first_failure[0]} on "
                   f"{first_failure[1]} from {first_failure[2]} -> "
                   f"activations {first_failure[3]}")
    report("criterion 8 (cycle repetition insensitivity, 200 cases)",
           ok, detail)


def test_criterion_9_corpus_bench():
    started = time.monotonic()
    results = run_corpus(CORPUS)
    elapsed = time.monotonic() - started
    failures = [r.name for r in results if not r.passed]
    categories = {r.category for r in results}
    k2_tasks = [r.name for r in results if r.k == 2]
    local_double = next(r for r in results if r.name == "var-local-double")
    ok = (not failures
          and categories >= {"var", "expr", "stmt", "method", "class"}
          and len(k2_tasks) >= 2
          and local_double.gq == (2, 1, 1)
          and elapsed < 60.0)
    report("criterion 9 (corpus bench)", ok,
           f"{len(results) - len(failures)}/{len(results)} tasks, "
           f"categories={sorted(categories)}, k=2 tasks={k2_tasks}, "
           f"local-double |G_Q|={local_double.gq}, time={elapsed:.1f}s")


def test_criterion_10_ablation_sanity():
    hmap = json.loads((CORPUS / "hmap.json").read_text())
    totals = {"normal": 0, "no_reduction": 0, "no_early_stop": 0}
    mismatches = []
    for task_dir in sorted(CORPUS.glob("t*/")):
        doc = json.loads((task_dir / "task.json").read_text())
        prog = minijava.parse_files([task_dir / s for s in doc["source"]])
        facts, part, _ = extract(prog, doc["target"])
        ctx = make_context(hmap, doc["description"])
        normal = synthesize(facts.schema, facts, part, ctx, k_bound=2)
        cap = max(m for m, _ in normal.levels_explored)
        no_red = synthesize(facts.schema, facts, part, ctx, k_bound=2,
                            use_reduction=False, max_relations=cap)
        no_stop = synthesize(facts.schema, facts, part, ctx, k_bound=2,
                             early_stop=False, max_relations=cap + 1)
        sel = lambda r: {canonical_form(s.graph) for s in r.selected}
        if not (sel(normal) == sel(no_red) == sel(no_stop)):
            mismatches.append(doc["name"])
        totals["normal"] += normal.state.generated_total()
        totals["no_reduction"] += no_red.state.generated_total()
        totals["no_early_stop"] += no_stop.state.generated_total()
    ok = (not mismatches
          and totals["no_reduction"] > totals["normal"]
          and totals["no_early_stop"] > totals["normal"])
    report("criterion 10 (ablation sanity)", ok,
           f"explored graphs normal={totals['normal']} "
           f"no-reduction={totals['no_reduction']} "
           f"no-early-stop={totals['no_early_stop']}, "
           f"selection mismatches={mismatches}")
