"""The three benchmark workloads.

Every workload is a closed loop driven by one client: one process, one
operation at a time. A workload is built in three steps:

* ``prepare`` makes the inputs from the seed (harness work, never timed);
* ``setup`` is the program's own work before the first operation, after
  importing it (timed as ``setup_s``, in fresh interpreters, by
  ``setup_probe.py``);
* ``operations`` lists one pass of operations in seeded order, ``run`` does
  one of them and ``check`` compares its output with the reference.

``corpus-synth`` spends its time in reduction (schema graph cycles and path
activation), ``random-synth`` in refinement (expansion, canonical form,
witness evaluation, synLCS, candidate checks), and ``search-codebase`` in
loading facts and evaluating one query over a large fact base.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import re
from pathlib import Path

from cqsearch import cli, evaluator, minijava, select
from cqsearch.datalog import parse_datalog, render_datalog
from cqsearch.query import canonical_form, max_multiplicity, to_graph

from perfbench import gen_codebase, gen_random

REFERENCE = Path(__file__).resolve().parent / "reference"
K_BOUND = 2
# The package re-exports the function extract under the module's name.
extract = importlib.import_module("cqsearch.extract")

# random-synth: the pool is fixed (the soundness suite's first 150
# instances), so every seed measures the same work; the seed sets the order.
# Instance costs are heavy-tailed, a few instances taking most of the time:
# seven 150-instance pools drawn from other seeds took between 20 s and 67 s.
RANDOM_POOL_SEED = 2023
RANDOM_POOL_SIZE = 150
RANDOM_MAX_RELATIONS = 5

# search-codebase: the code base is fixed, so every seed measures the same
# work; the seed sets the order of the queries. Code bases drawn per seed
# moved the slowest query by up to 11% of its time from one seed to the
# next. About 23 facts per class.
CODEBASE_SEED = 2023
CODEBASE_CLASSES = 1000
# Golden queries run as they are, plus these literal variants of them (the
# last string literal of the golden rule replaced).
QUERY_VARIANTS = {
    "var-local-double": ["int"],
    "var-cash-suffix": ["count"],
    "expr-and-condition": ["or"],
    "stmt-import-log4j": ["java."],
    "method-param-log4j": ["CacheConfig"],
    "class-comparable": ["Runnable"],
    "method-static": ["final"],
}


def digest(result, schema) -> dict:
    """What a synthesis run decided: selection, levels, level sizes and the
    reduction report. Queries are kept as Datalog and compared up to
    isomorphism, so the digest does not depend on alias names."""
    state = result.state
    return {
        "selected": sorted(render_datalog(s.query, schema) for s in result.selected),
        "shapes": sorted([*s.graph.size(), max_multiplicity(s.graph)]
                         for s in result.selected),
        "levels": [list(level) for level in result.levels_explored],
        "level_sizes": [[len(state.refinable(m, k)), len(state.candidates(m, k))]
                        for m, k in result.levels_explored],
        "reduced": result.reduced.report_lines(),
    }


def compare_digest(expected: dict, result, schema) -> str | None:
    """None when ``result`` matches the recorded digest, else the difference."""
    got = digest(result, schema)
    for key in ("shapes", "levels", "level_sizes", "reduced"):
        if got[key] != expected[key]:
            return f"{key}: expected {expected[key]}, got {got[key]}"
    want = {canonical_form(to_graph(parse_datalog(text, schema), schema))
            for text in expected["selected"]}
    if want != {canonical_form(s.graph) for s in result.selected}:
        return f"selected: expected {expected['selected']}, got {got['selected']}"
    return None


class _Recorded:
    """A synthesis workload checked against digests recorded by record.py."""

    name = ""
    _reference: dict | None = None

    def setup(self) -> None:
        """Inputs come from the harness; the program only has to be imported."""

    def reference(self, op) -> dict:
        if self._reference is None:
            path = REFERENCE / f"{self.name}.json"
            self._reference = json.loads(path.read_text(encoding="utf-8"))
        return self._reference[str(op)]


class CorpusSynth(_Recorded):
    """The 14 bundled corpus tasks, each parsed, extracted and synthesized."""

    name = "corpus-synth"

    def __init__(self, root: Path, seed: int, work: Path):
        self.corpus = root / "corpus"
        self.seed = seed

    def prepare(self) -> None:
        self.hmap = json.loads((self.corpus / "hmap.json").read_text(encoding="utf-8"))
        self.tasks = {}
        for path in sorted(self.corpus.glob("*/task.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            self.tasks[doc["name"]] = (path.parent, doc)

    def operations(self) -> list[str]:
        ops = sorted(self.tasks)
        random.Random(f"{self.name}/{self.seed}").shuffle(ops)
        return ops

    def run(self, op: str):
        task_dir, doc = self.tasks[op]
        prog = minijava.parse_files([task_dir / s for s in doc["source"]])
        facts, part, _ = extract.extract(prog, doc["target"])
        ctx = select.make_context(self.hmap, doc["description"])
        return facts.schema, select.synthesize(facts.schema, facts, part, ctx,
                                               k_bound=K_BOUND)

    def check(self, op: str, output) -> str | None:
        schema, result = output
        task_dir, doc = self.tasks[op]
        # The checks `cqsearch bench` makes: golden set and expected shape.
        golden = {canonical_form(to_graph(parse_datalog(
            (task_dir / f).read_text(encoding="utf-8"), schema), schema))
            for f in doc["golden"]}
        if golden != {canonical_form(s.graph) for s in result.selected}:
            return "selection differs from the golden query set"
        first = result.selected[0].graph
        expected = doc["expected"]
        if list(first.size()) != expected["gq"] or max_multiplicity(first) != expected["k"]:
            return f"|G_Q|, k = {first.size()}, {max_multiplicity(first)}; expected {expected}"
        return compare_digest(self.reference(op), result, schema)


class RandomSynth(_Recorded):
    """Seeded random instances with the soundness suite's parameters."""

    name = "random-synth"

    def __init__(self, root: Path, seed: int, work: Path):
        self.seed = seed

    def prepare(self) -> None:
        self.pool = gen_random.pool(RANDOM_POOL_SEED, RANDOM_POOL_SIZE)

    def operations(self) -> list[int]:
        ops = list(range(RANDOM_POOL_SIZE))
        random.Random(f"{self.name}/{self.seed}").shuffle(ops)
        return ops

    def run(self, op: int):
        inst = self.pool[op]
        return inst.schema, select.synthesize(
            inst.schema, inst.facts, inst.part, inst.ctx,
            k_bound=K_BOUND, max_relations=RANDOM_MAX_RELATIONS)

    def check(self, op: int, output) -> str | None:
        schema, result = output
        inst = self.pool[op]
        for sel in result.selected:
            if evaluator.evaluate(sel.query, inst.facts) != inst.part.positives:
                return "unsound selection: result differs from the positives"
        return compare_digest(self.reference(op), result, schema)


class SearchCodebase:
    """Corpus golden queries run with ``cqsearch search`` over a generated
    code base extracted with ``cqsearch extract``."""

    name = "search-codebase"

    def __init__(self, root: Path, seed: int, work: Path,
                 classes: int = CODEBASE_CLASSES):
        self.corpus = root / "corpus"
        self.seed = seed
        self.classes = classes
        self.sources = work / "src"
        self.facts = work / "facts"
        self.queries = work / "queries"

    def prepare(self) -> None:
        # Only the expected results are kept: the generated text and model
        # would otherwise count towards the run's peak memory.
        base = gen_codebase.generate(CODEBASE_SEED, self.classes)
        self.sources.mkdir(parents=True, exist_ok=True)
        for old in self.sources.glob("*.java"):
            old.unlink()
        for name, text in base.files.items():
            (self.sources / name).write_text(text, encoding="utf-8")
        self.queries.mkdir(parents=True, exist_ok=True)
        self.expected = {}
        for path in sorted(self.corpus.glob("*/task.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            rule = (path.parent / doc["golden"][0]).read_text(encoding="utf-8")
            literals = re.findall(r'"([^"]*)"', rule)
            own = literals[-1] if literals else None
            for literal in [own] + QUERY_VARIANTS.get(doc["name"], []):
                op = doc["name"] if literal == own else f"{doc['name']}={literal}"
                text = rule if literal == own else _replace_last_literal(rule, literal)
                (self.queries / f"{op}.dl").write_text(text, encoding="utf-8")
                self.expected[op] = base.expected(doc["name"], literal)

    def setup(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["extract", *map(str, sorted(self.sources.glob("*.java"))),
                             "-o", str(self.facts)])
        if code != 0:
            raise RuntimeError(f"cqsearch extract exited with {code}")

    def operations(self) -> list[str]:
        ops = sorted(self.expected)
        random.Random(f"{self.name}/{self.seed}").shuffle(ops)
        return ops

    def run(self, op: str):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["search", str(self.queries / f"{op}.dl"),
                             "--schema", str(self.facts / "schema.json"),
                             "--facts", str(self.facts / "facts.json"),
                             "--positions", str(self.facts / "positions.json")])
        return code, out.getvalue()

    def check(self, op: str, output) -> str | None:
        code, text = output
        if code != 0:
            return f"cqsearch search exited with {code}"
        got = set()
        for line in text.splitlines():
            _, _, where = line.partition("\t")
            file, line_no, col = where.rsplit(":", 2)
            got.add((Path(file).name, int(line_no), int(col)))
        want = self.expected[op]
        if got != want:
            return (f"{len(got)} results, expected {len(want)}; "
                    f"{len(got - want)} unexpected, {len(want - got)} missing")
        return None


def _replace_last_literal(rule: str, literal: str) -> str:
    start = rule.rindex('"', 0, rule.rindex('"'))
    return rule[:start + 1] + literal + rule[rule.rindex('"'):]


WORKLOADS = {w.name: w for w in (CorpusSynth, RandomSynth, SearchCodebase)}
