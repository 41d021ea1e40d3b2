"""Check the benchmark itself on tiny inputs (about fifteen seconds).

    python3 perfbench/selfcheck.py

1. A tiny pass of each workload must fail no operation.
2. Perturbing each part of a recorded digest, a task's expected shape, or an
   expected search result must make the operation fail, so the correctness
   gate cannot pass vacuously.
3. Two traced tiny passes must give identical counters.

Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import copy
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import Tally, declared, run_traced  # noqa: E402
from perfbench.workloads import (CorpusSynth, RandomSynth,  # noqa: E402
                                 SearchCodebase)

TINY_CORPUS = ("stmt-import-log4j", "stmt-import-localtime", "var-public-field")
TINY_RANDOM = 10
TINY_CLASSES = 60
SEED = 7

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def tiny(name: str, work: Path):
    if name == CorpusSynth.name:
        w = CorpusSynth(ROOT, SEED, work)
        w.prepare()
        return w, [op for op in w.operations() if op in TINY_CORPUS]
    if name == RandomSynth.name:
        w = RandomSynth(ROOT, SEED, work)
        w.prepare()
        return w, [op for op in w.operations() if op < TINY_RANDOM]
    w = SearchCodebase(ROOT, SEED, work, classes=TINY_CLASSES)
    w.prepare()
    w.setup()
    return w, w.operations()


def failures(workload, ops) -> int:
    tally = Tally()
    for op in ops:
        tally.run(workload, op, nullcontext)
    return len(tally.failures)


def perturbed_digests(reference: dict) -> dict[str, dict]:
    """One copy of ``reference`` per digest field, with that field changed."""
    out = {}
    for key in ("shapes", "levels", "level_sizes", "reduced"):
        changed = copy.deepcopy(reference)
        changed[key] = changed[key][:-1] if changed[key] else [[0]]
        out[key] = changed
    changed = copy.deepcopy(reference)
    changed["selected"] = [rule.replace('")', 'x")') for rule in changed["selected"]]
    out["selected"] = changed
    return out


def main() -> int:
    names = (CorpusSynth.name, RandomSynth.name, SearchCodebase.name)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in names:
            workload, ops = tiny(name, Path(tmp) / name)
            expect(bool(ops) and failures(workload, ops) == 0,
                   f"{name}: tiny pass of {len(ops)} operations fails none")

        corpus, ops = tiny(CorpusSynth.name, Path(tmp))
        op = ops[0]
        recorded = corpus.reference(op)
        for field, digest in perturbed_digests(recorded).items():
            corpus._reference[op] = digest
            expect(failures(corpus, [op]) == 1,
                   f"corpus-synth: perturbed digest field {field!r} fails {op}")
        corpus._reference[op] = recorded
        corpus.tasks[op][1]["expected"]["gq"][0] += 1
        expect(failures(corpus, [op]) == 1,
               f"corpus-synth: perturbed expected |G_Q| fails {op}")

        rand, ops = tiny(RandomSynth.name, Path(tmp))
        op = ops[0]
        rand._reference[str(op)] = perturbed_digests(rand.reference(op))["level_sizes"]
        expect(failures(rand, [op]) == 1,
               f"random-synth: perturbed level sizes fail instance {op}")

        search, ops = tiny(SearchCodebase.name, Path(tmp) / "search")
        for op in ops[:2]:
            search.expected[op] = search.expected[op] | {("Nowhere.java", 1, 1)}
            expect(failures(search, [op]) == 1,
                   f"search-codebase: an extra expected result fails {op}")

        units = declared("per_layer")
        for name in names:
            runs = []
            for _ in range(2):
                workload, ops = tiny(name, Path(tmp) / "trace")
                values = run_traced(workload, ops, Tally())
                runs.append({k: v for k, v in values.items() if units[k] != "s"})
            expect(runs[0] == runs[1], f"{name}: counters repeat across two traced passes")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
