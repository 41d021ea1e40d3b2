#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs; write a BENCH file.

    python3 scripts/bench_pair.py PARENT --workloads search-codebase corpus-synth \\
        random-synth --first-seed 2601 --pairs 10 -o BENCH_26.json

Each side is exported by ``git archive`` into a fresh directory, so a run
sees only tracked files: the parent is the tree of the revision ``PARENT``,
and the change is the tree of ``git write-tree``, the staged files (HEAD's
tree when nothing is staged). Both are exported as trees, so their files
carry the same kind of time stamp. Every run, of either side, runs at one
path: its side's directory is moved there for the run and back after it. A
path that named the side read as a side bias: an A/A run (one tree as both
sides) read the change's ``setup_s`` 3.7% lower on ``corpus-synth``, lower
in 9 of 10 pairs. Workload by workload, pair ``p`` (counted from 0)
runs ``perfbench/run.py --seconds S`` on both sides, where ``S`` is
``BENCHMARK.json``'s ``run_seconds``, with seed ``first seed + workload's
place × pairs + p``; the side that runs first alternates, the parent first in
the first pair. Three ``--trace 1 --seed 7`` runs per workload and side follow,
the side that runs first alternating again, so that a traced time is a median
of three and not one run's reading of a drifting machine.
``perfbench/`` and ``BENCHMARK.json`` are run as they are.

The file has the layout of ``BENCH_25.json``: ``what``, ``parent_commit``,
``runs``, ``traced`` and ``summary``. The summary gives, per workload and
end-to-end metric, the number of pairs, each side's median and IQR (Q3 − Q1
of ``statistics.quantiles(n=4, method="exclusive")``) and ``change_lower_in``,
the number of pairs in which the change reads lower.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_SEED = 7
TRACED_RUNS = 3


def schedule(workloads, first_seed: int, pairs: int):
    """``(workload, pair name, seed, side that runs first)`` of every pair, in run order."""
    for place, workload in enumerate(workloads):
        for p in range(pairs):
            yield (workload, f"{workload}/{p + 1}", first_seed + place * pairs + p,
                   SIDES[p % 2])


def traced_schedule(workloads):
    """``(workload, run, side)`` of every traced run, in run order: per
    workload, ``TRACED_RUNS`` runs (counted from 1) of both sides, the side
    that runs first alternating, the parent first in the first run."""
    for workload in workloads:
        for run in range(1, TRACED_RUNS + 1):
            first = SIDES[(run - 1) % 2]
            for side in (first, "change" if first == "parent" else "parent"):
                yield workload, run, side


def traced_medians(traced) -> dict:
    """Per workload and ``.s`` metric of the traced runs: each side's median."""
    values: dict = {}  # workload -> metric -> side -> values
    for t in traced:
        for name, m in t["result"]["metrics"].items():
            if name.endswith(".s"):
                by_side = values.setdefault(t["workload"], {}).setdefault(name, {})
                by_side.setdefault(t["side"], []).append(m["value"])
    return {workload: {name: {side: statistics.median(v) for side, v in sides.items()}
                       for name, sides in metrics.items()}
            for workload, metrics in values.items()}


def counters_that_differ(traced) -> list[str]:
    """``workload metric: values`` of every count metric whose value is not
    the same in all traced runs of the workload, both sides."""
    values: dict = {}  # (workload, metric) -> values in run order
    for t in traced:
        for name, m in t["result"]["metrics"].items():
            if m["unit"] == "count":
                values.setdefault((t["workload"], name), []).append(m["value"])
    return [f"{workload} {name}: {', '.join(map(str, v))}"
            for (workload, name), v in values.items() if len(set(v)) > 1]


def summarize(runs, method: str = "exclusive") -> dict:
    """Per workload (in name order) and end-to-end metric: ``pairs``, each
    side's median and IQR under quartile ``method``, and ``change_lower_in``."""
    values: dict = {}  # workload -> metric -> pair -> side -> value
    for run in runs:
        for metric, m in run["result"]["metrics"].items():
            pair = values.setdefault(run["workload"], {}).setdefault(metric, {})
            pair.setdefault(run["pair"], {})[run["side"]] = m["value"]

    def iqr(xs):
        q1, _, q3 = statistics.quantiles(xs, n=4, method=method)
        return q3 - q1

    summary = {}
    for workload in sorted(values):
        summary[workload] = {}
        for metric, pairs in values[workload].items():
            parent = [p["parent"] for p in pairs.values()]
            change = [p["change"] for p in pairs.values()]
            summary[workload][metric] = {
                "pairs": len(pairs),
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_iqr": iqr(parent),
                "change_iqr": iqr(change),
                "change_lower_in": sum(c < p for p, c in zip(parent, change)),
            }
    return summary


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True, **kwargs)


def export(rev: str, into: Path) -> None:
    """The tracked files of ``rev``, written into the directory ``into``."""
    into.mkdir()
    archive = git("archive", "--format=tar", rev).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


@contextlib.contextmanager
def placed(checkout: Path, at: Path):
    """``checkout`` moved to ``at`` while the block runs, and moved back after it."""
    checkout.rename(at)
    try:
        yield at
    finally:
        at.rename(checkout)


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """The record and the result object of one ``perfbench/run.py`` run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench/run.py failed in {checkout} ({workload}, seed {seed}):\n"
                 f"{done.stderr}")
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return record, json.loads(lines[-1])


def describe(workloads, first_seed, pairs, seconds, runs, traced) -> str:
    """The ``what`` of the BENCH file: how the runs were made and what they read."""
    seeds = ", ".join(f"{w} {first_seed + i * pairs}-{first_seed + (i + 1) * pairs - 1}"
                      for i, w in enumerate(workloads))
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    correct = sum(r["result"]["correct"] for r in runs)
    moved = counters_that_differ(traced)
    counters = ("every counter is equal in all of them" if not moved
                else "these counters differ: " + "; ".join(moved))
    medians = "; ".join(
        f"{workload} {name} {sides['parent']:.4g} -> {sides['change']:.4g}"
        for workload, metrics in traced_medians(traced).items()
        for name, sides in metrics.items() if sides["parent"] or sides["change"])
    return (f"perfbench/run.py --seconds {seconds:g} runs of the parent commit and of the "
            "change, each from a fresh copy of its tracked files, moved to one path for "
            "every run of either side (so every record's commit "
            "field is null; src_sha256 tells the sides apart). "
            f"{pairs} pairs per workload, each pair on one seed: {seeds}. Within each "
            "workload the side that runs first alternates, starting with the parent. "
            f"{correct} of {len(runs)} runs read correct: true, with {failed} of "
            f"{attempted:,} operations failed. The traced entries are {TRACED_RUNS} --trace 1 "
            f"runs per side and workload at seed {TRACE_SEED}, made after the pairs, the side "
            f"that runs first alternating, starting with the parent: {counters}. Traced times "
            f"are unscaled; their medians per side, parent -> change, where either is not 0: "
            f"{medians}. The summary gives, per workload and metric, each "
            "side's median and IQR (exclusive quartiles) and the number of pairs in which "
            "the change reads lower. Written by scripts/bench_pair.py.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="revision of the parent side")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("-o", "--output", required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the quartiles")
    seconds = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}",
                        text=True).stdout.strip()
    change_tree = git("write-tree", text=True).stdout.strip()
    runs, traced = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pair.") as tmp:
        checkout = {side: Path(tmp) / side for side in SIDES}
        export(f"{parent_commit}^{{tree}}", checkout["parent"])
        export(change_tree, checkout["change"])
        here = Path(tmp) / "run"
        for workload, pair, seed, first in schedule(args.workloads, args.first_seed, args.pairs):
            for side in (first, "change" if first == "parent" else "parent"):
                with placed(checkout[side], here):
                    record, result = perfbench(here, workload, seed, seconds, 0)
                runs.append({"workload": workload, "side": side, "result": result,
                             "pair": pair, "seed": seed, "first_in_pair": first,
                             "record": record})
                print(f"{pair} seed {seed} {side}: "
                      + ", ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                      file=sys.stderr)
        for workload, run, side in traced_schedule(args.workloads):
            with placed(checkout[side], here):
                record, result = perfbench(here, workload, TRACE_SEED, seconds, 1)
            traced.append({"workload": workload, "side": side, "result": result,
                           "seed": TRACE_SEED, "run": run, "record": record})
    summary = summarize(runs)
    doc = {"what": describe(args.workloads, args.first_seed, args.pairs, seconds, runs,
                            traced),
           "parent_commit": parent_commit, "runs": runs, "traced": traced,
           "summary": summary}
    Path(args.output).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    for workload, metrics in summary.items():
        for metric, s in metrics.items():
            print(f"{workload:16} {metric:12} {s['parent_median']:.4g} -> "
                  f"{s['change_median']:.4g}  lower in {s['change_lower_in']}/{s['pairs']}"
                  f"  parent IQR {s['parent_iqr']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
