"""``scripts/bench_pair.py`` rebuilds the committed BENCH files from their
own runs. No benchmark runs here."""
import json
import sys

import pytest

from conftest import REPO

sys.path.insert(0, str(REPO / "scripts"))
import bench_pair  # noqa: E402


def _bench(n: int) -> dict:
    return json.loads((REPO / f"BENCH_{n}.json").read_text(encoding="utf-8"))


def _run_order(doc) -> list:
    return [(r["workload"], r["side"], r["pair"], r["seed"], r["first_in_pair"])
            for r in doc["runs"]]


def _scheduled(workloads, first_seed) -> list:
    return [(workload, side, pair, seed, first)
            for workload, pair, seed, first in bench_pair.schedule(workloads, first_seed, 10)
            for side in (first, "change" if first == "parent" else "parent")]


def test_schedule_is_the_run_order_of_the_committed_files():
    assert _run_order(_bench(25)) == _scheduled(
        ["search-codebase", "corpus-synth", "random-synth"], 2501)
    assert _run_order(_bench(24)) == _scheduled(
        ["random-synth", "corpus-synth", "search-codebase"], 2431)


def test_rebuilds_the_summary_of_bench_25():
    doc = _bench(25)
    assert bench_pair.summarize(doc["runs"]) == doc["summary"]


def test_rebuilds_the_pairs_medians_and_lower_counts_of_bench_24():
    # BENCH_24.json took its IQRs from inclusive quartiles, as its "what"
    # says; all 24 of its IQR figures (both sides of 12 workload-metric
    # entries) differ under the exclusive quartiles that BENCH_25.json and
    # the script use. So its IQRs are pinned under method="inclusive", and
    # everything else under the default.
    doc = _bench(24)
    got = bench_pair.summarize(doc["runs"])
    iqrs = ("parent_iqr", "change_iqr")
    assert {w: {m: {k: v for k, v in s.items() if k not in iqrs} for m, s in ms.items()}
            for w, ms in got.items()} == {
        w: {m: {k: v for k, v in s.items() if k not in iqrs} for m, s in ms.items()}
        for w, ms in doc["summary"].items()}
    assert bench_pair.summarize(doc["runs"], method="inclusive") == doc["summary"]
    differ = sum(got[w][m][k] != s[k] for w, ms in doc["summary"].items()
                 for m, s in ms.items() for k in iqrs)
    assert differ == 24


def test_traced_runs_alternate_which_side_goes_first():
    assert list(bench_pair.traced_schedule(["search-codebase", "corpus-synth"])) == [
        (workload, run, side) for workload in ("search-codebase", "corpus-synth")
        for run, side in [(1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
                          (3, "parent"), (3, "change")]]


def _traced(side: str, seconds: float, results: int) -> dict:
    return {"workload": "search-codebase", "side": side, "result": {"metrics": {
        "evaluator.evaluate.s": {"value": seconds, "unit": "s"},
        "evaluator.evaluate.results": {"value": results, "unit": "count"}}}}


def test_traced_medians_and_counters_read_every_traced_run():
    traced = [_traced("parent", 0.3, 7409), _traced("change", 0.02, 7409),
              _traced("change", 0.01, 7409), _traced("parent", 0.1, 7409),
              _traced("parent", 0.2, 7409), _traced("change", 0.03, 7409)]
    assert bench_pair.traced_medians(traced) == {"search-codebase": {
        "evaluator.evaluate.s": {"parent": 0.2, "change": 0.02}}}
    assert bench_pair.counters_that_differ(traced) == []
    traced[4] = _traced("parent", 0.2, 7408)
    assert bench_pair.counters_that_differ(traced) == [
        "search-codebase evaluator.evaluate.results: 7409, 7409, 7409, 7409, 7408, 7409"]
    # BENCH_26.json made one traced run a side: its counters are all equal.
    assert bench_pair.counters_that_differ(_bench(26)["traced"]) == []


def test_a_side_runs_at_the_one_path_and_moves_back(tmp_path):
    side, at = tmp_path / "change", tmp_path / "run"
    side.mkdir()
    (side / "file").write_text("x", encoding="utf-8")
    with bench_pair.placed(side, at) as here:
        assert here == at and (at / "file").exists() and not side.exists()
    assert (side / "file").exists() and not at.exists()
    with pytest.raises(RuntimeError):
        with bench_pair.placed(side, at):
            raise RuntimeError("a failed run")
    assert side.exists() and not at.exists()
