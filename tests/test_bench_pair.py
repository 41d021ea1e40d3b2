"""``scripts/bench_pair.py`` rebuilds the committed BENCH files from their
own runs. No benchmark runs here."""
import json
import sys

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
