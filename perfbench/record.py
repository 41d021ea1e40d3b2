"""Record the reference digests the synthesis workloads are checked against.

    python3 perfbench/record.py

Writes ``perfbench/reference/corpus-synth.json`` (one digest per corpus task)
and ``perfbench/reference/random-synth.json`` (one digest per instance of the
fixed random pool) from the program in ``src``. The digests committed with
the benchmark were recorded from the commit that introduced it; re-record
only when a change is meant to alter what synthesis selects or explores, and
say so in that change. ``search-codebase`` needs no recorded reference: the
code-base generator's own model gives the expected results for any seed.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import REFERENCE, CorpusSynth, RandomSynth, digest

    REFERENCE.mkdir(exist_ok=True)
    for cls in (CorpusSynth, RandomSynth):
        workload = cls(ROOT, 0, ROOT / ".perfbench_work")
        workload.prepare()
        docs = {}
        for op in workload.operations():
            schema, result = workload.run(op)
            docs[str(op)] = digest(result, schema)
        path = REFERENCE / f"{cls.name}.json"
        lines = [f"{json.dumps(op)}: {json.dumps(docs[op], sort_keys=True)}"
                 for op in sorted(docs)]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"wrote {len(docs)} digests to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
