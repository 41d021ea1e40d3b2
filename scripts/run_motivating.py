#!/usr/bin/env python3
"""End-to-end walkthrough of the shipped example: annotated snippet in,
selected query out, then a search over a second code base."""
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cqsearch.cli import main as cli

REPO = Path(__file__).resolve().parent.parent
TASK = REPO / "corpus" / "t08_method_motivating"

TARGET_BASE = """\
class Inventory {
    CacheConfig refresh(Log4jUtils handle) { }
    CacheConfig snapshot(int depth) { }
    int shutdown(Log4jUtils handle) { }
    CacheConfig rebuild(Log4jUtils handle) { }
    void log(String line) { }
}
"""


def main():
    description = json.loads((TASK / "task.json").read_text())["description"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        print("== synthesize from the annotated example ==")
        # The text report goes to stdout; the JSON report carries the rule.
        report = tmp / "report.json"
        code = cli(["synthesize",
                    "--source", str(TASK / "example.java"),
                    "--target", "Method",
                    "--description", description,
                    "--hmap", str(REPO / "corpus" / "hmap.json"),
                    "-o", str(report)])
        if code != 0:
            return code
        query_file = tmp / "query.dl"
        rule = json.loads(report.read_text())["queries"][0]["datalog"]
        query_file.write_text(rule + "\n")

        print("\n== extract a target code base and search it ==")
        (tmp / "base.java").write_text(TARGET_BASE)
        cli(["extract", str(tmp / "base.java"), "-o", str(tmp / "base")])
        return cli(["search", str(query_file),
                    "--schema", str(tmp / "base" / "schema.json"),
                    "--facts", str(tmp / "base" / "facts.json"),
                    "--positions", str(tmp / "base" / "positions.json")])


if __name__ == "__main__":
    sys.exit(main())
