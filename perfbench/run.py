"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a cqsearch checkout; the program is imported from its
``src`` directory. Inputs are made from ``--seed``.

With ``--trace 0`` the run measures the end-to-end metrics with no tracing:
``setup_s`` is the median over several fresh interpreters of the program's
set-up; then whole passes over the workload's operations repeat until the
next pass would end after ``--seconds`` (at least one pass always runs).
``wall_s`` is the median pass time, ``op_s.p50`` the median operation time.
All three are in reference seconds: scaled by the machine's speed, which
the kernel of ``speed.py`` samples between and during operations (see
there why).

With ``--trace 1`` the per-layer wrappers of ``tracer.py`` are installed,
the set-up runs once in-process and exactly one pass follows, so every
counter repeats exactly between two traced runs of one seed. ``trace.wall_s``
is that pass's time as measured; minus the measured ``wall_s`` an untraced
run of the same seed records it gives the tracing overhead.

The run fixes ``PYTHONHASHSEED`` (re-executing itself when it differs):
set iteration order decides how soon the evaluator finds a witness, and
left random it moves an operation such as the mutual-recursion search by
about 8% from one process to the next.

Every operation's output is checked (checks are neither timed nor traced).
A raised exception counts as a failed operation. The last line of stdout is
the result object; the line before it, also appended to
``.perfbench_work/runs.jsonl``, records the machine, the code under test,
the seed, the sample count behind each metric, the times as measured before
scaling, the number and quartiles of the kernel samples and the slowest
operations with their share of a pass.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
HASH_SEED = "0"
# Set-up probes per run. The synthesis workloads' set-up is only the
# program's import, about 0.1 s, which one probe measures too noisily.
SETUP_SAMPLES = {"corpus-synth": 21, "random-synth": 21, "search-codebase": 3}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def declared(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in doc[kind]}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version()}


def code_identity() -> dict:
    """The git commit when there is one, and a hash of the program source."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cqsearch").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or None
    return {"commit": commit, "src_sha256": h.hexdigest()}


def measure_setup(name: str, seed: int, work: Path) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters: scaled to the reference speed,
    and as measured."""
    samples, raw = [], []
    for _ in range(SETUP_SAMPLES[name]):
        got = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             name, str(seed), str(work)],
            capture_output=True, text=True, timeout=120, check=False)
        if got.returncode != 0:
            fail(f"set-up of {name} failed:\n{got.stderr}")
        scaled, measured = got.stdout.split()[-2:]
        samples.append(float(scaled))
        raw.append(float(measured))
    return samples, raw


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, workload, op, checking, clock=time.perf_counter) -> float:
        """Run and check one operation; return its duration on ``clock``."""
        self.attempted += 1
        started = clock()
        try:
            output = workload.run(op)
        except Exception as exc:  # a failed operation must not end the run
            elapsed = clock() - started
            self.failures.append(f"{op}: raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = clock() - started
        with checking():
            try:
                problem = workload.check(op, output)
            except Exception as exc:  # a check that cannot run is a failure
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{op}: {problem}")
        return elapsed


def run_untraced(workload, ops, seconds: float, tally: Tally):
    """Whole passes until the next one would overrun ``seconds``.

    The kernel of ``speed.py`` is sampled before the first operation of a
    pass, after every operation and every ``speed.INTERVAL_S`` seconds in
    between; each operation's time is scaled by the mean of the samples from
    the one before it to the one after it. Returns each pass's scaled time,
    each operation's scaled times, the measured pass and operation times and
    the samples."""
    from perfbench import speed
    deadline = time.perf_counter() + seconds
    pass_s: list[float] = []
    op_s: dict = {op: [] for op in ops}
    measured_pass_s: list[float] = []
    measured_op_s: list[float] = []
    pass_clock: list[float] = []  # includes the untimed checks and samples
    with speed.Sampler() as sampler:
        while True:
            # The harness's garbage from input generation and earlier passes
            # is collected between passes; within a pass the collector runs
            # as the program's allocations trigger it, and its time is the
            # program's.
            gc.collect()
            started = time.perf_counter()
            sampler.take()
            measured = 0.0
            for op in ops:
                before = len(sampler.samples) - 1
                elapsed = tally.run(workload, op, nullcontext, sampler.clock)
                sampler.take()
                op_s[op].append(elapsed * speed.factor(sampler.samples[before:]))
                measured_op_s.append(elapsed)
                measured += elapsed
            measured_pass_s.append(measured)
            pass_clock.append(time.perf_counter() - started)
            pass_s.append(sum(times[-1] for times in op_s.values()))
            if time.perf_counter() + statistics.median(pass_clock) > deadline:
                return pass_s, op_s, measured_pass_s, measured_op_s, sampler.samples


def run_traced(workload, ops, tally: Tally) -> dict:
    from perfbench.tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
        wall_s = sum(tally.run(workload, op, tracer.paused) for op in ops)
        return tracer.metrics(declared("per_layer"), wall_s)
    finally:
        tracer.uninstall()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *sys.argv[1:]])

    if not (ROOT / "src" / "cqsearch").is_dir() or not (ROOT / "corpus").is_dir():
        fail(f"{ROOT} is not a cqsearch checkout (src/cqsearch and corpus/ are missing)")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work = WORK / args.workload / f"seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, work)
    workload.prepare()
    ops = workload.operations()
    tally = Tally()

    if args.trace:
        values = run_traced(workload, ops, tally)
        units = declared("per_layer")
        samples = {name: 1 for name in values}
        extra = {}
    else:
        setup, raw_setup = measure_setup(args.workload, args.seed, work)
        pass_s, op_s, measured_pass_s, measured_op_s, kernel_s = run_untraced(
            workload, ops, args.seconds, tally)
        every_op = [t for times in op_s.values() for t in times]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(pass_s),
            "op_s.p50": statistics.median(every_op),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = declared("end_to_end")
        samples = {"setup_s": len(setup), "wall_s": len(pass_s),
                   "op_s.p50": len(every_op), "peak_rss_mb": 1}
        op_median = {str(op): statistics.median(times) for op, times in op_s.items()}
        slowest = sorted(op_median.items(), key=lambda kv: -kv[1])[:5]
        extra = {"measured": {"setup_s": statistics.median(raw_setup),
                              "wall_s": statistics.median(measured_pass_s),
                              "op_s.p50": statistics.median(measured_op_s)},
                 "kernel_samples": len(kernel_s),
                 "kernel_s_quartiles": statistics.quantiles(kernel_s, n=4),
                 "slowest_ops": [{"op": op, "median_s": t, "share_of_wall": t / values["wall_s"]}
                                 for op, t in slowest]}

    failed = len(tally.failures)
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **code_identity(), "machine": machine(),
        "attempted": tally.attempted, "failed": failed,
        "fail_ratio": failed / tally.attempted,
        "metrics": {name: {**m, "samples": samples[name]} for name, m in metrics.items()},
        "failures": tally.failures[:20], **extra,
    }
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
