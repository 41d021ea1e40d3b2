"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <work dir>

Prints the seconds spent importing the program plus the workload's
``setup``, first scaled to the reference speed by the kernel samples of
``speed.py`` taken before, during and after, then as measured. Importing
the harness itself is not counted. run.py starts this script several times
per run and reports the median of the scaled figures as ``setup_s``.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(ROOT))
    from perfbench import speed
    with speed.Sampler() as sampler:
        sampler.take()
        started = sampler.clock()
        sys.path.insert(0, str(ROOT / "src"))
        import cqsearch.cli  # noqa: F401  (the program's import is part of set-up)
        imported = sampler.clock() - started
        from perfbench.workloads import WORKLOADS
        workload = WORKLOADS[name](ROOT, seed, work)
        started = sampler.clock()
        workload.setup()
        raw = imported + sampler.clock() - started
        sampler.take()
    print(raw * speed.factor(sampler.samples), raw)


if __name__ == "__main__":
    main()
