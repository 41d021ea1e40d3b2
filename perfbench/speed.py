"""The machine's current speed, measured with a fixed reference kernel.

The CPU time a virtual machine gets drifts: on the 2-core VM this benchmark
was built on, a fixed pure-Python loop took 0.061-0.18 s over 90 s, its
one-second medians moved by up to a factor of two within seconds, and the
same untraced workload run minutes apart differed by up to 35%. That drift
is larger than any bound the benchmark may set, so every timed span is
scaled by the speed measured around it:

    reported = measured * REFERENCE_S / mean kernel time around the span

``kernel`` is harness code: it imports nothing from the program, so a change
to the program cannot change it. It does what the program spends its time on
(function calls, tuple hashing, dict look-ups in and out of the CPU's
caches, JSON decoding), so the speed it sees is the speed the program sees.
A reported time is the seconds the span would take at the speed at which
the kernel takes ``REFERENCE_S``.
"""
from __future__ import annotations

import gc
import json
import signal
import statistics
import time

# About the mean kernel time inside a running workload on the reference
# machine (2-core Intel Xeon VM, 2.1 GHz, Python 3.11.7).
REFERENCE_S = 0.0040
SAMPLES = 3
# A ``Sampler`` also samples every INTERVAL_S seconds from a timer signal.
INTERVAL_S = 0.25

# The kernel's data is built once. About a sixth of its time goes to calls
# and look-ups in a small table that stays in the CPU's caches; three fifths
# to look-ups in scattered order over a table of some megabytes, each call
# probing the next eighth of it, so that they miss the caches as the
# program's look-ups over a large fact base do; and a fifth to decoding a
# JSON document, which allocates and frees many small objects as reading
# facts does. These shares followed the workloads' own times more closely,
# over runs on several seeds, than any one part alone.
_KEYS = [("r", i % 97, i % 13) for i in range(3000)]
_INDEX = {key: i for i, key in enumerate(_KEYS)}
_SEEN = frozenset(key for key in _KEYS if key[1] % 3)
_TABLE_SIZE = 32768
_TABLE = {("t", i, i % 7): i for i in range(_TABLE_SIZE)}
_PROBES = _TABLE_SIZE // 8
_next_probe = 0
_DOCUMENT = json.dumps({f"rel{r}": [[i, f"name{i % 211}", i * 7 % 1000]
                                    for i in range(300)] for r in range(8)})


def _step(key: tuple, total: int) -> int:
    if key in _SEEN:
        return total + _INDEX[key]
    return total - 1


def kernel() -> int:
    global _next_probe
    total = 0
    for key in _KEYS:
        total = _step(key, total)
    start = _next_probe
    for i in range(start, start + _PROBES):
        j = i * 40503 % _TABLE_SIZE  # 40503 is odd: a permutation
        total += _TABLE[("t", j, j % 7)]
    _next_probe = (start + _PROBES) % _TABLE_SIZE
    return total + len(json.loads(_DOCUMENT))


def sample() -> float:
    """Median kernel time over ``SAMPLES`` runs, with the collector off so
    that it neither runs the program's collections nor skips its own."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(SAMPLES):
            started = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def factor(samples: list[float]) -> float:
    """Factor turning a time measured while ``samples`` were taken into
    reference seconds. The mean, not the median: the machine switches
    between a fast and a slow speed for seconds at a time, and a time
    measured across both grows with the share of each, as the mean does."""
    return REFERENCE_S / statistics.fmean(samples)


class Sampler:
    """Kernel samples taken on request and, while the sampler is entered,
    every ``INTERVAL_S`` seconds from a timer signal, so that a long
    operation is sampled while it runs and not only at its ends.

    ``clock`` reads ``time.perf_counter`` less the time spent sampling, so
    an operation timed on it does not include the samples taken during it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0
        self._taking = False
        self._previous_handler = None

    def take(self, *_signal) -> None:
        if self._taking:  # the timer fired during a sample
            return
        self._taking = True
        started = time.perf_counter()
        self.samples.append(sample())
        self._spent += time.perf_counter() - started
        self._taking = False

    def clock(self) -> float:
        while True:  # retry if a sample was taken while reading
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:
                return now - spent

    def __enter__(self) -> "Sampler":
        self._previous_handler = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
