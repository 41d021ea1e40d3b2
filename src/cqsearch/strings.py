"""Synthesis of the strongest satisfiable string constraint.

Given, per positive tuple, the set of values a string attribute takes across
that tuple's satisfying assignments, find the longest literal contained in at
least one witness of every positive (ties broken lexicographically), then the
strongest predicate (equal > prefix > suffix > contain) that some witness of
every positive satisfies against it. The length is binary-searched: every
prefix of a common substring is common too, so the lengths that have a common
substring are 1 up to the longest. The test suite holds the search against a
substring brute force.
"""
from __future__ import annotations

from typing import Collection, Sequence

from .core import pred_holds
from .query import PREDICATES


def common_substrings(witness_sets: Sequence[Collection[str]], n: int) -> set[str]:
    """The length-``n`` substrings of some witness of every set."""
    common: set[str] | None = None
    for ws in witness_sets:
        found = {w[i:i + n] for w in ws for i in range(len(w) - n + 1)}
        common = found if common is None else common & found
        if not common:
            break
    return common or set()


def syn_lcs(witness_sets: Sequence[Collection[str]]) -> tuple[str, str] | None:
    """Strongest (predicate, literal) every positive's witnesses can satisfy.

    None when the witness sets share no non-empty substring (or a set is
    empty, in which case no constraint is synthesizable for the slot).
    """
    if not witness_sets or any(not ws for ws in witness_sets):
        return None
    # Length lo has the common substrings ``best`` (none yet at 0); no length
    # above hi has any.
    lo, hi, best = 0, min(max(map(len, ws)) for ws in witness_sets), set()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if common := common_substrings(witness_sets, mid):
            lo, best = mid, common
        else:
            hi = mid - 1
    if not best:
        return None
    literal = min(best)
    return next(pred for pred in PREDICATES
                if all(any(pred_holds(pred, w, literal) for w in ws)
                       for ws in witness_sets)), literal
