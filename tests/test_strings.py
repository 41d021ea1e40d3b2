import random

from hypothesis import given, settings, strategies as st

from cqsearch.core import make_partition
from cqsearch.evaluator import is_refinable, refinable_with_witnesses
from cqsearch.query import QueryGraph
from cqsearch.strings import SuffixAutomaton, longest_common_length, syn_lcs
import gen
from oracles import lcs_brute


class TestSynLcs:
    def test_identical_singletons_give_equal(self):
        assert syn_lcs([{"CacheConfig"}, {"CacheConfig"}]) == ("equal", "CacheConfig")

    def test_shared_prefix(self):
        assert syn_lcs([{"cashFlow"}, {"cashBook"}]) == ("prefix", "cash")

    def test_shared_suffix(self):
        assert syn_lcs([{"totalcash"}, {"sparecash"}]) == ("suffix", "cash")

    def test_no_common_substring(self):
        assert syn_lcs([{"abc"}, {"xyz"}]) is None

    def test_empty_witness_set_skips_synthesis(self):
        assert syn_lcs([{"abc"}, set()]) is None
        assert syn_lcs([]) is None

    def test_single_positive_takes_longest_witness(self):
        assert syn_lcs([{"java.time.LocalTime", "xy"}]) == \
            ("equal", "java.time.LocalTime")

    def test_lexicographic_tie_break(self):
        # common substrings of length 1 are {a, b}; "a" wins
        assert syn_lcs([{"ab"}, {"ba"}]) == ("contain", "a")

    def test_prefix_preferred_over_suffix(self):
        # literal "aba": prefix and suffix both hold on "abaaba"; equal fails
        got = syn_lcs([{"abaaba"}, {"abaXaba"}])
        assert got == ("prefix", "aba")

    def test_some_witness_per_positive_suffices(self):
        # the second positive satisfies through one of its two witnesses
        assert syn_lcs([{"log4j"}, {"zzz", "xlog4j"}]) == ("suffix", "log4j")


_witness_sets = st.lists(
    st.frozensets(st.text(alphabet="abc", min_size=1, max_size=8),
                  min_size=1, max_size=3),
    min_size=1, max_size=4)


class TestOracleAgreement:
    @settings(max_examples=200, deadline=None)
    @given(_witness_sets)
    def test_hypothesis_witness_sets(self, sets):
        assert syn_lcs(sets) == lcs_brute(sets)

    @settings(max_examples=200, deadline=None)
    @given(_witness_sets)
    def test_literal_is_common_and_strongest(self, sets):
        got = syn_lcs(sets)
        if got is None:
            return
        pred, literal = got
        assert literal
        from cqsearch.query import PREDICATES, pred_holds
        assert all(any(literal in w for w in ws) for ws in sets)
        for stronger in PREDICATES[:PREDICATES.index(pred)]:
            assert not all(any(pred_holds(stronger, w, literal) for w in ws)
                           for ws in sets)

    def test_random_witness_sets(self):
        rng = random.Random(41)
        for _ in range(300):
            sets = [frozenset(gen.random_string(rng, "abc", 1, 8)
                              for _ in range(rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 4))]
            got = syn_lcs(sets)
            want = lcs_brute(sets)
            assert got == want, (sets, got, want)

    def test_length_matches_brute_force(self):
        rng = random.Random(43)
        for _ in range(200):
            sets = [frozenset(gen.random_string(rng, "ab", 1, 12)
                              for _ in range(rng.randint(1, 2)))
                    for _ in range(rng.randint(2, 3))]
            want = lcs_brute(sets)
            got = longest_common_length(sets)
            assert got == (len(want[1]) if want else 0)


class TestSuffixAutomaton:
    def test_recognizes_all_substrings(self):
        sam = SuffixAutomaton()
        sam.add_string("abcbc")
        sam.add_string("cbab")
        for s in ("abcbc", "cbab"):
            for i in range(len(s)):
                for j in range(i + 1, len(s) + 1):
                    cur = 0
                    for c in s[i:j]:
                        assert c in sam.trans[cur]
                        cur = sam.trans[cur][c]

    def test_rejects_non_substrings(self):
        sam = SuffixAutomaton()
        sam.add_string("aab")
        cur, ok = 0, True
        for c in "ba" + "x":
            if c not in sam.trans[cur]:
                ok = False
                break
            cur = sam.trans[cur][c]
        assert not ok


class TestRefinabilityPreservation:
    def test_constraint_insertion_keeps_positives(self, facts):
        part = make_partition("Method", ["M1", "M2"], facts)
        g = QueryGraph(("Method", "Identifier"), frozenset({(0, 1, "idf_id")}), ())
        ok, witnesses = refinable_with_witnesses(g, facts, part, [(1, "name")])
        assert ok
        got = syn_lcs(witnesses[(1, "name")])
        assert got == ("prefix", "f")  # foo / f2 share only their leading "f"
        augmented = g.with_constraint(1, "name", *got)
        assert is_refinable(augmented, facts, part)
