import random

from hypothesis import given, settings, strategies as st

from cqsearch.core import make_partition, pred_holds
from cqsearch.evaluator import evaluate, refinable_with_witnesses
from cqsearch.query import PREDICATES, QueryGraph
from cqsearch.strings import syn_lcs
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


class TestInputShapes:
    """Witness sets the strategies above never draw, each against the brute force."""

    @staticmethod
    def check(sets):
        got = syn_lcs(sets)
        assert got == lcs_brute(sets), (sets, got)
        return got

    def test_empty_string_witnesses(self):
        assert self.check([{""}]) is None
        assert self.check([{""}, {"abc"}]) is None
        assert self.check([{"", "ab"}, {"b", ""}]) == ("suffix", "b")
        rng = random.Random(44)
        for _ in range(200):
            self.check([frozenset(gen.random_string(rng, "ab", 0, 4)
                                  for _ in range(rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 4))])

    def test_non_ascii_and_astral_characters(self):
        assert self.check([{"Grüße😀"}, {"süße😀x"}]) == ("contain", "üße😀")
        assert self.check([{"😀😁"}, {"😁😀😁"}]) == ("suffix", "😀😁")
        rng = random.Random(45)
        for _ in range(200):
            self.check([frozenset(gen.random_string(rng, "aé\u0301€😀\U00010348", 1, 8)
                                  for _ in range(rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 4))])

    def test_common_substring_only_in_a_later_witness(self):
        assert self.check([["zz", "qq", "xabcx"], ["yy", "pp", "abc"]]) == \
            ("contain", "abc")
        rng = random.Random(46)
        for _ in range(200):
            planted = gen.random_string(rng, "abc", 1, 5)
            sets = [[gen.random_string(rng, "xyz", 1, 6) for _ in range(rng.randint(1, 3))]
                    + [gen.random_string(rng, "xy", 0, 3) + planted]
                    for _ in range(rng.randint(2, 4))]
            pred, literal = self.check(sets)
            assert len(literal) >= len(planted)

    def test_forty_character_witnesses(self):
        rng = random.Random(47)
        for _ in range(60):
            alphabet = rng.choice(["ab", "abc", "abcd"])
            self.check([frozenset(gen.random_string(rng, alphabet, 40, 40)
                                  for _ in range(rng.randint(1, 3)))
                        for _ in range(rng.randint(2, 4))])


class TestRefinabilityPreservation:
    def test_constraint_insertion_keeps_positives(self, facts):
        part = make_partition("Method", ["M1", "M2"], facts)
        g = QueryGraph(("Method", "Identifier"), frozenset({(0, 1, "idf_id")}), ())
        ok, witnesses = refinable_with_witnesses(g, facts, part, [(1, "name")])
        assert ok
        got = syn_lcs(witnesses[(1, "name")])
        assert got == ("prefix", "f")  # foo / f2 share only their leading "f"
        augmented = g.with_constraint(1, "name", *got)
        assert part.positives <= evaluate(augmented, facts)
