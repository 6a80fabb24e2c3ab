"""Similarity metrics: frozen reference values, conventions, identities,
and equivalence with independent brute-force oracles."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    brute_cosine,
    brute_dice,
    brute_jaccard,
    brute_pearson,
    brute_tanimoto,
    dp_levenshtein,
    dp_levenshtein_similarity,
    generator_tokenize_topics,
    oracle_corpus,
    random_topic_set,
)
from rumorsim import (
    Metric,
    RumorContent,
    UndefinedCorrelationError,
    canonical_topic_string,
    cosine,
    dice,
    jaccard,
    levenshtein,
    overlap_scores,
    pearson,
    score,
    tokenize_topics,
    vector_cosine,
)
from rumorsim import similarity
from rumorsim.similarity import (
    _byte_pattern,
    _edit_distance,
    _edit_distances,
    _levenshtein_similarity,
    _pair_test,
    _pattern,
)

ABC = frozenset("abc")
BCD = frozenset("bcd")
# around 30 (a CPython int digit) and 64 (a machine word) on both sides
LEVENSHTEIN_LENGTHS = [0, 1, 29, 30, 31, 32, 63, 64, 65, 100, 200]


def topics(*labels):
    return RumorContent(frozenset(labels))


class TestTokenize:
    def test_splits_trims_lowercases(self):
        assert tokenize_topics("Business & Finance , Internet ,Technology") == frozenset(
            {"business & finance", "internet", "technology"}
        )

    def test_drops_empty_fragments_and_duplicates(self):
        assert tokenize_topics("  a ,B, ,b,,A ") == frozenset({"a", "b"})

    def test_empty_string_gives_empty_set(self):
        assert tokenize_topics("") == frozenset()
        assert tokenize_topics(" , ,") == frozenset()

    def test_matches_the_per_fragment_reference(self):
        # final sigma depends on its neighbours: each fragment is trimmed, then
        # lowercased, so a comma or the whitespace around it cannot change how
        # a fragment's ends lowercase
        assert tokenize_topics("AΣ,Σ, ΑΣ.,Σ.Σ ,İ") == generator_tokenize_topics("AΣ,Σ, ΑΣ.,Σ.Σ ,İ")
        pieces = ["A", "a", "Σ", "σ", "ς", "İ", "i", "\u0307", ".", "'", ",", ",", " ", "  ", "\t", "\u00a0", "\u2003", "x"]
        rng = random.Random(151)
        for _ in range(3000):
            raw = "".join(rng.choice(pieces) for _ in range(rng.randrange(12)))
            assert tokenize_topics(raw) == generator_tokenize_topics(raw), repr(raw)


class TestReferenceValues:
    # overlap 2 between two 3-label sets
    def test_cosine_two_thirds(self):
        assert cosine(ABC, BCD) == 2 / 3

    def test_jaccard_half(self):
        assert jaccard(ABC, BCD) == 0.5

    def test_dice_two_thirds(self):
        assert dice(ABC, BCD) == 2 / 3

    def test_pearson_reversed_sequence_fully_anticorrelated(self):
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_levenshtein_kitten_sitting(self):
        distance, similarity = levenshtein("kitten", "sitting")
        assert distance == 3
        assert similarity == 1 - 3 / 7


class TestEmptyConventions:
    def test_cosine_zero_when_either_empty(self):
        assert cosine(frozenset(), ABC) == 0.0
        assert cosine(ABC, frozenset()) == 0.0
        assert cosine(frozenset(), frozenset()) == 0.0

    @pytest.mark.parametrize("metric", [Metric.JACCARD_SET, Metric.JACCARD_VECTOR], ids=["set", "vector"])
    def test_jaccard_zero_when_both_empty(self, metric):
        assert score(metric, topics(), topics()) == 0.0
        assert jaccard(frozenset(), frozenset()) == 0.0
        assert brute_tanimoto(frozenset(), frozenset()) == 0.0

    def test_dice_zero_when_both_empty(self):
        assert dice(frozenset(), frozenset()) == 0.0

    def test_levenshtein_empty_strings_similar(self):
        assert levenshtein("", "") == (0, 1.0)
        distance, similarity = levenshtein("", "abcd")
        assert distance == 4
        assert similarity == 0.0


class TestOracleEquivalence:
    def test_set_metrics_match_brute_force(self):
        rng = random.Random(411)
        for _ in range(2000):
            a = random_topic_set(rng)
            b = random_topic_set(rng)
            assert cosine(a, b) == pytest.approx(brute_cosine(a, b), abs=1e-12)
            assert jaccard(a, b) == pytest.approx(brute_jaccard(a, b), abs=1e-12)
            assert dice(a, b) == pytest.approx(brute_dice(a, b), abs=1e-12)

    def test_jaccard_variants_agree_on_binary_vectors(self):
        # integer counts make the set and the Tanimoto quotient the same float
        rng = random.Random(412)
        for _ in range(500):
            a = random_topic_set(rng)
            b = random_topic_set(rng)
            expected = brute_tanimoto(a, b)
            assert score(Metric.JACCARD_SET, topics(*a), topics(*b)) == expected
            assert score(Metric.JACCARD_VECTOR, topics(*a), topics(*b)) == expected

    def test_every_metric_through_score_matches_its_oracle(self):
        oracles = {
            Metric.COSINE: brute_cosine,
            Metric.PEARSON: brute_pearson,
            Metric.JACCARD_SET: brute_jaccard,
            Metric.JACCARD_VECTOR: brute_tanimoto,
            Metric.DICE: brute_dice,
            Metric.LEVENSHTEIN: lambda a, b: dp_levenshtein_similarity(
                canonical_topic_string(a), canonical_topic_string(b)
            ),
            Metric.AVERAGE: lambda a, b: (brute_cosine(a, b) + brute_jaccard(a, b) + brute_dice(a, b)) / 3,
        }
        assert set(oracles) == set(Metric)
        rng = random.Random(419)
        empty = undefined = 0
        for _ in range(2000):
            a = random_topic_set(rng)
            b = random_topic_set(rng)
            empty += not a or not b
            pa, pb = topics(*a), topics(*b)
            for metric, oracle in oracles.items():
                expected = oracle(a, b)
                if expected is None:
                    undefined += 1
                    with pytest.raises(UndefinedCorrelationError):
                        score(metric, pa, pb)
                    continue
                value = score(metric, pa, pb)
                assert value == pytest.approx(expected, abs=1e-12), (metric, a, b)
                # the gate may put either carrier first
                assert score(metric, pb, pa) == value
        assert empty > 50 and undefined > 50

    def test_overlap_scores_equal_the_single_metrics(self):
        rng = random.Random(420)
        for _ in range(2000):
            a = random_topic_set(rng)
            b = random_topic_set(rng)
            c, j, d = cosine(a, b), jaccard(a, b), dice(a, b)
            assert overlap_scores(a, b) == (c, j, d, (c + j + d) / 3)
            assert score(Metric.AVERAGE, topics(*a), topics(*b)) == (c + j + d) / 3

    def test_levenshtein_matches_full_matrix(self):
        rng = random.Random(413)
        alphabet = "abcde"
        for _ in range(400):
            s1 = "".join(rng.choices(alphabet, k=rng.randint(0, 20)))
            s2 = "".join(rng.choices(alphabet, k=rng.randint(0, 20)))
            assert levenshtein(s1, s2)[0] == dp_levenshtein(s1, s2)

    def test_levenshtein_metric_axioms(self):
        rng = random.Random(414)
        words = ["".join(rng.choices("abc", k=rng.randint(0, 8))) for _ in range(30)]
        for s in words:
            assert levenshtein(s, s)[0] == 0
        for _ in range(300):
            s1, s2, s3 = rng.choices(words, k=3)
            d12 = levenshtein(s1, s2)[0]
            d21 = levenshtein(s2, s1)[0]
            d13 = levenshtein(s1, s3)[0]
            d32 = levenshtein(s3, s2)[0]
            assert d12 == d21
            assert d12 <= d13 + d32

    @pytest.mark.parametrize("alphabet", ["ab", "abcdefghijklmnopqrstuvwxyz, ", "aé中𝄞\u0301ß "])
    def test_levenshtein_matches_full_matrix_across_word_boundaries(self, alphabet):
        rng = random.Random(416)
        strings = ["".join(rng.choices(alphabet, k=n)) for n in LEVENSHTEIN_LENGTHS]
        for i, s1 in enumerate(strings):
            for s2 in strings[i:]:
                expected = dp_levenshtein(s1, s2)
                assert levenshtein(s1, s2)[0] == expected, (len(s1), len(s2))
                assert levenshtein(s2, s1)[0] == expected, (len(s2), len(s1))

    def test_levenshtein_repeated_characters(self):
        cases = []
        for n in LEVENSHTEIN_LENGTHS:
            run = "a" * n
            cases += [
                (run, run),
                (run, "b" * n),
                (run, "a" * (n + 1)),
                (run, "ab" * (n // 2)),
                (run, "b" + run[1:]),
                (run, run[:-1] + "é"),
                ("ab" * n, "ba" * n),
                ("x" * n + "y" * n, "y" * n + "x" * n),
            ]
        for s1, s2 in cases:
            expected = dp_levenshtein(s1, s2)
            assert levenshtein(s1, s2)[0] == expected, (s1, s2)
            assert levenshtein(s2, s1)[0] == expected, (s2, s1)

    def test_levenshtein_matches_full_matrix_on_canonical_topic_strings(self):
        pairs = []
        for graph, profiles, _ in oracle_corpus(seed=417, count=8, max_nodes=40):
            for a, b in sorted(graph.edges):
                pairs.append((profiles[a].topics, profiles[b].topics))
        # larger topic sets give canonical strings past 64 characters
        rng = random.Random(418)
        pairs += [(random_topic_set(rng, 30), random_topic_set(rng, 30)) for _ in range(60)]
        assert max(len(canonical_topic_string(a)) for a, _ in pairs) > 100
        for a, b in pairs:
            s1, s2 = canonical_topic_string(a), canonical_topic_string(b)
            expected = (dp_levenshtein(s1, s2), dp_levenshtein_similarity(s1, s2))
            assert levenshtein(s1, s2) == expected
            assert levenshtein(s2, s1) == expected

    @pytest.mark.parametrize("alphabet", ["ab", "abcdefghijklmnopqrstuvwxyz, ", "aé中𝄞\u0301ß "])
    def test_kernel_matches_full_matrix_for_either_length_as_pattern(self, alphabet):
        # the gate's pattern is its source's string, shorter or longer than the text
        rng = random.Random(419)
        strings = ["".join(rng.choices(alphabet, k=n)) for n in LEVENSHTEIN_LENGTHS]
        for i, s1 in enumerate(strings):
            for s2 in strings[i:]:
                expected = dp_levenshtein(s1, s2)
                assert _edit_distance(_pattern(s1), len(s1), s2) == expected, (len(s1), len(s2))
                assert _edit_distance(_pattern(s2), len(s2), s1) == expected, (len(s2), len(s1))


# m + 1 bits fill a whole number of bytes at 7, 15, 63 and 127; the rest sit around them
LANE_PATTERN_LENGTHS = [0, 7, 8, 15, 16, 63, 64, 65, 127, 128, 200]
LANE_ALPHABETS = ["ab", "abcdefghijklmnopqrstuvwxyz, ", "aé中𝄞\u0301ß "]


def run_lanes(pairs):
    """``_edit_distances`` on (pattern, text) pairs, one lane each."""
    return _edit_distances([(_byte_pattern(p), len(p), t) for p, t in pairs])


class TestLaneKernel:
    """``_edit_distances`` gives each lane the distance ``_edit_distance`` and the full matrix give."""

    @pytest.mark.parametrize("alphabet", LANE_ALPHABETS)
    def test_lanes_at_every_width_edge(self, alphabet):
        # each pass has lanes of one pattern length, with texts shorter, as
        # long and longer, so at 7, 15, 63 and 127 every carry out of a lane's
        # pattern lands in the lane above
        rng = random.Random(421)
        for m in LANE_PATTERN_LENGTHS:
            pairs = [
                ("".join(rng.choices(alphabet, k=m)), "".join(rng.choices(alphabet, k=n)))
                for n in sorted({0, 1, m // 2, m, m + 1, 2 * m + 3})
            ]
            expected = [dp_levenshtein(p, t) for p, t in pairs]
            assert run_lanes(pairs) == expected, m
            assert [_edit_distance(_pattern(p), len(p), t) for p, t in pairs] == expected, m
            # the same lanes reversed: each lane is read at its own last column
            assert run_lanes(pairs[::-1]) == expected[::-1], m

    @pytest.mark.parametrize("lanes", [1, 2, 256])
    def test_passes_of_mixed_lengths(self, lanes):
        rng = random.Random(422)
        pairs = []
        for k in range(256):
            alphabet = LANE_ALPHABETS[k % len(LANE_ALPHABETS)]
            m = LANE_PATTERN_LENGTHS[k % len(LANE_PATTERN_LENGTHS)]
            pairs.append(("".join(rng.choices(alphabet, k=m)), "".join(rng.choices(alphabet, k=rng.randint(0, 80)))))
        expected = [_edit_distance(_pattern(p), len(p), t) for p, t in pairs]
        # the full matrix on every lane length, every alphabet, text lengths from 0 up
        assert [dp_levenshtein(p, t) for p, t in pairs[:33]] == expected[:33]
        got = []
        for start in range(0, len(pairs), lanes):
            got += run_lanes(pairs[start : start + lanes])
        assert got == expected

    def test_empty_patterns_and_texts(self):
        pairs = [("", ""), ("", "abc"), ("abc", ""), ("", "é" * 9), ("ab" * 8, "")]
        assert run_lanes(pairs) == [0, 3, 3, 9, 16]
        assert run_lanes([("", "")]) == [0]


class TestProperties:
    def test_symmetry_and_range(self):
        rng = random.Random(415)
        for _ in range(500):
            a = random_topic_set(rng)
            b = random_topic_set(rng)
            for fn in (cosine, jaccard, dice):
                value = fn(a, b)
                assert fn(b, a) == value
                assert 0.0 <= value <= 1.0

    def test_cosine_scale_invariance(self):
        rng = random.Random(416)
        for _ in range(200):
            n = rng.randint(2, 12)
            v1 = [rng.uniform(-5, 5) for _ in range(n)]
            v2 = [rng.uniform(-5, 5) for _ in range(n)]
            base = vector_cosine(v1, v2)
            for alpha in (0.25, 3.0, 1750.0):
                assert vector_cosine([alpha * x for x in v1], v2) == pytest.approx(base, abs=1e-12)

    def test_pearson_shift_invariance(self):
        rng = random.Random(417)
        for _ in range(200):
            n = rng.randint(2, 12)
            v1 = [rng.uniform(-5, 5) for _ in range(n)]
            v2 = [rng.uniform(-5, 5) for _ in range(n)]
            if min(v1) == max(v1) or min(v2) == max(v2):
                continue
            base = pearson(v1, v2)
            assert -1.0 <= base <= 1.0
            for shift in (-4.5, 0.25, 1750.0):
                assert pearson([x + shift for x in v1], v2) == pytest.approx(base, abs=1e-12)

    def test_dice_jaccard_identity(self):
        rng = random.Random(418)
        for _ in range(500):
            a = random_topic_set(rng)
            b = random_topic_set(rng)
            j = jaccard(a, b)
            assert dice(a, b) == pytest.approx(2 * j / (1 + j), abs=1e-12)


class TestVectorCosine:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="vectors must have equal length"):
            vector_cosine([1.0, 2.0], [1.0])

    def test_zero_vector_scores_zero(self):
        assert vector_cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
        assert vector_cosine([1.0, 2.0], [0.0, 0.0]) == 0.0
        assert vector_cosine([], []) == 0.0


class TestPearsonErrors:
    def test_zero_variance_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])

    def test_short_or_mismatched_vectors_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestScoreDispatch:
    def test_each_metric_routes_to_its_function(self):
        a = topics("a", "b", "c")
        b = topics("b", "c", "d")
        assert score(Metric.COSINE, a, b) == cosine(ABC, BCD)
        assert score(Metric.JACCARD_SET, a, b) == jaccard(ABC, BCD)
        assert score(Metric.JACCARD_VECTOR, a, b) == jaccard(ABC, BCD) == brute_tanimoto(ABC, BCD)
        assert score(Metric.DICE, a, b) == dice(ABC, BCD)

    def test_average_is_mean_of_three(self):
        a = topics("a", "b", "c")
        b = topics("b", "c", "d")
        expected = (cosine(ABC, BCD) + jaccard(ABC, BCD) + dice(ABC, BCD)) / 3
        assert score(Metric.AVERAGE, a, b) == expected

    def test_levenshtein_uses_canonical_sorted_string(self):
        # order of insertion must not matter once canonicalized
        assert canonical_topic_string(frozenset({"b", "a"})) == "a, b"
        assert score(Metric.LEVENSHTEIN, topics("b", "a"), topics("a", "b")) == 1.0
        expected = levenshtein("a, b", "a, c")[1]
        assert score(Metric.LEVENSHTEIN, topics("b", "a"), topics("c", "a")) == expected

    def test_pearson_identical_sets_is_undefined(self):
        # the binary vectors on the union vocabulary are constant
        with pytest.raises(UndefinedCorrelationError):
            score(Metric.PEARSON, topics("a", "b"), topics("a", "b"))

    def test_pearson_single_label_union_is_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            score(Metric.PEARSON, topics("a"), topics("a"))

    def test_pearson_disjoint_sets(self):
        assert score(Metric.PEARSON, topics("a"), topics("b")) == pytest.approx(-1.0, abs=1e-12)

    def test_metric_from_name(self):
        assert Metric.from_name("cosine") is Metric.COSINE
        assert Metric.from_name("Jaccard") is Metric.JACCARD_SET
        assert Metric.from_name("jaccard_set") is Metric.JACCARD_SET
        assert Metric.from_name("jaccard_vector") is Metric.JACCARD_VECTOR
        assert Metric.from_name(" AVERAGE ") is Metric.AVERAGE
        with pytest.raises(ValueError):
            Metric.from_name("euclidean")

    def test_unknown_jaccard_variant_rejected(self):
        # the metric name is the one way to pick a jaccard form
        with pytest.raises(ValueError):
            Metric.from_name("jaccard_fuzzy")
        with pytest.raises(TypeError):
            jaccard(ABC, BCD, "vector")


def _shapes(max_size):
    """(k, na, nb, a, b) for every overlap shape of two sets of at most ``max_size`` labels."""
    for na, nb in itertools.product(range(max_size + 1), repeat=2):
        for k in range(min(na, nb) + 1):
            yield k, na, nb, frozenset(range(na)), frozenset(range(na - k, na - k + nb))


def _score_or_none(metric, a, b):
    """``score`` of two label sets, or None where the metric is undefined."""
    try:
        return score(metric, topics(*a), topics(*b))
    except UndefinedCorrelationError:
        return None


def _reachable_scores(metric, max_size=8):
    """Every score ``metric`` gives two label sets of at most ``max_size`` labels each."""
    scores = {_score_or_none(metric, a, b) for _, _, _, a, b in _shapes(max_size)}
    scores.discard(None)
    return scores


def _exact_pearson(k, na, nb):
    """Pearson of an overlap shape as a Fraction, within 2**-64 relative of the real number."""
    v = na + nb - k
    radicand = na * (v - na) * nb * (v - nb)
    return Fraction((v * k - na * nb) << 64, math.isqrt(radicand << 128))


class TestPearsonFromShape:
    """Pearson of two label sets is a function of their overlap shape alone."""

    def test_relabelling_leaves_the_score_bit_identical(self):
        rng = random.Random(1616)
        vocab = [f"t{i:02d}" for i in range(30)]
        defined = 0
        for _ in range(2000):
            renamed = dict(zip(vocab, rng.sample(vocab, len(vocab))))
            a, b = (frozenset(rng.sample(vocab, rng.randint(0, 10))) for _ in range(2))
            a2, b2 = (frozenset(map(renamed.get, labels)) for labels in (a, b))
            try:
                value = score(Metric.PEARSON, topics(*a), topics(*b))
            except UndefinedCorrelationError as exc:
                with pytest.raises(UndefinedCorrelationError) as again:
                    score(Metric.PEARSON, topics(*a2), topics(*b2))
                assert str(again.value) == str(exc)
                continue
            defined += 1
            assert score(Metric.PEARSON, topics(*a2), topics(*b2)) == value, (a, b, a2, b2)
        assert defined > 1000

    def test_within_two_ulps_of_the_exact_value(self):
        defined = 0
        for k, na, nb, a, b in _shapes(12):
            value = _score_or_none(Metric.PEARSON, a, b)
            v = na + nb - k
            # undefined exactly where a binary vector on the union is constant
            assert (value is None) == (v < 2 or not na * (v - na) * nb * (v - nb)), (k, na, nb)
            if value is not None:
                defined += 1
                exact = _exact_pearson(k, na, nb)
                # no label lies outside the union: the covariance is -|a - b| * |b - a|
                assert value < 0.0, (k, na, nb)
                assert abs(Fraction(value) - exact) <= 2 * Fraction(math.ulp(float(exact))), (k, na, nb)
        assert defined > 500

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ((), (), "pearson needs at least two distinct labels across both topic sets"),
            (("a",), (), "pearson needs at least two distinct labels across both topic sets"),
            (("a",), ("a",), "pearson needs at least two distinct labels across both topic sets"),
            (("a", "b"), (), "zero variance input vector"),
            (("a", "b"), ("b",), "zero variance input vector"),
            (("a", "b"), ("a", "b"), "zero variance input vector"),
        ],
    )
    def test_degenerate_shapes_keep_their_messages(self, a, b, message):
        for first, second in ((a, b), (b, a)):
            with pytest.raises(UndefinedCorrelationError) as info:
                score(Metric.PEARSON, topics(*first), topics(*second))
            assert str(info.value) == message


class TestPairTest:
    """``_pair_test(metric, tau)`` decides each pair as ``score(metric, a, b) >= tau``."""

    @pytest.mark.parametrize(
        "metric",
        [Metric.COSINE, Metric.JACCARD_SET, Metric.JACCARD_VECTOR, Metric.DICE, Metric.AVERAGE, Metric.PEARSON],
    )
    def test_set_metrics_decide_as_their_score_at_every_reachable_threshold(self, metric):
        rng = random.Random(152)
        vocab = [f"t{i}" for i in range(12)]
        pairs = [
            (frozenset(rng.sample(vocab, rng.randint(0, 8))), frozenset(rng.sample(vocab, rng.randint(0, 8))))
            for _ in range(200)
        ]
        scores = [_score_or_none(metric, a, b) for a, b in pairs]
        # only Pearson is undefined on some pairs, and there the predicate raises too
        assert (None in scores) == (metric is Metric.PEARSON)
        reachable = _reachable_scores(metric)
        thresholds = reachable | {math.nextafter(s, -math.inf) for s in reachable} | {
            math.nextafter(s, math.inf) for s in reachable
        }
        for tau in sorted(thresholds):
            test = _pair_test(metric, tau)
            for (a, b), value in zip(pairs, scores):
                if value is None:
                    with pytest.raises(UndefinedCorrelationError):
                        test(a, b)
                else:
                    assert test(a, b) == (value >= tau), (tau, a, b)

    @pytest.mark.parametrize("metric", [metric for metric in Metric if metric is not Metric.LEVENSHTEIN])
    def test_a_gate_scores_each_defined_shape_once(self, metric, monkeypatch):
        rng = random.Random(154)
        vocab = [f"t{i}" for i in range(8)]
        pairs = [
            (frozenset(rng.sample(vocab, rng.randint(0, 4))), frozenset(rng.sample(vocab, rng.randint(0, 4))))
            for _ in range(300)
        ]
        # a defined shape is scored on its first pair; an undefined one raises on each of its pairs
        expected = Counter()
        for a, b in pairs:
            shape = (len(a & b), len(a), len(b))
            defined = _score_or_none(metric, a, b) is not None
            expected[shape] = 1 if defined else expected[shape] + 1
        assert (max(expected.values()) > 1) == (metric is Metric.PEARSON)
        calls = []
        shape_score = similarity._SHAPE_SCORES[metric]
        monkeypatch.setitem(similarity._SHAPE_SCORES, metric, lambda *shape: calls.append(shape) or shape_score(*shape))
        test = _pair_test(metric, 0.25)
        for a, b in pairs:
            try:
                test(a, b)
            except UndefinedCorrelationError:
                pass
        assert Counter(calls) == expected

    def test_levenshtein_length_bound_decides_as_the_kernel(self, monkeypatch):
        entered, built = [], []
        kernel, build = similarity._edit_distance, similarity._pattern
        monkeypatch.setattr(similarity, "_edit_distance", lambda *args: entered.append(args) or kernel(*args))
        monkeypatch.setattr(similarity, "_pattern", lambda text: built.append(text) or build(text))
        rng = random.Random(153)
        decided_at_bound = set()
        for _ in range(600):
            # a one-label set's canonical string is the label itself
            s1, s2 = ("".join(rng.choice("ab c") for _ in range(rng.randrange(13))) for _ in range(2))
            a, b = frozenset({s1}), frozenset({s2})
            m, n = len(s1), len(s2)
            at_bound = _levenshtein_similarity(abs(m - n), m, n)
            for tau in (at_bound, math.nextafter(at_bound, math.inf)):
                del entered[:], built[:]
                expected = dp_levenshtein_similarity(s1, s2) >= tau
                assert _pair_test(Metric.LEVENSHTEIN, tau)(a, b) == expected, (s1, s2, tau)
                # the bound rejects only above its own similarity, before any pattern is built
                assert len(entered) == len(built) == (tau == at_bound), (s1, s2, tau)
            decided_at_bound.add(dp_levenshtein_similarity(s1, s2) >= at_bound)
        assert decided_at_bound == {False, True}
