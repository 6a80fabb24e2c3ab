"""Topic tokenization and the similarity metrics used to gate diffusion.

Set metrics (cosine, jaccard, dice) take normalized topic-label sets and are
equivalent to their binary term-vector forms on the union vocabulary; each is
one formula of |a & b|, |a| and |b|, and ``overlap_scores`` gives all three
and their average from one intersection.  Pearson works on numeric vectors,
levenshtein on strings.  ``score`` looks the metric up in one table of
functions of two topic sets.  All metrics are symmetric in their arguments.

Levenshtein is the exact edit distance, computed with Myers' bit-vector
algorithm (Myers 1999) in Hyyrö's edit-distance form (Hyyrö 2003).  For
lengths m >= n a pair costs O(ceil(m/w) * n) operations on w-bit words; on
Python ints each bit-vector operation is one big-int operation, about a dozen
per character of the shorter string.  The distance is an exact integer, so
the similarity is the same float the full-matrix DP gives.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

from .errors import UndefinedCorrelationError

TopicSet = frozenset


class Metric(Enum):
    COSINE = "cosine"
    PEARSON = "pearson"
    JACCARD_SET = "jaccard"
    # Tanimoto on binary term vectors: the same number as JACCARD_SET
    JACCARD_VECTOR = "jaccard_vector"
    DICE = "dice"
    LEVENSHTEIN = "levenshtein"
    # arithmetic mean of cosine, set jaccard and dice
    AVERAGE = "average"

    @classmethod
    def from_name(cls, name: str) -> "Metric":
        key = name.strip().lower()
        if key == "jaccard_set":
            key = "jaccard"
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown metric name: {name!r}")


def tokenize_topics(raw: str) -> TopicSet:
    """Split a comma-separated topic string into a normalized label set.

    Labels are trimmed and lowercased; empty fragments are dropped and
    duplicates collapse.
    """
    return frozenset(label for part in raw.split(",") if (label := part.strip().lower()))


def canonical_topic_string(topics: TopicSet) -> str:
    """Stable serialization of a topic set, used for string-level metrics."""
    return ", ".join(sorted(topics))


def _cosine(k: int, na: int, nb: int) -> float:
    return k / math.sqrt(na * nb) if na and nb else 0.0


def _jaccard(k: int, na: int, nb: int) -> float:
    # |a | b| = |a| + |b| - |a & b|, zero only when both sets are empty
    return k / (na + nb - k) if na or nb else 0.0


def _dice(k: int, na: int, nb: int) -> float:
    return 2.0 * k / (na + nb) if na or nb else 0.0


def cosine(a: TopicSet, b: TopicSet) -> float:
    """Cosine similarity of two label sets; 0.0 when either set is empty.

    Equals the dot product of the binary term vectors over their norms.
    """
    return _cosine(len(a & b), len(a), len(b))


def vector_cosine(v1: Sequence[float], v2: Sequence[float]) -> float:
    """Cosine of the angle between two numeric vectors; 0.0 on a zero vector."""
    if len(v1) != len(v2):
        raise ValueError("vectors must have equal length")
    dot = sum(x * y for x, y in zip(v1, v2))
    n1 = math.sqrt(sum(x * x for x in v1))
    n2 = math.sqrt(sum(y * y for y in v2))
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    # clamp: the quotient can overshoot [-1, 1] by an ulp
    return max(-1.0, min(1.0, dot / (n1 * n2)))


def pearson(v1: Sequence[float], v2: Sequence[float]) -> float:
    """Pearson correlation as the cosine of the mean-centered vectors.

    Raises UndefinedCorrelationError when either vector has zero variance;
    a constant vector has no direction after centering, so returning 0 would
    hide a misconfigured input.
    """
    if len(v1) != len(v2):
        raise ValueError("vectors must have equal length")
    if len(v1) < 2:
        raise ValueError("pearson needs vectors of length >= 2")
    if min(v1) == max(v1) or min(v2) == max(v2):
        raise UndefinedCorrelationError("zero variance input vector")
    m1 = sum(v1) / len(v1)
    m2 = sum(v2) / len(v2)
    return vector_cosine([x - m1 for x in v1], [y - m2 for y in v2])


def jaccard(a: TopicSet, b: TopicSet) -> float:
    """Jaccard similarity of two label sets; 0.0 when both are empty.

    Intersection over union.  The Tanimoto form dot / (|v1|^2 + |v2|^2 - dot)
    on binary term vectors (``Metric.JACCARD_VECTOR``) is the same number:
    with binary weights every term is an integer count.
    """
    return _jaccard(len(a & b), len(a), len(b))


def dice(a: TopicSet, b: TopicSet) -> float:
    """Dice coefficient 2|a&b| / (|a|+|b|); 0.0 when both sets are empty."""
    return _dice(len(a & b), len(a), len(b))


def overlap_scores(a: TopicSet, b: TopicSet) -> tuple[float, float, float, float]:
    """(cosine, jaccard, dice, average) of two label sets from one intersection.

    Each value is the same float the single-metric function gives; the
    average is the arithmetic mean of the first three.
    """
    k, na, nb = len(a & b), len(a), len(b)
    c, j, d = _cosine(k, na, nb), _jaccard(k, na, nb), _dice(k, na, nb)
    return c, j, d, (c + j + d) / 3.0


def levenshtein(s1: str, s2: str) -> tuple[int, float]:
    """Edit distance with unit insert/delete/substitute costs, plus a similarity.

    Substituting identical characters costs nothing.  The similarity is
    1 - distance / max(len), and 1.0 when both strings are empty.

    Myers' bit-vector algorithm in Hyyrö's edit-distance form: the longer
    string is the pattern, bit i of the vectors is row i + 1 of the DP
    matrix, and each character of the shorter string advances one column.
    Pv/Mv hold the +1/-1 vertical deltas of the current column, Ph/Mh the
    horizontal ones, and the top bit's horizontal delta moves the bottom-row
    score.  O(ceil(m/w) * n) word operations; the distance is exact.
    """
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    m = len(s1)
    distance = m
    if s2:
        # one bitmask per distinct character: where it occurs in the pattern
        peq = {}
        bit = 1
        for ch in s1:
            peq[ch] = peq.get(ch, 0) | bit
            bit <<= 1
        mask = bit - 1
        top = bit >> 1
        pv, mv = mask, 0
        for ch in s2:
            eq = peq.get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            if ph & top:
                distance += 1
            elif mh & top:
                distance -= 1
            # the carry-in 1: row 0 of the matrix grows by one per column
            ph = (ph << 1) | 1
            # carries only move up, so bits m and above never reach the low m
            # bits; the mask only stops the ints from growing
            pv = ((mh << 1) | ~(xv | ph)) & mask
            mv = ph & xv
    similarity = 1.0 if m == 0 else 1.0 - distance / m
    return distance, similarity


def _pearson_topics(a: TopicSet, b: TopicSet) -> float:
    # binary term vectors on the sorted union vocabulary
    vocab = sorted(a | b)
    if len(vocab) < 2:
        raise UndefinedCorrelationError("pearson needs at least two distinct labels across both topic sets")
    return pearson([1.0 if t in a else 0.0 for t in vocab], [1.0 if t in b else 0.0 for t in vocab])


def _levenshtein_topics(a: TopicSet, b: TopicSet) -> float:
    return levenshtein(canonical_topic_string(a), canonical_topic_string(b))[1]


_TOPIC_SCORES = {
    Metric.COSINE: cosine,
    Metric.PEARSON: _pearson_topics,
    Metric.JACCARD_SET: jaccard,
    Metric.JACCARD_VECTOR: jaccard,
    Metric.DICE: dice,
    Metric.LEVENSHTEIN: _levenshtein_topics,
    Metric.AVERAGE: lambda a, b: overlap_scores(a, b)[3],
}


def score(metric: Metric, a, b) -> float:
    """Similarity between two topic carriers (user profiles or rumor content).

    ``a`` and ``b`` only need a ``topics`` attribute.  Levenshtein compares
    the canonical serialized strings; pearson correlates the binary term
    vectors and propagates UndefinedCorrelationError on degenerate inputs.
    """
    return _TOPIC_SCORES[metric](a.topics, b.topics)
