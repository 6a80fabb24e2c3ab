"""Topic tokenization and the similarity metrics used to gate diffusion.

Set metrics (cosine, jaccard, dice, their average and pearson) take
normalized topic-label sets and equal their binary term-vector forms on the
union vocabulary; each is one formula of the overlap shape (|a & b|, |a|, |b|),
so label names never enter a score.  ``overlap_scores`` gives the first four
from one intersection.  ``pearson`` itself correlates numeric vectors, and
levenshtein compares canonical strings.  All metrics are symmetric.

Levenshtein is the exact edit distance, computed with Myers' bit-vector
algorithm (Myers 1999) in Hyyrö's formulation (Hyyrö 2001), for any pattern
and text lengths.  A pattern of length m against a text of length n costs
O(ceil(m/w) * n) operations on w-bit words; on Python ints each bit-vector
operation is one big-int operation, 17 of them and a table lookup per text
character.  The distance is read once at the end from the popcounts of the
last column.  It is an exact integer, so the similarity is the same float the
full-matrix DP gives.
A gate decides many pairs through ``_pair_test``: a set metric scores each
overlap shape once, and Levenshtein tries a length bound before the kernel.
A Levenshtein closure decides whole batches of pairs through
``_levenshtein_levels``, whose kernel runs up to ``_LANES`` pairs side by
side in the lanes of one int: each pair's own pattern and text, so one pass
of big-int operations advances every lane by one column.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import cache
from itertools import accumulate, islice, repeat, zip_longest
from operator import itemgetter
from typing import Callable, Sequence

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
        try:
            return cls("jaccard" if key == "jaccard_set" else key)
        except ValueError:
            raise ValueError(f"unknown metric name: {name!r}") from None


def _topic_label(fragment: str) -> str:
    """One topic fragment trimmed, lowercased and interned, so every set holding the label shares one string."""
    return sys.intern(fragment.strip().lower())


def tokenize_topics(raw: str) -> TopicSet:
    """Split a comma-separated topic string into a normalized label set.

    Each fragment becomes its ``_topic_label``; empty labels are dropped and
    duplicates collapse.
    """
    return frozenset(filter(None, map(_topic_label, raw.split(","))))


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


def _average(k: int, na: int, nb: int) -> float:
    return (_cosine(k, na, nb) + _jaccard(k, na, nb) + _dice(k, na, nb)) / 3.0


def _pearson(k: int, na: int, nb: int) -> float:
    # the binary vectors' correlation on the v labels of the union: scaled by v^2
    # its terms are exact ints; with no (0, 0) position it is never positive
    v = na + nb - k
    if v < 2:
        raise UndefinedCorrelationError("pearson needs at least two distinct labels across both topic sets")
    radicand = na * (v - na) * nb * (v - nb)
    if not radicand:
        # a set that is empty or the whole union is a constant vector
        raise UndefinedCorrelationError("zero variance input vector")
    return max(-1.0, min(1.0, (v * k - na * nb) / math.sqrt(radicand)))


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
    return _cosine(k, na, nb), _jaccard(k, na, nb), _dice(k, na, nb), _average(k, na, nb)


def levenshtein(s1: str, s2: str) -> tuple[int, float]:
    """Edit distance with unit insert/delete/substitute costs, plus a similarity.

    Substituting identical characters costs nothing.  The similarity is
    1 - distance / max(len), and 1.0 when both strings are empty.  The longer
    string is the pattern, so the kernel runs one column per character of the
    shorter one.
    """
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    distance = _edit_distance(_pattern(s1), len(s1), s2)
    return distance, _levenshtein_similarity(distance, len(s1), len(s2))


def _levenshtein_similarity(distance: int, m: int, n: int) -> float:
    longest = max(m, n)
    return 1.0 if longest == 0 else 1.0 - distance / longest


def _within_length_bound(m: int, n: int, threshold: float) -> bool:
    """Whether the length difference, a lower bound on the distance (Ukkonen 1985), lets a pair reach ``threshold``."""
    return _levenshtein_similarity(abs(m - n), m, n) >= threshold


def _pattern(s: str) -> dict:
    """Myers' match table: each distinct character of ``s`` to the bitmask of where it occurs."""
    peq = {}
    for i, ch in enumerate(s):
        peq[ch] = peq.get(ch, 0) | 1 << i
    return peq


def _advance(vp: int, vn: int, eqs, mask: int, ones: int) -> tuple:
    """Myers' recurrence: (VP, VN) advanced one column per match vector of ``eqs``.

    Hyyrö's form of Myers' algorithm: bit i of the vectors is row i + 1 of
    the DP matrix, and each match vector, the pattern bits where the
    column's text character occurs, advances one column.  VP/VN hold the
    +1/-1 vertical deltas of the column and HP/HN the horizontal ones; row 0
    grows by one per column, the carry-in ``ones`` of HP.  Carries and
    shifts move bits only upwards, so the low m bits stay exact whatever
    lies above them.  VP is masked to the pattern bits of ``mask`` each
    column.  VN, an AND of the shifted HP and D0, needs no mask: D0's one bit
    above the pattern, the carry out of row m, needs VP's top bit set, and
    then HP's top bit is clear.  ``mask ^ x`` is ``~x`` on the pattern bits
    without making a negative int.  After n columns the bottom cell is the
    top cell, n, plus the vertical deltas of the last column.
    """
    for eq in eqs:
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | (mask ^ (d0 | vp))
        hn = vp & d0
        hp = (hp << 1) | ones
        vn = hp & d0
        vp = ((hn << 1) | (mask ^ (d0 | hp))) & mask
    return vp, vn


def _edit_distance(peq: dict, m: int, text: str) -> int:
    """Edit distance between the length-``m`` pattern of ``peq`` and ``text``, any lengths, through ``_advance``."""
    mask = (1 << m) - 1
    vp, vn = _advance(mask, 0, map(peq.get, text, repeat(0)), mask, 1)
    return len(text) + vp.bit_count() - vn.bit_count()


# pairs per pass of the lane kernel; 64 to 512 lanes ran a 6k-user sweep's closure within 10% of each other
_LANES = 256


def _byte_pattern(s: str) -> dict:
    """``_pattern`` of ``s`` with each bitmask as the little-endian bytes of a lane for ``s``."""
    width = len(s) // 8 + 1
    return {ch: mask.to_bytes(width, "little") for ch, mask in _pattern(s).items()}


def _edit_distances(lanes) -> list:
    """Edit distances of one or more (byte table, m, text) lanes, run side by side in one int.

    Each lane is the least whole number of bytes that holds m + 1 bits: one
    above its pattern takes the carry out of row m, so no sum carries into
    the next lane.  Each column is one ``_advance`` step on all lanes at
    once, with ``mask`` the lanes' pattern bits and ``ones`` their row-0
    carry-ins.  The only bit that leaves a lane is that carry, passed on to
    HP and shifted up: where m + 1 bits fill the lane it lands on the next
    lane's carry-in, which is set anyway.  A column's match vector joins the
    lanes' byte tables, zero bytes past a text's end, so a lane runs on
    after its text.  The recurrence runs up to each distinct text length in
    turn, and the lanes whose texts end there are read, each from its own
    bytes.  Returns the distances in lane order.
    """
    tables, lengths, texts = zip(*lanes)
    widths = [m // 8 + 1 for m in lengths]
    zeros = [bytes(width) for width in widths]
    offsets = list(accumulate(widths, initial=0))
    mask = int.from_bytes(b"".join(((1 << m) - 1).to_bytes(w, "little") for m, w in zip(lengths, widths)), "little")
    ones = int.from_bytes(b"".join(b"\1".ljust(width, b"\0") for width in widths), "little")
    ends = {}
    for k, text in enumerate(texts):
        ends.setdefault(len(text), []).append(k)
    columns = zip_longest(*texts)
    distances = [0] * len(texts)
    vp, vn, done = mask, 0, 0
    for n in sorted(ends):
        joined = (b"".join(map(dict.get, tables, column, zeros)) for column in islice(columns, n - done))
        vp, vn = _advance(vp, vn, map(int.from_bytes, joined, repeat("little")), mask, ones)
        done = n
        vps, vns = vp.to_bytes(offsets[-1], "little"), vn.to_bytes(offsets[-1], "little")
        for k in ends[n]:
            lane = slice(offsets[k], offsets[k + 1])
            up, down = int.from_bytes(vps[lane], "little"), int.from_bytes(vns[lane], "little")
            distances[k] = n + up.bit_count() - down.bit_count()
    return distances


def _pair_test(metric: Metric, threshold: float) -> Callable[[TopicSet, TopicSet], bool]:
    """A fresh predicate of two topic sets, ``score``'s float >= ``threshold``, for one gate's pairs."""
    if metric is Metric.LEVENSHTEIN:
        return _levenshtein_test(threshold)
    scorer = _SHAPE_SCORES[metric]
    # an undefined shape raises on every pair and is never stored
    decided = {}

    def test(a: TopicSet, b: TopicSet) -> bool:
        shape = (len(a & b), len(a), len(b))
        passed = decided.get(shape)
        if passed is None:
            passed = decided[shape] = scorer(*shape) >= threshold
        return passed

    return test


def _levenshtein_test(threshold: float) -> Callable[[TopicSet, TopicSet], bool]:
    """The Levenshtein predicate for the many pairs of one gate.

    The length difference bounds the distance from below (Ukkonen 1985), so
    a pair it already fails skips the kernel.  A gate checks a source's
    followers back to back, so the first set's pattern table is kept until
    the kernel runs on another first set.
    """
    canonical = cache(canonical_topic_string)
    source = peq = None

    def test(a: TopicSet, b: TopicSet) -> bool:
        nonlocal source, peq
        first, text = canonical(a), canonical(b)
        m, n = len(first), len(text)
        if not _within_length_bound(m, n, threshold):
            return False
        if a is not source:
            source, peq = a, _pattern(first)
        return _levenshtein_similarity(_edit_distance(peq, m, text), m, n) >= threshold

    return test


def _levenshtein_levels(threshold: float) -> Callable[[], Callable[[list], list]]:
    """The Levenshtein predicate for batches of pairs, one level of a closure at a time.

    ``level()`` returns ``test(pairs)``, the list of decisions for a list of
    (a, b) topic-set pairs; each decision equals ``_levenshtein_test``'s.  A
    pair that the length bound fails skips the kernel.  The rest run through
    ``_edit_distances``, ``_LANES`` at a time and longest text first, so a
    pass holds texts of about one length; the first set's string is the
    pattern.  A level builds each pattern's byte table once, and canonical
    strings are kept for the predicate's lifetime.
    """
    canonical = cache(canonical_topic_string)

    def level() -> Callable[[list], list]:
        tables = {}

        def test(pairs) -> list:
            passed = [False] * len(pairs)
            lanes = []
            for k, (a, b) in enumerate(pairs):
                first, text = canonical(a), canonical(b)
                m, n = len(first), len(text)
                if not _within_length_bound(m, n, threshold):
                    continue
                table = tables.get(first)
                if table is None:
                    table = tables[first] = _byte_pattern(first)
                lanes.append((n, k, table, m, text))
            lanes.sort(key=itemgetter(0), reverse=True)
            for start in range(0, len(lanes), _LANES):
                chunk = lanes[start : start + _LANES]
                for (n, k, _, m, _), distance in zip(chunk, _edit_distances([lane[2:] for lane in chunk])):
                    passed[k] = _levenshtein_similarity(distance, m, n) >= threshold
            return passed

        return test

    return level


# every metric but Levenshtein, as a function of the overlap shape (k, na, nb)
_SHAPE_SCORES = {
    Metric.COSINE: _cosine,
    Metric.PEARSON: _pearson,
    Metric.JACCARD_SET: _jaccard,
    Metric.JACCARD_VECTOR: _jaccard,
    Metric.DICE: _dice,
    Metric.AVERAGE: _average,
}


def score(metric: Metric, a, b) -> float:
    """Similarity between two topic carriers (user profiles or rumor content).

    ``a`` and ``b`` only need a ``topics`` attribute.  Levenshtein compares
    the canonical serialized strings; every other metric is a function of the
    overlap shape, blind to label names.  Pearson raises UndefinedCorrelationError
    where the union has under two labels or a binary term vector is constant.
    """
    a, b = a.topics, b.topics
    if metric is Metric.LEVENSHTEIN:
        return levenshtein(canonical_topic_string(a), canonical_topic_string(b))[1]
    return _SHAPE_SCORES[metric](len(a & b), len(a), len(b))
