"""Seeded, stdlib-only input generator for the rumorsim benchmark.

Two graph families:

* ``er``: uniform random directed edges (Erdos-Renyi G(n, m)).
* ``ba``: preferential attachment (Barabasi & Albert 1999).  Each new user
  links to ``m // n`` earlier users chosen with probability proportional to
  degree + 1, and each link points either way with equal odds, so both in-
  and out-degree get the heavy tail that makes hub rechecks expensive.

Profiles carry 1-8 topics drawn from a fixed 200-label vocabulary of
word-like labels with Zipf-skewed popularity.  Word-like labels matter: with
``t000``-style labels, two topic strings share long runs of the same
characters and Levenshtein similarity is inflated, which changes how much of
the graph the levenshtein gate admits and so what the sweep costs.

Everything derives from the seed passed in; the program under test only ever
sees the files written here.
"""

from __future__ import annotations

import bisect
import itertools
import random
from pathlib import Path

MAX_TIME = 1296
VOCAB_SIZE = 200
INITIALS = 20
# the vocabulary is part of the workload definition, not of the seed
_VOCAB_SEED = 20040170
_ONSETS = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w",
           "br", "ch", "cl", "dr", "gr", "pl", "sh", "st", "tr"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
_CODAS = ["", "", "", "n", "r", "s", "l", "t", "m"]


def vocabulary() -> list:
    """200 distinct pseudo-words of 2-3 syllables, most popular first."""
    rng = random.Random(_VOCAB_SEED)
    words = []
    seen = set()
    while len(words) < VOCAB_SIZE:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.randint(2, 3))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def er_edges(rng: random.Random, n: int, m: int) -> list:
    edges = set()
    while len(edges) < m:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def ba_edges(rng: random.Random, n: int, m: int) -> list:
    k = max(1, m // n)
    edges = set()
    # every endpoint of every link, plus each user once: sampling from this
    # list picks a user with probability proportional to degree + 1
    pool = list(range(k + 1))
    for v in range(k + 1):
        for u in range(v):
            edges.add((u, v) if rng.random() < 0.5 else (v, u))
            pool += (u, v)
    for v in range(k + 1, n):
        targets = set()
        while len(targets) < k:
            targets.add(pool[rng.randrange(len(pool))])
        for t in sorted(targets):
            edges.add((t, v) if rng.random() < 0.5 else (v, t))
            pool += (t, v)
        pool.append(v)
    return sorted(edges)


def profiles(rng: random.Random, n: int, vocab: list) -> list:
    """(user_id, topics, created_at, is_diffuser) rows for users 0..n-1."""
    cum = list(itertools.accumulate(1.0 / rank for rank in range(1, len(vocab) + 1)))
    total = cum[-1]
    rows = []
    for uid in range(n):
        want = rng.randint(1, 8)
        topics = set()
        while len(topics) < want:
            topics.add(vocab[bisect.bisect(cum, rng.random() * total)])
        created_at = rng.randrange(MAX_TIME)
        rows.append((uid, sorted(topics), created_at, rng.random() < 0.3))
    return rows


def generate(out_dir, family: str, n: int, m: int, seed: int) -> dict:
    """Write edges.csv and users.csv under ``out_dir``; return a description.

    The description holds the seeded initials and the input sizes the
    benchmark records: users, edges, mean and max in-degree.
    """
    rng = random.Random(f"{family}:{n}:{m}:{seed}")
    make = {"er": er_edges, "ba": ba_edges}[family]
    edges = make(rng, n, m)
    rows = profiles(rng, n, vocabulary())
    chosen = sorted(rng.sample(range(n), INITIALS))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "edges.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("from_user_id,to_user_id\n")
        fh.writelines(f"{a},{b}\n" for a, b in edges)
    with open(out / "users.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("user_id,topics,created_at,is_diffuser\n")
        fh.writelines(
            f'{uid},"{",".join(topics)}",{created_at},{int(flag)}\n'
            for uid, topics, created_at, flag in rows
        )
    indeg = [0] * n
    for _, b in edges:
        indeg[b] += 1
    return {
        "family": family,
        "users": n,
        "edges": len(edges),
        "mean_in_degree": len(edges) / n,
        "max_in_degree": max(indeg),
        "initials": chosen,
    }
