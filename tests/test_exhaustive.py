"""Bounded-exhaustive checks: every case of a 3-user scope against its reference.

Most scheduler and closure bugs show on some small input (Jackson's
small-scope hypothesis, *Software Abstractions*, 2006), so instead of
sampling large random graphs these tests enumerate a small scope whole:
every digraph on users 1, 2 and 3 (64 of them) and every non-empty seed set
(7).  The gated runs and the closures also take every decision table over
the graph's edges, so the gate may be any predicate at all: 729 graph and
table pairs.
"""

from __future__ import annotations

import random
from itertools import chain, combinations, permutations, product
from pathlib import Path

from helpers import pull_gated_run, recorded, shuffled_closure, stepwise_classical_run
from rumorsim import ModelKind, SimilarityGate, SimulationConfig, SocialGraph, UserProfile, run_simulation
from rumorsim.gated import GatedRun, _diffuse, _diffuse_in_rounds, admission_test

USERS = (1, 2, 3)


def subsets(items):
    return chain.from_iterable(combinations(items, size) for size in range(len(items) + 1))


GRAPHS = [SocialGraph(edges, nodes=USERS) for edges in subsets(list(permutations(USERS, 2)))]
SEED_SETS = [seeds for seeds in subsets(USERS) if seeds]


def tables(graph):
    """Every decision table over ``graph``'s edges: each edge to pass or fail."""
    edges = sorted(graph.edges)
    return [dict(zip(edges, passes)) for passes in product((False, True), repeat=len(edges))]


# with max_time 2: no profile, a step before 0, each step of the run, and one past the horizon
MAX_TIME = 2
CREATED_AT = (None, -1, 0, 1, 2, 3)
PROFILES = {(u, c): UserProfile(u, frozenset(), c, False) for u in USERS for c in CREATED_AT}


def test_gated_run_equals_the_pull_reference():
    """``GatedRun`` against ``pull_gated_run``: changes, ``clamped`` and every admit call in order.

    Each non-seed user takes every created_at in ``CREATED_AT``, None for
    no profile; a seed's created_at is never read, so the seeds keep 0.
    Both schedulers run until no event is left, so the rechecks admitted at
    max_time, which the simulation driver cuts off, are compared too.
    """
    runs = 0
    for graph in GRAPHS:
        for table in tables(graph):
            admit = admission_test(None, None, SimilarityGate(decisions=table), set())
            for seeds in SEED_SETS:
                rest = [u for u in USERS if u not in seeds]
                for created in product(CREATED_AT, repeat=len(rest)):
                    profiles = {u: PROFILES[u, 0] for u in seeds}
                    profiles.update((u, PROFILES[u, c]) for u, c in zip(rest, created) if c is not None)
                    for every_step in (False, True):
                        pushed, pulled = [], []
                        run = GatedRun(graph, profiles, seeds, recorded(admit, pushed), MAX_TIME, every_step)
                        changes = {}
                        while run.next_step is not None:
                            t = run.next_step
                            if delta := run.step():
                                changes[t] = delta
                        reference = pull_gated_run(
                            graph, profiles, seeds, recorded(admit, pulled), MAX_TIME, every_step
                        )
                        assert (changes, run.clamped) == reference, (sorted(table.items()), seeds, created)
                        assert pushed == pulled, (sorted(table.items()), seeds, created)
                        runs += 1
    assert runs == 729 * 2 * (3 * 6**2 + 3 * 6 + 1)


def test_closure_engines_equal_each_other_and_the_fixpoint():
    """The queue loop in ``_diffuse`` and ``_diffuse_in_rounds``, one table behind both: members and log.

    Both members equal the fixpoint of ``shuffled_closure``, and the log
    lists each member once, the seeds first in ascending id.
    """
    shuffler = random.Random(2100)
    closures = 0
    for graph in GRAPHS:
        for table in tables(graph):
            admit = table.get

            def level():
                return lambda pairs: [admit(pair, False) for pair in pairs]

            for seeds in SEED_SETS:
                queued = _diffuse(graph, None, None, seeds, SimilarityGate(decisions=table))
                log, members = sorted(seeds), set(seeds)
                _diffuse_in_rounds(graph, level, log, members)
                assert (members, log) == (queued.members, queued.insertion_log), (sorted(table.items()), seeds)
                fixpoint = shuffled_closure(graph, seeds, lambda i, j: admit((i, j), False), shuffler)
                assert members == fixpoint == set(log)
                assert len(log) == len(members) and log[: len(seeds)] == list(seeds)
                closures += 1
    assert closures == 729 * 7


def test_tipping_run_equals_the_full_sweep_reference():
    """The tipping run against ``stepwise_classical_run``: changes, counts and final states."""
    for graph in GRAPHS:
        for seeds in SEED_SETS:
            for theta in (0.0, 1 / 3, 1 / 2, 2 / 3, 1.0):
                cfg = SimulationConfig(
                    Path("e"), Path("u"), max_time=4, model=ModelKind.TIPPING, theta=theta, initials=seeds
                )
                trace = run_simulation(cfg, graph)
                reference = stepwise_classical_run(cfg, graph, random.Random(0))
                assert (trace.changes, trace.counts, trace.final_states) == reference, (graph.edges, seeds, theta)
