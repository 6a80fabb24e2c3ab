"""Bounded-exhaustive checks: every case of a small scope against its reference.

Most scheduler and closure bugs show on some small input (Jackson's
small-scope hypothesis, *Software Abstractions*, 2006), so instead of
sampling large random graphs these tests enumerate a small scope whole:
every digraph on users 1, 2 and 3 (64 of them) and every non-empty seed set
(7).  The gated runs and the closures also take every decision table over
the graph's edges, so the gate may be any predicate at all: 729 graph and
table pairs.  The SIR and IC runs take every script of draws over a hit
and a draw of exactly the probability, so the stream may be any outcome
sequence (VeriSoft's choice points, Godefroid, POPL 1997).  The classical
models whose every draw hits spread by BFS levels alike, so their curves
are checked against each other on every case.  A live gate's closure is
checked at every threshold where its member set can change, against the
bottleneck-path law.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate, chain, combinations, permutations, product
from pathlib import Path

from helpers import (
    VOCAB,
    ScriptedStream,
    bfs_levels,
    bottleneck_levels,
    every_script,
    every_step_law,
    oracle_corpus,
    pull_gated_run,
    random_digraph,
    recorded,
    shuffled_closure,
    stepwise_classical_run,
)
from rumorsim import (
    Metric,
    ModelKind,
    RumorContent,
    SimilarityGate,
    SimulationConfig,
    SocialGraph,
    UserProfile,
    run_simulation,
    run_trials,
)
from rumorsim.gated import GatedRun, _diffuse, _diffuse_in_rounds, admission_test, filtered_edge_set

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
# a horizon no chain of next-step activations outruns, for created_at in 0..3
LONG_CREATED_AT = (None, 0, 1, 2, 3)
LONG_MAX_TIME = 3 + len(USERS)
PROFILES = {(u, c): UserProfile(u, frozenset(), c, False) for u in USERS for c in CREATED_AT}


def timed_cases(created_at_values):
    """Every (graph, gate, seeds, profiles) case: each table's gate, each non-seed user at each created_at.

    None stands for no profile; a seed's created_at is never read, so the
    seeds keep 0.
    """
    pairs = []
    for seeds in SEED_SETS:
        rest = [u for u in USERS if u not in seeds]
        for created in product(created_at_values, repeat=len(rest)):
            profiles = {u: PROFILES[u, 0] for u in seeds}
            profiles.update((u, PROFILES[u, c]) for u, c in zip(rest, created) if c is not None)
            pairs.append((seeds, profiles))
    for graph in GRAPHS:
        for table in tables(graph):
            gate = SimilarityGate(decisions=table)
            for seeds, profiles in pairs:
                yield graph, gate, seeds, profiles


def activation_steps(run, seeds, max_time=None):
    """Each user ``run`` activates to its step, the seeds at 0: up to max_time, or until no event is left."""
    steps = dict.fromkeys(seeds, 0)
    while run.next_step is not None and (max_time is None or run.next_step <= max_time):
        t = run.next_step
        steps.update((u, t) for u, _ in run.step())
    return steps


def test_gated_run_equals_the_pull_reference():
    """``GatedRun`` against ``pull_gated_run``: changes, ``clamped`` and every admit call in order.

    Both schedulers run until no event is left, so the rechecks admitted at
    max_time, which the simulation driver cuts off, are compared too.
    """
    runs = 0
    for graph, gate, seeds, profiles in timed_cases(CREATED_AT):
        admit = admission_test(None, None, gate)
        for every_step in (False, True):
            pushed, pulled = [], []
            run = GatedRun(graph, profiles, seeds, recorded(admit, pushed), MAX_TIME, every_step)
            changes = {}
            while run.next_step is not None:
                t = run.next_step
                if delta := run.step():
                    changes[t] = delta
            reference = pull_gated_run(graph, profiles, seeds, recorded(admit, pulled), MAX_TIME, every_step)
            assert (changes, run.clamped) == reference, (sorted(gate.decisions.items()), seeds, profiles)
            assert pushed == pulled, (sorted(gate.decisions.items()), seeds, profiles)
            runs += 1
    assert runs == 729 * 2 * (3 * 6**2 + 3 * 6 + 1)


def test_every_step_activates_at_the_law_step():
    """An every-step ``GatedRun`` activates each user at ``every_step_law``'s step, and no other user.

    A user without a profile, or with created_at before 0 or past
    MAX_TIME, never activates.  The run goes on until no event is left, so
    a recheck admitted at MAX_TIME is checked too.
    """
    runs = 0
    for graph, gate, seeds, profiles in timed_cases(CREATED_AT):
        admit = admission_test(profiles, None, gate)
        steps = activation_steps(GatedRun(graph, profiles, seeds, admit, MAX_TIME, True), seeds)
        law = every_step_law(graph, profiles, seeds, lambda i, j: gate.decisions.get((i, j), False), MAX_TIME)
        assert steps == law, (sorted(gate.decisions.items()), seeds, profiles)
        runs += 1
    assert runs == 729 * (3 * 6**2 + 3 * 6 + 1)


def test_every_step_at_a_long_horizon_reaches_the_closure():
    """Every-step's final set at a long horizon equals the closure's members, one table behind both.

    Users without a profile take part, and neither form admits them.
    """
    runs = 0
    for graph, gate, seeds, profiles in timed_cases(LONG_CREATED_AT):
        run = GatedRun(graph, profiles, seeds, admission_test(profiles, None, gate), LONG_MAX_TIME, True)
        final = activation_steps(run, seeds, LONG_MAX_TIME).keys()
        closure = _diffuse(graph, profiles, None, seeds, gate)
        assert final == closure.members, (sorted(gate.decisions.items()), seeds, profiles)
        runs += 1
    assert runs == 729 * (3 * 5**2 + 3 * 5 + 1)


def test_once_reaches_a_subset_of_every_step():
    """Each user a ``once`` run activates, an every-step run activates at the same step, up to MAX_TIME."""
    runs = 0
    for graph, gate, seeds, profiles in timed_cases(CREATED_AT):
        admit = admission_test(profiles, None, gate)
        once = activation_steps(GatedRun(graph, profiles, seeds, admit, MAX_TIME, False), seeds, MAX_TIME)
        every = activation_steps(GatedRun(graph, profiles, seeds, admit, MAX_TIME, True), seeds, MAX_TIME)
        assert once.items() <= every.items(), (sorted(gate.decisions.items()), seeds, profiles)
        runs += 1
    assert runs == 729 * (3 * 6**2 + 3 * 6 + 1)


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


def test_closure_engines_order_a_level_alike_on_four_users():
    """Seeds 1 and 2 over followers 3 and 4: the two closure engines give the same members and log.

    A level's admissions are ordered by admitting source, then follower, so
    the order shows only with two sources and two followers.  The scope is
    every subset of the four seed-to-follower edges and every table over
    it: 81 cases.
    """
    cases = 0
    for edges in subsets([(1, 3), (1, 4), (2, 3), (2, 4)]):
        graph = SocialGraph(edges, nodes=(1, 2, 3, 4))
        for table in tables(graph):

            def level():
                return lambda pairs: [table.get(pair, False) for pair in pairs]

            queued = _diffuse(graph, None, None, (1, 2), SimilarityGate(decisions=table))
            log, members = [1, 2], {1, 2}
            _diffuse_in_rounds(graph, level, log, members)
            assert (members, log) == (queued.members, queued.insertion_log), sorted(table.items())
            cases += 1
    assert cases == 81


def law_cases():
    """(graph, profiles, rumor, seeds): every 3-user case, then a random corpus.

    A 3-user case draws its topics and the rumor's from four labels, so many
    scores tie, and leaves a non-seed user without a profile one time in four.
    """
    rng = random.Random(3200)
    labels = VOCAB[:4]
    for graph in GRAPHS:
        for seeds in SEED_SETS:
            profiled = [u for u in USERS if u in seeds or rng.random() < 0.75]
            profiles = {u: UserProfile(u, frozenset(rng.sample(labels, rng.randint(0, 3))), 0, False) for u in profiled}
            yield graph, profiles, RumorContent(frozenset(rng.sample(labels, rng.randint(0, 3)))), seeds
    rumor = RumorContent(frozenset({"t00", "t07", "t13", "t21"}))
    for graph, profiles, initials in oracle_corpus(seed=5, count=60, max_nodes=40):
        yield graph, profiles, rumor, initials


def test_every_closure_engine_cuts_at_every_bottleneck_level():
    """A closure at threshold tau holds exactly the users u with ``bottleneck_levels`` b(u) >= tau.

    Checked at every finite b level, where some edge scores exactly tau,
    and at 0 and 1, for every metric but Pearson under both gated models.
    The engines are ``_diffuse`` (the queue loop, or the Levenshtein rounds
    with the lane kernel), ``_diffuse_in_rounds`` over the one-pair test,
    and the queue loop over a decisions table of the edges the gate passes.
    """
    closures = 0
    for graph, profiles, rumor, seeds in law_cases():
        for content in (None, rumor):
            for metric in Metric:
                if metric is Metric.PEARSON:
                    continue
                levels = bottleneck_levels(graph, profiles, content, seeds, metric)
                for tau in sorted({b for b in levels.values() if b < math.inf} | {0.0, 1.0}):
                    law = {u for u, b in levels.items() if b >= tau}
                    gate = SimilarityGate(metric, tau)
                    admit = admission_test(profiles, content, gate)
                    log, members = sorted(set(seeds)), set(seeds)
                    _diffuse_in_rounds(graph, lambda: lambda pairs: [admit(i, j) for i, j in pairs], log, members)
                    passing = filtered_edge_set(graph, profiles, content, gate)
                    table = SimilarityGate(decisions=dict.fromkeys(passing, True))
                    engines = (
                        _diffuse(graph, profiles, content, seeds, gate).members,
                        members,
                        _diffuse(graph, profiles, content, seeds, table).members,
                    )
                    assert engines == (law,) * 3, (sorted(graph.edges), profiles, content, seeds, metric, tau)
                    closures += 1
    assert closures == 13791


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


def scripted_runs_equal_the_reference(model, max_time, p, **params) -> int:
    """``model``'s run against ``stepwise_classical_run`` under every script of draws 0.0 and ``p``.

    0.0 is a hit; ``p``, exactly each probability the run draws against, is
    a miss, which a test ``draw() <= p`` would take for a hit.  Compares
    changes, counts, final states and the draws taken, on every graph and
    seed set; returns the number of scripts.
    """
    scripts = 0
    for graph in GRAPHS:
        for seeds in SEED_SETS:
            cfg = SimulationConfig(Path("e"), Path("u"), max_time=max_time, model=model, initials=seeds, **params)

            def run(stream):
                trace = run_simulation(cfg, graph, rng=stream)
                return trace.changes, trace.counts, trace.final_states

            for script, result in every_script(run, (0.0, p)):
                stream = ScriptedStream(script, p)
                reference = stepwise_classical_run(cfg, graph, stream)
                assert (reference, stream.drawn) == (result, len(script)), (sorted(graph.edges), seeds, script)
                scripts += 1
    return scripts


def test_sir_run_equals_the_full_sweep_reference_on_every_script():
    """SIR with beta = gamma, so each boundary draw is exactly the probability of either draw."""
    assert scripted_runs_equal_the_reference(ModelKind.SIR, 2, 0.5, beta=0.5, gamma=0.5) == 13056


def test_ic_run_equals_the_full_sweep_reference_on_every_script():
    assert scripted_runs_equal_the_reference(ModelKind.IC, 3, 0.5, ic_default_p=0.5) == 3423


# the classical models, each at the parameters under which every draw hits
CERTAIN_SPREAD = {
    ModelKind.IC: {"ic_default_p": 1.0},
    ModelKind.SIR: {"beta": 1.0, "gamma": 1.0},
    ModelKind.TIPPING: {"theta": 0.0},
}


def test_certain_spread_curves_are_equal_on_every_case():
    """IC with p 1, SIR with beta = gamma = 1 and tipping with theta 0 give equal counts at every step.

    Each activates a user one step after its first active in-neighbour, so
    ``counts[t]`` is the number of users within t hops of the seeds.  Every
    3-user case runs through ``run_trials``, and so does a seeded sample of
    4- and 5-user graphs, each with one to three seeds.
    """
    max_time = 5
    rng = random.Random(2028)
    sample = []
    for n in (4, 5):
        for _ in range(100):
            graph = random_digraph(rng, n, 0.35)
            sample.append((graph, tuple(rng.sample(range(1, n + 1), rng.randint(1, 3)))))
    cases = list(product(GRAPHS, SEED_SETS)) + sample
    for graph, seeds in cases:
        levels = bfs_levels(seeds, graph.edges)
        hops = list(accumulate(len(levels[t]) if t < len(levels) else 0 for t in range(max_time + 1)))
        for model, params in CERTAIN_SPREAD.items():
            cfg = SimulationConfig(Path("e"), Path("u"), max_time=max_time, model=model, initials=seeds, **params)
            traces, aggregate = run_trials(cfg, graph)
            assert [trace.counts for trace in traces] == [hops] * cfg.trials, (model, sorted(graph.edges), seeds)
            assert aggregate == hops
    assert len(cases) == 448 + 200
