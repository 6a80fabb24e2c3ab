"""Stochastic models against their exact laws, on fixed seeds.

The IC and SIR tests run many seeded trials and compare the observed
frequencies with probabilities computed exactly from the model's
definition; the belief-process tests check its edge picks against the
uniform law and its beliefs against the mean it keeps and the value it
converges to.  Every seed is fixed, so each test passes or fails the same
way on every run.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from itertools import compress, product

import pytest

from helpers import bfs_reachable, in_adjacency, random_digraph
from rumorsim import (
    AgentKind,
    BeliefState,
    EdgeProbability,
    EpidemicState,
    RngStream,
    SirParams,
    SocialGraph,
    run_belief_process,
)
from rumorsim.diffusion import IcRun, SirRun

S = EpidemicState.SUSCEPTIBLE
I = EpidemicState.INFECTED
R = EpidemicState.RECOVERED

# |z| beyond this on any node is a failure; over a few dozen fixed-seed
# comparisons a correct model stays well inside it
Z_BOUND = 4.5


def live_edge_probabilities(graph, initials, probs):
    """Each node's exact IC activation probability, by enumerating live-edge graphs.

    IC activates exactly the nodes reachable from the initials when each edge
    is kept, independently, with its probability (Kempe, Kleinberg & Tardos 2003).
    """
    edges = sorted(graph.edges)
    weights = [probs.get(edge) for edge in edges]
    exact = dict.fromkeys(graph.nodes, 0.0)
    for live in product((False, True), repeat=len(edges)):
        weight = math.prod(p if kept else 1.0 - p for p, kept in zip(weights, live))
        for u in bfs_reachable(initials, compress(edges, live)):
            exact[u] += weight
    return exact


def ic_frequencies(graph, initials, probs, seed, trials):
    """Each node's share of ``trials`` IC runs that end with it activated."""
    hits = dict.fromkeys(graph.nodes, 0)
    base = RngStream(seed)
    for k in range(trials):
        states = {u: I if u in initials else S for u in graph.nodes}
        run = IcRun(graph, states, probs, base.derive(k))
        while run.next_step is not None:
            run.step()
        for u in run.reached:
            hits[u] += 1
    return {u: count / trials for u, count in hits.items()}


IC_CASES = {
    # a 3-cycle feeding a tail that leads back into the cycle
    "cycle": (
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 1), (2, 4)],
        (0,),
        EdgeProbability(0.35, {(1, 2): 0.8, (3, 4): 0.1, (4, 1): 0.6}),
    ),
    # two seeds, a 2-cycle, a node reached only through a certain edge and
    # one behind an edge that never fires: 12 edges, 4096 live-edge graphs
    "overrides": (
        [(0, 2), (1, 2), (2, 3), (3, 2), (2, 4), (3, 5), (4, 5), (5, 6), (6, 4), (1, 6), (6, 7), (7, 8)],
        (0, 1),
        EdgeProbability(0.3, {(0, 2): 0.9, (3, 2): 0.5, (1, 6): 0.05, (6, 7): 1.0, (7, 8): 0.0}),
    ),
}


@pytest.mark.parametrize("name", sorted(IC_CASES))
def test_ic_activation_follows_the_live_edge_law(name):
    edges, initials, probs = IC_CASES[name]
    graph = SocialGraph(edges)
    trials = 20000
    exact = live_edge_probabilities(graph, initials, probs)
    observed = ic_frequencies(graph, initials, probs, seed=2003, trials=trials)
    for u in sorted(graph.nodes):
        p = exact[u]
        if p < 1e-12 or p > 1 - 1e-12:
            # certain outcomes hold in every trial
            assert observed[u] == round(p), (u, observed[u], p)
            continue
        z = (observed[u] - p) / math.sqrt(p * (1 - p) / trials)
        assert abs(z) <= Z_BOUND, (u, observed[u], p, z)


def sir_final_sizes(graph, initials, params):
    """The exact distribution of SIR's final size, by running its chain over the 3^n states.

    In one step each infected node recovers with probability gamma, and each
    susceptible node with k infected in-neighbours is infected with
    probability 1 - (1 - beta)^k, all independently given the states at the
    start of the step.  The chain runs until the mass of states with an
    infected node is negligible; the final size is the number of nodes
    that left the susceptible state.
    """
    nodes = sorted(graph.nodes)
    in_adj = in_adjacency(graph)
    sources = [[nodes.index(a) for a in in_adj[u]] for u in nodes]
    beta, gamma = params.beta, params.gamma
    live = {tuple(I if u in initials else S for u in nodes): 1.0}
    final = defaultdict(float)
    while sum(live.values()) > 1e-13:
        after = defaultdict(float)
        for state, weight in live.items():
            if I not in state:
                final[sum(s is not S for s in state)] += weight
                continue
            options = []
            for v, s in enumerate(state):
                if s is I:
                    moves = ((R, gamma), (I, 1 - gamma))
                elif s is S:
                    hit = 1 - (1 - beta) ** sum(state[a] is I for a in sources[v])
                    moves = ((I, hit), (S, 1 - hit))
                else:
                    moves = ((R, 1.0),)
                options.append([move for move in moves if move[1] > 0])
            for outcome in product(*options):
                after[tuple(s for s, _ in outcome)] += weight * math.prod(q for _, q in outcome)
        live = after
    return final


def sir_final_size_counts(graph, initials, params, seed, trials):
    """How many of ``trials`` seeded SIR runs end with each final size."""
    counts = Counter()
    base = RngStream(seed)
    for k in range(trials):
        run = SirRun(graph, {u: I if u in initials else S for u in graph.nodes}, params, base.derive(k))
        while run.next_step is not None:
            run.step()
        counts[len(run.reached)] += 1
    return counts


SIR_CASES = {
    # two seeds share their followers, so nodes 2 and 3 start with two
    # infected in-neighbours and node 4 can meet two at once later
    "shared followers": ([(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4), (4, 1)], (0, 1), SirParams(0.3, 0.4)),
    # one seed on a 4-cycle with a chord back into it, and a node no edge reaches
    "cycle": ([(0, 1), (1, 2), (2, 3), (3, 0), (2, 0)], (0,), SirParams(0.5, 0.25)),
}


@pytest.mark.parametrize("name", sorted(SIR_CASES))
def test_sir_final_size_follows_the_exact_chain(name):
    edges, initials, params = SIR_CASES[name]
    graph = SocialGraph(edges, nodes=range(5))
    trials = 6000
    exact = sir_final_sizes(graph, initials, params)
    assert math.isclose(math.fsum(exact.values()), 1.0, abs_tol=1e-12)
    observed = sir_final_size_counts(graph, initials, params, seed=1927, trials=trials)
    assert set(observed) <= set(exact)
    for size in range(len(graph.nodes) + 1):
        p = exact.get(size, 0.0)
        if p < 1e-12 or p > 1 - 1e-12:
            assert observed[size] == round(p) * trials, (size, observed[size], p)
            continue
        z = (observed[size] / trials - p) / math.sqrt(p * (1 - p) / trials)
        assert abs(z) <= Z_BOUND, (size, observed[size], p, z)


def belief_state(beliefs, forceful=(), epsilon=0.5):
    kinds = {u: AgentKind.FORCEFUL if u in forceful else AgentKind.REGULAR for u in beliefs}
    return BeliefState(beliefs, kinds, epsilon)


# no two users share two edges, so the two users an exchange moves name its
# edge; the last edge in ascending order is the only one into user 10
BELIEF_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 7), (5, 8), (6, 8), (7, 8), (8, 9), (9, 10)]

# the 0.999 quantile of the chi-square law with len(BELIEF_EDGES) - 1 = 11 degrees of freedom
CHI2_11_Q999 = 31.264


def test_belief_edge_picks_are_uniform():
    graph = SocialGraph(BELIEF_EDGES)
    init = belief_state({u: u / 16 for u in graph.nodes})
    rng = RngStream(2010)
    picks = Counter()
    draws = 6000
    for _ in range(draws):
        # one exchange per call, every call drawing from the same stream
        final, _ = run_belief_process(graph, init, 1, rng)
        picks[tuple(sorted(u for u in graph.nodes if final.beliefs[u] != init.beliefs[u]))] += 1
    assert sorted(picks) == BELIEF_EDGES
    expected = draws / len(BELIEF_EDGES)
    chi2 = math.fsum((picks[edge] - expected) ** 2 / expected for edge in BELIEF_EDGES)
    assert chi2 <= CHI2_11_Q999, (chi2, picks)


def test_all_regular_mean_belief_stays_at_its_initial_value():
    rng = random.Random(2011)
    graph = random_digraph(rng, 40, 0.1)
    init = belief_state({u: rng.random() for u in sorted(graph.nodes)})
    _, trace = run_belief_process(graph, init, 5000, RngStream(2012))
    # two regular users move to their average, which keeps the sum up to rounding
    assert max(abs(mean - trace[0]) for mean in trace) <= 1e-12


def test_regular_beliefs_converge_to_the_one_forceful_agent():
    # a ring with edges both ways: connected, and user 1 meets regular users
    # on either end of its edges
    n = 10
    graph = SocialGraph([(u, u % n + 1) for u in range(1, n + 1)] + [(u % n + 1, u) for u in range(1, n + 1)])
    rng = random.Random(2013)
    beliefs = {u: rng.random() for u in range(1, n + 1)}
    beliefs[1] = 0.9
    final, _ = run_belief_process(graph, belief_state(beliefs, forceful={1}), 20000, RngStream(2014))
    assert final.beliefs[1] == 0.9
    assert max(abs(belief - 0.9) for belief in final.beliefs.values()) <= 1e-9
