"""Classical diffusion dynamics: SIR, threshold adoption, independent cascade,
and pairwise belief exchange between regular and forceful agents.

Steps are synchronous: every transition in one step is decided from the
states at the start of that step.  Influence travels along edge direction,
so a node is exposed through its in-neighbors.  ``SirRun``, ``IcRun`` and
``TippingRun`` serve the run protocol of ``simulate``: ``step()`` touches
only the run's frontier (infected and exposed nodes, the last step's new
infections, the nodes whose adopted in-neighbor count just changed) and
returns the step's [(node, new state)] changes by ascending id, and
``next_step`` is None once that frontier is empty; they ignore created_at,
so their ``clamped`` is 0.  A run reads the states it starts from only for
users of its graph, takes a user they do not name to be in the default
state, and holds state only for the users it reached.  A node's
out-neighbors are looked up only when it changes state.  ``sir_step``,
``ic_step`` and ``tipping_step`` run one such step from a full state map
and return a new map in the same key order.
Random draws always happen in sorted node order and are never
short-circuited, which keeps the stream consumption, and therefore whole
runs, reproducible for a given seed.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from enum import Enum
from itertools import chain, repeat
from operator import itemgetter
from typing import Mapping

from .errors import ConfigurationError, UnknownUserError, _check_probability, _Checked
from .graph import SocialGraph
from .rng import RngStream


class EpidemicState(Enum):
    SUSCEPTIBLE = "susceptible"
    INFECTED = "infected"
    RECOVERED = "recovered"  # absorbing


class AdoptionState(Enum):
    NOT_ADOPTED = "not_adopted"
    ADOPTED = "adopted"  # absorbing


class AgentKind(Enum):
    REGULAR = "regular"
    FORCEFUL = "forceful"


def _require_states(graph: SocialGraph, states: Mapping, noun: str = "state") -> None:
    # users come ascending, so the user named is the smallest without an entry
    for node in graph.nodes:
        if node not in states:
            raise ConfigurationError(f"no {noun} for user {node}")


class SirParams(_Checked, namedtuple("SirParams", "beta gamma")):
    """Per-contact infection probability and per-step recovery probability."""

    __slots__ = ()

    def _check(self) -> None:
        _check_probability("beta", self.beta)
        _check_probability("gamma", self.gamma)


class TippingParams(_Checked, namedtuple("TippingParams", "theta")):
    """Adoption threshold on the fraction of adopted in-neighbors."""

    __slots__ = ()

    def _check(self) -> None:
        _check_probability("theta", self.theta)


class EdgeProbability:
    """Per-edge success probability with a default for unlisted edges."""

    def __init__(self, default: float, overrides: Mapping | None = None):
        _check_probability("default edge probability", default)
        self.default = default
        self.overrides = dict(overrides or {})
        for edge, p in self.overrides.items():
            _check_probability(f"probability for edge {edge}", p)

    def get(self, edge: tuple) -> float:
        return self.overrides.get(edge, self.default)


class SirRun:
    """SIR state advanced one synchronous step at a time over its frontier.

    Keeps the users no longer susceptible (``reached``), the infected ones
    among them, and, per exposed node, its exposure: the number of infected
    in-neighbors.  A step visits only infected and exposed nodes, in
    ascending id.  An infected node draws once against gamma; an exposed one
    draws once per infected in-neighbor against beta, every draw taken even
    after a hit, and is infected if any draw is below beta.  Every other node
    would draw nothing in a sweep over the whole graph, so the stream is
    consumed exactly as such a sweep would.
    """

    clamped = 0

    def __init__(self, graph: SocialGraph, states: Mapping, params: SirParams, rng: RngStream):
        self.graph = graph
        self.params = params
        self._draw = rng.random
        susceptible = EpidemicState.SUSCEPTIBLE
        self.reached = graph.nodes & {u for u, state in states.items() if state is not susceptible}
        self.infected = {u for u in self.reached if states[u] is EpidemicState.INFECTED}
        self.exposure = {}
        for u in self.infected:
            self._expose_followers(u, 1)
        self.next_step = 1 if self.infected else None

    def step(self) -> list:
        """Advance one step; returns the [(node, new state)] changes by ascending id."""
        reached, infected, exposure, draw = self.reached, self.infected, self.exposure, self._draw
        beta, gamma = self.params.beta, self.params.gamma
        delta = []
        for v in sorted(infected.union(exposure)):
            if v in infected:
                if draw() < gamma:
                    delta.append((v, EpidemicState.RECOVERED))
            else:
                hit = False
                for _ in range(exposure[v]):
                    if draw() < beta:
                        hit = True
                if hit:
                    delta.append((v, EpidemicState.INFECTED))
        for v, state in delta:
            if state is EpidemicState.INFECTED:
                reached.add(v)
                infected.add(v)
                del exposure[v]
            else:
                infected.remove(v)
        # exposure is recounted against the states at the end of the step
        for v, state in delta:
            self._expose_followers(v, 1 if state is EpidemicState.INFECTED else -1)
        self.next_step = self.next_step + 1 if infected else None
        return delta

    def _expose_followers(self, u, change: int) -> None:
        reached, exposure = self.reached, self.exposure
        for w in self.graph.out_neighbors(u):
            if w not in reached:
                count = exposure.get(w, 0) + change
                if count:
                    exposure[w] = count
                else:
                    del exposure[w]


class IcRun:
    """Independent-cascade state advanced one step at a time over its frontier.

    Keeps the users no longer susceptible (``reached``) and the spreaders,
    those infected at the start of the next step.  Only the spreaders act:
    each, in ascending id, tries its out-edges in ascending target order with
    one draw per edge, infects a target that was susceptible at the start of
    the step on success, and recovers at the end of the step.  A node spreads
    in exactly one step, so a run tries every edge at most once without
    keeping a record of tried edges.  Without per-edge overrides every draw is
    compared with the default probability, with no lookup per edge.
    """

    clamped = 0

    def __init__(self, graph: SocialGraph, states: Mapping, probs: EdgeProbability, rng: RngStream):
        self.graph = graph
        self.probs = probs
        self._draw = rng.random
        susceptible = EpidemicState.SUSCEPTIBLE
        self.reached = graph.nodes & {u for u, state in states.items() if state is not susceptible}
        self.spreaders = sorted(u for u in self.reached if states[u] is EpidemicState.INFECTED)
        self.next_step = 1 if self.spreaders else None

    def step(self) -> list:
        """Advance one step; returns the [(node, new state)] changes by ascending id."""
        reached, draw, probs, targets = self.reached, self._draw, self.probs, self.graph.out_neighbors
        hit = set()
        for node in self.spreaders:
            out = targets(node)
            edge_p = map(probs.get, zip(repeat(node), out)) if probs.overrides else repeat(probs.default)
            for target, p in zip(out, edge_p):
                if draw() < p and target not in reached:
                    hit.add(target)
        delta = [(u, EpidemicState.RECOVERED) for u in self.spreaders]
        delta.extend((u, EpidemicState.INFECTED) for u in hit)
        delta.sort(key=itemgetter(0))
        reached.update(hit)
        self.spreaders = sorted(hit)
        self.next_step = self.next_step + 1 if hit else None
        return delta


class TippingRun:
    """Threshold-adoption state advanced one step at a time over its frontier.

    Keeps the adopted users and, per node not yet adopted, its adopted
    in-neighbors, counted by pushing each adoption to the adopter's
    followers.  A step rechecks only the nodes whose count changed in the
    previous step (at first, every node with an adopted in-neighbor); any
    other node would face the same test it already failed.  The test needs
    in-degrees only, counted from the out-adjacency.
    """

    clamped = 0

    def __init__(self, graph: SocialGraph, states: Mapping, params: TippingParams):
        self.graph = graph
        self.theta = params.theta
        self.in_degree = Counter(chain.from_iterable(graph.adjacency.values()))
        self.adopted = graph.nodes & {u for u, state in states.items() if state is AdoptionState.ADOPTED}
        self.adopted_in = {}
        self.touched = set()
        self._notify_followers(self.adopted)
        self.next_step = 1 if self.touched else None

    def step(self) -> list:
        """Advance one step; returns the [(node, new state)] changes by ascending id."""
        adopted_in, in_degree, theta = self.adopted_in, self.in_degree, self.theta
        delta = []
        for v in sorted(self.touched):
            adopted = adopted_in[v]
            # the exact ratio test of a full sweep, so rounding cannot differ
            if adopted / in_degree[v] >= theta:
                delta.append((v, AdoptionState.ADOPTED))
        self.touched = set()
        self.adopted.update(v for v, _ in delta)
        self._notify_followers(v for v, _ in delta)
        self.next_step = self.next_step + 1 if self.touched else None
        return delta

    def _notify_followers(self, nodes) -> None:
        """Count each of ``nodes`` as adopted toward its followers not yet adopted."""
        adopted, adopted_in, targets = self.adopted, self.adopted_in, self.graph.out_neighbors
        count, touch = adopted_in.get, self.touched.add
        for u in nodes:
            for w in targets(u):
                if w not in adopted:
                    adopted_in[w] = count(w, 0) + 1
                    touch(w)


def sir_step(graph: SocialGraph, states: Mapping, params: SirParams, rng: RngStream) -> dict:
    """One synchronous SIR update; returns the new state map.

    A susceptible node draws one uniform per infected in-neighbor and becomes
    infected if any draw is below beta.  Every draw happens even after a hit,
    so the stream position does not depend on outcomes.  A node infected at
    the start of the step recovers with probability gamma.
    """
    _require_states(graph, states)
    return dict(states) | dict(SirRun(graph, states, params, rng).step())


def tipping_step(graph: SocialGraph, states: Mapping, params: TippingParams) -> dict:
    """One deterministic threshold update; returns the new state map.

    A node adopts when at least one in-neighbor has adopted and the adopted
    fraction of all its in-neighbors reaches theta.  Nodes with no
    in-neighbors never adopt.  Adoption is permanent.
    """
    _require_states(graph, states)
    return dict(states) | dict(TippingRun(graph, states, params).step())


def ic_step(
    graph: SocialGraph,
    states: Mapping,
    probs: EdgeProbability,
    attempted: set,
    rng: RngStream,
) -> tuple:
    """One independent-cascade step; returns (new states, new attempted set).

    Each node infected at the start of the step attempts every out-edge not
    already in ``attempted``; an attempt succeeds with the edge's probability
    and infects a susceptible target.  Attempted edges are consumed forever,
    and attempting nodes recover at the end of the step.
    """
    _require_states(graph, states)
    # the out-edges of the attempted pairs' sources, not the whole pair view
    if not attempted <= {(a, b) for a in {a for a, _ in attempted} for b in graph.adjacency.get(a, ())}:
        raise ConfigurationError("attempted set contains edges not in the graph")
    # the spreaders and their untried out-edges only: a graph of every
    # untried edge would cost a whole-graph build per step
    infected = [u for u in graph.nodes if states[u] is EpidemicState.INFECTED]
    untried = [(u, t) for u in infected for t in graph.out_neighbors(u) if (u, t) not in attempted]
    delta = IcRun(SocialGraph(untried, infected), states, probs, rng).step()
    return dict(states) | dict(delta), set(attempted).union(untried)


class BeliefState(_Checked, namedtuple("BeliefState", "beliefs kinds epsilon")):
    """Beliefs in [0, 1] per user, each user regular or forceful.

    ``epsilon`` is the weight a regular node keeps on its own belief when it
    meets a forceful one; the forceful side never moves.  A kind that is not
    an ``AgentKind`` raises ConfigurationError.
    """

    __slots__ = ()

    def _check(self) -> None:
        _check_probability("epsilon", self.epsilon)
        for uid, belief in self.beliefs.items():
            _check_probability(f"belief for user {uid}", belief)
            if uid not in self.kinds:
                raise ConfigurationError(f"no agent kind for user {uid}")
            if not isinstance(self.kinds[uid], AgentKind):
                raise ConfigurationError(
                    f"agent kind for user {uid} is not an AgentKind: {self.kinds[uid]!r}"
                )


def belief_exchange(state: BeliefState, i, j) -> BeliefState:
    """One pairwise exchange between users i and j; returns the new state.

    Two regular agents move to their average.  A regular agent facing a
    forceful one moves to epsilon * own + (1 - epsilon) * other, while the
    forceful agent's belief stays bit-for-bit unchanged.  Two forceful
    agents ignore each other.
    """
    if i == j:
        raise ConfigurationError("belief exchange needs two distinct users")
    for u in (i, j):
        if u not in state.beliefs:
            raise UnknownUserError(f"no belief for user {u}")
    xi = state.beliefs[i]
    xj = state.beliefs[j]
    ki = state.kinds[i]
    kj = state.kinds[j]
    beliefs = dict(state.beliefs)
    if ki is AgentKind.REGULAR and kj is AgentKind.REGULAR:
        avg = (xi + xj) / 2.0
        beliefs[i] = avg
        beliefs[j] = avg
    elif ki is AgentKind.REGULAR:
        beliefs[i] = state.epsilon * xi + (1.0 - state.epsilon) * xj
    elif kj is AgentKind.REGULAR:
        beliefs[j] = state.epsilon * xj + (1.0 - state.epsilon) * xi
    # forceful vs forceful: no movement
    return BeliefState(beliefs, state.kinds, state.epsilon)


def run_belief_process(
    graph: SocialGraph,
    init: BeliefState,
    iterations: int,
    rng: RngStream,
) -> tuple:
    """Run ``iterations`` exchanges over uniformly random edges.

    Returns the final state plus the mean belief before the first exchange
    and after each one (length iterations + 1).  The edges are listed for
    this call alone, and nothing is cached on the graph.  Negative
    ``iterations``, a state without users, a graph user without a belief, or
    exchanges on a graph without edges raise ConfigurationError.
    """
    if iterations < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
    # every edge, ascending; built here so the graph caches no pair view
    edges = [(a, b) for a, followers in graph.adjacency.items() for b in followers]
    if iterations > 0 and not edges:
        raise ConfigurationError("belief process needs at least one edge")
    if not init.beliefs:
        raise ConfigurationError("belief process needs at least one user")
    _require_states(graph, init.beliefs, "belief")
    state = init
    trace = [_mean_belief(state)]
    for _ in range(iterations):
        a, b = edges[rng.randrange(len(edges))]
        state = belief_exchange(state, a, b)
        trace.append(_mean_belief(state))
    return state, trace


def _mean_belief(state: BeliefState) -> float:
    return math.fsum(state.beliefs.values()) / len(state.beliefs)
