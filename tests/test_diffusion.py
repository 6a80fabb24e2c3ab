"""Classical model dynamics: SIR, threshold adoption, independent cascade,
belief exchange, and the seeded random stream they all draw from."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import bfs_levels, bfs_reachable, random_digraph
from rumorsim import (
    AdoptionState,
    AgentKind,
    BeliefState,
    ConfigurationError,
    EdgeProbability,
    EpidemicState,
    Metric,
    RngStream,
    SimilarityGate,
    SimulationConfig,
    SirParams,
    SocialGraph,
    TippingParams,
    UnknownUserError,
    belief_exchange,
    ic_step,
    run_belief_process,
    sir_step,
    tipping_step,
)

S = EpidemicState.SUSCEPTIBLE
I = EpidemicState.INFECTED
R = EpidemicState.RECOVERED


def seed_states(graph, infected):
    return {u: I if u in infected else S for u in graph.nodes}


class CountingRng(RngStream):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0
        draw = self.random

        def counted():
            self.draws += 1
            return draw()

        self.random = counted


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(123)
        b = RngStream(123)
        assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]

    def test_derive_is_deterministic_and_independent(self):
        parent = RngStream(99)
        parent.random()  # consuming the parent must not shift children
        child_a = RngStream(99).derive(3)
        child_b = parent.derive(3)
        assert [child_a.random() for _ in range(10)] == [child_b.random() for _ in range(10)]
        assert RngStream(99).derive(0).random() != RngStream(99).derive(1).random()

    def test_derive_rejects_a_negative_index(self):
        with pytest.raises(ValueError, match="derive index must be >= 0, got -1"):
            RngStream(5).derive(-1)

    def test_seed_bounds(self):
        RngStream(0)
        RngStream(2**64 - 1)
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)

    def test_randrange(self):
        rng = RngStream(5)
        values = {rng.randrange(4) for _ in range(200)}
        assert values == {0, 1, 2, 3}

    def test_randrange_draws_through_random_alone(self):
        # the reference reads its bits as text: each draw's 53 bits in a row, the first k of them kept
        def randbelow(random, n):
            while True:
                bits = ""
                while len(bits) < n.bit_length():
                    bits += format(int(Fraction(random()) * 2**53), "053b")
                if (value := int(bits[: n.bit_length()], 2)) < n:
                    return value

        bounds = sorted({2**e + d for e in range(65) for d in (-1, 0, 1)} - {0})
        for seed, n in enumerate(bounds):
            stream, reference = RngStream(seed), random.Random(seed)
            assert [stream.randrange(n) for _ in range(20)] == [randbelow(reference.random, n) for _ in range(20)], n
            # both stand at the same draw
            assert stream.random() == reference.random()
        for n in (0, -1):
            with pytest.raises(ValueError):
                RngStream(0).randrange(n)


class TestSirStep:
    def test_certain_infection_spreads_one_hop(self, chain_graph):
        params = SirParams(beta=1.0, gamma=0.0)
        states = seed_states(chain_graph, {1})
        after = sir_step(chain_graph, states, params, RngStream(1))
        assert after == {1: I, 2: I, 3: S}

    def test_zero_beta_never_infects(self, chain_graph):
        params = SirParams(beta=0.0, gamma=0.0)
        states = seed_states(chain_graph, {1})
        after = sir_step(chain_graph, states, params, RngStream(1))
        assert after == states

    def test_certain_recovery(self, chain_graph):
        params = SirParams(beta=0.0, gamma=1.0)
        after = sir_step(chain_graph, seed_states(chain_graph, {1, 2}), params, RngStream(1))
        assert after[1] is R and after[2] is R

    def test_conservation_and_recovered_monotone(self):
        rng_graph = random.Random(21)
        for trial in range(20):
            g = random_digraph(rng_graph, 30, 0.1)
            params = SirParams(beta=0.4, gamma=0.3)
            states = seed_states(g, {1, 2})
            rng = RngStream(trial)
            recovered = set()
            for _ in range(15):
                states = sir_step(g, states, params, rng)
                tally = {S: 0, I: 0, R: 0}
                for st in states.values():
                    tally[st] += 1
                assert tally[S] + tally[I] + tally[R] == len(g.nodes)
                now_recovered = {u for u, st in states.items() if st is R}
                assert recovered <= now_recovered
                recovered = now_recovered

    def test_same_seed_same_trajectory(self):
        g = random_digraph(random.Random(22), 25, 0.15)
        params = SirParams(beta=0.3, gamma=0.2)

        def run(seed):
            states = seed_states(g, {1})
            rng = RngStream(seed)
            return [states := sir_step(g, states, params, rng) for _ in range(12)]

        assert run(7) == run(7)

    def test_missing_state_rejected(self, chain_graph):
        with pytest.raises(ConfigurationError):
            sir_step(chain_graph, {1: I, 2: S}, SirParams(0.5, 0.5), RngStream(1))

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            SirParams(beta=1.5, gamma=0.0)
        with pytest.raises(ConfigurationError):
            SirParams(beta=0.5, gamma=-0.1)


class TestTippingStep:
    def test_threshold_met_exactly_adopts(self):
        # node 5 has in-neighbors 1..4, two of them adopted
        g = SocialGraph([(1, 5), (2, 5), (3, 5), (4, 5)])
        states = {u: AdoptionState.ADOPTED if u in (1, 2) else AdoptionState.NOT_ADOPTED for u in g.nodes}
        at_half = tipping_step(g, states, TippingParams(theta=0.5))
        assert at_half[5] is AdoptionState.ADOPTED
        above_half = tipping_step(g, states, TippingParams(theta=0.51))
        assert above_half[5] is AdoptionState.NOT_ADOPTED

    def test_no_adopted_in_neighbors_stays_put_even_at_zero_theta(self, chain_graph):
        states = {1: AdoptionState.NOT_ADOPTED, 2: AdoptionState.NOT_ADOPTED, 3: AdoptionState.ADOPTED}
        after = tipping_step(chain_graph, states, TippingParams(theta=0.0))
        assert after[1] is AdoptionState.NOT_ADOPTED
        assert after[2] is AdoptionState.NOT_ADOPTED

    def test_no_in_neighbors_never_adopts(self, chain_graph):
        states = {1: AdoptionState.NOT_ADOPTED, 2: AdoptionState.ADOPTED, 3: AdoptionState.NOT_ADOPTED}
        after = tipping_step(chain_graph, states, TippingParams(theta=0.0))
        assert after[1] is AdoptionState.NOT_ADOPTED

    def test_deterministic_and_monotone(self):
        g = random_digraph(random.Random(23), 40, 0.1)
        states = {u: AdoptionState.ADOPTED if u <= 4 else AdoptionState.NOT_ADOPTED for u in g.nodes}
        params = TippingParams(theta=0.3)
        once = []
        adopted_before = {u for u, st in states.items() if st is AdoptionState.ADOPTED}
        current = states
        for _ in range(10):
            current = tipping_step(g, current, params)
            adopted_now = {u for u, st in current.items() if st is AdoptionState.ADOPTED}
            assert adopted_before <= adopted_now
            adopted_before = adopted_now
            once.append(current)
        again = states
        twice = []
        for _ in range(10):
            again = tipping_step(g, again, params)
            twice.append(again)
        assert once == twice


class TestIcStep:
    def test_certain_cascade_tracks_hop_levels(self):
        g = random_digraph(random.Random(24), 30, 0.08)
        probs = EdgeProbability(default=1.0)
        states = seed_states(g, {1})
        attempted = set()
        rng = RngStream(3)
        levels = bfs_levels({1}, g.edges)
        for level in levels[1:]:
            states, attempted = ic_step(g, states, probs, attempted, rng)
            infected_now = {u for u, st in states.items() if st is I}
            assert infected_now == level
        states, attempted = ic_step(g, states, probs, attempted, rng)
        touched = {u for u, st in states.items() if st is not S}
        assert touched == bfs_reachable({1}, g.edges)

    def test_zero_probability_only_recovers_seeds(self, chain_graph):
        states = seed_states(chain_graph, {1})
        after, attempted = ic_step(chain_graph, states, EdgeProbability(0.0), set(), RngStream(1))
        assert after == {1: R, 2: S, 3: S}
        assert attempted == {(1, 2)}

    def test_each_edge_attempted_at_most_once_per_run(self):
        g = random_digraph(random.Random(25), 25, 0.12)
        probs = EdgeProbability(default=0.7)
        states = seed_states(g, {1, 2})
        attempted = set()
        rng = CountingRng(8)
        for _ in range(20):
            before = set(attempted)
            states, attempted = ic_step(g, states, probs, attempted, rng)
            assert before <= attempted
        # every draw corresponds to exactly one first-time edge attempt
        assert rng.draws == len(attempted)

    def test_an_attempted_edge_is_neither_drawn_nor_tried(self):
        g = SocialGraph([(1, 2), (1, 3)])
        rng = CountingRng(4)
        after, attempted = ic_step(g, seed_states(g, {1}), EdgeProbability(1.0), {(1, 2)}, rng)
        assert after == {1: R, 2: S, 3: I}
        assert attempted == {(1, 2), (1, 3)}
        assert rng.draws == 1

    def test_attempted_must_be_subset_of_edges(self, chain_graph):
        states = seed_states(chain_graph, {1})
        rng = CountingRng(1)
        # every edge already tried: the seed recovers without a draw
        after, attempted = ic_step(chain_graph, states, EdgeProbability(1.0), set(chain_graph.edges), rng)
        assert (after, attempted, rng.draws) == ({1: R, 2: S, 3: S}, chain_graph.edges, 0)
        for extra in ({(9, 9)}, chain_graph.edges | {(3, 1)}):
            with pytest.raises(ConfigurationError):
                ic_step(chain_graph, states, EdgeProbability(0.5), extra, RngStream(1))

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            EdgeProbability(default=1.2)
        with pytest.raises(ConfigurationError):
            EdgeProbability(default=0.5, overrides={(1, 2): -0.4})


A = AdoptionState.ADOPTED
N = AdoptionState.NOT_ADOPTED

# on the chain 1 -> 2 -> 3: a map in no particular key order that also names
# user 9, outside the graph, infected or adopted; the step's expected map and
# its draws; IC also takes and returns an attempted set
STEP_CONTRACT = [
    pytest.param(
        lambda g, states, attempted, rng: (sir_step(g, states, SirParams(1.0, 0.0), rng), None),
        {9: I, 3: S, 1: I, 2: S},
        {9: I, 3: S, 1: I, 2: I},
        2,
        id="sir",
    ),
    pytest.param(
        lambda g, states, attempted, rng: (tipping_step(g, states, TippingParams(0.0)), None),
        {9: A, 3: N, 1: A, 2: N},
        {9: A, 3: N, 1: A, 2: A},
        0,
        id="tipping",
    ),
    pytest.param(
        lambda g, states, attempted, rng: ic_step(g, states, EdgeProbability(1.0), attempted, rng),
        {9: I, 3: S, 1: I, 2: S},
        {9: I, 3: S, 1: R, 2: I},
        1,
        id="ic",
    ),
]


@pytest.mark.parametrize("step, states, expected, draws", STEP_CONTRACT)
def test_a_step_carries_a_user_outside_the_graph_and_leaves_its_inputs_alone(
    chain_graph, step, states, expected, draws
):
    before, attempted = dict(states), {(2, 3)}
    rng = CountingRng(5)
    after, attempted_after = step(chain_graph, states, attempted, rng)
    # user 9 is carried through unchanged and never acts
    assert after == expected
    assert rng.draws == draws
    # a new map in the caller's key order; the caller's map and set as they were
    assert after is not states
    assert list(after) == list(states)
    assert states == before and list(states) == list(before)
    assert attempted == {(2, 3)}
    if attempted_after is not None:
        assert attempted_after == {(1, 2), (2, 3)} and attempted_after is not attempted


# every value checked to lie in [0, 1], under the name its message gives it
PROBABILITIES = [
    pytest.param("threshold", lambda x: SimulationConfig(Path("e"), Path("u"), threshold=x), id="config-threshold"),
    pytest.param("threshold", lambda x: SimilarityGate(Metric.COSINE, threshold=x), id="gate-threshold"),
    pytest.param("beta", lambda x: SirParams(beta=x, gamma=0.5), id="beta"),
    pytest.param("gamma", lambda x: SirParams(beta=0.5, gamma=x), id="gamma"),
    pytest.param("theta", lambda x: TippingParams(theta=x), id="theta"),
    pytest.param("default edge probability", lambda x: EdgeProbability(default=x), id="ic-default-p"),
    pytest.param("probability for edge (1, 2)", lambda x: EdgeProbability(0.5, {(1, 2): x}), id="ic-edge-p"),
    pytest.param("epsilon", lambda x: BeliefState({1: 0.5}, {1: AgentKind.REGULAR}, epsilon=x), id="epsilon"),
    pytest.param("belief for user 1", lambda x: BeliefState({1: x}, {1: AgentKind.REGULAR}, epsilon=0.5), id="belief"),
]


@pytest.mark.parametrize("value", [-0.25, 1.25])
@pytest.mark.parametrize("name, build", PROBABILITIES)
def test_a_probability_outside_0_1_is_rejected_by_name(name, build, value):
    build(0.0)
    build(1.0)
    with pytest.raises(ConfigurationError) as exc:
        build(value)
    assert str(exc.value) == f"{name} must be in [0, 1], got {value}"


def regular_pair_state(xi, xj):
    return BeliefState(
        beliefs={1: xi, 2: xj},
        kinds={1: AgentKind.REGULAR, 2: AgentKind.REGULAR},
        epsilon=0.5,
    )


# ids whose hash order is not their numeric order
HASH_ORDERED = [(1024, 1), (2**40, 3)]


@pytest.mark.parametrize(
    "step",
    [
        pytest.param(lambda g, states: sir_step(g, states, SirParams(0.5, 0.5), RngStream(1)), id="sir_step"),
        pytest.param(lambda g, states: tipping_step(g, states, TippingParams(0.5)), id="tipping_step"),
        pytest.param(lambda g, states: ic_step(g, states, EdgeProbability(0.5), set(), RngStream(1)), id="ic_step"),
    ],
)
def test_a_step_names_the_smallest_user_without_a_state(step):
    graph = SocialGraph(HASH_ORDERED)
    for given, missing in (((), 1), ((1,), 3), ((1, 3), 1024), ((1, 3, 1024), 2**40)):
        with pytest.raises(ConfigurationError, match=f"^no state for user {missing}$"):
            step(graph, dict.fromkeys(given, S))


class TestBeliefExchange:
    def test_regular_pair_averages(self):
        after = belief_exchange(regular_pair_state(0.2, 0.8), 1, 2)
        assert after.beliefs[1] == 0.5
        assert after.beliefs[2] == 0.5

    def test_regular_meets_forceful(self):
        state = BeliefState(
            beliefs={1: 0.2, 2: 0.8},
            kinds={1: AgentKind.REGULAR, 2: AgentKind.FORCEFUL},
            epsilon=0.1,
        )
        after = belief_exchange(state, 1, 2)
        assert after.beliefs[1] == pytest.approx(0.74, abs=1e-12)
        # the forceful side must not move at all
        assert after.beliefs[2] == 0.8

    def test_forceful_meets_regular_mirrors(self):
        state = BeliefState(
            beliefs={1: 0.2, 2: 0.8},
            kinds={1: AgentKind.FORCEFUL, 2: AgentKind.REGULAR},
            epsilon=0.1,
        )
        after = belief_exchange(state, 1, 2)
        assert after.beliefs[1] == 0.2
        assert after.beliefs[2] == pytest.approx(0.1 * 0.8 + 0.9 * 0.2, abs=1e-12)

    def test_two_forceful_ignore_each_other(self):
        state = BeliefState(
            beliefs={1: 0.3, 2: 0.9},
            kinds={1: AgentKind.FORCEFUL, 2: AgentKind.FORCEFUL},
            epsilon=0.2,
        )
        after = belief_exchange(state, 1, 2)
        assert after.beliefs == {1: 0.3, 2: 0.9}

    def test_pair_sum_is_conserved_exactly_for_regulars(self):
        rng = random.Random(26)
        for _ in range(300):
            xi, xj = rng.random(), rng.random()
            after = belief_exchange(regular_pair_state(xi, xj), 1, 2)
            assert after.beliefs[1] + after.beliefs[2] == xi + xj

    def test_identity_and_unknown_users_rejected(self):
        state = regular_pair_state(0.2, 0.8)
        with pytest.raises(ConfigurationError):
            belief_exchange(state, 1, 1)
        with pytest.raises(UnknownUserError):
            belief_exchange(state, 1, 5)

    def test_state_validation(self):
        # both ends of [0, 1] are beliefs; the next float above 1 is not
        BeliefState(beliefs={1: 0.0, 2: 1.0}, kinds=dict.fromkeys((1, 2), AgentKind.REGULAR), epsilon=0.5)
        for belief in (1.5, math.nextafter(1.0, 2.0)):
            with pytest.raises(ConfigurationError):
                BeliefState(beliefs={1: belief}, kinds={1: AgentKind.REGULAR}, epsilon=0.5)
        with pytest.raises(ConfigurationError):
            BeliefState(beliefs={1: 0.5}, kinds={}, epsilon=0.5)
        with pytest.raises(ConfigurationError):
            BeliefState(beliefs={1: 0.5}, kinds={1: AgentKind.REGULAR}, epsilon=-0.1)

    def test_a_kind_that_is_not_an_agent_kind_is_rejected(self):
        # a plain string would match neither kind, so every exchange would be a no-op
        with pytest.raises(ConfigurationError, match="agent kind for user 2 is not an AgentKind: 'regular'"):
            BeliefState(beliefs={1: 0.2, 2: 0.8}, kinds={1: AgentKind.REGULAR, 2: "regular"}, epsilon=0.5)


class TestBeliefProcess:
    def make_ring(self, n):
        return SocialGraph([(i, i % n + 1) for i in range(1, n + 1)])

    def all_regular(self, graph, rng):
        return BeliefState(
            beliefs={u: rng.random() for u in sorted(graph.nodes)},
            kinds={u: AgentKind.REGULAR for u in graph.nodes},
            epsilon=0.5,
        )

    def test_trace_has_initial_plus_one_entry_per_round(self):
        g = self.make_ring(6)
        init = self.all_regular(g, random.Random(27))
        final, trace = run_belief_process(g, init, 40, RngStream(4))
        assert len(trace) == 41
        assert all(0.0 <= b <= 1.0 for b in final.beliefs.values())

    def test_zero_rounds_leaves_state_alone(self):
        g = self.make_ring(4)
        init = self.all_regular(g, random.Random(28))
        final, trace = run_belief_process(g, init, 0, RngStream(4))
        assert final.beliefs == init.beliefs
        assert len(trace) == 1

    def test_belief_interval_never_widens(self):
        g = self.make_ring(8)
        state = self.all_regular(g, random.Random(29))
        rng = RngStream(6)
        edges = sorted(g.edges)
        lo, hi = min(state.beliefs.values()), max(state.beliefs.values())
        for _ in range(500):
            a, b = edges[rng.randrange(len(edges))]
            state = belief_exchange(state, a, b)
            values = state.beliefs.values()
            assert min(values) >= lo - 1e-15
            assert max(values) <= hi + 1e-15
            lo, hi = min(values), max(values)

    def test_all_regular_ring_contracts_to_consensus(self):
        g = self.make_ring(12)
        init = self.all_regular(g, random.Random(30))
        final, trace = run_belief_process(g, init, 20000, RngStream(7))
        values = final.beliefs.values()
        assert max(values) - min(values) < 1e-6
        # mean is preserved by regular/regular exchanges
        assert trace[-1] == pytest.approx(trace[0], abs=1e-9)

    def test_equals_a_reference_loop_over_the_sorted_edges(self):
        rng = random.Random(32)
        isolated = unfollowed = 0
        for case in range(40):
            g = random_digraph(rng, rng.randint(3, 24), rng.choice([0.04, 0.1, 0.25]))
            edges = sorted(g.edges)
            if not edges:
                continue
            targets = {b for _, b in edges}
            isolated += any(not g.out_neighbors(u) and u not in targets for u in g.nodes)
            unfollowed += any(not g.out_neighbors(u) and u in targets for u in g.nodes)
            kinds = {u: rng.choice(list(AgentKind)) for u in g.nodes}
            init = BeliefState({u: rng.random() for u in sorted(g.nodes)}, kinds, rng.random())
            stream, reference = RngStream(case), RngStream(case)
            final, trace = run_belief_process(g, init, 50, stream)
            state, expected = init, [math.fsum(init.beliefs.values()) / len(init.beliefs)]
            for _ in range(50):
                a, b = edges[reference.randrange(len(edges))]
                state = belief_exchange(state, a, b)
                expected.append(math.fsum(state.beliefs.values()) / len(state.beliefs))
            assert (final, trace) == (state, expected)
            # both streams stand at the same draw
            assert stream.random() == reference.random()
        assert isolated > 0
        assert unfollowed > 0

    def test_empty_edge_set_rejected_when_rounds_requested(self):
        g = SocialGraph([], nodes=[1, 2])
        init = BeliefState(
            beliefs={1: 0.1, 2: 0.9},
            kinds={1: AgentKind.REGULAR, 2: AgentKind.REGULAR},
            epsilon=0.5,
        )
        with pytest.raises(ConfigurationError):
            run_belief_process(g, init, 5, RngStream(1))
        final, trace = run_belief_process(g, init, 0, RngStream(1))
        assert len(trace) == 1

    def test_negative_iterations_rejected(self, chain_graph):
        init = BeliefState({1: 0.1, 2: 0.5, 3: 0.9}, dict.fromkeys((1, 2, 3), AgentKind.REGULAR), 0.5)
        with pytest.raises(ConfigurationError, match="iterations must be >= 0, got -1"):
            run_belief_process(chain_graph, init, -1, RngStream(1))

    def test_node_without_belief_rejected(self, chain_graph):
        init = regular_pair_state(0.2, 0.8)
        with pytest.raises(ConfigurationError):
            run_belief_process(chain_graph, init, 3, RngStream(1))

    def test_names_the_smallest_user_without_a_belief(self):
        graph = SocialGraph(HASH_ORDERED)
        for given, missing in (((1,), 3), ((1, 3), 1024), ((1, 3, 1024), 2**40)):
            init = BeliefState(dict.fromkeys(given, 0.5), dict.fromkeys(given, AgentKind.REGULAR), 0.5)
            with pytest.raises(ConfigurationError, match=f"^no belief for user {missing}$"):
                run_belief_process(graph, init, 1, RngStream(1))

    def test_a_state_without_users_is_rejected(self):
        with pytest.raises(ConfigurationError, match="belief process needs at least one user"):
            run_belief_process(SocialGraph([]), BeliefState({}, {}, 0.5), 0, RngStream(1))
