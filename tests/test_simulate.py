"""Agent simulation: wake-up scheduling, in-step ordering, determinism,
trace round-tripping, frame export, and config parsing."""

from __future__ import annotations

import dataclasses
import heapq
import math
import os
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import (
    csv_trace_bytes,
    oracle_corpus,
    pull_gated_run,
    random_digraph,
    random_profiles,
    recorded,
    rescan_gated_run,
    stepwise_classical_run,
)
from rumorsim import (
    ConfigurationError,
    EdgeProbability,
    EvaluationPolicy,
    Metric,
    ModelKind,
    ParseError,
    RngStream,
    RumorContent,
    SimilarityGate,
    SimulationConfig,
    SocialGraph,
    UserProfile,
    diffuse_user_content,
    diffuse_user_user,
    export_frames,
    load_config,
    read_trace_csv,
    rebuild_trace,
    run_simulation,
    run_trials,
    write_curve_csv,
    write_trace_csv,
)
from rumorsim import gated, simulate
from rumorsim.gated import GatedRun, admission_test


def gated_config(**kwargs):
    defaults = dict(
        edges_path=Path("edges.csv"),
        users_path=Path("users.csv"),
        max_time=10,
        trials=1,
        seed=11,
        model=ModelKind.GATED_USER_USER,
        metric=Metric.COSINE,
        threshold=0.5,
        initials=(1,),
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def uniform_profiles(graph, created_at=0, topics=("news",)):
    return {
        u: UserProfile(u, frozenset(topics), created_at, False) for u in graph.nodes
    }


class TestGatedRun:
    def test_chain_activates_within_one_step_in_ascending_id_order(self, chain_graph):
        profiles = uniform_profiles(chain_graph)
        trace = run_simulation(gated_config(), chain_graph, profiles)
        # 2 sees 1, then 3 sees the just-activated 2, all inside step 0
        assert trace.changes[0] == [(1, "diffuser"), (2, "diffuser"), (3, "diffuser")]
        assert trace.counts[0] == 3
        assert trace.final_active() == {1, 2, 3}

    def test_descending_ids_need_later_steps_or_reevaluation(self):
        # same chain shape, but ids force the far node to be visited first
        g = SocialGraph([(3, 2), (2, 1)])
        profiles = uniform_profiles(g)
        once = run_simulation(gated_config(initials=(3,)), g, profiles)
        # node 1 was evaluated before node 2 activated and never wakes again
        assert once.final_active() == {2, 3}
        every = run_simulation(
            gated_config(initials=(3,), evaluation_policy=EvaluationPolicy.EVERY_STEP),
            g,
            profiles,
        )
        assert every.final_active() == {1, 2, 3}
        assert every.changes[1] == [(1, "diffuser")]

    def test_agents_wake_at_created_at(self, chain_graph):
        profiles = {
            1: UserProfile(1, frozenset({"news"}), 0, False),
            2: UserProfile(2, frozenset({"news"}), 4, False),
            3: UserProfile(3, frozenset({"news"}), 2, False),
        }
        trace = run_simulation(gated_config(), chain_graph, profiles)
        # 3 wakes at step 2 but its source 2 only activates at step 4
        assert trace.changes[0] == [(1, "diffuser")]
        assert trace.changes[4] == [(2, "diffuser")]
        assert trace.final_active() == {1, 2}
        assert trace.counts == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2]

    def test_created_at_beyond_horizon_never_evaluates(self, chain_graph):
        profiles = {
            1: UserProfile(1, frozenset({"news"}), 0, False),
            2: UserProfile(2, frozenset({"news"}), 99, False),
            3: UserProfile(3, frozenset({"news"}), 0, False),
        }
        trace = run_simulation(gated_config(), chain_graph, profiles)
        assert trace.final_active() == {1}
        assert trace.clamped_agents == 1

    def test_gate_that_passes_nothing_keeps_curve_flat(self, chain_graph):
        profiles = {
            1: UserProfile(1, frozenset({"news"}), 0, False),
            2: UserProfile(2, frozenset({"cars"}), 0, False),
            3: UserProfile(3, frozenset({"boats"}), 0, False),
        }
        trace = run_simulation(gated_config(), chain_graph, profiles)
        assert trace.counts == [1] * 11

    def test_user_content_model_gates_on_rumor(self, chain_graph):
        profiles = {
            1: UserProfile(1, frozenset({"cars"}), 0, False),
            2: UserProfile(2, frozenset({"news", "politics"}), 0, False),
            3: UserProfile(3, frozenset({"sports"}), 0, False),
        }
        rumor = RumorContent(frozenset({"news", "politics"}))
        cfg = gated_config(model=ModelKind.GATED_USER_CONTENT, rumor_path=Path("rumor.txt"))
        trace = run_simulation(cfg, chain_graph, profiles, rumor)
        assert trace.final_active() == {1, 2}

    @pytest.mark.parametrize("policy", list(EvaluationPolicy))
    @pytest.mark.parametrize("model", [ModelKind.GATED_USER_USER, ModelKind.GATED_USER_CONTENT])
    def test_follower_without_profile_never_activates(self, model, policy):
        # seed 1's follower 2 has no profile; 4 follows only 2
        graph = SocialGraph([(1, 2), (1, 3), (2, 4), (3, 2)])
        profiles = uniform_profiles(graph)
        del profiles[2]
        rumor = RumorContent(frozenset({"news"}))
        for threshold in (0.0, 0.5):
            cfg = gated_config(
                model=model, evaluation_policy=policy, threshold=threshold, trials=3, rumor_path=Path("r.txt")
            )
            traces, _ = run_trials(cfg, graph, profiles, rumor)
            for trace in traces:
                assert trace.final_active() == {1, 3}
            # no gate check ever reaches the user without a profile
            assert rescan_gated_run(cfg, graph, profiles, rumor)[4] == []

    def test_counts_are_monotone_and_absorbing(self):
        rng = random.Random(61)
        g = random_digraph(rng, 50, 0.06)
        profiles = random_profiles(rng, g.nodes, max_created=6)
        cfg = gated_config(initials=(1, 2), max_time=15)
        trace = run_simulation(cfg, g, profiles)
        assert len(trace.counts) == cfg.max_time + 1
        assert all(a <= b for a, b in zip(trace.counts, trace.counts[1:]))
        # once recorded as a diffuser, a node never changes again
        seen = set()
        for step in sorted(trace.changes):
            for uid, label in trace.changes[step]:
                assert uid not in seen
                seen.add(uid)

    def test_missing_rumor_rejected(self, chain_graph):
        cfg = gated_config(model=ModelKind.GATED_USER_CONTENT, rumor_path=Path("r.txt"))
        with pytest.raises(ConfigurationError):
            run_simulation(cfg, chain_graph, uniform_profiles(chain_graph), rumor=None)

    def test_missing_profiles_argument_rejected(self, chain_graph):
        with pytest.raises(ConfigurationError):
            run_simulation(gated_config(), chain_graph, profiles=None)

    def test_initial_not_in_graph_rejected(self, chain_graph):
        cfg = gated_config(initials=(42,))
        with pytest.raises(ConfigurationError):
            run_simulation(cfg, chain_graph, uniform_profiles(chain_graph))

    def test_initial_without_profile_rejected(self, chain_graph):
        # as in a closure: a seed without a profile could admit no follower
        profiles = uniform_profiles(chain_graph)
        del profiles[1]
        cfg = gated_config(threshold=0.0)
        with pytest.raises(ConfigurationError, match="^initial diffuser 1 has no profile$"):
            run_simulation(cfg, chain_graph, profiles)


class TestEveryStepFixpoint:
    def test_final_set_equals_worklist_fixpoint(self):
        rumor = RumorContent(frozenset({"t01", "t05", "t09"}))
        for graph, profiles, initials in oracle_corpus(seed=601, count=12, max_nodes=60, max_created=4):
            horizon = 4 + len(graph.nodes) + 1
            for model in (ModelKind.GATED_USER_USER, ModelKind.GATED_USER_CONTENT):
                cfg = gated_config(
                    model=model,
                    initials=initials,
                    max_time=horizon,
                    evaluation_policy=EvaluationPolicy.EVERY_STEP,
                    rumor_path=Path("r.txt"),
                )
                trace = run_simulation(cfg, graph, profiles, rumor)
                gate = SimilarityGate(Metric.COSINE, 0.5)
                if model is ModelKind.GATED_USER_USER:
                    expected = diffuse_user_user(graph, profiles, initials, gate).members
                else:
                    expected = diffuse_user_content(graph, profiles, rumor, initials, gate).members
                assert trace.final_active() == expected

    def test_no_changes_after_first_stall(self):
        rng = random.Random(62)
        g = random_digraph(rng, 40, 0.08)
        profiles = random_profiles(rng, g.nodes, max_created=3)
        cfg = gated_config(initials=(1,), max_time=50, evaluation_policy=EvaluationPolicy.EVERY_STEP)
        trace = run_simulation(cfg, g, profiles)
        changed_steps = sorted(trace.changes)
        # wake-ups stop by step 3; once a later step changes nothing, the
        # tail of the curve must be flat
        last = changed_steps[-1]
        assert trace.counts[last:] == [trace.counts[last]] * (cfg.max_time + 1 - last)


class CountingTable(dict):
    """Gate decisions table that counts lookups per edge."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = Counter()

    def get(self, key, default=None):
        self.lookups[key] += 1
        return super().get(key, default)


class TestEventDrivenScheduler:
    """The gated scheduler against the brute-force rescan and the pull scheduler in helpers."""

    def random_case(self, rng):
        graph = random_digraph(rng, rng.randint(2, 30), rng.choice([0.05, 0.1, 0.2]))
        profiles = random_profiles(rng, graph.nodes, max_created=8)
        # some users have no profile and some wake outside the horizon; user
        # 1 keeps its profile so there is always an eligible initial
        for u in sorted(graph.nodes)[1:]:
            roll = rng.random()
            if roll < 0.1:
                del profiles[u]
            elif roll < 0.2:
                profiles[u] = dataclasses.replace(profiles[u], created_at=rng.choice([-1, 99]))
        initials = tuple(rng.sample(sorted(profiles), min(len(profiles), rng.randint(1, 3))))
        decisions = {e: rng.random() < 0.6 for e in sorted(graph.edges)}
        return graph, profiles, initials, decisions

    def test_matches_rescan_reference(self):
        rng = random.Random(70)
        rumor = RumorContent(frozenset({"t01", "t05", "t09"}))
        late = cut = 0
        for _ in range(300):
            graph, profiles, initials, decisions = self.random_case(rng)
            # horizons this short stop some chains of late activations
            horizon = rng.randint(1, 12)
            for model in (ModelKind.GATED_USER_USER, ModelKind.GATED_USER_CONTENT):
                for policy in EvaluationPolicy:
                    for table in (decisions, None):
                        cfg = gated_config(
                            model=model,
                            evaluation_policy=policy,
                            initials=initials,
                            max_time=horizon,
                            threshold=0.3,
                            rumor_path=Path("r.txt"),
                        )
                        trace = run_simulation(cfg, graph, profiles, rumor, table)
                        changes, counts, clamped, active, missing = rescan_gated_run(
                            cfg, graph, profiles, rumor, table
                        )
                        assert (trace.changes, trace.counts) == (changes, counts)
                        assert trace.clamped_agents == clamped
                        assert trace.final_states == {
                            u: "diffuser" if u in active else "non_diffuser" for u in graph.nodes
                        }
                        assert missing == []
                        if policy is EvaluationPolicy.EVERY_STEP and table is decisions:
                            wakes = [p.created_at for p in profiles.values() if 0 <= p.created_at <= horizon]
                            last_wake = max(wakes, default=0)
                            late += any(step > last_wake for step in trace.changes)
                            longer = dataclasses.replace(cfg, max_time=horizon + 1)
                            cut += horizon + 1 in rescan_gated_run(longer, graph, profiles, rumor, table)[0]
        # the cases do reach activations by recheck and cut-off chains
        assert late > 0
        assert cut > 0

    def test_admits_exactly_as_the_pull_reference(self):
        rng = random.Random(75)
        rumor = RumorContent(frozenset({"t01", "t05", "t09"}))
        several = clamped = 0
        for graph, profiles, initials in oracle_corpus(seed=607, count=40, max_nodes=80, max_created=6):
            decisions = {e: rng.random() < 0.4 for e in sorted(graph.edges)}
            # horizons below the last wake-up clamp some users
            max_time = rng.randint(2, 8)
            for content in (None, rumor):
                for table in (decisions, None):
                    gate = SimilarityGate(Metric.COSINE, 0.3, table)
                    for every_step in (False, True):
                        pushed, pulled = [], []
                        admit = recorded(admission_test(profiles, content, gate), pushed)
                        run = GatedRun(graph, profiles, initials, admit, max_time, every_step)
                        changes = {}
                        while run.next_step is not None:
                            t = run.next_step
                            if delta := run.step():
                                changes[t] = delta
                        admit = recorded(admission_test(profiles, content, gate), pulled)
                        assert (changes, run.clamped) == pull_gated_run(
                            graph, profiles, initials, admit, max_time, every_step
                        )
                        assert pushed == pulled
                        # a wake-up that tests more than one source
                        several += any(a[1] == b[1] for a, b in zip(pulled, pulled[1:]))
                        clamped += run.clamped > 0
        assert several > 0
        assert clamped > 0

    def test_holds_state_only_for_reached_users(self, monkeypatch):
        """A wake-up is scheduled on first contact, so the run names only users an activation reached."""
        pushed = []

        def push(events, event):
            pushed.append(event)
            heapq.heappush(events, event)

        monkeypatch.setattr(gated, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop))
        rng = random.Random(608)
        max_time = 3
        unreached = rechecks = 0
        for graph, profiles, initials in oracle_corpus(seed=608, count=20, max_nodes=200, max_created=5):
            seeds = set(initials)
            in_range = {u for u in graph.nodes - seeds if 0 <= profiles[u].created_at <= max_time}
            # each in-range follower of a seed to the seeds it follows
            reached = {}
            for i in sorted(seeds):
                for k in set(graph.out_neighbors(i)) & in_range:
                    reached.setdefault(k, []).append(i)
            gate = SimilarityGate(decisions={e: rng.random() < 0.5 for e in sorted(graph.edges)})
            for every_step in (False, True):
                del pushed[:]
                admit = admission_test(profiles, None, gate)
                run = GatedRun(graph, profiles, initials, admit, max_time, every_step)
                # before any step: a wake-up and a record for each in-range follower of a seed, no other
                assert {k: sorted(sources) for k, sources in run.asleep.items()} == reached
                assert sorted(run.events) == sorted((profiles[k].created_at, k, False) for k in reached)
                assert set(vars(run)) == {
                    "graph", "profiles", "admit", "max_time", "every_step",
                    "decided", "clamped", "events", "asleep", "next_step",
                }
                active = set(seeds)
                while run.next_step is not None:
                    active.update(u for u, _ in run.step())
                # each user that got an event follows an active user, and got at most one of each kind
                assert {k for _, k, _ in pushed} <= {k for i in active for k in graph.out_neighbors(i)}
                assert len(pushed) == len({(k, admitted) for _, k, admitted in pushed})
                assert run.decided == active
                assert run.asleep == {} and run.events == []
                unreached += len(in_range - {k for _, k, _ in pushed})
                rechecks += sum(admitted for _, _, admitted in pushed)
        # users in range that no activation reached got nothing, and every-step rechecks were admitted
        assert unreached > 0
        assert rechecks > 0

    def test_gate_lookups_bounded_by_twice_the_edges(self):
        rng = random.Random(71)
        n = 300
        edges = {(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b and rng.random() < 0.01}
        # five hubs that follow, and are followed by, every other user
        for hub in range(1, 6):
            for u in range(6, n + 1):
                edges.update({(hub, u), (u, hub)})
        graph = SocialGraph(edges)
        profiles = random_profiles(rng, graph.nodes, max_created=120)
        table = CountingTable({e: rng.random() < 0.15 for e in sorted(edges)})
        cfg = gated_config(
            initials=(1,), max_time=150, evaluation_policy=EvaluationPolicy.EVERY_STEP
        )
        trace = run_simulation(cfg, graph, profiles, decisions=table)
        assert trace.counts[-1] > n // 2
        assert sum(table.lookups.values()) <= 2 * len(graph.edges)
        # an edge is tried at the follower's wake-up or at the source's
        # activation, never both
        assert max(table.lookups.values()) == 1


class TestClassicalRuns:
    def test_sir_run_counts_are_monotone_and_bounded(self):
        rng = random.Random(63)
        g = random_digraph(rng, 30, 0.1)
        cfg = gated_config(model=ModelKind.SIR, beta=0.4, gamma=0.3, max_time=25, seed=5)
        trace = run_simulation(cfg, g)
        assert len(trace.counts) == 26
        assert all(a <= b for a, b in zip(trace.counts, trace.counts[1:]))
        assert trace.counts[-1] <= len(g.nodes)
        assert trace.counts[0] == 1

    def test_ic_with_certain_edges_reaches_everything_reachable(self):
        g = SocialGraph([(1, 2), (2, 3), (3, 4), (9, 1)])
        cfg = gated_config(model=ModelKind.IC, ic_default_p=1.0, max_time=10)
        trace = run_simulation(cfg, g)
        assert trace.final_active() == {1, 2, 3, 4}
        assert trace.final_states[9] == "susceptible"

    def test_tipping_run_is_deterministic(self):
        rng = random.Random(64)
        g = random_digraph(rng, 30, 0.12)
        cfg = gated_config(model=ModelKind.TIPPING, theta=0.25, initials=(1, 2, 3), max_time=20)
        first = run_simulation(cfg, g)
        second = run_simulation(cfg, g)
        assert first.changes == second.changes
        assert first.counts == second.counts

    def test_classical_model_requires_its_parameter(self, chain_graph):
        with pytest.raises(ConfigurationError):
            run_simulation(gated_config(model=ModelKind.SIR), chain_graph)
        with pytest.raises(ConfigurationError):
            run_simulation(gated_config(model=ModelKind.TIPPING), chain_graph)
        with pytest.raises(ConfigurationError):
            run_simulation(gated_config(model=ModelKind.IC), chain_graph)

    def test_classical_models_ignore_created_at(self, chain_graph):
        # profiles say "wake late" but sir steps every tick regardless
        cfg = gated_config(model=ModelKind.SIR, beta=1.0, gamma=0.0, max_time=5)
        trace = run_simulation(cfg, chain_graph)
        assert trace.counts == [1, 2, 3, 3, 3, 3]


class CountingGraph(SocialGraph):
    """Graph that counts neighbour lookups."""

    def __init__(self, edges, nodes=()):
        super().__init__(edges, nodes)
        self.lookups = 0

    def out_neighbors(self, u):
        self.lookups += 1
        return super().out_neighbors(u)


def chain_and_far_component():
    """The edges of a 40-user chain from user 1, where the seeds sit, and of
    2,000 other users in a dense component that the rumor never reaches."""
    rng = random.Random(73)
    chain = [(u, u + 1) for u in range(1, 40)]
    return chain + [(a, b) for a in range(100, 2100) for b in rng.sample(range(100, 2100), 5) if a != b]


class IterationCountingSet(frozenset):
    """A graph's node set that counts the loops over it; a membership test is not one."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestEventDrivenClassicalRuns:
    """The classical runs against the full-sweep reference in helpers."""

    PARAMS = {
        ModelKind.SIR: [dict(beta=b, gamma=g) for b in (0.0, 0.3, 1.0) for g in (0.0, 0.4, 1.0)],
        ModelKind.IC: [dict(ic_default_p=p) for p in (0.0, 0.35, 1.0)],
        ModelKind.TIPPING: [dict(theta=th) for th in (0.0, 0.3, 0.5, 1.0)],
    }

    def test_matches_full_sweep_reference(self):
        rng = random.Random(72)
        cut = idle = 0
        for case in range(300):
            # random_digraph keeps isolated users as nodes
            graph = random_digraph(rng, rng.randint(1, 40), rng.choice([0.02, 0.08, 0.2]))
            initials = tuple(rng.sample(sorted(graph.nodes), min(len(graph.nodes), rng.randint(1, 3))))
            model = rng.choice(sorted(self.PARAMS, key=lambda m: m.value))
            cfg = gated_config(
                model=model,
                initials=initials,
                max_time=rng.randint(1, 30),
                seed=case,
                **rng.choice(self.PARAMS[model]),
            )
            for k in range(3):
                ours = RngStream(cfg.seed).derive(k)
                theirs = RngStream(cfg.seed).derive(k)
                trace = run_simulation(cfg, graph, rng=ours)
                expected = stepwise_classical_run(cfg, graph, theirs)
                assert (trace.changes, trace.counts, trace.final_states) == expected
                # both consumed the trial's stream up to the same draw
                assert ours._rng.getstate() == theirs._rng.getstate()
                last = max(trace.changes)
                cut += last == cfg.max_time
                idle += last < cfg.max_time - 1
        # some runs are cut by the horizon, some go quiet well before it
        assert cut > 0
        assert idle > 0

    def test_ic_with_edge_overrides_matches_full_sweep_reference(self, monkeypatch):
        rng = random.Random(74)
        moved = 0
        for case in range(80):
            graph = random_digraph(rng, rng.randint(2, 40), rng.choice([0.08, 0.2]))
            # about half the edges get their own probability, the rest the default
            edge_p = {e: rng.choice([0.0, 0.2, 0.9, 1.0]) for e in sorted(graph.edges) if rng.random() < 0.5}
            monkeypatch.setattr(simulate, "EdgeProbability", lambda p: EdgeProbability(p, edge_p))
            initials = tuple(rng.sample(sorted(graph.nodes), min(len(graph.nodes), rng.randint(1, 3))))
            cfg = gated_config(
                model=ModelKind.IC, ic_default_p=0.35, initials=initials, max_time=rng.randint(1, 20), seed=case
            )
            ours = RngStream(cfg.seed).derive(0)
            theirs = RngStream(cfg.seed).derive(0)
            trace = run_simulation(cfg, graph, rng=ours)
            expected = stepwise_classical_run(cfg, graph, theirs, edge_p)
            assert (trace.changes, trace.counts, trace.final_states) == expected
            assert ours._rng.getstate() == theirs._rng.getstate()
            moved += expected != stepwise_classical_run(cfg, graph, RngStream(cfg.seed).derive(0))
        # the overrides decide the outcome of some runs
        assert moved > 0

    def test_lookups_track_state_changes_not_graph_size(self):
        cases = [
            dict(model=ModelKind.SIR, beta=1.0, gamma=0.0),
            dict(model=ModelKind.SIR, beta=0.5, gamma=0.1),
            dict(model=ModelKind.IC, ic_default_p=1.0),
            dict(model=ModelKind.TIPPING, theta=1.0),
        ]
        for params in cases:
            graph = CountingGraph(chain_and_far_component())
            cfg = gated_config(initials=(1,), max_time=600, trials=2, **params)
            traces, _ = run_trials(cfg, graph)
            state_changes = sum(len(delta) for trace in traces for delta in trace.changes.values())
            assert traces[0].counts[-1] > 1
            assert graph.lookups <= 2 * state_changes, params

    def test_holds_state_only_for_reached_users(self):
        """A run starts from the seed states alone and names only users a change reached."""
        cases = [
            (dict(model=ModelKind.SIR, beta=0.5, gamma=0.1), "reached",
             {"graph", "params", "_draw", "reached", "infected", "exposure", "next_step"}),
            (dict(model=ModelKind.IC, ic_default_p=0.8), "reached",
             {"graph", "probs", "_draw", "reached", "spreaders", "next_step"}),
            (dict(model=ModelKind.TIPPING, theta=1.0), "adopted",
             {"graph", "theta", "in_degree", "adopted", "adopted_in", "touched", "next_step"}),
        ]
        for params, held, expected_vars in cases:
            graph = SocialGraph(chain_and_far_component())
            graph.nodes = IterationCountingSet(graph.nodes)
            cfg = gated_config(initials=(1, 2), max_time=600, trials=3, **params)
            traces, _ = run_trials(cfg, graph)
            assert graph.nodes.iterations == 0, params
            start = simulate._starter(cfg, graph, None, None, None)
            spread = 0
            for k, trace in enumerate(traces):
                run = start(RngStream(cfg.seed).derive(k))
                assert set(vars(run)) == expected_vars
                assert getattr(run, held) == {1, 2}
                assert simulate._drive(cfg, graph, run) == trace
                changed = {u for delta in trace.changes.values() for u, _ in delta}
                assert getattr(run, held) == changed <= set(range(1, 41))
                spread += len(changed) > 2
            assert graph.nodes.iterations == 0, params
            # the rumor left the seeds in some trial
            assert spread > 0, params


def counting(run_class, calls):
    """A subclass of ``run_class`` whose ``step()`` records ``next_step`` in ``calls``."""

    class Counting(run_class):
        def step(self):
            calls.append(self.next_step)
            return super().step()

    return Counting


class TestSchedulerWork:
    """The one scheduler loop calls ``step()`` once per step that can change a state."""

    def test_gated_run_visits_only_steps_with_events(self, monkeypatch):
        # 4 wakes at step 0 and activates from seed 5; under every-step its
        # followers 3 and 2, woken already (lower ids), follow at steps 1 and
        # 2; 9 wakes at step 1000
        graph = SocialGraph([(5, 4), (4, 3), (3, 2), (5, 9)])
        profiles = uniform_profiles(graph)
        profiles[9] = dataclasses.replace(profiles[9], created_at=1000)
        cases = [
            (EvaluationPolicy.ONCE, 1296, [0, 1000]),
            (EvaluationPolicy.EVERY_STEP, 1296, [0, 1, 2, 1000]),
            # the recheck due at step 2 lies past the horizon, and 9 is clamped
            (EvaluationPolicy.EVERY_STEP, 1, [0, 1]),
        ]
        for policy, max_time, steps in cases:
            calls = []
            monkeypatch.setattr(simulate, "GatedRun", counting(GatedRun, calls))
            cfg = gated_config(initials=(5,), max_time=max_time, evaluation_policy=policy)
            trace = run_simulation(cfg, graph, profiles)
            assert calls == steps
            # every visited step activates someone; at step 0 after the seeds
            assert sorted(trace.changes) == steps
            assert trace.changes[0] == [(5, "diffuser"), (4, "diffuser")]
            assert trace.clamped_agents == (max_time < 1000)

    @pytest.mark.parametrize(
        "run_name, params, max_time, steps",
        [
            ("SirRun", dict(model=ModelKind.SIR, beta=1.0, gamma=1.0), 1296, [1, 2, 3]),
            ("IcRun", dict(model=ModelKind.IC, ic_default_p=1.0), 1296, [1, 2, 3]),
            ("TippingRun", dict(model=ModelKind.TIPPING, theta=1.0), 1296, [1, 2]),
            # nobody recovers, so the frontier never empties: the horizon stops it
            ("SirRun", dict(model=ModelKind.SIR, beta=1.0, gamma=0.0), 5, [1, 2, 3, 4, 5]),
        ],
    )
    def test_classical_run_stops_once_its_frontier_empties(
        self, monkeypatch, chain_graph, run_name, params, max_time, steps
    ):
        calls = []
        monkeypatch.setattr(simulate, run_name, counting(getattr(simulate, run_name), calls))
        trace = run_simulation(gated_config(max_time=max_time, **params), chain_graph)
        assert calls == steps
        assert trace.final_active() == {1, 2, 3}


def constructed(run_class, made):
    """A subclass of ``run_class`` that appends each run it builds to ``made``."""

    class Constructed(run_class):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    return Constructed


class TestTrials:
    @pytest.mark.parametrize("policy", list(EvaluationPolicy))
    @pytest.mark.parametrize("model", [ModelKind.GATED_USER_USER, ModelKind.GATED_USER_CONTENT])
    def test_one_gate_per_call(self, monkeypatch, model, policy):
        gates = []

        def recording(*args):
            gates.append(args)
            return admission_test(*args)

        monkeypatch.setattr(simulate, "admission_test", recording)
        rng = random.Random(67)
        graph = random_digraph(rng, 30, 0.15)
        profiles = random_profiles(rng, graph.nodes, max_created=3)
        rumor = RumorContent(frozenset({"t01", "t05", "t09"}))
        for trials in range(1, 5):
            del gates[:]
            cfg = gated_config(
                model=model, evaluation_policy=policy, trials=trials, threshold=0.2, rumor_path=Path("r.txt")
            )
            traces, _ = run_trials(cfg, graph, profiles, rumor)
            assert len(traces) == trials
            assert len(gates) == 1

    @pytest.mark.parametrize("policy", list(EvaluationPolicy))
    @pytest.mark.parametrize(
        "run_name, params, draws",
        [
            ("GatedRun", dict(model=ModelKind.GATED_USER_USER), False),
            ("GatedRun", dict(model=ModelKind.GATED_USER_CONTENT, rumor_path=Path("r.txt")), False),
            ("TippingRun", dict(model=ModelKind.TIPPING, theta=0.3), False),
            ("SirRun", dict(model=ModelKind.SIR, beta=0.4, gamma=0.3), True),
            ("IcRun", dict(model=ModelKind.IC, ic_default_p=0.4), True),
        ],
    )
    def test_a_model_that_draws_nothing_runs_once(self, monkeypatch, run_name, params, draws, policy):
        made = []
        monkeypatch.setattr(simulate, run_name, constructed(getattr(simulate, run_name), made))
        rng = random.Random(68)
        graph = random_digraph(rng, 30, 0.15)
        profiles = random_profiles(rng, graph.nodes, max_created=3)
        rumor = RumorContent(frozenset({"t01", "t05", "t09"}))
        for trials in range(1, 9):
            del made[:]
            cfg = gated_config(evaluation_policy=policy, trials=trials, threshold=0.2, initials=(1, 2), **params)
            traces, aggregate = run_trials(cfg, graph, profiles, rumor)
            assert len(made) == (trials if draws else 1)
            assert len(traces) == trials
            if not draws:
                solo = run_simulation(cfg, graph, profiles, rumor)
                assert all((trace.changes, trace.counts) == (solo.changes, solo.counts) for trace in traces)
                assert aggregate == solo.counts

    def test_trial_zero_matches_single_run(self, chain_graph):
        cfg = gated_config(model=ModelKind.SIR, beta=0.6, gamma=0.2, trials=3, max_time=8)
        traces, aggregate = run_trials(cfg, chain_graph)
        solo = run_simulation(cfg, chain_graph)
        assert traces[0].changes == solo.changes
        assert len(traces) == 3
        assert len(aggregate) == 9

    def test_aggregate_is_the_per_step_mean(self):
        rng = random.Random(65)
        g = random_digraph(rng, 25, 0.12)
        cfg = gated_config(model=ModelKind.SIR, beta=0.5, gamma=0.4, trials=4, max_time=12, seed=9)
        traces, aggregate = run_trials(cfg, g)
        for t in range(13):
            assert aggregate[t] == pytest.approx(
                sum(trace.counts[t] for trace in traces) / 4, abs=1e-12
            )

    def test_the_mean_curve_is_the_correctly_rounded_mean_of_each_step(self):
        rng = random.Random(69)
        g = random_digraph(rng, 40, 0.1)
        for trials in (3, 7, 10):
            cfg = gated_config(model=ModelKind.SIR, beta=0.3, gamma=0.3, trials=trials, max_time=15, seed=trials)
            traces, aggregate = run_trials(cfg, g)
            assert aggregate == [math.fsum(column) / trials for column in zip(*(t.counts for t in traces))]

    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_a_trial_keeps_only_its_changes_and_the_node_set(self, model):
        rng = random.Random(70)
        g = random_digraph(rng, 30, 0.15)
        profiles = random_profiles(rng, g.nodes, max_created=3)
        rumor = RumorContent(frozenset({"t01", "t05", "t09"}))
        cfg = gated_config(
            model=model, rumor_path=Path("rumor.txt"), initials=(1, 2), trials=3, max_time=12,
            threshold=0.2, beta=0.4, gamma=0.3, ic_default_p=0.4, theta=0.2,
        )
        traces, _ = run_trials(cfg, g, profiles, rumor)
        default = simulate.MODEL_STATES[model][0].value
        for trace in traces:
            fields = [f.name for f in dataclasses.fields(trace)]
            assert fields == ["model", "max_time", "changes", "nodes", "clamped_agents"]
            assert trace.nodes is g.nodes
            assert "final_states" not in vars(trace)
        for trace in traces:
            # read on demand: the replay of the changes, keyed in the graph's node order
            expected = dict.fromkeys(g.nodes, default)
            for t in sorted(trace.changes):
                expected.update(trace.changes[t])
            assert list(trace.final_states.items()) == list(expected.items())
        assert any(len(trace.changes) > 1 for trace in traces)

    def test_different_trials_draw_different_streams(self):
        rng = random.Random(66)
        g = random_digraph(rng, 40, 0.1)
        cfg = gated_config(model=ModelKind.SIR, beta=0.3, gamma=0.3, trials=6, max_time=15, seed=10)
        traces, _ = run_trials(cfg, g)
        assert len({tuple(trace.counts) for trace in traces}) > 1


class TestTraceSerialization:
    def test_write_then_read_round_trips(self, tmp_path, chain_graph):
        cfg = gated_config(model=ModelKind.SIR, beta=0.7, gamma=0.5, trials=2, max_time=6)
        traces, _ = run_trials(cfg, chain_graph)
        path = tmp_path / "trace.csv"
        write_trace_csv(traces, path)
        for k, trace in enumerate(traces):
            assert read_trace_csv(path, k) == trace.changes

    def test_byte_identical_across_runs(self, tmp_path):
        rng = random.Random(67)
        g = random_digraph(rng, 30, 0.1)
        cfg = gated_config(model=ModelKind.IC, ic_default_p=0.4, trials=3, max_time=10, seed=77)
        blobs = []
        for name in ("a.csv", "b.csv"):
            traces, _ = run_trials(cfg, g)
            path = tmp_path / name
            write_trace_csv(traces, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_bytes_equal_the_csv_writer(self, tmp_path, model):
        rng = random.Random(69)
        g = random_digraph(rng, 40, 0.08)
        profiles = random_profiles(rng, g.nodes, max_created=5)
        rumor = RumorContent(frozenset({"t00", "t07", "t13", "t21"}))
        cfg = gated_config(
            model=model, rumor_path=Path("rumor.txt"), initials=(1, 2), max_time=12, trials=3,
            threshold=0.1, beta=0.4, gamma=0.3, ic_default_p=0.4, theta=0.2,
        )
        traces, _ = run_trials(cfg, g, profiles, rumor)
        path = tmp_path / "trace.csv"
        write_trace_csv(traces, path)
        assert path.read_bytes() == csv_trace_bytes(traces)
        # rows past step 0 from more than one trial
        assert sum(len(trace.changes) > 1 for trace in traces) > 1

    def test_missing_trial_rejected(self, tmp_path, chain_graph):
        traces, _ = run_trials(gated_config(trials=1), chain_graph, uniform_profiles(chain_graph))
        path = tmp_path / "trace.csv"
        write_trace_csv(traces, path)
        with pytest.raises(ConfigurationError):
            read_trace_csv(path, 5)

    def test_rebuild_rejects_an_unknown_user(self, chain_graph):
        with pytest.raises(ConfigurationError, match="trace references unknown user 99"):
            rebuild_trace(gated_config(), chain_graph, {0: [(1, "diffuser")], 3: [(99, "diffuser")]})

    def test_rebuild_rejects_a_change_before_step_0(self, chain_graph):
        message = r"trace has a change at step -1, outside 0\.\.max_time \(max_time = 10\)"
        with pytest.raises(ConfigurationError, match=message):
            rebuild_trace(gated_config(), chain_graph, {-1: [(2, "diffuser")], 0: [(1, "diffuser")]})

    @pytest.mark.parametrize(
        "model, label",
        [
            (ModelKind.GATED_USER_USER, "banana"),
            (ModelKind.GATED_USER_USER, "infected"),
            (ModelKind.SIR, "diffuser"),
            (ModelKind.IC, "adopted"),
            (ModelKind.TIPPING, "recovered"),
        ],
    )
    def test_rebuild_rejects_a_label_of_another_model(self, chain_graph, model, label):
        seed = simulate.MODEL_STATES[model][1].value
        changes = {0: [(1, seed)], 2: [(2, seed), (3, label)]}
        message = f"trace sets user 3 to '{label}' at step 2, not a state of model {model.value}"
        with pytest.raises(ConfigurationError, match=message):
            rebuild_trace(gated_config(model=model, rumor_path=Path("rumor.txt")), chain_graph, changes)

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(dict(threshold=0.1), id="gated"),
            pytest.param(dict(model=ModelKind.SIR, beta=0.4, gamma=0.3), id="sir"),
            pytest.param(dict(model=ModelKind.IC, ic_default_p=0.4), id="ic"),
            pytest.param(dict(model=ModelKind.TIPPING, theta=0.2), id="tipping"),
        ],
    )
    def test_rebuild_reconstructs_counts_and_final_state(self, tmp_path, params):
        rng = random.Random(68)
        g = random_digraph(rng, 40, 0.08)
        profiles = random_profiles(rng, g.nodes, max_created=5)
        cfg = gated_config(initials=(1, 2), max_time=12, trials=3, **params)
        traces, _ = run_trials(cfg, g, profiles)
        path = tmp_path / "trace.csv"
        write_trace_csv(traces, path)
        for k, trace in enumerate(traces):
            rebuilt = rebuild_trace(cfg, g, read_trace_csv(path, k))
            assert rebuilt.changes == trace.changes
            assert rebuilt.counts == trace.counts
            assert rebuilt.final_states == trace.final_states
            # a recovered user stays on the curve
            assert rebuilt.counts[-1] == len(rebuilt.final_active())
        # every model spreads past its two seeds in some trial
        assert max(trace.counts[-1] for trace in traces) > 2
        if cfg.model is ModelKind.SIR:
            assert any("recovered" in trace.final_states.values() for trace in traces)


class TestModelStates:
    def test_each_model_has_one_default_and_one_seed_state(self):
        labels = {model: (default.value, seed.value) for model, (default, seed) in simulate.MODEL_STATES.items()}
        assert labels == {
            ModelKind.GATED_USER_USER: ("non_diffuser", "diffuser"),
            ModelKind.GATED_USER_CONTENT: ("non_diffuser", "diffuser"),
            ModelKind.SIR: ("susceptible", "infected"),
            ModelKind.IC: ("susceptible", "infected"),
            ModelKind.TIPPING: ("not_adopted", "adopted"),
        }

    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_the_curve_counts_every_state_but_the_default(self, chain_graph, model):
        states = [state.value for state in type(simulate.MODEL_STATES[model][0])]
        # the i-th user (of three) set to the model's i-th state, the default first
        changes = {0: [(u, label) for u, label in zip(sorted(chain_graph.nodes), states)]}
        cfg = gated_config(model=model, rumor_path=Path("rumor.txt"), max_time=2)
        trace = rebuild_trace(cfg, chain_graph, changes)
        assert trace.final_active() == set(sorted(chain_graph.nodes)[1 : len(states)])
        assert trace.counts == [len(states) - 1] * 3


class TestAtomicWrites:
    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, error):
        path = tmp_path / "curve.csv"
        write_curve_csv([1, 2, 3], path)
        before = path.read_bytes()

        def series():
            yield 4
            yield 5
            raise error("stopped mid-write")

        with pytest.raises(error):
            write_curve_csv(series(), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv"]

    def test_output_mode_follows_the_umask(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        path = tmp_path / "curve.csv"
        write_curve_csv([1], path)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


class TestExportFrames:
    def test_one_frame_per_step_with_all_nodes(self, tmp_path, chain_graph):
        cfg = gated_config(max_time=3)
        trace = run_simulation(cfg, chain_graph, uniform_profiles(chain_graph))
        frames = export_frames(trace, chain_graph, tmp_path / "frames")
        assert [p.name for p in frames] == [
            "frame_0000.dot",
            "frame_0001.dot",
            "frame_0002.dot",
            "frame_0003.dot",
        ]
        final = frames[-1].read_text(encoding="utf-8")
        node_lines = [ln for ln in final.splitlines() if "[color=" in ln]
        assert len(node_lines) == len(chain_graph.nodes)
        assert (tmp_path / "frames" / "curve.csv").exists()

    def test_colors_track_activation(self, tmp_path):
        g = SocialGraph([(1, 2), (2, 3)])
        profiles = {
            1: UserProfile(1, frozenset({"a"}), 0, False),
            2: UserProfile(2, frozenset({"a"}), 2, False),
            3: UserProfile(3, frozenset({"b"}), 2, False),
        }
        trace = run_simulation(gated_config(max_time=4), g, profiles)
        frames = export_frames(trace, g, tmp_path)
        first = frames[0].read_text(encoding="utf-8")
        assert "1 [color=red];" in first
        assert "2 [color=blue];" in first
        last = frames[-1].read_text(encoding="utf-8")
        assert "2 [color=red];" in last
        assert "3 [color=blue];" in last
        assert "1 -> 2;" in last
        curve = (tmp_path / "curve.csv").read_text(encoding="utf-8").splitlines()
        assert curve[0] == "step,diffusers"
        assert len(curve) == 1 + 5

    def test_a_shorter_export_leaves_no_frame_of_a_longer_one(self, tmp_path, chain_graph):
        profiles = uniform_profiles(chain_graph)
        out = tmp_path / "frames"
        export_frames(run_simulation(gated_config(max_time=20), chain_graph, profiles), chain_graph, out)
        (out / "frame_9.dot").write_text("stale\n", encoding="utf-8")
        (out / "frame_123456.dot").write_text("stale\n", encoding="utf-8")
        # files that are not numbered frames stay
        kept = {"frame_x.dot", "frame_.dot", "frame_0030.png", "notes.txt"}
        for name in kept:
            (out / name).write_text("kept\n", encoding="utf-8")
        frames = export_frames(run_simulation(gated_config(max_time=8), chain_graph, profiles), chain_graph, out)
        assert [p.name for p in frames] == [f"frame_{t:04d}.dot" for t in range(9)]
        assert {p.name for p in out.iterdir()} == {p.name for p in frames} | {"curve.csv"} | kept


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def base_text(self):
        return "edges_path = edges.csv\nusers_path = users.csv\n"

    def test_defaults(self, tmp_path):
        cfg = load_config(self.write(tmp_path, self.base_text()))
        assert cfg.max_time == 1296
        assert cfg.trials == 2
        assert cfg.threshold == 0.5
        assert cfg.model is ModelKind.GATED_USER_USER
        assert cfg.metric is Metric.COSINE
        assert cfg.evaluation_policy is EvaluationPolicy.ONCE
        assert cfg.metrics == (Metric.COSINE, Metric.JACCARD_SET, Metric.DICE, Metric.AVERAGE)

    def test_paths_resolve_against_config_directory(self, tmp_path):
        cfg = load_config(self.write(tmp_path, self.base_text()))
        assert cfg.edges_path == tmp_path / "edges.csv"

    def test_comments_blanks_and_values(self, tmp_path):
        # a comment is a line whose first non-blank character is #, so a path may hold one
        text = (
            "# a comment\n\n  # x\n"
            + self.base_text()
            + "max_time = 30\ntrials = 5\nseed = 123\nmodel = ic\nic_default_p = 0.25\n"
            + "initials = 3, 1, 2\nmetrics = cosine, dice\nevaluation_policy = every_step\nout_dir = runs#1\n"
        )
        cfg = load_config(self.write(tmp_path, text))
        assert cfg.out_dir == tmp_path / "runs#1"
        assert cfg.max_time == 30
        assert cfg.trials == 5
        assert cfg.seed == 123
        assert cfg.model is ModelKind.IC
        assert cfg.ic_default_p == 0.25
        assert cfg.initials == (3, 1, 2)
        assert cfg.metrics == (Metric.COSINE, Metric.DICE)
        assert cfg.evaluation_policy is EvaluationPolicy.EVERY_STEP

    def test_overrides_win(self, tmp_path):
        path = self.write(tmp_path, self.base_text() + "max_time = 30\n")
        cfg = load_config(path, {"max_time": "7", "metric": "dice"})
        assert cfg.max_time == 7
        assert cfg.metric is Metric.DICE

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(self.write(tmp_path, self.base_text() + "speed = 9\n"))

    def test_missing_required_key_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(self.write(tmp_path, "users_path = u.csv\n"))

    def test_bad_values_rejected(self, tmp_path):
        for line in (
            "max_time = soon\n",
            "threshold = 1.5\n",
            "model = telepathy\n",
            "metric = vibes\n",
            "trials = 0\n",
            "seed = -4\n",
        ):
            with pytest.raises(ConfigurationError):
                load_config(self.write(tmp_path, self.base_text() + line))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_time = soon", "config key max_time must be an integer, got 'soon'"),
            ("threshold = high", "config key threshold must be a number, got 'high'"),
            ("beta = lots", "config key beta must be a number, got 'lots'"),
            ("initials = 1, x", "config key initials must be an integer, got 'x'"),
            ("model = telepathy", "config key model must be one of gated_user_user, "
             "gated_user_content, sir, tipping, ic; got 'telepathy'"),
            ("metric = vibes", "config key metric must be one of cosine, pearson, jaccard, "
             "jaccard_vector, dice, levenshtein, average; got 'vibes'"),
            ("metrics = cosine, vibes", "config key metrics must be one of cosine, pearson, "
             "jaccard, jaccard_vector, dice, levenshtein, average; got 'vibes'"),
            ("metrics = , ,", "metrics must list at least one metric"),
            # a metric listed twice wrote two eval.json rows for it
            ("metrics = cosine, dice, cosine", "metrics lists metric 'cosine' twice"),
            ("metrics = jaccard, jaccard_set", "metrics lists metric 'jaccard' twice"),
            ("max_time = 0", "max_time must be >= 1, got 0"),
            ("seed = 18446744073709551616", "seed must be an unsigned 64-bit integer, got 18446744073709551616"),
            # the policy is reported as normalised: lowercased, '_' -> '-'
            ("evaluation_policy = Every_Sometimes", "config key evaluation_policy must be one "
             "of once, every-step; got 'every-sometimes'"),
        ],
    )
    def test_bad_value_messages(self, tmp_path, line, message):
        with pytest.raises(ConfigurationError) as exc:
            load_config(self.write(tmp_path, self.base_text() + line + "\n"))
        assert str(exc.value) == message

    def test_line_without_equals_names_the_line(self, tmp_path):
        path = self.write(tmp_path, self.base_text() + "# fine\nmax_time 30\n")
        with pytest.raises(ParseError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}:4: expected key = value, got 'max_time 30'"

    def test_unknown_override_key_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown config key 'warp'"):
            load_config(self.write(tmp_path, self.base_text()), {"warp": "9"})

    @pytest.mark.parametrize("present", ["edges_path", "users_path"])
    def test_missing_required_key_is_named(self, tmp_path, present):
        missing = ({"edges_path", "users_path"} - {present}).pop()
        with pytest.raises(ConfigurationError) as exc:
            load_config(self.write(tmp_path, f"{present} = x.csv\n"))
        assert str(exc.value) == f"config is missing required key {missing}"

    def test_aliases_and_blank_list_items(self, tmp_path):
        text = self.base_text() + (
            "metric = Jaccard_Set\nevaluation_policy = EVERY_STEP\ninitials = 3,,1\n"
            "rumor_path = /abs/rumor.txt\n"
        )
        cfg = load_config(self.write(tmp_path, text))
        assert cfg.metric is Metric.JACCARD_SET
        assert cfg.evaluation_policy is EvaluationPolicy.EVERY_STEP
        assert cfg.initials == (3, 1)
        assert cfg.rumor_path == Path("/abs/rumor.txt")
        assert cfg.decisions_path is None

    def test_both_jaccard_forms_may_be_swept(self, tmp_path):
        cfg = load_config(self.write(tmp_path, self.base_text() + "metrics = jaccard, jaccard_vector\n"))
        assert cfg.metrics == (Metric.JACCARD_SET, Metric.JACCARD_VECTOR)

    def test_user_content_requires_rumor_path(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(self.write(tmp_path, self.base_text() + "model = gated_user_content\n"))
