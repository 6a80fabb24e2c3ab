"""Agent simulation: wake-up scheduling, in-step ordering, determinism,
trace round-tripping, frame export, and config parsing."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    oracle_corpus,
    random_digraph,
    random_profiles,
    rescan_gated_run,
    stepwise_classical_run,
)
from rumorsim import (
    ConfigurationError,
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
    write_trace_csv,
)


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
    """The gated scheduler against the brute-force rescan in helpers."""

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
                        assert trace.missing_profiles == missing
                        if policy is EvaluationPolicy.EVERY_STEP and table is decisions:
                            wakes = [p.created_at for p in profiles.values() if 0 <= p.created_at <= horizon]
                            last_wake = max(wakes, default=0)
                            late += any(step > last_wake for step in trace.changes)
                            longer = dataclasses.replace(cfg, max_time=horizon + 1)
                            cut += horizon + 1 in rescan_gated_run(longer, graph, profiles, rumor, table)[0]
        # the cases do reach activations by recheck and cut-off chains
        assert late > 0
        assert cut > 0

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
    """Graph that counts neighbour and degree lookups."""

    def __init__(self, edges, nodes=()):
        super().__init__(edges, nodes)
        self.lookups = 0

    def in_neighbors(self, u):
        self.lookups += 1
        return super().in_neighbors(u)

    def out_neighbors(self, u):
        self.lookups += 1
        return super().out_neighbors(u)

    def in_degree(self, u):
        self.lookups += 1
        return super().in_degree(u)


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

    def test_lookups_track_state_changes_not_graph_size(self):
        rng = random.Random(73)
        # the seeds sit at the head of a 40-user chain; 2,000 other users form
        # a dense component the rumor never reaches
        chain = [(u, u + 1) for u in range(1, 40)]
        far = [
            (a, b)
            for a in range(100, 2100)
            for b in rng.sample(range(100, 2100), 5)
            if a != b
        ]
        cases = [
            dict(model=ModelKind.SIR, beta=1.0, gamma=0.0),
            dict(model=ModelKind.SIR, beta=0.5, gamma=0.1),
            dict(model=ModelKind.IC, ic_default_p=1.0),
            dict(model=ModelKind.TIPPING, theta=1.0),
        ]
        for params in cases:
            graph = CountingGraph(chain + far)
            cfg = gated_config(initials=(1,), max_time=600, trials=2, **params)
            traces, _ = run_trials(cfg, graph)
            state_changes = sum(len(delta) for trace in traces for delta in trace.changes.values())
            assert traces[0].counts[-1] > 1
            assert graph.lookups <= 2 * state_changes, params


class TestTrials:
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

    def test_missing_trial_rejected(self, tmp_path, chain_graph):
        traces, _ = run_trials(gated_config(trials=1), chain_graph, uniform_profiles(chain_graph))
        path = tmp_path / "trace.csv"
        write_trace_csv(traces, path)
        with pytest.raises(ConfigurationError):
            read_trace_csv(path, 5)

    def test_rebuild_rejects_an_unknown_user(self, chain_graph):
        with pytest.raises(ConfigurationError, match="trace references unknown user 99"):
            rebuild_trace(gated_config(), chain_graph, {0: [(1, "diffuser")], 3: [(99, "diffuser")]})

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
        text = (
            "# a comment\n\n"
            + self.base_text()
            + "max_time = 30\ntrials = 5\nseed = 123\nmodel = ic\nic_default_p = 0.25\n"
            + "initials = 3, 1, 2\nmetrics = cosine, dice\nevaluation_policy = every_step\n"
        )
        cfg = load_config(self.write(tmp_path, text))
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
            # the policy is reported as normalised: lowercased, '_' -> '-'
            ("evaluation_policy = Every_Sometimes", "config key evaluation_policy must be one "
             "of once, every-step; got 'every-sometimes'"),
        ],
    )
    def test_bad_value_messages(self, tmp_path, line, message):
        with pytest.raises(ConfigurationError) as exc:
            load_config(self.write(tmp_path, self.base_text() + line + "\n"))
        assert str(exc.value) == message

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

    def test_user_content_requires_rumor_path(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(self.write(tmp_path, self.base_text() + "model = gated_user_content\n"))
