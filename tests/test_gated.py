"""Similarity-gated diffusion: worked examples, error handling, and exact
agreement with independent reachability oracles on random graphs."""

from __future__ import annotations

import random
from collections import Counter
from itertools import count, groupby
from pathlib import Path

import pytest

from helpers import (
    FIXTURE_DIR,
    brute_cosine,
    bfs_reachable,
    dp_levenshtein_similarity,
    oracle_corpus,
    random_digraph,
    random_profiles,
    sequential_closure,
    shuffled_closure,
)
from rumorsim import (
    ConfigurationError,
    EvaluationPolicy,
    Metric,
    ModelKind,
    ParseError,
    RumorContent,
    SimilarityGate,
    SimulationConfig,
    SocialGraph,
    UndefinedCorrelationError,
    UserProfile,
    canonical_topic_string,
    diffuse_user_content,
    diffuse_user_user,
    filtered_edge_set,
    load_decisions,
    load_edges,
    load_rumor,
    load_users,
    metric_sweep,
    run_trials,
    score,
)
from rumorsim import gated, similarity, simulate
from rumorsim.gated import _diffuse, admission_test

TAU_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


class OwnTopics(frozenset):
    """A topic set that is its own object, even when empty or equal to another."""


def profile(uid, *labels, created_at=0):
    return UserProfile(uid, frozenset(labels), created_at, False)


class TestWorkedExamples:
    def test_same_topic_chain_fully_diffuses(self, chain_graph, news_profiles):
        result = diffuse_user_user(chain_graph, news_profiles, [1], SimilarityGate())
        assert result.members == {1, 2, 3}
        assert result.insertion_log == [1, 2, 3]

    def test_dissimilar_link_blocks_the_tail(self, chain_graph):
        profiles = {1: profile(1, "news"), 2: profile(2, "sports"), 3: profile(3, "sports")}
        result = diffuse_user_user(chain_graph, profiles, [1], SimilarityGate())
        assert result.members == {1}

    def test_full_threshold_admits_only_identical_topics(self, chain_graph):
        profiles = {1: profile(1, "news"), 2: profile(2, "news"), 3: profile(3, "news", "tech")}
        gate = SimilarityGate(Metric.COSINE, threshold=1.0)
        result = diffuse_user_user(chain_graph, profiles, [1], gate)
        assert result.members == {1, 2}

    def test_zero_threshold_admits_everything_reachable(self, chain_graph):
        profiles = {1: profile(1, "news"), 2: profile(2, "sports"), 3: profile(3)}
        gate = SimilarityGate(Metric.COSINE, threshold=0.0)
        result = diffuse_user_user(chain_graph, profiles, [1], gate)
        assert result.members == {1, 2, 3}

    def test_user_content_gate_checks_the_follower_against_the_rumor(self, chain_graph, news_rumor):
        profiles = {1: profile(1, "cars"), 2: profile(2, "news", "politics"), 3: profile(3, "sports")}
        result = diffuse_user_content(chain_graph, profiles, news_rumor, [1], SimilarityGate())
        # node 2 matches the rumor even though it is nothing like node 1;
        # node 3 matches neither, so diffusion stops there
        assert result.members == {1, 2}

    def test_unreachable_similar_node_stays_out(self, news_profiles):
        g = SocialGraph([(1, 2), (3, 2)])
        result = diffuse_user_user(g, news_profiles, [1], SimilarityGate())
        assert result.members == {1, 2}


class TestValidation:
    def test_initial_missing_from_graph(self, chain_graph, news_profiles):
        with pytest.raises(ConfigurationError):
            diffuse_user_user(chain_graph, news_profiles, [99], SimilarityGate())

    def test_initial_missing_profile(self, chain_graph, news_profiles):
        del news_profiles[1]
        with pytest.raises(ConfigurationError):
            diffuse_user_user(chain_graph, news_profiles, [1], SimilarityGate())

    def test_empty_initials(self, chain_graph, news_profiles):
        with pytest.raises(ConfigurationError):
            diffuse_user_user(chain_graph, news_profiles, [], SimilarityGate())

    def test_threshold_out_of_range(self):
        with pytest.raises(ConfigurationError):
            SimilarityGate(Metric.COSINE, threshold=1.01)

    def test_missing_profile_scores_zero(self, chain_graph):
        profiles = {1: profile(1, "news"), 3: profile(3, "news")}
        result = diffuse_user_user(chain_graph, profiles, [1], SimilarityGate())
        assert result.members == {1}
        # a profile for 1 alone: no tested pair has a profile at both ends,
        # so no metric is ever scored, pearson included
        for metric in Metric:
            for rumor in (None, RumorContent(frozenset({"news"}))):
                result = _diffuse(chain_graph, {1: profile(1, "news")}, rumor, [1], SimilarityGate(metric, 0.5))
                assert result.insertion_log == [1], (metric, rumor)

    @pytest.mark.parametrize("rumor", [None, RumorContent(frozenset({"news"}))], ids=["user", "content"])
    def test_zero_threshold_never_admits_a_user_without_profile(self, chain_graph, rumor):
        # 2 has no profile, so it never diffuses, at threshold 0 too, and
        # 3 behind it stays out; a levenshtein gate decides in rounds
        for metric in Metric:
            for profiles in ({1: profile(1, "news"), 3: profile(3, "news")}, {1: profile(1, "news")}):
                result = _diffuse(chain_graph, profiles, rumor, [1], SimilarityGate(metric, 0.0))
                assert result.insertion_log == [1], (metric, sorted(profiles))

    def test_undefined_metric_against_the_rumor_names_the_user(self, chain_graph, news_profiles):
        # follower 2's topics equal the rumor's: constant binary vectors
        rumor = RumorContent(frozenset({"news", "politics"}))
        gate = SimilarityGate(Metric.PEARSON, 0.5)
        with pytest.raises(UndefinedCorrelationError, match=r"^pearson gate on user 2 against the rumor: "):
            diffuse_user_content(chain_graph, news_profiles, rumor, [1], gate)

    @pytest.mark.parametrize(
        "entry, message",
        [
            pytest.param(
                lambda g, p, r, gate: diffuse_user_content(g, p, None, (1,), gate),
                "model gated_user_content requires rumor content",
                id="content-without-rumor",
            ),
            pytest.param(
                lambda g, p, r, gate: metric_sweep(
                    g, p, None, (1,), (gate.metric,), gate.threshold, model=ModelKind.GATED_USER_CONTENT
                ),
                "model gated_user_content requires rumor content",
                id="sweep-without-rumor",
            ),
            pytest.param(
                lambda g, p, r, gate: diffuse_user_user(g, None, (1,), gate),
                "requires user profiles",
                id="user-without-profiles",
            ),
            pytest.param(
                lambda g, p, r, gate: diffuse_user_content(g, None, r, (1,), gate),
                "requires user profiles",
                id="content-without-profiles",
            ),
            pytest.param(
                lambda g, p, r, gate: metric_sweep(g, None, None, (1,), (gate.metric,), gate.threshold),
                "requires user profiles",
                id="sweep-without-profiles",
            ),
            pytest.param(
                lambda g, p, r, gate: filtered_edge_set(g, None, None, gate),
                "requires user profiles",
                id="edge-set-without-profiles",
            ),
        ],
    )
    def test_a_missing_input_of_a_live_gate_is_a_configuration_error(self, entry, message):
        # without these checks the first two ran the user-user gate and the
        # rest failed with an AttributeError on None
        graph = load_edges(FIXTURE_DIR / "edges.csv")
        profiles = load_users(FIXTURE_DIR / "users.csv")
        rumor = load_rumor(FIXTURE_DIR / "rumor.txt")
        with pytest.raises(ConfigurationError, match=message):
            entry(graph, profiles, rumor, SimilarityGate())


class TestDecisionsOverride:
    def test_table_replaces_live_similarity(self, chain_graph):
        # topics would pass everywhere, but the table only allows 1 -> 2
        profiles = {u: profile(u, "news") for u in (1, 2, 3)}
        gate = SimilarityGate(Metric.COSINE, 0.5, decisions={(1, 2): True, (2, 3): False})
        result = diffuse_user_user(chain_graph, profiles, [1], gate)
        assert result.members == {1, 2}

    def test_table_never_admits_a_follower_without_profile(self, chain_graph):
        # the table passes both edges, but 2 has no profile; given no profiles the table decides alone
        gate = SimilarityGate(decisions={(1, 2): True, (2, 3): True})
        for rumor in (None, RumorContent(frozenset({"news"}))):
            result = _diffuse(chain_graph, {1: profile(1), 3: profile(3)}, rumor, [1], gate)
            assert result.insertion_log == [1], rumor
            assert _diffuse(chain_graph, None, rumor, [1], gate).insertion_log == [1, 2, 3], rumor

    def test_edge_absent_from_table_fails(self, chain_graph, news_profiles):
        gate = SimilarityGate(Metric.COSINE, 0.5, decisions={})
        result = diffuse_user_user(chain_graph, news_profiles, [1], gate)
        assert result.members == {1}

    def test_load_decisions(self, tmp_path):
        path = tmp_path / "decisions.csv"
        path.write_text("from_user_id,to_user_id,pass\n1,2,1\n2,3,0\n", encoding="utf-8")
        assert load_decisions(path) == {(1, 2): True, (2, 3): False}

    def test_load_decisions_rejects_bad_flag(self, tmp_path):
        path = tmp_path / "decisions.csv"
        path.write_text("from_user_id,to_user_id,pass\n1,2,maybe\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_decisions(path)

    def test_load_decisions_rejects_negative_user_id(self, tmp_path):
        path = tmp_path / "decisions.csv"
        path.write_text("from_user_id,to_user_id,pass\n1,2,1\n3,-4,0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":3: user id must be >= 0") as info:
            load_decisions(path)
        assert info.value.line_no == 3

    def test_load_decisions_rejects_conflicting_duplicate(self, tmp_path):
        path = tmp_path / "decisions.csv"
        path.write_text("from_user_id,to_user_id,pass\n1,2,1\n2,3,0\n1,2,0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"edge \(1, 2\)") as info:
            load_decisions(path)
        assert info.value.line_no == 4

    def test_load_decisions_collapses_identical_duplicates(self, tmp_path):
        path = tmp_path / "decisions.csv"
        path.write_text("from_user_id,to_user_id,pass\n1,2,1\n2,3,0\n1,2,1\n2,3,0\n", encoding="utf-8")
        assert load_decisions(path) == {(1, 2): True, (2, 3): False}


class TestFilteredEdgeSet:
    def test_matches_manual_filter(self, chain_graph):
        profiles = {1: profile(1, "news"), 2: profile(2, "news"), 3: profile(3, "sports")}
        gate = SimilarityGate(Metric.COSINE, 0.5)
        assert filtered_edge_set(chain_graph, profiles, None, gate) == {(1, 2)}

    def test_zero_threshold_keeps_every_edge(self, chain_graph, news_profiles):
        gate = SimilarityGate(Metric.COSINE, 0.0)
        assert filtered_edge_set(chain_graph, news_profiles, None, gate) == chain_graph.edges

    def test_user_content_filters_on_target(self, chain_graph, news_rumor):
        profiles = {1: profile(1, "cars"), 2: profile(2, "news", "politics"), 3: profile(3, "sports")}
        gate = SimilarityGate(Metric.COSINE, 0.5)
        assert filtered_edge_set(chain_graph, profiles, news_rumor, gate) == {(1, 2)}

    def test_undefined_metric_names_the_smallest_edge(self):
        graph = SocialGraph([(1, 9), (9, 1), (2, 40), (40, 2), (3, 33), (33, 3)])
        # one shared label: pearson has a single-label vocabulary on every edge
        profiles = {u: profile(u, "news") for u in graph.nodes}
        gate = SimilarityGate(Metric.PEARSON, 0.5)
        with pytest.raises(UndefinedCorrelationError, match=r"^pearson gate on edge \(1, 9\): "):
            filtered_edge_set(graph, profiles, None, gate)


class TestOracleAgreement:
    def test_fixpoint_equals_bfs_over_filtered_edges(self):
        rumor = RumorContent(frozenset({"t00", "t07", "t13", "t21"}))
        for graph, profiles, initials in oracle_corpus(seed=501, count=25, max_nodes=80):
            for tau in TAU_GRID:
                for metric in (Metric.COSINE, Metric.JACCARD_SET):
                    gate = SimilarityGate(metric, tau)
                    mine = diffuse_user_user(graph, profiles, initials, gate)
                    edges = filtered_edge_set(graph, profiles, None, gate)
                    assert mine.members == bfs_reachable(initials, edges)
                    content = diffuse_user_content(graph, profiles, rumor, initials, gate)
                    content_edges = filtered_edge_set(graph, profiles, rumor, gate)
                    assert content.members == bfs_reachable(initials, content_edges)

    def test_levenshtein_gate_decisions_match_full_matrix(self):
        # on-lattice thresholds: a score equal to tau must still pass
        rumor = RumorContent(frozenset({"t00", "t07", "t13", "t21"}))

        def dp_similarity(ta, tb):
            return dp_levenshtein_similarity(canonical_topic_string(ta), canonical_topic_string(tb))

        for graph, profiles, _ in oracle_corpus(seed=508, count=12, max_nodes=60):
            user_user = {e: dp_similarity(profiles[e[0]].topics, profiles[e[1]].topics) for e in graph.edges}
            user_content = {u: dp_similarity(profiles[u].topics, rumor.topics) for u in graph.nodes}
            for tau in TAU_GRID:
                gate = SimilarityGate(Metric.LEVENSHTEIN, tau)
                assert filtered_edge_set(graph, profiles, None, gate) == {
                    e for e, sim in user_user.items() if sim >= tau
                }
                assert filtered_edge_set(graph, profiles, rumor, gate) == {
                    (a, b) for a, b in graph.edges if user_content[b] >= tau
                }

    def test_levenshtein_admit_equals_score_for_both_models(self):
        # sources in runs, in reverse, and interleaved: the pattern table
        # must follow every change of source
        rumor = RumorContent(frozenset({"t00", "t07", "t13", "t21"}))
        shuffler = random.Random(509)
        for graph, profiles, _ in oracle_corpus(seed=510, count=12, max_nodes=60):
            edges = sorted(graph.edges)
            order = edges + edges[::-1] + shuffler.sample(edges, len(edges))
            for tau in TAU_GRID:
                gate = SimilarityGate(Metric.LEVENSHTEIN, tau)
                for source in (None, rumor):
                    admit = admission_test(profiles, source, gate)
                    for i, j in order:
                        pi = profiles[i] if source is None else rumor
                        assert admit(i, j) == (score(Metric.LEVENSHTEIN, pi, profiles[j]) >= tau), (i, j)

    def test_levenshtein_pattern_built_once_per_run_of_checks_from_a_source(self, monkeypatch):
        built = []
        build = similarity._pattern
        monkeypatch.setattr(similarity, "_pattern", lambda text: built.append(text) or build(text))
        # (gate, source) of each check: a new gate starts a new run
        checks = []
        gates = count()

        def recording(*args):
            admit = admission_test(*args)
            gate_no = next(gates)

            def admit_recorded(i, j):
                checks.append((gate_no, i))
                return admit(i, j)

            return admit_recorded

        def recording_rounds(*args):
            level = rounds(*args)
            gate_no = next(gates)

            def level_recorded():
                decide = level()

                def decide_recorded(pairs):
                    checks.extend((gate_no, i) for i, _ in pairs)
                    return decide(pairs)

                return decide_recorded

            return level_recorded

        rounds = gated._admission_rounds
        monkeypatch.setattr(gated, "admission_test", recording)
        monkeypatch.setattr(gated, "_admission_rounds", recording_rounds)
        monkeypatch.setattr(simulate, "admission_test", recording)
        rumor = RumorContent(frozenset({"t00", "t07", "t13", "t21"}))
        rng = random.Random(511)
        saved = {}
        for tau in (0.0, 0.25, 0.5):
            graph = random_digraph(rng, 40, 0.15)
            profiles = random_profiles(rng, graph.nodes, max_created=4)
            initials = (1, 2)
            gate = SimilarityGate(Metric.LEVENSHTEIN, tau)
            cfg = SimulationConfig(
                Path("e"), Path("u"), metric=Metric.LEVENSHTEIN, threshold=tau, max_time=6, initials=initials
            )
            runs = {
                "closure": lambda: diffuse_user_user(graph, profiles, initials, gate),
                "edge set": lambda: filtered_edge_set(graph, profiles, None, gate),
                "once": lambda: run_trials(cfg, graph, profiles),
                "every step": lambda: run_trials(
                    cfg._replace(evaluation_policy=EvaluationPolicy.EVERY_STEP), graph, profiles
                ),
                "content": lambda: diffuse_user_content(graph, profiles, rumor, initials, gate),
            }
            for name, run in runs.items():
                del built[:], checks[:]
                run()
                # a closure decides in rounds: one table per source, and
                # against the rumor the one source is the rumor
                if name == "content":
                    limit = 1
                elif name == "closure":
                    limit = len(set(checks))
                else:
                    limit = sum(1 for _ in groupby(checks))
                assert len(built) <= limit, name
                saved[name] = saved.get(name, 0) + len(checks) - len(built)
        # every kind of run reuses a table somewhere
        assert all(n > 0 for n in saved.values()), saved

    @pytest.mark.parametrize("content", [False, True], ids=["user", "content"])
    def test_levenshtein_rounds_equal_the_one_pair_at_a_time_closure(self, monkeypatch, content):
        decided = []

        def recording(*args):
            level = rounds(*args)

            def level_recorded():
                decide = level()
                return lambda pairs: decided.extend(pairs) or decide(pairs)

            return level_recorded

        rounds = gated._admission_rounds
        monkeypatch.setattr(gated, "_admission_rounds", recording)
        rumor = RumorContent(frozenset({"t00", "t07", "t13", "t21"})) if content else None
        shuffler = random.Random(512)
        compared = Counter()
        for graph, profiles, initials in oracle_corpus(seed=513, count=16, max_nodes=120):
            # a fifth of the users, none of them an initial, have no profile
            absent = set(shuffler.sample(sorted(graph.nodes - set(initials)), len(graph.nodes) // 5))
            present = {u: p for u, p in profiles.items() if u not in absent}
            for tau in TAU_GRID:
                gate = SimilarityGate(Metric.LEVENSHTEIN, tau)
                members, log, pairs = sequential_closure(graph, present, rumor, initials, gate)
                del decided[:]
                result = _diffuse(graph, present, rumor, initials, gate)
                assert result.members == members
                assert result.insertion_log == log
                assert Counter(decided) == Counter(pairs)
                # the batch form never meets a source without a profile
                assert all(i in present for i, _ in decided)
                compared.update(
                    reached=len(log) > len(set(initials)),
                    missing=any(u in absent for pair in pairs for u in pair),
                    retested=len(pairs) > len({j for _, j in pairs}),
                )
        # the corpus reaches past the initials, meets users without a profile
        # and tests followers against more than one source
        assert compared["reached"] > 30 and compared["missing"] > 30 and compared["retested"] > 5, compared

    def test_levenshtein_rounds_test_each_follower_once_against_the_rumor(self, monkeypatch):
        handed = []

        def recording(threshold):
            level = levels(threshold)

            def level_recorded():
                test = level()
                return lambda pairs: handed.extend(id(b) for _, b in pairs) or test(pairs)

            return level_recorded

        levels = gated._levenshtein_levels
        monkeypatch.setattr(gated, "_levenshtein_levels", recording)
        rumor = RumorContent(frozenset({"t00", "t07", "t13", "t21"}))
        retested = 0
        for graph, profiles, initials in oracle_corpus(seed=513, count=16, max_nodes=120):
            # each user its own topic-set object, so the batch test's inputs name their follower
            own = {u: p._replace(topics=OwnTopics(p.topics)) for u, p in profiles.items()}
            for tau in TAU_GRID:
                gate = SimilarityGate(Metric.LEVENSHTEIN, tau)
                _, _, pairs = sequential_closure(graph, own, rumor, initials, gate)
                del handed[:]
                _diffuse(graph, own, rumor, initials, gate)
                # every follower the one-pair closure asks about, each handed over once
                assert Counter(handed) == Counter({id(own[j].topics) for _, j in pairs})
                retested += len(pairs) > len({j for _, j in pairs})
        # the corpus asks about a refused follower again from another source
        assert retested > 5, retested

    def test_fixpoint_equals_fully_independent_oracle(self):
        # off-lattice threshold so float noise cannot flip a gate decision
        tau = 0.437
        for graph, profiles, initials in oracle_corpus(seed=502, count=15, max_nodes=60):
            gate = SimilarityGate(Metric.COSINE, tau)
            mine = diffuse_user_user(graph, profiles, initials, gate)
            edges = {
                (a, b)
                for a, b in graph.edges
                if brute_cosine(profiles[a].topics, profiles[b].topics) >= tau
            }
            assert mine.members == bfs_reachable(initials, edges)

    def test_result_does_not_depend_on_processing_order(self):
        shuffler = random.Random(503)
        for graph, profiles, initials in oracle_corpus(seed=504, count=10, max_nodes=60):
            gate = SimilarityGate(Metric.DICE, 0.5)
            mine = diffuse_user_user(graph, profiles, initials, gate)
            admit = admission_test(profiles, None, gate)
            for _ in range(3):
                assert shuffled_closure(graph, initials, admit, shuffler) == mine.members

    def test_threshold_monotonicity(self):
        for graph, profiles, initials in oracle_corpus(seed=505, count=10, max_nodes=60):
            previous = None
            for tau in TAU_GRID:
                members = diffuse_user_user(
                    graph, profiles, initials, SimilarityGate(Metric.COSINE, tau)
                ).members
                assert set(initials) <= members
                if previous is not None:
                    assert members <= previous
                previous = members

    def test_user_content_members_are_rumor_similar(self):
        rumor = RumorContent(frozenset({"t03", "t04", "t05"}))
        for graph, profiles, initials in oracle_corpus(seed=506, count=5, max_nodes=60):
            gate = SimilarityGate(Metric.COSINE, 0.5)
            result = diffuse_user_content(graph, profiles, rumor, initials, gate)
            for member in result.members - set(initials):
                assert brute_cosine(profiles[member].topics, rumor.topics) >= 0.5 - 1e-12


class TestInsertionLog:
    def test_log_matches_members_without_duplicates(self):
        rng = random.Random(507)
        g = random_digraph(rng, 40, 0.08)
        profiles = random_profiles(rng, g.nodes)
        result = diffuse_user_user(g, profiles, [1, 5], SimilarityGate(Metric.COSINE, 0.3))
        assert len(result.insertion_log) == len(set(result.insertion_log))
        assert set(result.insertion_log) == result.members
        assert result.insertion_log[:2] == [1, 5]
