"""Graph construction, CSV ingestion, round-tripping, and validation."""

from __future__ import annotations

import random

import pytest

from helpers import random_digraph
from rumorsim import (
    ConfigurationError,
    ParseError,
    SocialGraph,
    UnknownUserError,
    UserProfile,
    load_edges,
    load_rumor,
    load_users,
    save_edges,
    validate,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestSocialGraph:
    def test_adjacency_is_sorted_both_ways(self):
        g = SocialGraph([(5, 1), (5, 9), (5, 3), (2, 1), (7, 1)])
        assert g.out_neighbors(5) == [1, 3, 9]
        assert g.in_neighbors(1) == [2, 5, 7]

    def test_adjacency_matches_brute_force_on_random_graphs(self):
        rng = random.Random(431)
        for _ in range(50):
            n = rng.randint(2, 30)
            pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 80))]
            pairs = [(a, b) for a, b in pairs if a != b]
            # repeated pairs collapse
            g = SocialGraph(pairs + pairs[: len(pairs) // 2])
            assert g.edges == set(pairs)
            for u in g.nodes:
                assert g.out_neighbors(u) == sorted({b for a, b in pairs if a == u})
                assert g.in_neighbors(u) == sorted({a for a, b in pairs if b == u})

    def test_out_neighbors_unknown_user(self):
        g = SocialGraph([(1, 2)])
        with pytest.raises(UnknownUserError):
            g.out_neighbors(99)
        with pytest.raises(UnknownUserError):
            g.in_neighbors(99)

    def test_out_neighbors_is_pure(self):
        g = SocialGraph([(1, 2), (1, 3)])
        first = g.out_neighbors(1)
        first.append(42)  # caller-side mutation must not leak back
        assert g.out_neighbors(1) == [2, 3]
        sources = g.in_neighbors(3)
        sources.append(42)
        assert g.in_neighbors(3) == [1]

    def test_constructor_rejects_self_loop(self):
        with pytest.raises(ConfigurationError):
            SocialGraph([(1, 1)])

    def test_extra_nodes_are_kept_isolated(self):
        g = SocialGraph([(1, 2)], nodes=[7])
        assert 7 in g.nodes
        assert g.out_neighbors(7) == []

    def test_huge_noncontiguous_ids(self):
        a, b = 10**15 + 7, 3
        g = SocialGraph([(a, b)])
        assert g.out_neighbors(a) == [b]


class TestLoadEdges:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path / "edges.csv", "from_user_id,to_user_id\n1,2\n2,3\n1,3\n")
        g = load_edges(path)
        assert g.nodes == {1, 2, 3}
        assert g.edges == {(1, 2), (2, 3), (1, 3)}
        assert g.load_stats.rows_read == 3
        assert g.load_stats.duplicate_edges == 0

    def test_duplicate_rows_collapse_and_are_counted(self, tmp_path):
        path = write(tmp_path / "edges.csv", "from_user_id,to_user_id\n1,2\n1,2\n")
        g = load_edges(path)
        assert len(g.nodes) == 2
        assert len(g.edges) == 1
        assert g.load_stats.duplicate_edges == 1

    def test_self_loops_skipped_with_count(self, tmp_path):
        path = write(tmp_path / "edges.csv", "from_user_id,to_user_id\n1,1\n1,2\n")
        g = load_edges(path)
        assert g.edges == {(1, 2)}
        assert g.load_stats.self_loops_skipped == 1

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = write(tmp_path / "edges.csv", "from_user_id,to_user_id\n1,2\nnope,3\n")
        with pytest.raises(ParseError) as err:
            load_edges(path)
        assert err.value.line_no == 3
        assert ":3:" in str(err.value)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = write(tmp_path / "edges.csv", "from_user_id,to_user_id\n1,2,3\n")
        with pytest.raises(ParseError) as err:
            load_edges(path)
        assert err.value.line_no == 2

    def test_bad_header_rejected(self, tmp_path):
        path = write(tmp_path / "edges.csv", "source,target\n1,2\n")
        with pytest.raises(ParseError) as err:
            load_edges(path)
        assert err.value.line_no == 1

    def test_negative_id_rejected(self, tmp_path):
        path = write(tmp_path / "edges.csv", "from_user_id,to_user_id\n-1,2\n")
        with pytest.raises(ParseError):
            load_edges(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_edges(tmp_path / "no_such.csv")

    def test_round_trip_equality(self, tmp_path):
        rng = random.Random(77)
        for k in range(10):
            g = random_digraph(rng, rng.randint(2, 40), 0.1)
            path = tmp_path / f"rt_{k}.csv"
            save_edges(g, path)
            g2 = load_edges(path)
            assert g2.edges == g.edges
            # isolated nodes have no edge rows, so only linked nodes survive
            linked = {u for e in g.edges for u in e}
            assert g2.nodes == linked


class TestLoadUsers:
    def test_happy_path(self, tmp_path):
        path = write(
            tmp_path / "users.csv",
            'user_id,topics,created_at,is_diffuser\n'
            '1,"News , Politics",0,1\n'
            "2,sports,3,false\n"
            "3,,5,TRUE\n",
        )
        profiles = load_users(path)
        assert profiles[1] == UserProfile(1, frozenset({"news", "politics"}), 0, True)
        assert profiles[2] == UserProfile(2, frozenset({"sports"}), 3, False)
        assert profiles[3].topics == frozenset()
        assert profiles[3].observed_diffuser is True

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = write(
            tmp_path / "users.csv",
            "user_id,topics,created_at,is_diffuser\n7,a,0,1\n7,b,0,0\n",
        )
        with pytest.raises(ParseError) as err:
            load_users(path)
        assert "7" in str(err.value)
        assert err.value.line_no == 3

    def test_bad_created_at(self, tmp_path):
        path = write(tmp_path / "users.csv", "user_id,topics,created_at,is_diffuser\n1,a,soon,1\n")
        with pytest.raises(ParseError):
            load_users(path)

    def test_negative_created_at(self, tmp_path):
        path = write(tmp_path / "users.csv", "user_id,topics,created_at,is_diffuser\n1,a,-2,1\n")
        with pytest.raises(ParseError):
            load_users(path)

    def test_bad_diffuser_flag(self, tmp_path):
        path = write(tmp_path / "users.csv", "user_id,topics,created_at,is_diffuser\n1,a,0,yes\n")
        with pytest.raises(ParseError):
            load_users(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path / "users.csv", "id,topics,created_at,is_diffuser\n1,a,0,1\n")
        with pytest.raises(ParseError):
            load_users(path)


class TestLoadRumor:
    def test_one_label_per_line_normalized(self, tmp_path):
        path = write(tmp_path / "rumor.txt", "News\n Politics \n\nnews\n")
        rumor = load_rumor(path)
        assert rumor.topics == frozenset({"news", "politics"})


class TestValidate:
    def test_clean_inputs_empty_report(self):
        g = SocialGraph([(1, 2)])
        profiles = {
            1: UserProfile(1, frozenset({"a"}), 0, False),
            2: UserProfile(2, frozenset({"b"}), 0, False),
        }
        report = validate(g, profiles)
        assert report.is_empty

    def test_findings_are_reported_not_fatal(self):
        g = SocialGraph([(1, 2), (2, 3)])
        profiles = {
            1: UserProfile(1, frozenset({"a"}), 0, False),
            2: UserProfile(2, frozenset(), 0, False),  # empty topics
            9: UserProfile(9, frozenset({"c"}), 0, False),  # touches no edge
        }
        report = validate(g, profiles)
        assert report.missing_profiles == [3]
        assert report.empty_topics == [2]
        assert report.isolated_nodes == [9]
        assert not report.is_empty
