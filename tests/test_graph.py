"""Graph construction, CSV ingestion, round-tripping, and validation."""

from __future__ import annotations

import csv
import dataclasses
import gc
import random
import sys

import pytest

import rumorsim.graph
from helpers import FIXTURE_DIR, generator_tokenize_topics, random_digraph, rowwise_load_edges
from rumorsim import (
    ConfigurationError,
    Metric,
    ParseError,
    SocialGraph,
    UnknownUserError,
    UserProfile,
    load_config,
    load_decisions,
    load_edges,
    load_rumor,
    load_users,
    read_trace_csv,
    save_edges,
    score,
    validate,
)
from rumorsim.graph import USERS_HEADER, LoadStats, _bulk_edge_rows, _open_input


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestSocialGraph:
    def test_adjacency_is_sorted_both_ways(self):
        g = SocialGraph([(5, 1), (5, 9), (5, 3), (2, 1), (7, 1)])
        assert g.out_neighbors(5) == (1, 3, 9)
        assert list(g.adjacency) == [1, 2, 3, 5, 7, 9]

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
                assert g.out_neighbors(u) == tuple(sorted({b for a, b in pairs if a == u}))

    def test_out_neighbors_unknown_user(self):
        g = SocialGraph([(1, 2)])
        with pytest.raises(UnknownUserError):
            g.out_neighbors(99)

    def test_out_neighbors_is_pure(self):
        # callers cannot mutate the graph through a neighbour run
        g = SocialGraph([(1, 2), (1, 3)])
        before = graph_attrs(g)
        with pytest.raises(AttributeError):
            g.out_neighbors(1).append(42)
        assert graph_attrs(g) == before
        assert g.out_neighbors(1) == (2, 3)

    def test_constructor_rejects_self_loop(self):
        with pytest.raises(ConfigurationError):
            SocialGraph([(1, 1)])

    def test_self_loop_error_names_the_smallest_user(self):
        with pytest.raises(ConfigurationError, match=r"^self-loop on user 2$"):
            SocialGraph([(5, 5), (2, 2), (1, 3)])

    def test_extra_nodes_are_kept_isolated(self):
        g = SocialGraph([(1, 2)], nodes=[7])
        assert 7 in g.nodes
        assert g.out_neighbors(7) == ()

    def test_huge_noncontiguous_ids(self):
        a, b = 10**15 + 7, 3
        g = SocialGraph([(a, b)])
        assert g.out_neighbors(a) == (b,)


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

    def test_topics_are_tokenize_topics_labels_held_once(self, tmp_path):
        # case, padding, empty fragments, NBSP, dotted capital I and final sigma;
        # the expected labels are literals, then the per-fragment reference
        fixed = {
            "AΣ,Σ, ΑΣ.,Σ.Σ ,İ": frozenset({"aς", "σ", "ας.", "σ.ς", "i\u0307"}),
            "": frozenset(),
            " , ,": frozenset(),
        }
        pieces = ["A", "a", "Σ", "σ", "ς", "İ", "i", "\u0307", ".", "'", ",", ",", " ", "  ", "\t", "\u00a0", "\u2003", "News"]
        rng = random.Random(173)
        for k in range(20):
            drawn = ["".join(rng.choice(pieces) for _ in range(rng.randrange(14))) for _ in range(200)]
            raws = [*fixed, *drawn]
            expected = [*fixed.values(), *map(generator_tokenize_topics, drawn)]
            path = tmp_path / f"users_{k}.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([USERS_HEADER] + [[uid, raw, 0, 0] for uid, raw in enumerate(raws)])
            profiles = load_users(path)
            for uid, (raw, labels) in enumerate(zip(raws, expected)):
                topics = profiles[uid].topics
                assert topics == labels, repr(raw)
                assert all(label is sys.intern(label) for label in topics), repr(raw)

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


# each file has a quoted field spanning lines 2-3 and a bad row on line 4
MULTILINE_CASES = [
    pytest.param(load_edges, 'from_user_id,to_user_id\n"1\n",2\nx,3\n', id="load_edges"),
    pytest.param(
        load_users,
        'user_id,topics,created_at,is_diffuser\n1,"a,\nb",0,0\n2,c,soon,0\n',
        id="load_users",
    ),
    pytest.param(
        load_decisions, 'from_user_id,to_user_id,pass\n"1\n",2,1\n1,3,maybe\n', id="load_decisions"
    ),
    pytest.param(
        lambda path: read_trace_csv(path, 0),
        'trial,step,user_id,new_state\n0,0,1,"diff\nuser"\n0,x,2,diffuser\n',
        id="read_trace_csv",
    ),
]


class TestRowLineNumbers:
    @pytest.mark.parametrize("reader, text", MULTILINE_CASES)
    def test_error_after_a_multiline_field_names_its_own_line(self, tmp_path, reader, text):
        path = write(tmp_path / "input.csv", text)
        with pytest.raises(ParseError) as err:
            reader(path)
        assert err.value.line_no == 4
        assert ":4:" in str(err.value)

    def test_a_multiline_row_is_named_by_its_first_line(self, tmp_path):
        # a blank line 3, then a three-field row on lines 4-5
        path = write(tmp_path / "edges.csv", 'from_user_id,to_user_id\n1,2\n\n"3\n",4,5\n')
        with pytest.raises(ParseError) as err:
            load_edges(path)
        assert str(err.value).endswith(":4: expected 2 fields, got 3")
        # a bad created_at on a row that spans lines 2-3
        path = write(tmp_path / "users.csv", 'user_id,topics,created_at,is_diffuser\n1,"a,\nb",soon,0\n')
        with pytest.raises(ParseError) as err:
            load_users(path)
        assert str(err.value).endswith(":2: created_at is not an integer: 'soon'")


def graph_attrs(g):
    return g.nodes, list(g.adjacency.items())


def load_outcome(loader, path):
    try:
        g = loader(path)
    except Exception as exc:  # the outcome under test is which error, if any
        return type(exc), str(exc)
    return graph_attrs(g), g.load_stats


# field texts: plain ids (small, so duplicates and self-loops are common)
# and what int() or the CSV reader treats specially
PLAIN_FIELDS = ["0", "1", "2", "3", "4", "12", "123456789012345678901"]
ODD_FIELDS = [
    " 3", "4 ", "\x0c5", "+2", "1_0", "1__0", "\u0663", '"4"', '"1,2"', "-1", "-0",
    "x", "", "1\x00", "1.0", "0x1",
]
# "\xff" stands for an undecodable byte
ODD_LINES = ["", " ", "\t", "1", "1,2,3", ",", '"1\n",2', "5;6", "1,\xff"]
HEADERS = ["from_user_id,to_user_id"] * 12 + [
    "source,target",
    '"from_user_id","to_user_id"',
    "\ufefffrom_user_id,to_user_id",
    "from_user_id, to_user_id",
    "",
]
LINE_ENDS = ["\n"] * 6 + ["\r\n"] * 3 + ["\r"]


def random_edges_file(rng) -> bytes:
    """A small edges.csv, mostly well formed, with the anomalies a loader must agree on."""
    lines = [rng.choice(HEADERS)]
    odd = rng.random() < 0.5
    for _ in range(rng.randint(0, 12)):
        if odd and rng.random() < 0.08:
            lines.append(rng.choice(ODD_LINES))
            continue
        fields = [rng.choice(PLAIN_FIELDS[:5]) if rng.random() < 0.9 else rng.choice(PLAIN_FIELDS)]
        fields.append(rng.choice(PLAIN_FIELDS[:5]))
        if odd and rng.random() < 0.1:
            fields[rng.randrange(2)] = rng.choice(ODD_FIELDS)
        lines.append(",".join(fields))
    if odd and rng.random() < 0.2:
        lines.append("")
    ends = [rng.choice(LINE_ENDS) if odd else "\n" for _ in lines]
    if rng.random() < 0.3:
        ends[-1] = ""
    data = "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")
    if odd and rng.random() < 0.05:
        cut = rng.randrange(len(data) + 1)
        data = data[:cut] + b"\xff" + data[cut:]
    return data.replace("\xff".encode("utf-8"), b"\xff")


class TestLoaderDifferential:
    def test_matches_the_row_by_row_reference(self, tmp_path):
        rng = random.Random(2718)
        path = tmp_path / "edges.csv"
        tally = {"bulk": 0, "fallback_ok": 0, "fallback_error": 0}
        for _ in range(1500):
            path.write_bytes(random_edges_file(rng))
            expected = load_outcome(rowwise_load_edges, path)
            assert load_outcome(load_edges, path) == expected, path.read_bytes()
            if _bulk_edge_rows(path) is not None:
                tally["bulk"] += 1
            else:
                tally["fallback_ok" if isinstance(expected[1], LoadStats) else "fallback_error"] += 1
        # every route is exercised, not just the clean one
        assert min(tally.values()) >= 50, tally

    @pytest.mark.parametrize(
        "text",
        [
            # a line without a comma and one with two keep the field count
            "from_user_id,to_user_id\n1\n2,3,4\n",
            "from_user_id,to_user_id\n1,2,3\n4\n",
            "from_user_id,to_user_id\n1\r2,3,4\n",
            "from_user_id,to_user_id\r\n1,2\r\n3\r\n4,5,6",
            # lone CR line ends throughout, then mixed with blank lines
            "from_user_id,to_user_id\r1,2\r3,4\r",
            "from_user_id,to_user_id\n1,2\r\r\n\n3,1\r3,3\n",
        ],
    )
    def test_matches_the_reference_on_shifted_line_ends(self, tmp_path, text):
        path = write(tmp_path / "edges.csv", text)
        assert load_outcome(load_edges, path) == load_outcome(rowwise_load_edges, path)

    def test_blank_lines_stay_on_the_bulk_path(self, tmp_path):
        path = write(tmp_path / "edges.csv", "from_user_id,to_user_id\n\n1,2\r\n\r\n\r3,4")
        assert _bulk_edge_rows(path) == ([1, 3], [2, 4])
        path = write(tmp_path / "edges.csv", "from_user_id,to_user_id\r\n\n\r\n")
        assert _bulk_edge_rows(path) == ([], [])
        assert load_edges(path).load_stats == LoadStats()

    def test_overlong_field_falls_back_to_the_reader_error(self, tmp_path):
        # int() ignores the padding, the CSV reader rejects the field length
        limit = csv.field_size_limit()
        path = write(tmp_path / "edges.csv", "from_user_id,to_user_id\n1,2\n3" + " " * limit + ",4\n")
        assert _bulk_edge_rows(path) is None
        with pytest.raises(ParseError) as err:
            load_edges(path)
        assert err.value.line_no == 3
        assert load_outcome(load_edges, path) == load_outcome(rowwise_load_edges, path)


BATCH = 1 << 16
EDGES_LINE = "from_user_id,to_user_id\n"


def plain_lines(rng, size):
    """Plain edge lines, ``size`` characters in all; ids below 50, so repeats and self-loops occur."""
    lines = []
    while size > 12:
        lines.append(f"{rng.randrange(50)},{rng.randrange(50)}\n")
        size -= len(lines[-1])
    # leading zeros on the last line's second id fill the size exactly
    first = str(rng.randrange(50))
    lines.append(f"{first},{str(rng.randrange(50)).zfill(size - len(first) - 2)}\n")
    return "".join(lines)


def read_batches(path):
    """The texts ``_bulk_edge_rows`` reads after the header, batch by batch."""
    with open(path, newline="", encoding="utf-8") as fh:
        fh.readline()
        return list(iter(lambda: fh.read(BATCH) + fh.readline(), ""))


class TestBatchBoundaries:
    """A line end, a blank line or a long line on the read boundary, in every batch of a file."""

    # (piece, cut, rest): the read stops after piece[:cut], the batch then
    # finishes its line, and the last ``rest`` characters start the next batch
    PIECES = [
        pytest.param("1,2\r\n", 4, 0, True, id="crlf split"),
        pytest.param("1,2\r\n", 3, 0, True, id="crlf after the read"),
        pytest.param("1,2\r3,4\n", 4, 0, True, id="lone cr ends the read"),
        pytest.param("1,2\r", 3, 0, True, id="lone cr after the read"),
        pytest.param("1,2\n\n", 4, 0, True, id="blank line ends a batch"),
        pytest.param("1,2\r\n\r\n3,4\n", 4, 6, True, id="blank line starts a batch"),
        pytest.param("0" * 70_000 + "7,8\n", 10, 0, True, id="long line"),
        pytest.param("7" + " " * 70_000 + ",8\n", 10, 0, False, id="long padded line"),
        pytest.param("0" * 140_000 + "7,8\n", 10, 0, False, id="line over the field limit"),
    ]

    @pytest.mark.parametrize("piece, cut, rest, plain", PIECES)
    def test_matches_the_reference_on_every_boundary(self, tmp_path, piece, cut, rest, plain):
        # the long plain lines are ids with tens of thousands of leading zeros
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            rng = random.Random(len(piece) * 10 + cut)
            text = EDGES_LINE + plain_lines(rng, BATCH - cut)
            for _ in range(3):
                text += piece + plain_lines(rng, BATCH - cut - rest)
            path = tmp_path / "edges.csv"
            path.write_bytes((text + piece + plain_lines(rng, 500)).encode("utf-8"))
            batches = read_batches(path)
            assert len(batches) == 5
            for batch in batches[:4]:
                assert batch[BATCH - cut : BATCH] == piece[:cut]
                assert batch.endswith(piece[: len(piece) - rest])
            assert load_outcome(load_edges, path) == load_outcome(rowwise_load_edges, path)
            assert (_bulk_edge_rows(path) is not None) is plain
        finally:
            sys.set_int_max_str_digits(limit)

    def test_every_text_of_one_id_loads_as_one_int_object(self, tmp_path):
        # ids of 257 and up: CPython shares the objects of smaller ints anyway
        big = 123456789
        rng = random.Random(5)
        lines = []
        for k, text in enumerate([str(big), f"0{big}", f"00{big}"]):
            # each text in its own batch, as a source and as a follower
            lines += [plain_lines(rng, BATCH), f"{text},{1000 + k}\n{2000 + k},{text}\n"]
        path = write(tmp_path / "edges.csv", EDGES_LINE + "".join(lines))
        assert len(read_batches(path)) == 4
        fallback = write(tmp_path / "fallback.csv", path.read_text(encoding="utf-8") + f"+{big},5\n")
        assert _bulk_edge_rows(path) is not None and _bulk_edge_rows(fallback) is None
        for g in (load_edges(path), load_edges(fallback)):
            (one,) = [u for u in g.nodes if u == big]
            found = [u for u in g._out if u == big] + [v for run in g._out.values() for v in run if v == big]
            assert len(found) == 4
            assert all(u is one for u in found)


class TestInputOrder:
    @pytest.fixture
    def rows(self):
        rng = random.Random(58)
        pairs = [(rng.randrange(40), rng.randrange(40)) for _ in range(300)]
        return sorted(pairs + pairs[:50])

    @staticmethod
    def write_rows(path, rows, end="\n"):
        text = end.join(["from_user_id,to_user_id"] + [f"{a},{b}" for a, b in rows]) + end
        path.write_bytes(text.encode("utf-8"))
        return path

    def test_shuffled_and_crlf_copies_load_the_same_graph(self, tmp_path, rows):
        original = load_edges(self.write_rows(tmp_path / "sorted.csv", rows))
        stats = original.load_stats
        assert stats.duplicate_edges > 0 and stats.self_loops_skipped > 0
        shuffled = rows[:]
        random.Random(59).shuffle(shuffled)
        copies = [
            self.write_rows(tmp_path / "shuffled.csv", shuffled),
            self.write_rows(tmp_path / "crlf.csv", rows, "\r\n"),
            self.write_rows(tmp_path / "shuffled_crlf.csv", shuffled, "\r\n"),
            self.write_rows(tmp_path / "cr.csv", rows, "\r"),
        ]
        for path in copies:
            # every copy is plain, so it parses on the bulk route
            assert _bulk_edge_rows(path) is not None, path.name
            g = load_edges(path)
            assert graph_attrs(g) == graph_attrs(original)
            assert g.load_stats == stats

    def test_constructor_loader_and_reference_agree(self, tmp_path):
        rng = random.Random(3141)
        path = tmp_path / "edges.csv"
        for _ in range(200):
            n = rng.randint(1, 15)
            rows = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 60))]
            rows += rng.sample(rows, len(rows) // 3)
            rng.shuffle(rows)
            built = SocialGraph([(a, b) for a, b in rows if a != b])
            self.write_rows(path, rows)
            loaded = load_edges(path)
            reference = rowwise_load_edges(path)
            for g in (loaded, reference):
                assert g.edges == built.edges
                assert g.nodes == built.nodes
                for u in built.nodes:
                    assert g.out_neighbors(u) == built.out_neighbors(u)
                    assert type(g.out_neighbors(u)) is tuple
            assert loaded.load_stats == reference.load_stats

    def test_constructor_matches_the_loader(self, tmp_path, rows):
        loaded = load_edges(self.write_rows(tmp_path / "edges.csv", rows))
        built = SocialGraph([(a, b) for a, b in reversed(rows) if a != b])
        assert graph_attrs(built) == graph_attrs(loaded)
        assert built.load_stats is None


class TestAscendingInput:
    """Strictly ascending pairs skip the dedup pass; anything else takes it."""

    @staticmethod
    def dedup_passes(monkeypatch):
        passes = []
        real = rumorsim.graph._dedup
        monkeypatch.setattr(rumorsim.graph, "_dedup", lambda runs: passes.append(1) or real(runs))
        return passes

    def test_matches_shuffled_copies_with_duplicates(self, tmp_path, monkeypatch):
        rng = random.Random(62)
        pairs = [(rng.randrange(40), rng.randrange(40)) for _ in range(300)]
        ascending = sorted({(a, b) for a, b in pairs if a != b})
        passes = self.dedup_passes(monkeypatch)
        fast = SocialGraph(ascending)
        save_edges(fast, tmp_path / "sorted.csv")
        loaded = load_edges(tmp_path / "sorted.csv")
        assert passes == []
        assert loaded.load_stats == LoadStats(rows_read=len(ascending))
        for k in range(5):
            copy = ascending + rng.sample(ascending, 40) + [(u, u) for u in range(k)]
            rng.shuffle(copy)
            TestInputOrder.write_rows(tmp_path / "shuffled.csv", copy)
            shuffled = load_edges(tmp_path / "shuffled.csv")
            built = SocialGraph([(a, b) for a, b in copy if a != b])
            for g in (loaded, shuffled, built):
                assert graph_attrs(g) == graph_attrs(fast)
            assert shuffled.load_stats == LoadStats(len(copy), 40, k)
        assert len(passes) == 10

    @pytest.mark.parametrize(
        "pairs",
        [
            pytest.param([(1, 2), (1, 2), (1, 3)], id="equal neighbours"),
            pytest.param([(1, 2), (2, 5), (2, 4), (3, 1)], id="descending run"),
            pytest.param([(3, 1), (2, 1), (1, 2)], id="descending"),
        ],
    )
    def test_anything_but_strictly_ascending_is_deduped_and_sorted(self, pairs, monkeypatch):
        passes = self.dedup_passes(monkeypatch)
        g = SocialGraph(pairs)
        assert passes == [1]
        assert [(a, b) for a, followers in g.adjacency.items() for b in followers] == sorted(set(pairs))
        assert graph_attrs(g) == graph_attrs(SocialGraph(sorted(set(pairs))))

    def test_a_self_loop_in_ascending_pairs_is_rejected(self, monkeypatch):
        passes = self.dedup_passes(monkeypatch)
        with pytest.raises(ConfigurationError, match="self-loop on user 3"):
            SocialGraph([(1, 2), (3, 3), (4, 5), (6, 6)])
        assert passes == []


class TestCollectorPausedDuringLoads:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_loads_pause_the_collector_and_restore_its_state(self, tmp_path, monkeypatch, enabled):
        seen = []
        build = SocialGraph._build
        monkeypatch.setattr(SocialGraph, "_build", lambda *args: seen.append(gc.isenabled()) or build(*args))
        monkeypatch.setattr(rumorsim.graph, "UserProfile", lambda *args: seen.append(gc.isenabled()) or UserProfile(*args))
        bad = write(tmp_path / "users.csv", "user_id,topics,created_at,is_diffuser\n1,a,0,0\n1,b,0,0\n")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            load_edges(FIXTURE_DIR / "edges.csv")
            load_users(FIXTURE_DIR / "users.csv")
            assert gc.isenabled() is enabled
            with pytest.raises(ParseError, match="duplicate user id 1"):
                load_users(bad)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        # one graph build, ten fixture profiles, the bad file's first row
        assert len(seen) == 1 + 10 + 1
        assert not any(seen)


BAD_BYTE_CASES = [
    pytest.param(load_config, "seed = 1\r\nmodel = sir\rtrials = 2\xff\n", id="load_config"),
    pytest.param(load_rumor, "news\r\npolitics\r\xffsports\n", id="load_rumor"),
    pytest.param(load_edges, "from_user_id,to_user_id\r\n1,2\r3,\xff4\n", id="load_edges"),
    pytest.param(load_users, "user_id,topics,created_at,is_diffuser\r\n1,a,0,0\r2,\xff,0,0\n", id="load_users"),
    pytest.param(load_decisions, "from_user_id,to_user_id,pass\r\n1,2,1\r1,3,\xff\n", id="load_decisions"),
    pytest.param(
        lambda path: read_trace_csv(path, 0),
        "trial,step,user_id,new_state\r\n0,0,1,diffuser\r0,1,2,\xff\n",
        id="read_trace_csv",
    ),
]

# a field one character over the CSV reader's limit on line 3
OVERLONG_CASES = [
    pytest.param(load_edges, "from_user_id,to_user_id\n1,2\n{},4\n", id="load_edges"),
    pytest.param(load_users, "user_id,topics,created_at,is_diffuser\n1,a,0,0\n2,{},0,0\n", id="load_users"),
    pytest.param(load_decisions, "from_user_id,to_user_id,pass\n1,2,1\n1,3,{}\n", id="load_decisions"),
    pytest.param(
        lambda path: read_trace_csv(path, 0),
        "trial,step,user_id,new_state\n0,0,1,diffuser\n0,1,2,{}\n",
        id="read_trace_csv",
    ),
]


class TestUnreadableInput:
    @pytest.mark.parametrize("reader, text", BAD_BYTE_CASES)
    def test_undecodable_byte_names_its_line(self, tmp_path, reader, text):
        path = tmp_path / "input"
        path.write_bytes(text.encode("utf-8").replace("\xff".encode("utf-8"), b"\xff"))
        with pytest.raises(ParseError) as err:
            reader(path)
        assert err.value.line_no == 3
        assert str(err.value) == f"{path}:3: not valid UTF-8 (invalid start byte)"

    @pytest.mark.parametrize("reader, text", OVERLONG_CASES)
    def test_csv_reader_error_names_its_line(self, tmp_path, reader, text):
        field = '"' + "9" * (csv.field_size_limit() + 1) + '"'
        path = write(tmp_path / "input.csv", text.format(field))
        with pytest.raises(ParseError) as err:
            reader(path)
        assert err.value.line_no == 3
        assert str(err.value).startswith(f"{path}:3: malformed CSV: field larger than field limit")


    def test_a_file_fixed_before_the_recheck_keeps_the_decode_error(self, tmp_path):
        # the file is rewritten between the failed read and the handler's
        # re-read: the original error propagates rather than being swallowed
        path = tmp_path / "input"
        path.write_bytes(b"ok\n\xff\n")
        with pytest.raises(UnicodeDecodeError):
            with _open_input(path) as fh:
                try:
                    fh.read()
                finally:
                    path.write_bytes(b"ok\n")


class TestLoadRumor:
    def test_one_label_per_line_normalized(self, tmp_path):
        path = write(tmp_path / "rumor.txt", "News\n Politics \n\nnews\n")
        rumor = load_rumor(path)
        assert rumor.topics == frozenset({"news", "politics"})
        assert load_rumor(FIXTURE_DIR / "rumor.txt").topics == frozenset({"news", "politics"})

    def test_a_line_with_commas_holds_labels_as_a_users_csv_topics_field_does(self, tmp_path):
        rumor = load_rumor(write(tmp_path / "rumor.txt", "Politics, Elections\n"))
        assert rumor.topics == frozenset({"politics", "elections"})
        users = write(tmp_path / "users.csv", 'user_id,topics,created_at,is_diffuser\n1," ELECTIONS,politics",0,0\n')
        profile = load_users(users)[1]
        assert score(Metric.COSINE, profile, rumor) == 1.0
        # the same interned strings as the profile's labels
        assert all(a is b for a, b in zip(sorted(rumor.topics), sorted(profile.topics)))

    def test_byte_order_mark_is_rejected_on_line_1(self, tmp_path):
        # str.strip() keeps U+FEFF, so the first label would silently become "\ufeffnews"
        path = write(tmp_path / "rumor.txt", "\ufeffNews\npolitics\n")
        with pytest.raises(ParseError) as err:
            load_rumor(path)
        assert err.value.line_no == 1
        assert "byte-order mark" in str(err.value)


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

    @pytest.mark.parametrize(
        "profiles, finding",
        [
            pytest.param({1: frozenset({"a"}), 2: frozenset()}, "empty_topics", id="empty-topics"),
            pytest.param(
                {1: frozenset({"a"}), 2: frozenset({"b"}), 9: frozenset({"c"})}, "isolated_nodes", id="isolated"
            ),
        ],
    )
    def test_one_kind_of_finding_alone_is_not_clean(self, profiles, finding):
        report = validate(SocialGraph([(1, 2)]), {u: UserProfile(u, t, 0, False) for u, t in profiles.items()})
        assert [name for name, ids in dataclasses.asdict(report).items() if ids] == [finding]
        assert not report.is_empty
