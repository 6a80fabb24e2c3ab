"""Directed social graph with CSV ingestion and consistency checks.

An edge (a, b) means information flows from a to b: b follows a and sees
what a posts.  User ids are opaque non-negative integers; nothing assumes
they are contiguous or start at any particular value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ConfigurationError, ParseError, UnknownUserError
from .similarity import TopicSet, tokenize_topics

UserId = int

EDGES_HEADER = ["from_user_id", "to_user_id"]
USERS_HEADER = ["user_id", "topics", "created_at", "is_diffuser"]

_BOOL_VALUES = {"0": False, "1": True, "false": False, "true": True}


@dataclass(frozen=True)
class UserProfile:
    """Offline attributes of one user: topics, wake-up step, observed label."""

    id: UserId
    topics: TopicSet
    created_at: int
    observed_diffuser: bool


@dataclass(frozen=True)
class RumorContent:
    """Topic labels describing the rumor being propagated."""

    topics: TopicSet


@dataclass
class LoadStats:
    """Bookkeeping from an edge-list load: rows seen, rows dropped and why."""

    rows_read: int = 0
    duplicate_edges: int = 0
    self_loops_skipped: int = 0


class SocialGraph:
    """Directed graph, immutable after construction, with sorted adjacency."""

    def __init__(self, edges: Iterable[tuple], nodes: Iterable = ()):
        self.edges = frozenset(edges)
        node_set = set(nodes)
        for a, b in self.edges:
            if a == b:
                raise ConfigurationError(f"self-loop on user {a}")
            node_set.add(a)
            node_set.add(b)
        self.nodes = frozenset(node_set)
        out = {u: [] for u in node_set}
        inc = {u: [] for u in node_set}
        # in (a, b) order every out-list fills by ascending b and every
        # in-list by ascending a, so one sort leaves all of them sorted
        for a, b in sorted(self.edges):
            out[a].append(b)
            inc[b].append(a)
        self._out = out
        self._in = inc
        self.load_stats: LoadStats | None = None

    def out_neighbors(self, u: UserId) -> list:
        """Users that follow u, ascending. Raises UnknownUserError for foreign ids."""
        if u not in self._out:
            raise UnknownUserError(f"unknown user id {u}")
        return list(self._out[u])

    def in_neighbors(self, u: UserId) -> list:
        """Users that u follows (possible influence sources), ascending."""
        if u not in self._in:
            raise UnknownUserError(f"unknown user id {u}")
        return list(self._in[u])

    def in_degree(self, u: UserId) -> int:
        """Number of users u follows, without copying the list."""
        if u not in self._in:
            raise UnknownUserError(f"unknown user id {u}")
        return len(self._in[u])


def load_edges(path) -> SocialGraph:
    """Load a directed edge list from CSV with header from_user_id,to_user_id.

    Duplicate rows collapse and self-loops are skipped; both are counted in
    the returned graph's ``load_stats``.  A malformed row raises ParseError
    with its line number.
    """
    stats = LoadStats()
    edges = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != EDGES_HEADER:
            raise ParseError(path, 1, f"expected header {','.join(EDGES_HEADER)!r}, got {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(path, line_no, f"expected 2 fields, got {len(row)}")
            a = _parse_user_id(path, line_no, row[0])
            b = _parse_user_id(path, line_no, row[1])
            stats.rows_read += 1
            if a == b:
                stats.self_loops_skipped += 1
                continue
            if (a, b) in edges:
                stats.duplicate_edges += 1
                continue
            edges.add((a, b))
    graph = SocialGraph(edges)
    graph.load_stats = stats
    return graph


def save_edges(graph: SocialGraph, path) -> None:
    """Write the edge list back to CSV in sorted order (round-trips exactly)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EDGES_HEADER)
        writer.writerows(sorted(graph.edges))


def load_users(path) -> dict:
    """Load user profiles from CSV with header user_id,topics,created_at,is_diffuser.

    Topics go through ``tokenize_topics``.  A duplicate user id, an
    unparsable created_at, or an is_diffuser outside {0,1,true,false} raises
    ParseError naming the offending line.
    """
    profiles = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != USERS_HEADER:
            raise ParseError(path, 1, f"expected header {','.join(USERS_HEADER)!r}, got {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(path, line_no, f"expected 4 fields, got {len(row)}")
            uid = _parse_user_id(path, line_no, row[0])
            if uid in profiles:
                raise ParseError(path, line_no, f"duplicate user id {uid}")
            topics = tokenize_topics(row[1])
            try:
                created_at = int(row[2])
            except ValueError:
                raise ParseError(path, line_no, f"created_at is not an integer: {row[2]!r}") from None
            if created_at < 0:
                raise ParseError(path, line_no, f"created_at must be >= 0, got {created_at}")
            flag = _BOOL_VALUES.get(row[3].strip().lower())
            if flag is None:
                raise ParseError(path, line_no, f"is_diffuser must be one of 0,1,true,false: {row[3]!r}")
            profiles[uid] = UserProfile(uid, topics, created_at, flag)
    return profiles


def load_rumor(path) -> RumorContent:
    """Read rumor topics, one label per line; labels are normalized and deduped."""
    with open(path, encoding="utf-8") as fh:
        labels = frozenset(label for line in fh if (label := line.strip().lower()))
    return RumorContent(labels)


@dataclass
class ValidationReport:
    """Report-only consistency findings; an all-empty report means clean inputs."""

    missing_profiles: list
    empty_topics: list
    isolated_nodes: list

    @property
    def is_empty(self) -> bool:
        return not (self.missing_profiles or self.empty_topics or self.isolated_nodes)


def validate(graph: SocialGraph, profiles: Mapping) -> ValidationReport:
    """Cross-check graph and profiles without failing.

    Flags edge endpoints lacking a profile, profiles with empty topic sets,
    and users that touch no edge at all (profile-only users are kept so that
    evaluation can still count them).
    """
    touched = set()
    for a, b in graph.edges:
        touched.add(a)
        touched.add(b)
    missing = sorted(u for u in graph.nodes if u not in profiles)
    empty = sorted(uid for uid, p in profiles.items() if not p.topics)
    isolated = sorted((set(profiles) | set(graph.nodes)) - touched)
    return ValidationReport(missing, empty, isolated)


def _parse_user_id(path, line_no: int, text: str) -> UserId:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(path, line_no, f"user id is not an integer: {text!r}") from None
    if value < 0:
        raise ParseError(path, line_no, f"user id must be >= 0, got {value}")
    return value
