"""Directed social graph with CSV ingestion and consistency checks.

An edge (a, b) means information flows from a to b: b follows a and sees
what a posts.  User ids are opaque non-negative integers; nothing assumes
they are contiguous or start at any particular value.  ``load_edges`` and
``load_users`` run with the cyclic garbage collector paused, as every
command of ``cli.run_cli`` does.  The records, ``UserProfile``,
``RumorContent``, ``LoadStats`` and ``ValidationReport``, are namedtuples:
``_replace`` and ``_asdict`` read and rebuild them.
"""

from __future__ import annotations

import csv
import gc
import json
import os
from collections import deque, namedtuple
from contextlib import contextmanager
from functools import cache
from itertools import chain, compress, islice
from operator import eq, lt, ne
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ConfigurationError, ParseError, UnknownUserError
from .similarity import _topic_label, tokenize_topics

UserId = int

EDGES_HEADER = ["from_user_id", "to_user_id"]
USERS_HEADER = ["user_id", "topics", "created_at", "is_diffuser"]

_BOOL_VALUES = {"0": False, "1": True, "false": False, "true": True}
_NO_DIGITS = str.maketrans("", "", "0123456789")


class UserProfile(namedtuple("UserProfile", "id topics created_at observed_diffuser")):
    """Offline attributes of one user: topics, wake-up step, observed label."""

    __slots__ = ()


class RumorContent(namedtuple("RumorContent", "topics")):
    """Topic labels describing the rumor being propagated."""

    __slots__ = ()


class LoadStats(namedtuple("LoadStats", "rows_read duplicate_edges self_loops_skipped", defaults=(0, 0, 0))):
    """Bookkeeping from an edge-list load: rows seen, rows dropped and why."""

    __slots__ = ()


class SocialGraph:
    """Directed graph, immutable after construction, stored as its out-adjacency.

    Each user, ascending, maps to the ascending tuple of its followers, and
    that mapping and ``load_stats`` are all the graph keeps: ``nodes`` is a
    read-only view of the mapping's keys.  Pairs given in strictly ascending
    order fill every follower run as they come, checked in one pass; any
    other input takes one dedup pass, with the same result.  Neighbours come
    back as read-only ascending tuples, shared with the graph.  No reversed
    copy is kept: every model spreads along the out-adjacency.  The pair
    view, ``edges``, is built on each read and kept nowhere;
    ``sorted(graph.edges)`` lists the pairs in ascending order.  No package
    code reads it.
    """

    def __init__(self, edges: Iterable[tuple], nodes: Iterable = ()):
        pairs = tuple(edges)
        froms, tos = [a for a, _ in pairs], [b for _, b in pairs]
        loop = min(compress(froms, map(eq, froms, tos)), default=None)
        if loop is not None:
            raise ConfigurationError(f"self-loop on user {loop}")
        self._build(froms, tos, nodes)

    def _build(self, froms: list, tos: list, nodes: Iterable = ()) -> None:
        """The one graph build, from the two id columns of an edge list without self-loops."""
        self._out = _runs(sorted(set(chain(nodes, froms, tos))), froms, tos)
        # strictly ascending pairs, as save_edges writes them, fill every run
        # ascending and without repeats
        if not all(map(lt, zip(froms, tos), zip(islice(froms, 1, None), islice(tos, 1, None)))):
            _dedup(self._out)
        self.load_stats: LoadStats | None = None

    @property
    def nodes(self):
        """The users, ascending, as a read-only set-like view of the adjacency's keys."""
        # made on each read: a stored keys view would make the graph unpicklable
        return self._out.keys()

    @property
    def edges(self) -> frozenset:
        """The edge set, built from the adjacency on each read and kept nowhere."""
        return frozenset((a, b) for a, followers in self._out.items() for b in followers)

    @property
    def adjacency(self) -> Mapping:
        """Each user to its followers, read-only; users and followers both ascending."""
        return MappingProxyType(self._out)

    @property
    def edge_count(self) -> int:
        """The number of edges, counted from the adjacency."""
        return sum(map(len, self._out.values()))

    def out_neighbors(self, u: UserId) -> tuple:
        """Users that follow u, ascending. Raises UnknownUserError for foreign ids."""
        try:
            return self._out[u]
        except KeyError:
            raise UnknownUserError(f"unknown user id {u}") from None


def _runs(nodes, keys, values) -> dict:
    """Each of ``nodes``, in order, to the tuple of the ``values`` paired with it in ``keys``, in pair order."""
    runs = {u: [] for u in nodes}
    # runs[key].append(value) for every pair, with no Python-level loop
    deque(map(list.append, map(runs.__getitem__, keys), values), maxlen=0)
    # one node at a time, so each list is freed as its tuple is made
    for u, run in runs.items():
        runs[u] = tuple(run)
    return runs


def _dedup(runs: dict) -> None:
    """The dedup pass: sort each run and drop its repeats, in place."""
    for u, run in runs.items():
        runs[u] = tuple(sorted(set(run)))


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, restoring its previous state on exit.

    A load builds many small containers and no reference cycles, so the
    collector's passes over them would find nothing to free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def load_edges(path) -> SocialGraph:
    """Load a directed edge list from CSV with header from_user_id,to_user_id.

    Rows may come in any order.  Duplicate rows collapse and self-loops are
    skipped; both are counted in the returned graph's ``load_stats``.  A
    malformed row raises ParseError with its line number.  Each distinct id
    is held as one int object, however often it occurs.
    """
    columns = _bulk_edge_rows(path)
    froms, tos = _rowwise_edge_rows(path) if columns is None else columns
    rows_read = len(froms)
    keep = list(map(ne, froms, tos))
    if not all(keep):
        froms, tos = list(compress(froms, keep)), list(compress(tos, keep))
    graph = SocialGraph.__new__(SocialGraph)
    graph._build(froms, tos)
    graph.load_stats = LoadStats(rows_read, len(froms) - graph.edge_count, rows_read - len(froms))
    return graph


def _rowwise_edge_rows(path) -> tuple:
    """The (from ids, to ids) columns of an edges file, read row by row; ids held once each."""
    ids = {}
    froms, tos = [], []
    for line_no, row in _read_rows(path, EDGES_HEADER):
        a, b = _parse_user_id(path, line_no, row[0]), _parse_user_id(path, line_no, row[1])
        froms.append(ids.setdefault(a, a))
        tos.append(ids.setdefault(b, b))
    return froms, tos


def _bulk_edge_rows(path) -> tuple | None:
    """The (from ids, to ids) columns of a plain edges file, parsed in bulk; ids held once each.

    The body is read in batches of about 64k characters, each ending at a
    line end.  Returns None, raising no ParseError, when the file is anything
    but a header and lines of two comma-separated runs of ASCII digits, blank
    lines allowed; ``load_edges`` then reads it row by row, which names the
    line at fault.
    """
    header = ",".join(EDGES_HEADER)
    limit = csv.field_size_limit()
    ids = _IdTexts()
    froms, tos = [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if fh.readline().rstrip("\r\n") != header:
                return None
            # each batch ends at a line end, or at the end of the file
            while text := fh.read(1 << 16):
                text += fh.readline()
                if "\r" in text:
                    text = text.replace("\r\n", "\n").replace("\r", "\n")
                if text[0] == "\n" or "\n\n" in text or text[-1] != "\n":
                    # blank lines go, and the file's last line gets its line end
                    text = "".join([line + "\n" for line in text.split("\n") if line])
                if text.translate(_NO_DIGITS) != ",\n" * text.count("\n") or (
                    # only the CSV reader rejects a field over its size limit
                    len(text) > limit and max(map(len, text.split("\n"))) > limit
                ):
                    return None
                fields = text.replace("\n", ",").split(",")
                # the empty text after the last line end
                fields.pop()
                froms += map(ids.__getitem__, fields[::2])
                tos += map(ids.__getitem__, fields[1::2])
    except ValueError:
        return None
    return froms, tos


class _IdTexts(dict):
    """One load's id texts, each to its int; ``int()`` runs once per distinct text.

    Every text of one id (``7``, ``07``) maps to the int object parsed first,
    which is also held under itself: an int key never equals a text key.
    """

    def __missing__(self, text):
        value = int(text)
        value = self[text] = self.setdefault(value, value)
        return value


def save_edges(graph: SocialGraph, path) -> None:
    """Write the edge list back to CSV in sorted order (round-trips exactly)."""
    lines = (f"{a},{b}\n" for a, followers in graph.adjacency.items() for b in followers)
    _write_files([(path, _csv_chunks(EDGES_HEADER, lines))])


@_collector_paused()
def load_users(path) -> dict:
    """Load user profiles from CSV with header user_id,topics,created_at,is_diffuser.

    Topics are normalized as ``tokenize_topics`` does, each distinct fragment
    once per load.  A duplicate user id, an unparsable created_at, or an
    is_diffuser outside {0,1,true,false} raises ParseError naming the
    offending line.
    """
    labels = cache(_topic_label)
    profiles = {}
    for line_no, row in _read_rows(path, USERS_HEADER):
        uid = _parse_user_id(path, line_no, row[0])
        if uid in profiles:
            raise ParseError(path, line_no, f"duplicate user id {uid}")
        topics = frozenset(filter(None, map(labels, row[1].split(","))))
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
    """Read rumor topics: every line is comma-separated labels, normalized as ``tokenize_topics`` does.

    A leading byte-order mark raises ParseError rather than join the first label.
    """
    with _open_input(path) as fh:
        lines = fh.readlines()
    if lines and lines[0].startswith("\ufeff"):
        raise ParseError(path, 1, "starts with a byte-order mark (U+FEFF); save the file without it")
    return RumorContent(tokenize_topics(",".join(lines)))


class ValidationReport(namedtuple("ValidationReport", "missing_profiles empty_topics isolated_nodes")):
    """Report-only consistency findings; an all-empty report means clean inputs."""

    __slots__ = ()

    @property
    def is_empty(self) -> bool:
        return not (self.missing_profiles or self.empty_topics or self.isolated_nodes)


def validate(graph: SocialGraph, profiles: Mapping) -> ValidationReport:
    """Cross-check graph and profiles without failing.

    Flags edge endpoints lacking a profile, profiles with empty topic sets,
    and users that touch no edge at all (profile-only users are kept so that
    evaluation can still count them).
    """
    out = graph.adjacency
    touched = {u for u, followers in out.items() if followers}.union(chain.from_iterable(out.values()))
    # ascending, as the graph's users come
    missing = [u for u in graph.nodes if u not in profiles]
    empty = sorted(uid for uid, p in profiles.items() if not p.topics)
    isolated = sorted((graph.nodes | set(profiles)) - touched)
    return ValidationReport(missing, empty, isolated)


@contextmanager
def _open_input(path, newline=None):
    """Open a UTF-8 input file for reading.

    An undecodable byte met while reading raises ParseError naming the line
    it is on, counting LF, CRLF and a lone CR as line ends.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start]
            line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ParseError(path, line_no, f"not valid UTF-8 ({exc.reason})") from None
        raise


def _read_rows(path, header: list):
    """Yield (line_no, row) for each non-blank row after the expected header.

    ``line_no`` is the physical line the row starts on, so a quoted field
    spanning lines does not shift the line a later error names.  Text the
    CSV reader rejects raises ParseError naming the line it was reading.
    """
    width = len(header)
    with _open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found != header:
                raise ParseError(path, 1, f"expected header {','.join(header)!r}, got {found!r}")
            start = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) != width:
                        raise ParseError(path, start, f"expected {width} fields, got {len(row)}")
                    yield start, row
                start = reader.line_num + 1
        except csv.Error as exc:
            raise ParseError(path, reader.line_num, f"malformed CSV: {exc}") from None


def _write_files(files) -> None:
    """Write ``files``, (path, text chunks) pairs, as one set.

    Each file is written to ``.<name>.tmp`` beside its path, in UTF-8 with
    newlines untranslated, so every output ends its lines in LF on every
    platform.  Only once every file is written are the temp files renamed
    over their paths, in the given order.  An exception before the first
    rename, KeyboardInterrupt included, removes every temp file and leaves
    the previous files as they were; one during the renames leaves the files
    renamed so far new, the rest old, and no temp file.
    """
    staged = []
    try:
        for path, chunks in files:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.tmp")
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                staged.append((tmp, path))
                fh.writelines(chunks)
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _csv_chunks(header: list, lines):
    """A CSV's text chunks for ``_write_files``: the header, then ``lines``, each ending in LF.

    Every CSV this package writes holds only ints, floats and labels that need
    no quoting, and ``str()`` of an int or float is what ``csv.writer`` writes.
    """
    return chain([",".join(header) + "\n"], lines)


def _json_chunks(payload) -> list:
    """``payload`` as indented, key-sorted JSON with a final newline, in one chunk."""
    return [json.dumps(payload, indent=2, sort_keys=True) + "\n"]


def _parse_user_id(path, line_no: int, text: str) -> UserId:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(path, line_no, f"user id is not an integer: {text!r}") from None
    if value < 0:
        raise ParseError(path, line_no, f"user id must be >= 0, got {value}")
    return value
