"""Similarity-gated diffusion.

A rumor crosses an edge only when a hard similarity threshold passes.  The
user-user variant compares the posting user with the follower; the
user-content variant compares the follower with the rumor itself.  Either
way the set of reached users is a reachability fixpoint over the gated edges.
``GatedRun`` spreads the same gate over time, one event step at a time.
A gate without a decisions table raises ConfigurationError when
``profiles`` is None, in ``admission_test`` and so in every closure and
``filtered_edge_set``; ``diffuse_user_content`` raises it without a rumor.
"""

from __future__ import annotations

import heapq
from collections import deque, namedtuple
from enum import Enum
from typing import Callable, Mapping

from .errors import ConfigurationError, ParseError, UndefinedCorrelationError, _check_probability, _Checked
from .graph import RumorContent, SocialGraph, _parse_user_id, _read_rows
from .similarity import Metric, _levenshtein_levels, _pair_test

DECISIONS_HEADER = ["from_user_id", "to_user_id", "pass"]


class GateState(Enum):
    NON_DIFFUSER = "non_diffuser"
    DIFFUSER = "diffuser"  # absorbing


class SimilarityGate(
    _Checked, namedtuple("SimilarityGate", "metric threshold decisions", defaults=(Metric.COSINE, 0.5, None))
):
    """Hard-threshold admission test shared by the gated algorithms.

    When a precomputed ``decisions`` table is present it fully replaces live
    scoring; an edge with no entry fails the gate.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_probability("threshold", self.threshold)
        return self


class DiffuserSet(namedtuple("DiffuserSet", "members insertion_log")):
    """Diffusion result: the member set plus the order members were added.

    Users without a profile are not listed here; ``validate`` reports them.
    """

    __slots__ = ()


def admission_test(profiles: Mapping, rumor: RumorContent | None, gate: SimilarityGate) -> Callable:
    """Build the edge admission predicate admit(i, j) for one gate setup.

    ``rumor`` of None selects user-user comparison, otherwise the follower j
    is compared against the rumor.  A user without a profile never diffuses:
    an edge that touches one fails at any threshold, and under a decisions
    table an edge to a follower without one fails whenever ``profiles`` is
    given (with None the table alone decides).  A gate without a decisions
    table raises ConfigurationError if ``profiles`` is None.  A metric that
    is undefined for the pair (pearson on a degenerate overlap shape) raises
    UndefinedCorrelationError naming the edge, or the follower and the
    rumor.  Each call builds a fresh predicate, which decides every pair of
    profiled users as ``score(...) >= threshold`` would.
    """
    if gate.decisions is not None:
        table = gate.decisions

        def admit(i, j):
            return bool(table.get((i, j), False)) and (profiles is None or j in profiles)

        return admit

    if profiles is None:
        raise ConfigurationError("a similarity gate without a decisions table requires user profiles")
    metric, threshold = gate.metric, gate.threshold
    test = _pair_test(metric, threshold)

    def admit(i, j):
        # the follower j against its source i, or against the rumor
        pi = profiles.get(i) if rumor is None else rumor
        pj = profiles.get(j)
        if pi is None or pj is None:
            return False
        try:
            return test(pi.topics, pj.topics)
        except UndefinedCorrelationError as exc:
            where = f"edge ({i}, {j})" if rumor is None else f"user {j} against the rumor"
            raise UndefinedCorrelationError(f"{metric.value} gate on {where}: {exc}") from exc

    if rumor is None:
        return admit

    # against the rumor, a follower gets the same decision from every source
    decided = {}

    def admit_follower(i, j):
        if j not in decided:
            decided[j] = admit(i, j)
        return decided[j]

    return admit_follower


class GatedRun:
    """Similarity-gated diffusion over time, advanced one event step at a time.

    Each user with a profile, seeds aside, wakes at its created_at step and
    activates if some active in-neighbor passes ``admit``; one whose
    created_at lies outside 0..max_time never wakes and counts in
    ``clamped``.  A step checks its users in ascending id, each seeing the
    activations made earlier in that step.  With ``every_step`` a woken user
    that failed is rechecked only over the edge from an in-neighbor that
    activates later, so each edge's gate runs at most once.

    Spreading pushes along the out-adjacency, as the classical runs do, and
    the run holds state only for reached users: the first activation to reach
    a follower before its wake-up schedules that wake-up, and a waking user
    tests each activation that reached it, in ascending id.  A user that no
    activation reaches before its created_at step gets no event, since it
    would find no active in-neighbor.
    """

    def __init__(self, graph: SocialGraph, profiles: Mapping, initials, admit, max_time, every_step):
        self.graph = graph
        self.profiles = profiles
        self.admit = admit
        self.max_time = max_time
        self.every_step = every_step
        # the active users and, with every_step, the users whose admitted event is pending
        self.decided = seeds = set(initials)
        self.clamped = sum(not 0 <= profiles[u].created_at <= max_time for u in graph.nodes - seeds if u in profiles)
        # (step, user, admitted) events, popped in step then id order
        self.events = []
        # each reached user whose wake-up is still ahead to its in-neighbors active so far
        self.asleep = {}
        # the seeds spread before any event pops, as if at a step before 0
        for i in sorted(seeds):
            self._spread(i, -1)
        self.next_step = self.events[0][0] if self.events else None

    def step(self) -> list:
        """Run step ``next_step``; returns its [(user, GateState.DIFFUSER)] changes by ascending id."""
        events, asleep, admit, t = self.events, self.asleep, self.admit, self.next_step
        delta = []
        while events and events[0][0] == t:
            _, j, admitted = heapq.heappop(events)
            # live view: sources activated earlier in this same step were recorded too
            if not admitted and not any(admit(i, j) for i in sorted(asleep.pop(j))):
                continue
            self.decided.add(j)
            delta.append((j, GateState.DIFFUSER))
            self._spread(j, t)
        self.next_step = events[0][0] if events else None
        return delta

    def _spread(self, j, t) -> None:
        """Record ``j``, active at step t, with each follower asleep, and recheck each that woke and failed."""
        asleep, decided, profiles, max_time = self.asleep, self.decided, self.profiles, self.max_time
        for k in self.graph.out_neighbors(j):
            if k in asleep:
                asleep[k].append(j)
            elif k not in decided and k in profiles and 0 <= (created_at := profiles[k].created_at) <= max_time:
                # events pop in (step, id) order, so k's wake-up is still ahead exactly when this holds
                if (created_at, k) > (t, j):
                    asleep[k] = [j]
                    heapq.heappush(self.events, (created_at, k, False))
                # k woke and failed: rechecked, it activates later in this step if its id is higher, else next step
                elif self.every_step and self.admit(j, k):
                    decided.add(k)
                    heapq.heappush(self.events, (t + (k < j), k, True))


def diffuse_user_user(
    graph: SocialGraph,
    profiles: Mapping,
    initials,
    gate: SimilarityGate,
) -> DiffuserSet:
    """Spread from ``initials``, admitting followers similar to their source."""
    return _diffuse(graph, profiles, None, initials, gate)


def diffuse_user_content(
    graph: SocialGraph,
    profiles: Mapping,
    rumor: RumorContent,
    initials,
    gate: SimilarityGate,
) -> DiffuserSet:
    """Spread from ``initials``, admitting followers similar to the rumor."""
    if rumor is None:
        raise ConfigurationError("model gated_user_content requires rumor content")
    return _diffuse(graph, profiles, rumor, initials, gate)


def filtered_edge_set(
    graph: SocialGraph,
    profiles: Mapping,
    rumor: RumorContent | None,
    gate: SimilarityGate,
) -> set:
    """Materialize the gate: every edge whose admission test passes.

    Reachability from the initials over this edge set equals the worklist
    result.  Edges are tested in ascending order, so an undefined metric
    names the smallest edge it fails on.
    """
    admit = admission_test(profiles, rumor, gate)
    return {(a, b) for a, followers in graph.adjacency.items() for b in followers if admit(a, b)}


def load_decisions(path) -> dict:
    """Read a precomputed gate table: from_user_id,to_user_id,pass with 0/1.

    User ids must be integers >= 0.  Repeated rows for one edge collapse when
    they agree and raise ParseError, with the line number, when they do not.
    """
    table = {}
    for line_no, row in _read_rows(path, DECISIONS_HEADER):
        edge = (_parse_user_id(path, line_no, row[0]), _parse_user_id(path, line_no, row[1]))
        if row[2] not in ("0", "1"):
            raise ParseError(path, line_no, f"pass must be 0 or 1, got {row[2]!r}")
        passed = row[2] == "1"
        if table.setdefault(edge, passed) is not passed:
            raise ParseError(path, line_no, f"edge {edge} listed earlier with the other pass value")
    return table


def _check_initials(graph: SocialGraph, initials, profiles: Mapping | None = None) -> None:
    """Reject an empty seed list or a seed outside the graph or, if given, the profiles."""
    if not initials:
        raise ConfigurationError("at least one initial diffuser is required")
    for uid in initials:
        if uid not in graph.nodes:
            raise ConfigurationError(f"initial diffuser {uid} is not in the graph")
        if profiles is not None and uid not in profiles:
            raise ConfigurationError(f"initial diffuser {uid} has no profile")


def _diffuse(
    graph: SocialGraph,
    profiles: Mapping,
    rumor: RumorContent | None,
    initials,
    gate: SimilarityGate,
) -> DiffuserSet:
    """Breadth-first worklist from the initials, canonical ascending order.

    ``rumor`` of None compares each follower with its source.  The final
    member set does not depend on processing order; the fixed order just
    makes the insertion log reproducible.  A live Levenshtein gate decides
    each level in rounds (``_diffuse_in_rounds``), with the same result.
    Every source has a profile: an initial must have one, and a follower
    without one is never admitted.
    """
    _check_initials(graph, initials, profiles)
    log = sorted(set(initials))
    members = set(log)
    admit = admission_test(profiles, rumor, gate)
    if gate.decisions is None and gate.metric is Metric.LEVENSHTEIN:
        _diffuse_in_rounds(graph, _admission_rounds(profiles, rumor, gate.threshold), log, members)
    else:
        queue = deque(log)
        while queue:
            i = queue.popleft()
            for j in graph.out_neighbors(i):
                if j not in members and admit(i, j):
                    members.add(j)
                    log.append(j)
                    queue.append(j)
    return DiffuserSet(members, log)


def _admission_rounds(profiles: Mapping, rumor: RumorContent | None, threshold: float) -> Callable:
    """The batch form of ``admission_test`` for a live Levenshtein gate, as a closure reaches it.

    Returns ``level()``, which returns ``decide(pairs)`` for the (i, j)
    pairs of one BFS level: the list of their admit(i, j) decisions, made
    with one batch call.  Every source i has a profile (see ``_diffuse``), so
    only a follower without one fails untested.  Against the rumor a
    follower gets one decision: an admitted one is a member and never asked
    again, so only the refused ones are remembered.
    """
    levels = _levenshtein_levels(threshold)
    # against the rumor every level has the one pattern
    content = None if rumor is None else levels()
    refused = set()

    def level() -> Callable[[list], list]:
        test = content or levels()

        def decide(pairs) -> list:
            asked = [k for k, (_, j) in enumerate(pairs) if j in profiles and j not in refused]
            scored = [
                ((profiles[i] if rumor is None else rumor).topics, profiles[j].topics)
                for i, j in map(pairs.__getitem__, asked)
            ]
            passed = [False] * len(pairs)
            for k, ok in zip(asked, test(scored)):
                passed[k] = ok
                if not ok and rumor is not None:
                    refused.add(pairs[k][1])
            return passed

        return decide

    return level


def _diffuse_in_rounds(graph: SocialGraph, level_admit: Callable, log: list, members: set) -> None:
    """``_diffuse``'s breadth-first loop, each level decided in rounds.

    ``log`` holds the initials, the first level; it and ``members`` grow in
    place.  Round r decides every follower not yet reached against its r-th
    source in the level, in queue order, with one ``decide`` call, so a
    follower is tested against its sources up to the first that passes, as
    in the one-pair-at-a-time loop.  The admitted followers join the log in
    order of (queue position of the admitting source, follower id), the
    order that loop admits them in, so it gives the same members, log and
    tested pairs.
    """
    level = list(log)
    while level:
        decide = level_admit()
        # rounds[r]: each follower's r-th source in the level, as (position, follower)
        rounds, seen = [], {}
        for position, i in enumerate(level):
            for j in graph.out_neighbors(i):
                if j not in members:
                    r = seen[j] = seen.get(j, -1) + 1
                    if r == len(rounds):
                        rounds.append([])
                    rounds[r].append((position, j))
        admitted = []
        for candidates in rounds:
            candidates = [c for c in candidates if c[1] not in members]
            for (position, j), passed in zip(candidates, decide([(level[p], j) for p, j in candidates])):
                if passed:
                    members.add(j)
                    admitted.append((position, j))
        admitted.sort()
        level = [j for _, j in admitted]
        log.extend(level)
