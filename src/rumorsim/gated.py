"""Similarity-gated diffusion.

A rumor crosses an edge only when a hard similarity threshold passes.  The
user-user variant compares the posting user with the follower; the
user-content variant compares the follower with the rumor itself.  Either
way the set of reached users is a reachability fixpoint over the gated edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import ConfigurationError, ParseError, UndefinedCorrelationError
from .graph import RumorContent, SocialGraph, _parse_user_id, _read_rows
from .similarity import Metric, score

DECISIONS_HEADER = ["from_user_id", "to_user_id", "pass"]


@dataclass(frozen=True)
class SimilarityGate:
    """Hard-threshold admission test shared by the gated algorithms.

    When a precomputed ``decisions`` table is present it fully replaces live
    scoring; an edge with no entry fails the gate.
    """

    metric: Metric = Metric.COSINE
    threshold: float = 0.5
    decisions: Mapping | None = None

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError(f"threshold must be in [0, 1], got {self.threshold}")


@dataclass
class DiffuserSet:
    """Diffusion result: the member set plus the order members were added.

    ``missing_profiles`` lists users whose similarity had to be treated as 0
    because no profile was loaded for them.
    """

    members: set
    insertion_log: list
    missing_profiles: set = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.members)


def admission_test(
    profiles: Mapping,
    rumor: RumorContent | None,
    gate: SimilarityGate,
    missing: set,
) -> Callable:
    """Build the edge admission predicate admit(i, j) for one gate setup.

    ``rumor`` of None selects user-user comparison, otherwise the follower j
    is compared against the rumor.  A user without a profile scores 0 and is
    collected into ``missing``.  A metric that is undefined for the pair
    (pearson on fewer than two distinct labels) raises
    UndefinedCorrelationError naming the edge, or the follower and the rumor.
    """
    if gate.decisions is not None:
        table = gate.decisions

        def admit(i, j):
            return bool(table.get((i, j), False))

        return admit

    if rumor is None:

        def admit(i, j):
            pi = profiles.get(i)
            pj = profiles.get(j)
            if pi is None or pj is None:
                missing.update(u for u in (i, j) if u not in profiles)
                return 0.0 >= gate.threshold
            try:
                return score(gate.metric, pi, pj) >= gate.threshold
            except UndefinedCorrelationError as exc:
                raise UndefinedCorrelationError(
                    f"{gate.metric.value} gate on edge ({i}, {j}): {exc}"
                ) from exc

        return admit

    cache = {}

    def admit(i, j):
        if j not in cache:
            pj = profiles.get(j)
            if pj is None:
                missing.add(j)
                cache[j] = 0.0
            else:
                try:
                    cache[j] = score(gate.metric, pj, rumor)
                except UndefinedCorrelationError as exc:
                    raise UndefinedCorrelationError(
                        f"{gate.metric.value} gate on user {j} against the rumor: {exc}"
                    ) from exc
        return cache[j] >= gate.threshold

    return admit


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
    return _diffuse(graph, profiles, rumor, initials, gate)


def filtered_edge_set(
    graph: SocialGraph,
    profiles: Mapping,
    rumor: RumorContent | None,
    gate: SimilarityGate,
) -> set:
    """Materialize the gate: every edge whose admission test passes.

    Reachability from the initials over this edge set equals the worklist
    result, which is what the DOT export and the oracle checks lean on.
    """
    admit = admission_test(profiles, rumor, gate, set())
    return {(a, b) for a, b in graph.edges if admit(a, b)}


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
    makes the insertion log reproducible.
    """
    _check_initials(graph, initials, profiles)
    missing = set()
    admit = admission_test(profiles, rumor, gate, missing)
    log = sorted(set(initials))
    members = set(log)
    queue = deque(log)
    while queue:
        i = queue.popleft()
        for j in graph.out_neighbors(i):
            if j in members:
                continue
            if admit(i, j):
                members.add(j)
                log.append(j)
                queue.append(j)
    return DiffuserSet(members, log, missing)
