"""Hand-rolled oracles and corpus builders shared by the test suite.

Everything here recomputes results from first principles (explicit vector
loops, full-matrix edit distance, plain breadth-first search) so the
production code is checked against an independent route, not against itself.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
import random
from collections import deque
from pathlib import Path

from rumorsim import (
    AdoptionState,
    DiffuserSet,
    EpidemicState,
    EvalReport,
    EvaluationPolicy,
    ModelKind,
    SimilarityGate,
    SocialGraph,
    UserProfile,
    overlap_scores,
    score,
)
from rumorsim.gated import GateState, admission_test
from rumorsim.graph import EDGES_HEADER, LoadStats, _parse_user_id, _read_rows

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "ten_node"

VOCAB = [f"t{i:02d}" for i in range(30)]


def brute_vectors(a, b):
    vocab = sorted(set(a) | set(b))
    va = [1.0 if t in a else 0.0 for t in vocab]
    vb = [1.0 if t in b else 0.0 for t in vocab]
    return va, vb


def brute_cosine(a, b):
    va, vb = brute_vectors(a, b)
    dot = 0.0
    na = 0.0
    nb = 0.0
    for x, y in zip(va, vb):
        dot += x * y
        na += x * x
        nb += y * y
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (math.sqrt(na) * math.sqrt(nb))


def brute_jaccard(a, b):
    va, vb = brute_vectors(a, b)
    inter = sum(1 for x, y in zip(va, vb) if x == 1.0 and y == 1.0)
    union = sum(1 for x, y in zip(va, vb) if x == 1.0 or y == 1.0)
    return inter / union if union else 0.0


def brute_tanimoto(a, b):
    """Jaccard in its vector form: dot / (|va|^2 + |vb|^2 - dot)."""
    va, vb = brute_vectors(a, b)
    dot = sum(x * y for x, y in zip(va, vb))
    denominator = sum(x * x for x in va) + sum(y * y for y in vb) - dot
    return dot / denominator if denominator else 0.0


def brute_pearson(a, b):
    """Correlation of the binary term vectors; None where it is undefined."""
    va, vb = brute_vectors(a, b)
    n = len(va)
    if n < 2:
        return None
    ma = sum(va) / n
    mb = sum(vb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(va, vb))
    sa = sum((x - ma) ** 2 for x in va)
    sb = sum((y - mb) ** 2 for y in vb)
    if sa == 0.0 or sb == 0.0:
        return None
    return cov / math.sqrt(sa * sb)


def brute_dice(a, b):
    va, vb = brute_vectors(a, b)
    inter = sum(1 for x, y in zip(va, vb) if x == 1.0 and y == 1.0)
    total = sum(1 for x in va if x == 1.0) + sum(1 for y in vb if y == 1.0)
    return 2.0 * inter / total if total else 0.0


def dp_levenshtein(s1, s2):
    """Full-matrix edit distance straight from the recurrence."""
    m, n = len(s1), len(s2)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if s1[i - 1] == s2[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


def dp_levenshtein_similarity(s1, s2):
    """1 - edit distance / the longer length; 1.0 for two empty strings."""
    longest = max(len(s1), len(s2))
    return 1.0 if longest == 0 else 1.0 - dp_levenshtein(s1, s2) / longest


def bfs_reachable(initials, edges):
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    seen = set(initials)
    stack = list(initials)
    while stack:
        u = stack.pop()
        for v in adjacency.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def bfs_levels(initials, edges):
    """Nodes grouped by shortest hop distance from the initials."""
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    seen = set(initials)
    levels = [set(initials)]
    while levels[-1]:
        nxt = set()
        for u in levels[-1]:
            for v in adjacency.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        levels.append(nxt)
    return levels[:-1]


def sequential_closure(graph, profiles, rumor, initials, gate):
    """The gated closure one pair at a time: a FIFO worklist over ``admission_test``.

    Returns (members, insertion log, decided pairs), the pairs in the order
    the gate was asked about them.
    """
    admit = admission_test(profiles, rumor, gate)
    log = sorted(set(initials))
    members = set(log)
    decided = []
    queue = deque(log)
    while queue:
        i = queue.popleft()
        for j in graph.out_neighbors(i):
            if j in members:
                continue
            decided.append((i, j))
            if admit(i, j):
                members.add(j)
                log.append(j)
                queue.append(j)
    return members, log, decided


def bottleneck_levels(graph, profiles, rumor, initials, metric):
    """Each user u to b(u): the best, over paths from the seeds, of the smallest edge score on the path.

    The edge (i, j) scores ``score(metric, ...)`` of j against i, or against
    the rumor when one is given, and -inf when i or j has no profile; b is
    +inf at a seed, and a user whose b is -inf is left out.  This is the
    maximum-capacity route problem (Pollack 1960; Hu 1961), solved by a
    max-heap Dijkstra.  The law it serves: a gated closure at threshold tau
    holds exactly the users with b(u) >= tau, for every tau at once.
    """

    def weight(i, j):
        if i not in profiles or j not in profiles:
            return -math.inf
        return score(metric, profiles[i] if rumor is None else rumor, profiles[j])

    levels = dict.fromkeys(initials, math.inf)
    # a min-heap of (-b, user) pops the widest user first
    heap = [(-math.inf, u) for u in levels]
    settled = set()
    while heap:
        _, i = heapq.heappop(heap)
        if i in settled:
            continue
        settled.add(i)
        for j in graph.out_neighbors(i):
            width = min(levels[i], weight(i, j))
            if j not in settled and width > levels.get(j, -math.inf):
                levels[j] = width
                heapq.heappush(heap, (-width, j))
    return levels


def shuffled_closure(graph, initials, admit, rng):
    """Fixpoint of the admission rule with a randomized processing order."""
    members = set(initials)
    changed = True
    while changed:
        changed = False
        candidates = [
            (i, j)
            for i in sorted(members)
            for j in graph.out_neighbors(i)
            if j not in members
        ]
        rng.shuffle(candidates)
        for i, j in candidates:
            if j not in members and admit(i, j):
                members.add(j)
                changed = True
    return members


def in_adjacency(graph):
    """Each user to the ascending tuple of the users it follows, built from ``graph.adjacency``."""
    sources = {u: [] for u in graph.adjacency}
    # adjacency walks its users in ascending order, so every run fills ascending
    for a, followers in graph.adjacency.items():
        for b in followers:
            sources[b].append(a)
    return {u: tuple(run) for u, run in sources.items()}


def recorded(admit, calls):
    """``admit`` that appends each (source, follower) it is asked about to ``calls``."""

    def recording(i, j):
        calls.append((i, j))
        return admit(i, j)

    return recording


def pull_gated_run(graph, profiles, initials, admit, max_time, every_step):
    """``GatedRun`` by pulling: at wake-up a user scans its in-neighbours for an active one that passes.

    Takes ``GatedRun``'s arguments and keeps its event heap and its
    every-step recheck; only the direction differs.  Runs until no event is
    left and returns (changes by step, clamped), the steps without changes
    left out.
    """
    sources = in_adjacency(graph)
    active = set(initials)
    wakeups = [(profiles[u].created_at, u, False) for u in graph.nodes - active if u in profiles]
    events = [event for event in wakeups if 0 <= event[0] <= max_time]
    clamped = len(wakeups) - len(events)
    heapq.heapify(events)
    waiting = set()
    changes = {}
    while events:
        t = events[0][0]
        delta = []
        while events and events[0][0] == t:
            _, j, admitted = heapq.heappop(events)
            if not admitted and not any(i in active and admit(i, j) for i in sources[j]):
                waiting.add(j)
                continue
            active.add(j)
            delta.append((j, GateState.DIFFUSER))
            if every_step:
                for k in graph.out_neighbors(j):
                    if k in waiting and admit(j, k):
                        waiting.remove(k)
                        heapq.heappush(events, (t + (k < j), k, True))
        if delta:
            changes[t] = delta
    return changes, clamped


def every_step_law(graph, profiles, initials, admit, max_time):
    """The step at which ``every-step`` activates each user, found by a Dijkstra search.

    The seeds activate at step 0.  A user j with a profile and created_at in
    0..max_time activates at the earliest max(created_at_j, t_i + d) over
    its in-neighbours i with ``admit(i, j)``, where t_i is i's step and d is
    0 if i is a seed or i < j, else 1; no other user ever activates.  Each
    edge maps a step to a later-or-equal one, so the first step a user is
    popped with is its least (Dijkstra, Numerische Mathematik, 1959).  The
    steps are not cut at max_time: a recheck admitted at max_time can
    activate a user at max_time + 1.  Returns each activated user's step.
    """
    seeds = set(initials)
    steps = dict.fromkeys(seeds, 0)
    heap = [(0, u) for u in sorted(seeds)]
    done = set()
    while heap:
        t, i = heapq.heappop(heap)
        if i in done:
            continue
        done.add(i)
        for j in graph.out_neighbors(i):
            if j in done or j not in profiles or not 0 <= profiles[j].created_at <= max_time or not admit(i, j):
                continue
            candidate = max(profiles[j].created_at, t if i in seeds or i < j else t + 1)
            if candidate < steps.get(j, candidate + 1):
                steps[j] = candidate
                heapq.heappush(heap, (candidate, j))
    return steps


def rescan_gated_run(cfg, graph, profiles, rumor=None, decisions=None):
    """Gated scheduler by brute force: recheck every awake inactive user each step.

    Under ``once`` a user checks its in-neighbours only at its ``created_at``
    step; under ``every-step`` every awake user is rescanned each step until
    it activates.  Users are visited in ascending id and see activations made
    earlier in the same step.  Returns (changes, counts, clamped_agents,
    final active set) in the shape ``run_simulation`` reports them, and the
    sorted users without a profile that a gate check named.
    """
    content = rumor if cfg.model is ModelKind.GATED_USER_CONTENT else None
    checked = []
    gate = SimilarityGate(cfg.metric, cfg.threshold, decisions)
    admit = recorded(admission_test(profiles, content, gate), checked)
    every_step = cfg.evaluation_policy is EvaluationPolicy.EVERY_STEP
    active = set(cfg.initials)
    schedule = []
    clamped = 0
    for u in sorted(graph.nodes):
        if u in active or u not in profiles:
            continue
        if 0 <= profiles[u].created_at <= cfg.max_time:
            schedule.append((u, profiles[u].created_at))
        else:
            clamped += 1
    sources = in_adjacency(graph)
    changes = {}
    counts = []
    for t in range(cfg.max_time + 1):
        delta = [(u, "diffuser") for u in sorted(active)] if t == 0 else []
        for j, created_at in schedule:
            awake = created_at <= t if every_step else created_at == t
            if not awake or j in active:
                continue
            for i in sources[j]:
                if i in active and admit(i, j):
                    active.add(j)
                    delta.append((j, "diffuser"))
                    break
        if delta:
            changes[t] = delta
        counts.append(len(active))
    return changes, counts, clamped, active, sorted({u for pair in checked for u in pair} - profiles.keys())


def stepwise_classical_run(cfg, graph, rng, edge_p=None):
    """Classical run by full sweeps: every step revisits every node.

    Each step decides every node from a copy of the previous step's states,
    in ascending id: a susceptible SIR node draws once per infected
    in-neighbour, an infected one once against gamma; an infected IC node
    tries each out-edge it has not tried before, with the edge's probability
    in ``edge_p`` or else ``cfg.ic_default_p``; a tipping node recounts its
    adopted in-neighbours.  SIR and IC stop once nothing is infected, tipping
    after a step without adoptions.  Returns (changes, counts, final_states)
    in the shape ``run_simulation`` reports them: final_states holds the
    users out of the default state, the only ones a change can name.
    """
    S, I, R = EpidemicState.SUSCEPTIBLE, EpidemicState.INFECTED, EpidemicState.RECOVERED
    initials = set(cfg.initials)
    nodes = sorted(graph.nodes)
    sources = in_adjacency(graph)
    if cfg.model is ModelKind.TIPPING:
        theta = cfg.theta
        states = {u: AdoptionState.ADOPTED if u in initials else AdoptionState.NOT_ADOPTED for u in nodes}
    else:
        states = {u: I if u in initials else S for u in nodes}
        attempted = set()

    def sir_sweep(states):
        new_states = dict(states)
        for node in nodes:
            if states[node] is S:
                hit = False
                for nb in sources[node]:
                    if states[nb] is I and rng.random() < cfg.beta:
                        hit = True
                if hit:
                    new_states[node] = I
            elif states[node] is I and rng.random() < cfg.gamma:
                new_states[node] = R
        return new_states

    def ic_sweep(states):
        new_states = dict(states)
        for node in nodes:
            if states[node] is not I:
                continue
            for target in graph.out_neighbors(node):
                if (node, target) in attempted:
                    continue
                attempted.add((node, target))
                p = (edge_p or {}).get((node, target), cfg.ic_default_p)
                if rng.random() < p and states[target] is S:
                    new_states[target] = I
            new_states[node] = R
        return new_states

    def tipping_sweep(states):
        new_states = dict(states)
        for node in nodes:
            if states[node] is AdoptionState.ADOPTED or not sources[node]:
                continue
            adopted = sum(1 for nb in sources[node] if states[nb] is AdoptionState.ADOPTED)
            if adopted >= 1 and adopted / len(sources[node]) >= theta:
                new_states[node] = AdoptionState.ADOPTED
        return new_states

    sweep = {ModelKind.SIR: sir_sweep, ModelKind.IC: ic_sweep, ModelKind.TIPPING: tipping_sweep}[cfg.model]
    active = {"infected", "recovered", "adopted"}
    changes = {0: [(u, states[u].value) for u in sorted(initials)]}
    counts = [len(initials)]
    for t in range(1, cfg.max_time + 1):
        if cfg.model is not ModelKind.TIPPING and I not in states.values():
            break
        new_states = sweep(states)
        delta = [(u, new_states[u].value) for u in nodes if new_states[u] is not states[u]]
        states = new_states
        if delta:
            changes[t] = delta
        counts.append(sum(1 for s in states.values() if s.value in active))
        if not delta and cfg.model is ModelKind.TIPPING:
            break
    counts.extend([counts[-1]] * (cfg.max_time + 1 - len(counts)))
    return changes, counts, {u: s.value for u, s in states.items() if s.value in active}


class ScriptedStream:
    """A stream whose draws are a script: ``random()`` returns its values in order, then ``rest``.

    ``drawn`` counts the draws taken, read or past the script.
    """

    def __init__(self, script, rest):
        self.script = script
        self.rest = rest
        self.drawn = 0

    def random(self):
        k = self.drawn
        self.drawn += 1
        return self.script[k] if k < len(self.script) else self.rest


def every_script(run, values):
    """Each script over ``values`` that ``run(stream)`` reads whole, in depth-first order.

    Yields (script, result): the draws run took and what it returned.  A
    script differs from the one before it in its last draw that can take a
    later value of ``values``; the draws after that one take ``values[0]``.
    ``run`` must be deterministic in the draws it takes, as a seeded run is.
    """
    script = []
    while True:
        stream = ScriptedStream(script, values[0])
        result = run(stream)
        # a run reads at least the prefix it is given: that prefix was read whole before
        script = script + [values[0]] * (stream.drawn - len(script))
        yield list(script), result
        while script and script[-1] == values[-1]:
            script.pop()
        if not script:
            return
        script[-1] = values[values.index(script[-1]) + 1]


def loop_evaluate(predicted, profiles):
    """The confusion counts one profiled user at a time: the reference for ``evaluate``'s set sizes."""
    members = predicted.members if isinstance(predicted, DiffuserSet) else set(predicted)
    tp = tn = fp = fn = 0
    for uid, profile in profiles.items():
        pred = uid in members
        if pred and profile.observed_diffuser:
            tp += 1
        elif pred:
            fp += 1
        elif profile.observed_diffuser:
            fn += 1
        else:
            tn += 1
    return EvalReport(tp, tn, fp, fn, len(members))


def csv_trace_bytes(traces):
    """trace.csv as ``csv.writer`` writes it: header, then one row per change."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["trial", "step", "user_id", "new_state"])
    for k, trace in enumerate(traces):
        for step in sorted(trace.changes):
            writer.writerows((k, step, uid, label) for uid, label in trace.changes[step])
    return buffer.getvalue().encode("utf-8")


def csv_sims_bytes(graph, profiles):
    """sims.csv as ``csv.writer`` writes it: header, then each edge's four scores, 0.0 without a profile."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["from_user_id", "to_user_id", "cosine", "jaccard", "dice", "average"])
    for a, b in sorted(graph.edges):
        pa, pb = profiles.get(a), profiles.get(b)
        scores = (0.0,) * 4 if pa is None or pb is None else overlap_scores(pa.topics, pb.topics)
        writer.writerow((a, b, *scores))
    return buffer.getvalue().encode("utf-8")


def generator_tokenize_topics(raw):
    """The per-fragment tokenizer: strip, then lowercase, each comma-separated fragment."""
    return frozenset(label for part in raw.split(",") if (label := part.strip().lower()))


def rowwise_load_edges(path):
    """The row-by-row edge loader: parse each row, drop self-loops, dedup in a set."""
    rows = duplicates = loops = 0
    edges = set()
    for line_no, row in _read_rows(path, EDGES_HEADER):
        a = _parse_user_id(path, line_no, row[0])
        b = _parse_user_id(path, line_no, row[1])
        rows += 1
        if a == b:
            loops += 1
            continue
        if (a, b) in edges:
            duplicates += 1
            continue
        edges.add((a, b))
    graph = SocialGraph(edges)
    graph.load_stats = LoadStats(rows, duplicates, loops)
    return graph


def random_topic_set(rng, max_labels=12, min_labels=0):
    size = rng.randint(min_labels, max_labels)
    return frozenset(rng.sample(VOCAB, size))


def random_digraph(rng, n, p):
    edges = set()
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b and rng.random() < p:
                edges.add((a, b))
    return SocialGraph(edges, nodes=range(1, n + 1))


def random_profiles(rng, nodes, max_labels=6, max_created=0):
    return {
        u: UserProfile(u, random_topic_set(rng, max_labels, 1), rng.randint(0, max_created), False)
        for u in sorted(nodes)
    }


def oracle_corpus(seed, count=100, max_nodes=200, max_created=0):
    """Deterministic stream of (graph, profiles, initials) test cases."""
    rng = random.Random(seed)
    densities = [0.002, 0.008, 0.02, 0.05]
    cases = []
    for k in range(count):
        n = rng.randint(10, max_nodes)
        graph = random_digraph(rng, n, densities[k % len(densities)])
        profiles = random_profiles(rng, graph.nodes, max_created=max_created)
        initials = tuple(rng.sample(sorted(graph.nodes), rng.randint(1, 3)))
        cases.append((graph, profiles, initials))
    return cases
