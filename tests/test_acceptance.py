"""Acceptance gate: eight criteria, one test each, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test also fails loudly under plain pytest if its checks or
its runtime budget are violated.
"""

from __future__ import annotations

import csv
import json
import random
import time

from helpers import (
    FIXTURE_DIR,
    VOCAB,
    bfs_levels,
    bfs_reachable,
    brute_cosine,
    brute_dice,
    brute_jaccard,
    dp_levenshtein,
    oracle_corpus,
    random_digraph,
    random_topic_set,
)
from rumorsim import (
    AdoptionState,
    AgentKind,
    BeliefState,
    EdgeProbability,
    EpidemicState,
    EvaluationPolicy,
    Metric,
    ModelKind,
    RngStream,
    RumorContent,
    SimilarityGate,
    SimulationConfig,
    SirParams,
    SocialGraph,
    TippingParams,
    UserProfile,
    cosine,
    dice,
    diffuse_user_content,
    diffuse_user_user,
    evaluate,
    filtered_edge_set,
    ic_step,
    jaccard,
    levenshtein,
    load_edges,
    load_users,
    metric_sweep,
    pearson,
    run_belief_process,
    run_cli,
    run_simulation,
    run_trials,
    sir_step,
    tipping_step,
    vector_cosine,
    write_trace_csv,
)

TAU_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _finish(name: str, start: float, failures: list, budget: float) -> None:
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < budget
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s)")
    assert not failures, failures[:5]
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_reference_corpus_not_reproducible():
    # The reference corpus the headline accuracy figures came from is not
    # distributed with the package, so those figures stay descriptive
    # targets (tracked in the project notes, not asserted here).  What is
    # checked instead: the pipeline handles a corpus of the same scale
    # (17,083 users / 25,242 follow edges) deterministically, and the
    # substantive behavior is covered property-style by criteria 2-8.
    start = time.perf_counter()
    failures = []
    rng = random.Random(1083)
    n, m = 17083, 25242
    edges = set()
    while len(edges) < m:
        a = rng.randrange(1, n + 1)
        b = rng.randrange(1, n + 1)
        if a != b:
            edges.add((a, b))
    graph = SocialGraph(sorted(edges), nodes=range(1, n + 1))
    # two labels from a four-label pool: ~5/6 of edges pass the cosine
    # gate, which keeps the sparse graph above the percolation threshold
    # so the closure actually walks a large component, not just the seeds
    pool = VOCAB[:4]
    profiles = {
        u: UserProfile(u, frozenset(rng.sample(pool, 2)), 0, False)
        for u in graph.nodes
    }
    initials = tuple(rng.sample(range(1, n + 1), 25))
    gate = SimilarityGate(Metric.COSINE, 0.5)
    first = diffuse_user_user(graph, profiles, initials, gate)
    second = diffuse_user_user(graph, profiles, initials, gate)
    if first.members != second.members:
        failures.append("same inputs produced different diffuser sets")
    if not set(initials) <= first.members:
        failures.append("initials missing from the diffuser set")
    fraction = len(first.members) / n
    print(
        f"  (scale run: {len(first.members)} predicted diffusers, "
        f"{fraction:.2%} of {n} synthetic users; reference targets are descriptive only)"
    )
    _finish("criterion 1: corpus-scale determinism stand-in", start, failures, 30.0)


def test_criterion_2_similarity_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    rng = random.Random(210)
    for i in range(10_000):
        a = random_topic_set(rng, max_labels=12)
        b = random_topic_set(rng, max_labels=12)
        for name, ours, brute in (
            ("cosine", cosine(a, b), brute_cosine(a, b)),
            ("jaccard", jaccard(a, b), brute_jaccard(a, b)),
            ("dice", dice(a, b), brute_dice(a, b)),
        ):
            if abs(ours - brute) > 1e-12:
                failures.append(f"pair {i} {name}: {ours!r} vs brute {brute!r}")
    alphabet = "abcdef"
    for i in range(1_000):
        s1 = "".join(rng.choices(alphabet, k=rng.randint(0, 20)))
        s2 = "".join(rng.choices(alphabet, k=rng.randint(0, 20)))
        distance, similarity = levenshtein(s1, s2)
        expected = dp_levenshtein(s1, s2)
        if distance != expected:
            failures.append(f"strings {s1!r}/{s2!r}: {distance} vs DP {expected}")
        longest = max(len(s1), len(s2))
        want = 1.0 if longest == 0 else 1.0 - expected / longest
        if similarity != want:
            failures.append(f"strings {s1!r}/{s2!r}: similarity {similarity!r} vs {want!r}")
    _finish("criterion 2: similarity oracle equivalence", start, failures, 10.0)


def test_criterion_3_metric_identities_and_invariances():
    start = time.perf_counter()
    failures = []
    rng = random.Random(310)
    for i in range(10_000):
        a = random_topic_set(rng, max_labels=12)
        b = random_topic_set(rng, max_labels=12)
        j = jaccard(a, b)
        d = dice(a, b)
        if abs(d - 2 * j / (1 + j)) > 1e-12:
            failures.append(f"pair {i}: dice {d!r} vs 2J/(1+J) with J={j!r}")
    for i in range(500):
        size = rng.randint(2, 10)
        v1 = [rng.uniform(-5, 5) for _ in range(size)]
        v2 = [rng.uniform(-5, 5) for _ in range(size)]
        if max(v1) == min(v1) or max(v2) == min(v2):
            continue
        base_cos = vector_cosine(v1, v2)
        for alpha in (0.25, 3.0, 1750.0):
            scaled = vector_cosine([alpha * x for x in v1], v2)
            if abs(scaled - base_cos) > 1e-12:
                failures.append(f"vector {i}: cosine moved under scale {alpha}")
        base_pearson = pearson(v1, v2)
        for shift in (-7.5, 0.5, 64.0):
            shifted = pearson([x + shift for x in v1], v2)
            if abs(shifted - base_pearson) > 1e-12:
                failures.append(f"vector {i}: pearson moved under shift {shift}")
    _finish("criterion 3: dice-jaccard identity and invariances", start, failures, 10.0)


def test_criterion_4_gated_algorithm_oracle():
    start = time.perf_counter()
    failures = []
    rumor = RumorContent(frozenset({VOCAB[1], VOCAB[5], VOCAB[9]}))
    for idx, (graph, profiles, initials) in enumerate(
        oracle_corpus(seed=410, count=100, max_nodes=200)
    ):
        previous = {ModelKind.GATED_USER_USER: None, ModelKind.GATED_USER_CONTENT: None}
        for tau in TAU_GRID:
            gate = SimilarityGate(Metric.COSINE, tau)
            for model in (ModelKind.GATED_USER_USER, ModelKind.GATED_USER_CONTENT):
                content = rumor if model is ModelKind.GATED_USER_CONTENT else None
                if model is ModelKind.GATED_USER_USER:
                    result = diffuse_user_user(graph, profiles, initials, gate).members
                else:
                    result = diffuse_user_content(graph, profiles, rumor, initials, gate).members
                oracle = bfs_reachable(
                    initials, filtered_edge_set(graph, profiles, content, gate)
                )
                if result != oracle:
                    failures.append(f"graph {idx} tau {tau} {model.value}: set != BFS oracle")
                if previous[model] is not None and not result <= previous[model]:
                    failures.append(f"graph {idx} tau {tau} {model.value}: grew as tau rose")
                previous[model] = result
    _finish("criterion 4: gated diffusion equals BFS oracle", start, failures, 30.0)


def test_criterion_5_classical_models():
    start = time.perf_counter()
    failures = []
    rng = random.Random(510)

    # epidemic bookkeeping: every node holds exactly one state at all times
    for run in range(100):
        g = random_digraph(rng, rng.randint(10, 60), 0.08)
        params = SirParams(beta=rng.uniform(0.05, 0.9), gamma=rng.uniform(0.05, 0.9))
        states = {u: EpidemicState.SUSCEPTIBLE for u in g.nodes}
        states[min(g.nodes)] = EpidemicState.INFECTED
        stream = RngStream(run)
        for _ in range(12):
            states = sir_step(g, states, params, stream)
            if set(states) != g.nodes:
                failures.append(f"sir run {run}: state table lost or gained nodes")
                break
            tally = sum(1 for s in states.values() if s in EpidemicState)
            if tally != len(g.nodes):
                failures.append(f"sir run {run}: S+I+R != |V|")
                break

    # one-shot cascades with certain edges advance exactly one BFS level per step
    for run in range(20):
        g = random_digraph(rng, rng.randint(10, 80), 0.06)
        seed_node = min(g.nodes)
        levels = bfs_levels([seed_node], g.edges)
        states = {u: EpidemicState.SUSCEPTIBLE for u in g.nodes}
        states[seed_node] = EpidemicState.INFECTED
        attempted = set()
        probs = EdgeProbability(default=1.0)
        stream = RngStream(run + 1000)
        for depth, level in enumerate(levels):
            newly = {u for u, s in states.items() if s is EpidemicState.INFECTED}
            if newly != level:
                failures.append(f"ic run {run}: depth {depth} infections differ from BFS level")
                break
            states, attempted = ic_step(g, states, probs, attempted, stream)

    # threshold adoption is deterministic and only ever grows
    for run in range(20):
        g = random_digraph(rng, rng.randint(10, 60), 0.1)
        init = {
            u: AdoptionState.ADOPTED if u <= 3 else AdoptionState.NOT_ADOPTED
            for u in g.nodes
        }
        theta = TippingParams(theta=0.3)
        a = dict(init)
        b = dict(init)
        for _ in range(10):
            next_a = tipping_step(g, a, theta)
            next_b = tipping_step(g, b, theta)
            if next_a != next_b:
                failures.append(f"tipping run {run}: identical runs diverged")
                break
            grown = {u for u, s in next_a.items() if s is AdoptionState.ADOPTED}
            held = {u for u, s in a.items() if s is AdoptionState.ADOPTED}
            if not held <= grown:
                failures.append(f"tipping run {run}: adopted set shrank")
                break
            a, b = next_a, next_b

    # random pairwise averaging on a connected all-regular ring must contract
    ring_n = 12
    ring_edges = [(i, i % ring_n + 1) for i in range(1, ring_n + 1)]
    g = SocialGraph(ring_edges)
    beliefs = {u: (u * 17 % ring_n) / ring_n for u in g.nodes}
    state = BeliefState(
        beliefs=beliefs,
        kinds={u: AgentKind.REGULAR for u in g.nodes},
        epsilon=0.5,
    )
    final, trace = run_belief_process(g, state, 100_000, RngStream(7))
    spread = max(final.beliefs.values()) - min(final.beliefs.values())
    if spread >= 1e-6:
        failures.append(f"belief spread {spread!r} after 1e5 exchanges")
    if len(trace) != 100_001:
        failures.append("belief trace has the wrong length")
    _finish("criterion 5: classical models behave", start, failures, 30.0)


def test_criterion_6_simulator_determinism_and_fixpoint(tmp_path):
    start = time.perf_counter()
    failures = []

    cfg = SimulationConfig(
        edges_path=FIXTURE_DIR / "edges.csv",
        users_path=FIXTURE_DIR / "users.csv",
        max_time=20,
        trials=2,
        seed=42,
        initials=(1,),
    )
    graph = load_edges(cfg.edges_path)
    profiles = load_users(cfg.users_path)
    blobs = []
    for name in ("one.csv", "two.csv"):
        traces, _ = run_trials(cfg, graph, profiles)
        path = tmp_path / name
        write_trace_csv(traces, path)
        blobs.append(path.read_bytes())
    if blobs[0] != blobs[1]:
        failures.append("gated trace.csv not byte-identical across reruns")

    sir_cfg = SimulationConfig(
        edges_path=cfg.edges_path,
        users_path=cfg.users_path,
        max_time=15,
        trials=3,
        seed=9,
        model=ModelKind.SIR,
        beta=0.4,
        gamma=0.3,
        initials=(1,),
    )
    blobs = []
    for name in ("s1.csv", "s2.csv"):
        traces, _ = run_trials(sir_cfg, graph)
        path = tmp_path / name
        write_trace_csv(traces, path)
        blobs.append(path.read_bytes())
    if blobs[0] != blobs[1]:
        failures.append("sir trace.csv not byte-identical across reruns")

    for idx, (g, prof, initials) in enumerate(
        oracle_corpus(seed=610, count=100, max_nodes=200, max_created=5)
    ):
        horizon = 5 + len(g.nodes) + 1
        run_cfg = SimulationConfig(
            edges_path=cfg.edges_path,
            users_path=cfg.users_path,
            max_time=horizon,
            trials=1,
            seed=idx,
            evaluation_policy=EvaluationPolicy.EVERY_STEP,
            initials=initials,
        )
        trace = run_simulation(run_cfg, g, prof)
        fixpoint = diffuse_user_user(g, prof, initials, SimilarityGate(Metric.COSINE, 0.5))
        if trace.final_active() != fixpoint.members:
            failures.append(f"graph {idx}: every-step final set != worklist fixpoint")
    _finish("criterion 6: determinism and fixpoint agreement", start, failures, 20.0)


def test_criterion_7_self_consistency_evaluation():
    start = time.perf_counter()
    failures = []
    rng = random.Random(710)
    graph = random_digraph(rng, 500, 0.02)
    # a narrow topic pool keeps neighbors similar enough that the gate
    # actually spreads (479 of 500 nodes) instead of degenerating to the
    # initials, so the four metrics produce genuinely different rows
    pool = VOCAB[:8]
    unlabeled = {
        u: UserProfile(u, frozenset(rng.sample(pool, rng.randint(1, 4))), 0, False)
        for u in graph.nodes
    }
    initials = tuple(rng.sample(sorted(graph.nodes), 5))
    gate = SimilarityGate(Metric.COSINE, 0.5)
    members = diffuse_user_user(graph, unlabeled, initials, gate).members
    profiles = {
        u: UserProfile(u, p.topics, p.created_at, u in members)
        for u, p in unlabeled.items()
    }
    cosine_report = evaluate(members, profiles)
    if cosine_report.accuracy != 1.0:
        failures.append(f"self-labeled cosine accuracy {cosine_report.accuracy!r} != 1.0")
    metrics = (Metric.COSINE, Metric.JACCARD_SET, Metric.DICE, Metric.AVERAGE)
    rows = metric_sweep(graph, profiles, None, initials, metrics, 0.5)
    if rows[0][0] is not Metric.COSINE or rows[0][1].accuracy != 1.0:
        failures.append("cosine row is not a perfect first row in the sweep")
    for metric, report in rows:
        direct = evaluate(
            diffuse_user_user(graph, profiles, initials, SimilarityGate(metric, 0.5)),
            profiles,
        )
        if report != direct:
            failures.append(f"sweep row {metric.value} differs from direct evaluation")
    _finish("criterion 7: self-consistent evaluation", start, failures, 10.0)


def test_criterion_8_end_to_end_smoke(tmp_path):
    start = time.perf_counter()
    failures = []
    cfg = str(FIXTURE_DIR / "sim.cfg")
    out = tmp_path / "out"
    if run_cli(["simulate", cfg, "--out-dir", str(out)]) != 0:
        failures.append("simulate exited nonzero")
    if run_cli(["evaluate", cfg, "--out-dir", str(out)]) != 0:
        failures.append("evaluate exited nonzero")
    frames_dir = tmp_path / "frames"
    if run_cli(["export", str(out / "trace.csv"), str(frames_dir), "--config", cfg]) != 0:
        failures.append("export exited nonzero")
    for artifact in ("trace.csv", "curve.csv", "summary.json", "eval.json"):
        if not (out / artifact).exists():
            failures.append(f"{artifact} missing")
    with (out / "curve.csv").open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    values = [float(v) for _, v in rows[1:]]
    if len(values) != 21:
        failures.append(f"curve has {len(values)} steps, wanted max_time+1 = 21")
    if any(a > b for a, b in zip(values, values[1:])):
        failures.append("curve decreases")
    frames = sorted(frames_dir.glob("frame_*.dot"))
    if len(frames) != 21:
        failures.append(f"{len(frames)} DOT frames, wanted one per step = 21")
    if not json.loads((out / "eval.json").read_text(encoding="utf-8")):
        failures.append("eval.json is empty")
    _finish("criterion 8: end-to-end smoke", start, failures, 5.0)
