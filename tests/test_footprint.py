"""What a loaded graph and its profiles keep in memory.

A graph keeps its out-adjacency, each distinct id as one int object and
each topic label as one string; the edge pairs are built only when a
caller reads them.
"""

from __future__ import annotations

import dataclasses
import random
import tracemalloc
from itertools import chain

import pytest

import rumorsim.cli
from helpers import FIXTURE_DIR
from rumorsim import (
    EvaluationPolicy,
    ModelKind,
    load_config,
    load_edges,
    load_rumor,
    load_users,
    metric_sweep,
    run_cli,
    run_trials,
    validate,
)

EDGES = 20000
USERS = 2000
LABELS = ["News", " politics", "SPORTS ", "music", "Tech", "science", "travel", "food"]


def draw_index(rng, n):
    # random() is the one draw whose sequence Python keeps across versions
    return int(rng.random() * n)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A seeded edges.csv of 20k distinct edges and a users.csv over its users, ids far above the cached small ints."""
    rng = random.Random(2020)
    ids = [10_000 + 7 * k for k in range(USERS)]
    pairs = set()
    while len(pairs) < EDGES:
        a, b = ids[draw_index(rng, USERS)], ids[draw_index(rng, USERS)]
        if a != b:
            pairs.add((a, b))
    work = tmp_path_factory.mktemp("footprint")
    edges = work / "edges.csv"
    edges.write_text("from_user_id,to_user_id\n" + "".join(f"{a},{b}\n" for a, b in sorted(pairs)), encoding="utf-8")
    rows = []
    for u in ids:
        labels = {LABELS[draw_index(rng, len(LABELS))] for _ in range(1 + draw_index(rng, 4))}
        rows.append(f'{u},"{",".join(sorted(labels))}",0,{draw_index(rng, 2)}\n')
    users = work / "users.csv"
    users.write_text("user_id,topics,created_at,is_diffuser\n" + "".join(rows), encoding="utf-8")
    return edges, users


def test_a_loaded_graph_retains_at_most_48_bytes_per_edge(inputs):
    edges, _ = inputs
    load_edges(edges)  # imports and caches settle outside the measured load
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = load_edges(edges)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(graph.out_neighbors(10_000)) > 0
    assert retained / EDGES <= 48, f"{retained / EDGES:.1f} B per edge"


def test_each_id_is_one_object(inputs):
    graph = load_edges(inputs[0])
    held = {u: u for u in graph.nodes}
    occurrences = list(chain(graph.nodes, *map(graph.out_neighbors, sorted(graph.nodes))))
    assert len(occurrences) == len(graph.nodes) + EDGES
    assert all(held[u] is u for u in occurrences)
    assert len({id(u) for u in occurrences}) == len(graph.nodes)


def test_each_label_is_one_object(inputs):
    profiles = load_users(inputs[1])
    labels = [label for profile in profiles.values() for label in profile.topics]
    assert len(labels) > 2 * len(LABELS)
    assert len({id(label) for label in labels}) == len(set(labels)) == len(LABELS)


PARAMS = {
    ModelKind.SIR: dict(beta=0.5, gamma=0.2),
    ModelKind.IC: dict(ic_default_p=0.5),
    ModelKind.TIPPING: dict(theta=0.3),
}


def test_no_command_builds_the_edge_pairs(tmp_path, monkeypatch, capsys):
    cfg = load_config(FIXTURE_DIR / "sim.cfg")
    profiles = load_users(cfg.users_path)
    rumor = load_rumor(cfg.rumor_path)
    graphs = []

    def fresh(path=cfg.edges_path):
        graphs.append(load_edges(path))
        return graphs[-1]

    for model in ModelKind:
        for policy in EvaluationPolicy:
            run_cfg = dataclasses.replace(cfg, model=model, evaluation_policy=policy, **PARAMS.get(model, {}))
            run_trials(run_cfg, fresh(), profiles, rumor)
    for model in (ModelKind.GATED_USER_USER, ModelKind.GATED_USER_CONTENT):
        metric_sweep(fresh(), profiles, rumor, cfg.initials, cfg.metrics, cfg.threshold, model)
    validate(fresh(), profiles)
    monkeypatch.setattr(rumorsim.cli, "load_edges", fresh)
    assert run_cli(["similarity", str(FIXTURE_DIR / "sim.cfg"), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(graphs) == 2 * len(ModelKind) + 4
    assert not [g for g in graphs if {"sorted_edges", "edges"} & g.__dict__.keys()]
