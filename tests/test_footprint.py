"""What a loaded graph and its profiles keep in memory.

A graph keeps its out-adjacency and load record, each distinct id as one
int object and each topic label as one string; its users are a view of the
adjacency's keys, and the edge pairs are built on each read of ``edges``,
which no package code makes.
"""

from __future__ import annotations

import copy
import csv
import pickle
import random
import re
import sys
import tracemalloc
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import pytest

import rumorsim.cli
from helpers import FIXTURE_DIR
from rumorsim import (
    AgentKind,
    BeliefState,
    ConfigurationError,
    EdgeProbability,
    EpidemicState,
    EvaluationPolicy,
    Metric,
    ModelKind,
    RngStream,
    SimilarityGate,
    SimulationConfig,
    SirParams,
    SocialGraph,
    TippingParams,
    diffuse_user_user,
    evaluate,
    filtered_edge_set,
    ic_step,
    load_config,
    load_edges,
    load_rumor,
    load_users,
    metric_sweep,
    run_belief_process,
    run_cli,
    run_trials,
    validate,
)
from rumorsim.config import GATED_MODELS

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
CONFIG = str(FIXTURE_DIR / "sim.cfg")
# all a graph holds: its out-adjacency and its load record
FIELDS = {"_out", "load_stats"}


def file_adjacency(path):
    """Each user of an edges file, ascending, with the ascending tuple of its followers, read with the csv module."""
    with open(path, newline="", encoding="utf-8") as fh:
        pairs = {(int(a), int(b)) for a, b in list(csv.reader(fh))[1:]}
    users = sorted({u for pair in pairs for u in pair})
    return [(u, tuple(sorted(b for a, b in pairs if a == u))) for u in users]


@pytest.fixture
def edge_reads(monkeypatch):
    """The module of each read of ``SocialGraph.edges`` while the test runs."""
    reads = []
    build = SocialGraph.edges.fget

    def edges(graph):
        reads.append(sys._getframe(1).f_globals["__name__"])
        return build(graph)

    monkeypatch.setattr(SocialGraph, "edges", property(edges))
    return reads


@pytest.fixture
def scene(tmp_path, monkeypatch):
    """The fixture config, its users and rumor, and ``fresh``: a loader, also the CLI's, that keeps every graph it builds."""
    cfg = load_config(CONFIG)
    graphs = []

    def fresh(path=cfg.edges_path):
        graphs.append(load_edges(path))
        return graphs[-1]

    def cli(*argv):
        assert run_cli(list(map(str, argv))) == 0

    monkeypatch.setattr(rumorsim.cli, "load_edges", fresh)
    return SimpleNamespace(
        cfg=cfg, profiles=load_users(cfg.users_path), rumor=load_rumor(cfg.rumor_path),
        fresh=fresh, graphs=graphs, cli=cli, out=tmp_path,
    )


def run_case(model, policy):
    def run(s):
        cfg = s.cfg._replace(model=model, evaluation_policy=policy, **PARAMS.get(model, {}))
        run_trials(cfg, s.fresh(), s.profiles, s.rumor)

    return pytest.param(run, id=f"run-{model.value}-{policy.value}")


def sweep_case(model):
    def sweep(s):
        metric_sweep(s.fresh(), s.profiles, s.rumor, s.cfg.initials, s.cfg.metrics, s.cfg.threshold, model)

    return pytest.param(sweep, id=f"metric_sweep-{model.value}")


def belief_process(s):
    graph = s.fresh()
    kinds = {u: AgentKind.REGULAR for u in graph.nodes}
    run_belief_process(graph, BeliefState(dict.fromkeys(kinds, 0.5), kinds, 0.5), 3, RngStream(1))


def one_ic_step(s):
    graph = s.fresh()
    states = {u: EpidemicState.INFECTED if u in s.cfg.initials else EpidemicState.SUSCEPTIBLE for u in graph.nodes}
    ic_step(graph, states, EdgeProbability(0.5), set(), RngStream(1))


def command_case(name, *argv):
    return pytest.param(lambda s: s.cli(*argv, "--out-dir", s.out), id=f"cli-{name}")


def export(s):
    s.cli("simulate", CONFIG, "--evaluation-policy", "every-step", "--out-dir", s.out)
    s.cli("export", s.out / "trace.csv", s.out / "export", "--config", CONFIG)


CASES = [
    *(run_case(model, policy) for model in ModelKind for policy in EvaluationPolicy),
    *map(sweep_case, GATED_MODELS),
    pytest.param(
        lambda s: filtered_edge_set(s.fresh(), s.profiles, None, SimilarityGate(Metric.COSINE, s.cfg.threshold)),
        id="filtered_edge_set",
    ),
    pytest.param(lambda s: validate(s.fresh(), s.profiles), id="validate"),
    pytest.param(belief_process, id="run_belief_process"),
    pytest.param(one_ic_step, id="ic_step"),
    command_case("simulate-once", "simulate", CONFIG, "--evaluation-policy", "once"),
    command_case("simulate-every-step", "simulate", CONFIG, "--evaluation-policy", "every-step"),
    command_case("simulate-content", "simulate", CONFIG, "--model", "gated_user_content"),
    command_case("simulate-sir", "simulate", CONFIG, "--model", "sir", "--beta", "0.5", "--gamma", "0.2"),
    command_case("simulate-ic", "simulate", CONFIG, "--model", "ic", "--ic-default-p", "0.5"),
    command_case("simulate-tipping", "simulate", CONFIG, "--model", "tipping", "--theta", "0.3"),
    command_case("evaluate", "evaluate", CONFIG),
    command_case("similarity", "similarity", CONFIG),
    pytest.param(lambda s: s.cli("validate", CONFIG), id="cli-validate"),
    pytest.param(export, id="cli-export"),
]


@pytest.mark.parametrize("case", CASES)
def test_a_graph_holds_its_adjacency_and_nothing_else(scene, edge_reads, capsys, case):
    """After a run, library call or command, a graph holds its loaded adjacency and no pair view or reversed copy.

    No package code has read the pair view, which would build every edge pair.
    """
    expected = file_adjacency(scene.cfg.edges_path)
    pairs = {(a, b) for a, followers in expected for b in followers}
    # the fixture is not symmetric, so a reversed copy held as ``_out`` would not match
    assert {(b, a) for a, b in pairs} != pairs
    case(scene)
    capsys.readouterr()
    assert scene.graphs
    for graph in scene.graphs:
        assert vars(graph).keys() == FIELDS
        assert list(graph._out.items()) == expected
    assert [module for module in edge_reads if module.partition(".")[0] == "rumorsim"] == []


def test_reading_edges_or_nodes_leaves_nothing_on_the_graph():
    cfg = load_config(CONFIG)
    graph = load_edges(cfg.edges_path)
    expected = file_adjacency(cfg.edges_path)
    pairs = [(a, b) for a, followers in expected for b in followers]
    assert type(graph.edges) is frozenset
    assert graph.edges == frozenset(pairs)
    # built on each read, so no read returns a kept copy
    assert graph.edges is not graph.edges
    assert list(graph.nodes) == [u for u, _ in expected]
    assert vars(graph).keys() == FIELDS


@pytest.mark.parametrize(
    "copy_of", [lambda record: pickle.loads(pickle.dumps(record)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_records_survive_pickle_and_deepcopy(copy_of):
    """A graph stores no view of its adjacency, which neither pickle nor deepcopy can copy."""
    cfg = load_config(CONFIG)
    graph = load_edges(cfg.edges_path)
    copied = copy_of(graph)
    assert vars(copied).keys() == FIELDS
    assert list(copied.adjacency.items()) == list(graph.adjacency.items())
    assert list(copied.nodes) == list(graph.nodes)
    assert copied.load_stats == graph.load_stats
    profiles = load_users(cfg.users_path)
    traces, _ = run_trials(cfg._replace(model=ModelKind.SIR, beta=0.5, gamma=0.2), graph)
    gate = SimilarityGate(Metric.COSINE, cfg.threshold)
    closure = diffuse_user_user(graph, profiles, cfg.initials, gate)
    records = (
        traces[0],
        closure,
        profiles[cfg.initials[0]],
        cfg,
        evaluate(closure.members, profiles),
        graph.load_stats,
        validate(graph, profiles),
        SirParams(0.5, 0.2),
        TippingParams(0.3),
        BeliefState({1: 0.25, 2: 1.0}, {1: AgentKind.REGULAR, 2: AgentKind.FORCEFUL}, 0.5),
        gate,
        load_rumor(cfg.rumor_path),
    )
    for record in records:
        copied = copy_of(record)
        assert type(copied) is type(record)
        assert copied == record
    assert copy_of(traces[0]).final_states == traces[0].final_states


BELIEFS = BeliefState({1: 0.5}, {1: AgentKind.REGULAR}, 0.5)
PLAIN = SimulationConfig(Path("edges.csv"), Path("users.csv"))

# a valid record of each kind that checks its values, the values that break
# it, and the message it raises for them
CHECKED = {
    "config-max-time": (PLAIN, {"max_time": 0}, "max_time must be >= 1, got 0"),
    "config-trials": (PLAIN, {"trials": sys.maxsize + 1}, f"trials must be <= {sys.maxsize}, got {sys.maxsize + 1}"),
    "config-seed": (PLAIN, {"seed": -1}, "seed must be an unsigned 64-bit integer, got -1"),
    "config-threshold": (PLAIN, {"threshold": 1.5}, "threshold must be in [0, 1], got 1.5"),
    "config-metrics": (PLAIN, {"metrics": ()}, "metrics must list at least one metric"),
    "config-twice": (PLAIN, {"metrics": (Metric.DICE,) * 2}, "metrics lists metric 'dice' twice"),
    "config-rumor": (
        PLAIN, {"model": ModelKind.GATED_USER_CONTENT}, "model gated_user_content requires rumor_path"
    ),
    "sir": (SirParams(0.5, 0.2), {"gamma": -0.1}, "gamma must be in [0, 1], got -0.1"),
    "tipping": (TippingParams(0.5), {"theta": 2}, "theta must be in [0, 1], got 2"),
    "belief-epsilon": (BELIEFS, {"epsilon": 1.5}, "epsilon must be in [0, 1], got 1.5"),
    "belief-value": (BELIEFS, {"beliefs": {1: 2.0}}, "belief for user 1 must be in [0, 1], got 2.0"),
    "belief-no-kind": (BELIEFS, {"kinds": {}}, "no agent kind for user 1"),
    "belief-kind": (BELIEFS, {"kinds": {1: "regular"}}, "agent kind for user 1 is not an AgentKind: 'regular'"),
    "gate": (SimilarityGate(), {"threshold": -0.5}, "threshold must be in [0, 1], got -0.5"),
}

# every way to build a record from a valid one and the values that break it;
# pickle and deepcopy copy a record forged past its checks
BUILDS = {
    "positional": lambda good, bad: type(good)(*bad.values()),
    "keywords": lambda good, bad: type(good)(**bad),
    "make": lambda good, bad: type(good)._make(bad.values()),
    "replace": lambda good, bad: good._replace(**bad),
    "pickle": lambda good, bad: pickle.loads(pickle.dumps(tuple.__new__(type(good), bad.values()))),
    "deepcopy": lambda good, bad: copy.deepcopy(tuple.__new__(type(good), bad.values())),
}


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("case", CHECKED)
def test_a_checked_record_runs_its_checks_however_it_is_built(case, build):
    good, changes, message = CHECKED[case]
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        BUILDS[build](good, {**good._asdict(), **changes})
