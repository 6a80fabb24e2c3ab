"""Discrete-time agent simulation of rumor diffusion with reproducible traces.

Gated models wake each agent at its profile's created_at step; an agent
becomes a diffuser when some in-neighbor already diffuses and the similarity
gate passes, and then never leaves that state.  Agents inside one step are
evaluated in ascending user id and see activations made earlier in the same
step.  Under the every-step policy an agent is rechecked only when it wakes
or when an in-neighbor activates, so the gated scheduler's work follows the
activations, not the number of steps.  Classical models (sir, tipping, ic)
ignore created_at; each step touches only the run's frontier (infected and
exposed nodes, last step's new infections, or the nodes whose adopted
in-neighbor count just changed) and stops once that frontier is empty.

Trial k of a run draws from an RngStream derived from (seed, k), so traces
are byte-for-byte reproducible for a given config.  A run records only its
deltas; one replay of those deltas, the same for every model and for a
trace read back from trace.csv, gives the curve and the final states.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Mapping

from .config import GATED_MODELS, EvaluationPolicy, ModelKind, SimulationConfig
from .diffusion import (
    AdoptionState,
    EdgeProbability,
    EpidemicState,
    IcRun,
    SirParams,
    SirRun,
    TippingParams,
    TippingRun,
)
from .errors import ConfigurationError, ParseError
from .gated import _check_initials, admission_test
from .graph import RumorContent, SocialGraph, _read_rows
from .rng import RngStream

TRACE_HEADER = ["trial", "step", "user_id", "new_state"]
CURVE_HEADER = ["step", "diffusers"]

# states that count toward the diffusion curve; all are absorbing or
# downstream of one (a recovered node was infected first)
_ACTIVE_LABELS = frozenset({"diffuser", "infected", "recovered", "adopted"})

_DEFAULT_LABELS = {
    ModelKind.GATED_USER_USER: "non_diffuser",
    ModelKind.GATED_USER_CONTENT: "non_diffuser",
    ModelKind.SIR: "susceptible",
    ModelKind.IC: "susceptible",
    ModelKind.TIPPING: "not_adopted",
}


@dataclass
class DiffusionTrace:
    """Result of one trial: per-step state changes plus derived views.

    ``changes`` maps step -> [(user_id, new_state_label)] and omits steps
    where nothing moved.  ``counts`` (one entry per step 0..max_time) and
    ``final_states`` are replayed from ``changes`` by one function, for a
    fresh run and for a trace read back from trace.csv alike.
    """

    model: ModelKind
    max_time: int
    initials: tuple
    changes: dict
    counts: list
    final_states: dict
    missing_profiles: list = field(default_factory=list)
    clamped_agents: int = 0

    def final_active(self) -> set:
        return {u for u, label in self.final_states.items() if label in _ACTIVE_LABELS}


def run_simulation(
    cfg: SimulationConfig,
    graph: SocialGraph,
    profiles: Mapping | None = None,
    rumor: RumorContent | None = None,
    decisions: Mapping | None = None,
    rng: RngStream | None = None,
) -> DiffusionTrace:
    """Run a single trial; equivalent to trial 0 of ``run_trials``."""
    if rng is None:
        rng = RngStream(cfg.seed).derive(0)
    if cfg.model in GATED_MODELS:
        return _run_gated(cfg, graph, profiles, rumor, decisions)
    return _run_classical(cfg, graph, rng)


def run_trials(
    cfg: SimulationConfig,
    graph: SocialGraph,
    profiles: Mapping | None = None,
    rumor: RumorContent | None = None,
    decisions: Mapping | None = None,
) -> tuple:
    """Run cfg.trials independent trials; returns (traces, mean curve)."""
    base = RngStream(cfg.seed)
    traces = [
        run_simulation(cfg, graph, profiles, rumor, decisions, rng=base.derive(k))
        for k in range(cfg.trials)
    ]
    per_step = zip(*(trace.counts for trace in traces))
    aggregate = [math.fsum(column) / len(traces) for column in per_step]
    return traces, aggregate


def _run_gated(cfg, graph, profiles, rumor, decisions) -> DiffusionTrace:
    if profiles is None:
        raise ConfigurationError(f"model {cfg.model.value} requires user profiles")
    if cfg.model is ModelKind.GATED_USER_CONTENT and rumor is None:
        raise ConfigurationError("model gated_user_content requires rumor content")
    _check_initials(graph, cfg.initials, profiles)

    compare_to_rumor = cfg.model is ModelKind.GATED_USER_CONTENT
    missing = set()
    admit = admission_test(profiles, rumor if compare_to_rumor else None, cfg.gate(decisions), missing)

    active = set(cfg.initials)
    every_step = cfg.evaluation_policy is EvaluationPolicy.EVERY_STEP
    # (step, user, admitted) events popped in step then id order; every user
    # with a profile starts with its wake-up, and nodes without one have no
    # created_at and never evaluate
    events = []
    clamped = 0
    for u in graph.nodes:
        if u in active or u not in profiles:
            continue
        created_at = profiles[u].created_at
        if 0 <= created_at <= cfg.max_time:
            events.append((created_at, u, False))
        else:
            clamped += 1
    heapq.heapify(events)

    changes = {0: [(u, "diffuser") for u in sorted(active)]}
    # awake users whose active in-neighbours have all failed the gate so far;
    # an edge's gate runs at the follower's wake-up or at the source's
    # activation, never both
    waiting = set()
    while events:
        t, j, admitted = heapq.heappop(events)
        if t > cfg.max_time:
            break
        # live view: sources activated earlier in this same step count
        if not admitted and not any(i in active and admit(i, j) for i in graph.in_neighbors(j)):
            waiting.add(j)
            continue
        active.add(j)
        changes.setdefault(t, []).append((j, "diffuser"))
        if every_step:
            # a waiting follower activates later in this step if its id is
            # higher, else next step; one not awake yet checks at wake-up
            for k in graph.out_neighbors(j):
                if k in waiting and admit(j, k):
                    waiting.remove(k)
                    heapq.heappush(events, (t + (k < j), k, True))
    return _replay(cfg, graph, changes, missing, clamped)


def _run_classical(cfg, graph, rng) -> DiffusionTrace:
    _check_initials(graph, cfg.initials)
    initials = set(cfg.initials)
    if cfg.model is ModelKind.TIPPING:
        states = {
            u: AdoptionState.ADOPTED if u in initials else AdoptionState.NOT_ADOPTED
            for u in graph.nodes
        }
        run = TippingRun(graph, states, TippingParams(cfg.model_param("theta")))
    elif cfg.model is ModelKind.SIR:
        sir = SirParams(cfg.model_param("beta"), cfg.model_param("gamma"))
        run = SirRun(graph, _seed_epidemic(graph, initials), sir, rng)
    elif cfg.model is ModelKind.IC:
        probs = EdgeProbability(cfg.model_param("ic_default_p"))
        run = IcRun(graph, _seed_epidemic(graph, initials), probs, rng)
    else:
        raise ConfigurationError(f"model {cfg.model.value} is not a classical model")

    changes = {0: [(u, run.states[u].value) for u in sorted(initials)]}
    for t in range(1, cfg.max_time + 1):
        # an empty frontier cannot change anything
        if run.idle:
            break
        if delta := run.step():
            changes[t] = [(u, state.value) for u, state in delta]
    return _replay(cfg, graph, changes)


def _seed_epidemic(graph, initials) -> dict:
    return {
        u: EpidemicState.INFECTED if u in initials else EpidemicState.SUSCEPTIBLE
        for u in graph.nodes
    }


def _replay(cfg, graph, changes, missing_profiles=(), clamped_agents=0) -> DiffusionTrace:
    """The one route from a trial's deltas (steps 0..max_time) to its trace.

    Every user starts in the model's default state; ``counts[t]`` is the
    number of users that have held an active label by step t, so a recovered
    user stays on the curve.
    """
    states = dict.fromkeys(graph.nodes, _DEFAULT_LABELS[cfg.model])
    active = set()
    counts = []
    for t in sorted(changes):
        # steps without changes repeat the last count
        counts.extend(repeat(len(active), t - len(counts)))
        for uid, label in changes[t]:
            if uid not in states:
                raise ConfigurationError(f"trace references unknown user {uid}")
            states[uid] = label
            if label in _ACTIVE_LABELS:
                active.add(uid)
        counts.append(len(active))
    counts.extend(repeat(len(active), cfg.max_time + 1 - len(counts)))
    return DiffusionTrace(
        cfg.model, cfg.max_time, tuple(sorted(set(cfg.initials))), dict(changes), counts, states,
        sorted(missing_profiles), clamped_agents,
    )


def write_trace_csv(traces, path) -> None:
    """Write all trials' deltas as trial,step,user_id,new_state rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for k, trace in enumerate(traces):
            for step in sorted(trace.changes):
                for uid, label in trace.changes[step]:
                    writer.writerow([k, step, uid, label])


def read_trace_csv(path, trial: int) -> dict:
    """Read back one trial's deltas from a trace.csv written by this module."""
    changes = {}
    seen_trials = set()
    for line_no, row in _read_rows(path, TRACE_HEADER):
        try:
            k, step, uid = int(row[0]), int(row[1]), int(row[2])
        except ValueError:
            raise ParseError(path, line_no, f"non-integer field in {row!r}") from None
        seen_trials.add(k)
        if k == trial:
            changes.setdefault(step, []).append((uid, row[3]))
    if trial not in seen_trials:
        raise ConfigurationError(f"trial {trial} not present in {path} (has {sorted(seen_trials)})")
    return changes


def rebuild_trace(cfg: SimulationConfig, graph: SocialGraph, changes: dict) -> DiffusionTrace:
    """Reconstruct the full per-step view of one trial from its deltas.

    A change outside steps 0..cfg.max_time raises ConfigurationError: the
    trace was run with a longer horizon than this config.
    """
    outside = [t for t in changes if not 0 <= t <= cfg.max_time]
    if outside:
        raise ConfigurationError(
            f"trace has a change at step {min(outside)}, outside 0..max_time (max_time = {cfg.max_time})"
        )
    return _replay(cfg, graph, changes)


def export_frames(trace: DiffusionTrace, graph: SocialGraph, out_dir) -> list:
    """Write one DOT frame per step plus curve.csv; returns the frame paths.

    Nodes are colored red once they have diffused (or been infected /
    adopted) and blue otherwise, so the frame sequence animates the spread.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nodes_sorted = sorted(graph.nodes)
    edges_sorted = sorted(graph.edges)
    active = set()
    paths = []
    for t in range(trace.max_time + 1):
        for uid, label in trace.changes.get(t, ()):
            if label in _ACTIVE_LABELS:
                active.add(uid)
        lines = ["digraph diffusion {"]
        lines.extend(
            f"  {u} [color={'red' if u in active else 'blue'}];" for u in nodes_sorted
        )
        lines.extend(f"  {a} -> {b};" for a, b in edges_sorted)
        lines.append("}")
        frame_path = out / f"frame_{t:04d}.dot"
        frame_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(frame_path)
    write_curve_csv(trace.counts, out / "curve.csv")
    return paths


def write_curve_csv(series, path) -> None:
    """Write a step,diffusers series (ints for one trial, means for many)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_HEADER)
        for step, value in enumerate(series):
            writer.writerow([step, value])


def config_echo(cfg: SimulationConfig) -> dict:
    """JSON-friendly dump of the effective configuration, one entry per field."""
    return {f.name: _jsonable(getattr(cfg, f.name)) for f in fields(cfg)}


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return value


def write_summary_json(cfg, traces, aggregate, runtime_seconds, path) -> None:
    """Write final counts, a config echo, and the wall-clock runtime."""
    payload = {
        "config": config_echo(cfg),
        "trials": [
            {
                "trial": k,
                "final_diffusers": trace.counts[-1],
                "steps_with_changes": len(trace.changes),
                "missing_profiles": list(trace.missing_profiles),
                "clamped_agents": trace.clamped_agents,
            }
            for k, trace in enumerate(traces)
        ],
        "final_diffusers_mean": aggregate[-1],
        "runtime_seconds": round(runtime_seconds, 6),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
