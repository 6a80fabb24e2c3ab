"""Discrete-time agent simulation of rumor diffusion with reproducible traces.

All five models run under one protocol.  A run's ``next_step`` is the step
its next ``step()`` computes, or None once no later step can change a state;
``step()`` returns that step's [(user, state)] changes in ascending id, and
``clamped`` counts the users the run never lets act.  One loop, ``_drive``,
seeds step 0 with the initials and calls ``step()`` while ``next_step`` is
within max_time.  A gated run (``gated.GatedRun``) wakes users at their
created_at step and jumps over steps without events; a classical run
(``SirRun``, ``IcRun``, ``TippingRun`` in ``diffusion``) ignores
created_at, steps only its frontier and stops once that is empty.  So a
run's work and state follow its activity, not max_time or the user count.

One call checks its inputs and builds its gate once, and each trial is a
fresh run: trial k draws from an RngStream derived from (seed, k), so traces
are byte-for-byte reproducible, and a model that draws nothing runs once.  A
trial keeps only its deltas and the graph's node set; its curve, frames and
final states are read from them on demand, also for a trace.csv read back.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
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
from .gated import GatedRun, GateState, SimilarityGate, _check_initials, admission_test
from .graph import RumorContent, SocialGraph, _open_output, _read_rows, _write_json, _write_lines
from .rng import RngStream

TRACE_HEADER = ["trial", "step", "user_id", "new_state"]
CURVE_HEADER = ["step", "diffusers"]

# each model's (default, seed) states: every user starts in the default and
# the initials in the seed; a state counts toward the curve exactly when it is
# not the default, and a model's states are the members of its default's enum
MODEL_STATES = {
    ModelKind.GATED_USER_USER: (GateState.NON_DIFFUSER, GateState.DIFFUSER),
    ModelKind.GATED_USER_CONTENT: (GateState.NON_DIFFUSER, GateState.DIFFUSER),
    ModelKind.SIR: (EpidemicState.SUSCEPTIBLE, EpidemicState.INFECTED),
    ModelKind.IC: (EpidemicState.SUSCEPTIBLE, EpidemicState.INFECTED),
    ModelKind.TIPPING: (AdoptionState.NOT_ADOPTED, AdoptionState.ADOPTED),
}

# the models whose runs draw random numbers; any other model's trials repeat trial 0
DRAWING_MODELS = frozenset({ModelKind.SIR, ModelKind.IC})

# a dict lookup is cheaper than the Enum.value descriptor, read once per change
_STATE_LABELS = {state: state.value for default, _ in MODEL_STATES.values() for state in type(default)}


@dataclass
class DiffusionTrace:
    """Result of one trial: its per-step state changes over the graph's users.

    ``changes`` maps step -> [(user_id, new_state_label)] for the steps where
    a user of ``nodes`` (the graph's own set, all starting in the model's
    default state) moved; ``counts`` and ``final_states`` are read on demand.
    """

    model: ModelKind
    max_time: int
    changes: dict
    nodes: frozenset
    clamped_agents: int = 0

    @cached_property
    def counts(self) -> list:
        """Per step 0..max_time, the users that have left the default state; a recovered one stays."""
        active, counts = set(), []
        for t, users in self._activations():
            # steps without changes repeat the last count
            counts.extend(repeat(len(active), t - len(counts)))
            active.update(users)
            counts.append(len(active))
        counts.extend(repeat(len(active), self.max_time + 1 - len(counts)))
        return counts

    @cached_property
    def final_states(self) -> dict:
        """Each user's label after the last change, in the order of ``nodes``."""
        states = dict.fromkeys(self.nodes, self._default)
        for t in sorted(self.changes):
            states.update(self.changes[t])
        return states

    def final_active(self) -> set:
        return {u for u, label in self.final_states.items() if label != self._default}

    @property
    def _default(self) -> str:
        return MODEL_STATES[self.model][0].value

    def _activations(self):
        """Yield (t, the users set to a state other than the default at t) per step with changes, in order."""
        default = self._default
        for t in sorted(self.changes):
            yield t, [uid for uid, label in self.changes[t] if label != default]


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
    return _drive(cfg, graph, _starter(cfg, graph, profiles, rumor, decisions)(rng))


def run_trials(
    cfg: SimulationConfig,
    graph: SocialGraph,
    profiles: Mapping | None = None,
    rumor: RumorContent | None = None,
    decisions: Mapping | None = None,
) -> tuple:
    """Run cfg.trials trials, one run if the model draws nothing; returns (traces, mean curve)."""
    start = _starter(cfg, graph, profiles, rumor, decisions)
    base = RngStream(cfg.seed)
    if cfg.model in DRAWING_MODELS:
        traces = [_drive(cfg, graph, start(base.derive(k))) for k in range(cfg.trials)]
    else:
        traces = [_drive(cfg, graph, start(base.derive(0)))] * cfg.trials
    # an exact int sum, so each mean is correctly rounded
    aggregate = [sum(column) / len(traces) for column in zip(*(trace.counts for trace in traces))]
    return traces, aggregate


def _starter(cfg, graph, profiles, rumor, decisions):
    """Check cfg's model inputs and build what its trials share; returns start(rng), a fresh run."""
    if cfg.model in GATED_MODELS:
        if profiles is None:
            raise ConfigurationError(f"model {cfg.model.value} requires user profiles")
        if cfg.model is ModelKind.GATED_USER_CONTENT and rumor is None:
            raise ConfigurationError("model gated_user_content requires rumor content")
        _check_initials(graph, cfg.initials, profiles)
        content = rumor if cfg.model is ModelKind.GATED_USER_CONTENT else None
        admit = admission_test(profiles, content, SimilarityGate(cfg.metric, cfg.threshold, decisions))
        every_step = cfg.evaluation_policy is EvaluationPolicy.EVERY_STEP
        return lambda rng: GatedRun(graph, profiles, cfg.initials, admit, cfg.max_time, every_step)

    _check_initials(graph, cfg.initials)
    # the seed states alone: a run takes every user it is not given to be in the default
    states = dict.fromkeys(cfg.initials, MODEL_STATES[cfg.model][1])
    if cfg.model is ModelKind.TIPPING:
        params = TippingParams(cfg.model_param("theta"))
        return lambda rng: TippingRun(graph, states, params)
    if cfg.model is ModelKind.SIR:
        params = SirParams(cfg.model_param("beta"), cfg.model_param("gamma"))
        return lambda rng: SirRun(graph, states, params, rng)
    # IC, the one classical model left
    probs = EdgeProbability(cfg.model_param("ic_default_p"))
    return lambda rng: IcRun(graph, states, probs, rng)


def _drive(cfg, graph, run) -> DiffusionTrace:
    """The one scheduler loop: the initials in their seed state, then each step's changes to max_time."""
    seed = _STATE_LABELS[MODEL_STATES[cfg.model][1]]
    changes = {0: [(u, seed) for u in sorted(set(cfg.initials))]}
    while run.next_step is not None and run.next_step <= cfg.max_time:
        t = run.next_step
        if delta := run.step():
            changes.setdefault(t, []).extend([(u, _STATE_LABELS[state]) for u, state in delta])
    return DiffusionTrace(cfg.model, cfg.max_time, changes, graph.nodes, run.clamped)


def write_trace_csv(traces, path) -> None:
    """Write all trials' deltas as trial,step,user_id,new_state rows, one string per step."""
    _write_lines(path, TRACE_HEADER, _trace_lines(traces))


def _trace_lines(traces):
    for k, trace in enumerate(traces):
        for step in sorted(trace.changes):
            # the trial and step are formatted once per step, not per row
            prefix = f"{k},{step},"
            yield "".join([f"{prefix}{uid},{label}\n" for uid, label in trace.changes[step]])


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
    trace was run with a longer horizon than this config.  So does a label
    that is not a state of cfg.model: the trace was run with another model.
    So does a user outside the graph.
    """
    outside = [t for t in changes if not 0 <= t <= cfg.max_time]
    if outside:
        raise ConfigurationError(
            f"trace has a change at step {min(outside)}, outside 0..max_time (max_time = {cfg.max_time})"
        )
    labels = [state.value for state in type(MODEL_STATES[cfg.model][0])]
    for t in sorted(changes):
        for uid, label in changes[t]:
            if label not in labels:
                raise ConfigurationError(
                    f"trace sets user {uid} to {label!r} at step {t}, not a state of model "
                    f"{cfg.model.value} ({', '.join(labels)})"
                )
            if uid not in graph.nodes:
                raise ConfigurationError(f"trace references unknown user {uid}")
    return DiffusionTrace(cfg.model, cfg.max_time, dict(changes), graph.nodes)


def export_frames(trace: DiffusionTrace, graph: SocialGraph, out_dir) -> list:
    """Write one DOT frame per step plus curve.csv; returns the frame paths.

    Nodes are colored red once they have diffused (or been infected /
    adopted) and blue otherwise, so the frame sequence animates the spread.
    A ``frame_<digits>.dot`` already in ``out_dir`` whose number exceeds
    max_time, left by a longer trial, is removed.
    """
    out = Path(out_dir)
    nodes_sorted = sorted(graph.nodes)
    # the edge lines are the same in every frame
    adjacency = graph.adjacency.items()
    edge_lines = "".join(f"  {a} -> {b};\n" for a, followers in adjacency for b in followers) + "}\n"
    activations = dict(trace._activations())
    active, paths = set(), []
    for t in range(trace.max_time + 1):
        active.update(activations.get(t, ()))
        frame_path = out / f"frame_{t:04d}.dot"
        with _open_output(frame_path) as fh:
            fh.write("digraph diffusion {\n")
            fh.writelines(f"  {u} [color={'red' if u in active else 'blue'}];\n" for u in nodes_sorted)
            fh.write(edge_lines)
        paths.append(frame_path)
    write_curve_csv(trace.counts, out / "curve.csv")
    for stale in out.glob("frame_*.dot"):
        number = stale.name[len("frame_") : -len(".dot")]
        if number.isdecimal() and int(number) > trace.max_time:
            stale.unlink()
    return paths


def write_curve_csv(series, path) -> None:
    """Write a step,diffusers series (ints for one trial, means for many)."""
    _write_lines(path, CURVE_HEADER, (f"{t},{v}\n" for t, v in enumerate(series)))


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


def write_summary_json(cfg, traces, aggregate, path) -> None:
    """Write final counts and a config echo: the same bytes for the same config and seed."""
    payload = {
        "config": config_echo(cfg),
        "trials": [
            {
                "trial": k,
                "final_diffusers": trace.counts[-1],
                "steps_with_changes": len(trace.changes),
                # a gated run checks only users with a profile, so none is missing
                "missing_profiles": [],
                "clamped_agents": trace.clamped_agents,
            }
            for k, trace in enumerate(traces)
        ],
        "final_diffusers_mean": aggregate[-1],
    }
    _write_json(path, payload)
