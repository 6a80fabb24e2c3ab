"""rumorsim benchmark: seeded workloads run through the real command line.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from ``src/``
of the checkout that holds this file.  Inputs are generated from ``--seed``
into ``.bench_run/NAME/`` at the checkout root, which each run wipes first.

With ``--trace 0`` every CLI command runs in a fresh, uninstrumented process
and the run repeats the workload's command sequence until ``--seconds`` have
passed (at least twice, so outputs can be compared).  It reports the median
repetition wall time, the median set-up time of fresh processes that only
import rumorsim and load the inputs, and peak RSS.

With ``--trace 1`` the run alternates an untraced repetition with one traced
by ``tracer.py`` and reports per-layer metrics, the tracing overhead, and a
probe of every similarity metric over a seeded sample of the input's edges.

Either way the outputs are checked (see ``README.md``) and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_run"
GOLDEN = BENCH_DIR / "golden.json"

sys.path.insert(0, str(BENCH_DIR))
import gen  # noqa: E402
from tracer import LAYERS  # noqa: E402

MIN_REPS = 2
SETUP_PROBES = 7
PROBE_PAIRS = 1000
PROBE_PASSES = 3
REACH_BATCH = 16

CLI = "from rumorsim.cli import main; main()"
SETUP_PROBE = """\
import sys
import rumorsim
cfg = rumorsim.load_config(sys.argv[1])
rumorsim.load_edges(cfg.edges_path)
rumorsim.load_users(cfg.users_path)
if cfg.rumor_path:
    rumorsim.load_rumor(cfg.rumor_path)
"""

SIM_OUTPUTS = ("trace.csv", "curve.csv", "summary.json")
SWEEP = ("cosine", "jaccard", "jaccard_vector", "dice", "average", "levenshtein")
PROBE_METRICS = ("cosine", "pearson", "jaccard", "jaccard_vector", "dice", "levenshtein", "average")


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple
    outputs: tuple

    @property
    def subcommand(self) -> str:
        return self.args[0]

    def cli_args(self) -> list:
        return [self.args[0], "sim.cfg", *self.args[1:], "--out-dir", f"out/{self.name}"]


@dataclass(frozen=True)
class Workload:
    family: str
    users: int
    edges: int
    commands: tuple


GATED_THRESHOLD = "0.3"
SWEEP_THRESHOLD = "0.25"

WORKLOADS = {
    # The every-step scheduler rechecks every awake user against all its
    # in-neighbours each step: millions of cosine gate checks for a few
    # thousand activations, worst at preferential-attachment hubs.
    # Diffusion and Levenshtein are not entered.
    "gated-everystep-ba": Workload("ba", 5000, 50000, (
        Command("gated_sim", ("simulate", "--model", "gated_user_user", "--evaluation-policy", "every-step",
                              "--metric", "cosine", "--threshold", GATED_THRESHOLD, "--trials", "1"),
                SIM_OUTPUTS),
    )),
    # Full-graph diffusion sweeps, RNG draws, neighbour-list copies and
    # trace.csv writes.  The gate and similarity are never entered, so this
    # is the control for gate-kernel changes.
    "classical-ba": Workload("ba", 10000, 100000, (
        Command("sir", ("simulate", "--model", "sir", "--beta", "0.05", "--gamma", "0.2", "--trials", "4"),
                SIM_OUTPUTS),
        Command("ic", ("simulate", "--model", "ic", "--ic-default-p", "0.1", "--trials", "4"), SIM_OUTPUTS),
        Command("tipping", ("simulate", "--model", "tipping", "--theta", "0.1", "--trials", "1"), SIM_OUTPUTS),
    )),
    # Worklist closures under six gate metrics (Levenshtein dominates), then
    # per-edge scoring written to sims.csv.  No time steps run, so this is
    # the control for scheduler changes.
    "gate-sweep-er": Workload("er", 6000, 60000, (
        Command("evaluate", ("evaluate", "--metrics", ",".join(SWEEP), "--threshold", SWEEP_THRESHOLD),
                ("eval.json",)),
        Command("similarity", ("similarity",), ("sims.csv",)),
    )),
}


def run_child(args: list, cwd: Path, log: Path) -> tuple:
    """Run ``python3 ARGS`` to completion; return (wall s, peak RSS MB, exit code)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
                                stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def output_digest(out_dir: Path, files) -> str | None:
    """SHA-256 over a command's outputs; summary.json without runtime_seconds."""
    digest = hashlib.sha256()
    for name in files:
        path = out_dir / name
        if not path.is_file():
            return None
        data = path.read_bytes()
        if name == "summary.json":
            summary = json.loads(data)
            summary.pop("runtime_seconds", None)
            data = json.dumps(summary, sort_keys=True).encode()
        digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------- output checks


def reachable_count(graph, profiles, initials, gate) -> int:
    """Users reachable from the initials over ``filtered_edge_set``.

    A worklist over small batches of reached users: each batch materializes
    the gate only on its edges into users not reached yet, since an edge
    into a reached user cannot change reachability.  This keeps the
    Levenshtein check near the cost of one closure instead of one score per
    edge of the graph.
    """
    import rumorsim

    reached = set(initials)
    queue = deque(sorted(reached))
    while queue:
        batch = [queue.popleft() for _ in range(min(REACH_BATCH, len(queue)))]
        candidates = [(a, b) for a in batch for b in graph.out_neighbors(a) if b not in reached]
        if candidates:
            passed = rumorsim.filtered_edge_set(rumorsim.SocialGraph(candidates), profiles, None, gate)
            new = sorted({b for _, b in passed} - reached)
            reached.update(new)
            queue.extend(new)
    return len(reached)


def activation_steps(graph, profiles, initials, gate) -> dict:
    """Step at which every-step activates each user, with no ``max_time`` cap.

    Initials are active from step 0.  User j activates at the first step
    t >= created_at(j) at which some admitted in-neighbour i is active; i
    counts in its own activation step when it was evaluated first that
    step (i < j, ascending ids), otherwise one step later.  Each edge
    maps an activation step to a later-or-equal one, so a Dijkstra
    search gives every user's first step.  The keys are exactly the
    gate's reachability fixpoint.
    """
    import heapq

    import rumorsim

    roots = set(initials)
    step = {u: 0 for u in roots}
    heap = [(0, u) for u in sorted(roots)]
    done = set()
    while heap:
        t, i = heapq.heappop(heap)
        if i in done:
            continue
        done.add(i)
        for j in graph.out_neighbors(i):
            if j in done:
                continue
            if rumorsim.score(gate.metric, profiles[i], profiles[j]) < gate.threshold:
                continue
            seen = t if i in roots or i < j else t + 1
            candidate = max(profiles[j].created_at, seen)
            if candidate < step.get(j, candidate + 1):
                step[j] = candidate
                heapq.heappush(heap, (candidate, j))
    return step


def diffuser_steps(trace_csv: Path) -> dict:
    """Trial 0 of a trace.csv as user -> step at which it became a diffuser."""
    with open(trace_csv, newline="", encoding="utf-8") as fh:
        rows = csv.DictReader(fh)
        return {int(r["user_id"]): int(r["step"]) for r in rows if r["trial"] == "0" and r["new_state"] == "diffuser"}


def load_inputs(work: Path) -> tuple:
    """The workload's (config, graph, profiles), loaded in this process."""
    import rumorsim

    cfg = rumorsim.load_config(work / "sim.cfg")
    return cfg, rumorsim.load_edges(cfg.edges_path), rumorsim.load_users(cfg.users_path)


def build_checks(name: str, inputs: tuple) -> dict:
    """Per-command output checks: command name -> check(out_dir) -> problem or None."""
    import rumorsim

    cfg, graph, profiles = inputs
    checks = {}
    if name == "gated-everystep-ba":
        # every-step reaches the closure only if its last activation fits in
        # max_time, so the check compares each user's activation step
        gate = rumorsim.SimilarityGate(rumorsim.Metric.COSINE, float(GATED_THRESHOLD))
        steps = activation_steps(graph, profiles, cfg.initials, gate)
        closure = rumorsim.diffuse_user_user(graph, profiles, cfg.initials, gate).members
        expected = {u: t for u, t in steps.items() if t <= cfg.max_time}

        def check_gated(out: Path):
            if set(steps) != closure:
                return f"diffuse_user_user reaches {len(closure)} users, the step oracle {len(steps)}"
            got = diffuser_steps(out / "trace.csv")
            if got != expected:
                wrong = sorted(u for u in got.keys() | expected.keys() if got.get(u) != expected.get(u))
                return (f"{len(wrong)} users activate at another step than the oracle's "
                        f"(first: user {wrong[0]}, {got.get(wrong[0])} != {expected.get(wrong[0])})")
            return None

        checks["gated_sim"] = check_gated
    elif name == "gate-sweep-er":
        threshold = float(SWEEP_THRESHOLD)
        expected = {
            metric: reachable_count(graph, profiles, cfg.initials,
                                    rumorsim.SimilarityGate(rumorsim.Metric.from_name(metric), threshold))
            for metric in SWEEP
        }

        def check_eval(out: Path):
            rows = json.loads((out / "eval.json").read_text(encoding="utf-8"))
            got = {row["metric"]: row["predicted_count"] for row in rows}
            if got != expected:
                return f"eval.json predicted_count {got} != reachability {expected}"
            return None

        def check_sims(out: Path):
            with open(out / "sims.csv", encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != len(graph.edges):
                return f"sims.csv has {rows} rows for {len(graph.edges)} edges"
            return None

        checks["evaluate"] = check_eval
        checks["similarity"] = check_sims
    return checks


class Outcomes:
    """Counts attempted and failed program runs, and why each one failed."""

    def __init__(self, workload: str, seed: int, checks: dict):
        self.checks = checks
        self.first_digest = {}
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        self.golden = golden.get(workload, {}) if golden.get("seed") == seed else None
        self.attempted = 0
        self.problems = []

    def record(self, label: str, code: int, cmd: Command | None = None, out: Path | None = None) -> None:
        self.attempted += 1
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif cmd is not None:
            problem = self._check_outputs(cmd, out)
        if problem:
            self.problems.append(f"{label}: {problem}")

    def _check_outputs(self, cmd: Command, out: Path) -> str | None:
        digest = output_digest(out, cmd.outputs)
        if digest is None:
            return f"missing one of {', '.join(cmd.outputs)}"
        first = self.first_digest.setdefault(cmd.name, digest)
        if digest != first:
            return "outputs differ from the first repetition"
        if self.golden is not None and self.golden.get(cmd.name) != digest:
            return f"outputs digest {digest} does not match the recorded one"
        check = self.checks.get(cmd.name)
        return check(out) if check else None

    @property
    def failed(self) -> int:
        return len(self.problems)


# ---------------------------------------------------------------- measurement


def measure_setup(work: Path, outcomes: Outcomes) -> list:
    walls = []
    for i in range(SETUP_PROBES):
        wall, _, code = run_child(["-c", SETUP_PROBE, "sim.cfg"], work, work / "setup.log")
        outcomes.record(f"setup probe {i}", code)
        walls.append(wall)
    return walls


def run_repetition(workload: Workload, work: Path, outcomes: Outcomes, rep: int, stats_dir: Path | None) -> dict:
    """Run the workload's commands once; traced when ``stats_dir`` is given."""
    result = {}
    for cmd in workload.commands:
        if stats_dir is None:
            args = ["-c", CLI, *cmd.cli_args()]
        else:
            args = [str(BENCH_DIR / "tracer.py"), str(stats_dir / f"{cmd.name}.json"), *cmd.cli_args()]
        wall, rss, code = run_child(args, work, work / f"{cmd.name}.log")
        kind = "traced" if stats_dir else "untraced"
        outcomes.record(f"{kind} repetition {rep} {cmd.name}", code, cmd, work / "out" / cmd.name)
        result[cmd.name] = (wall, rss)
    return result


def probe_similarity(inputs: tuple, seed: int) -> dict:
    """Time ``score`` per metric over a seeded sample of the input's edges.

    Returns name -> (value, unit, sample count).  Pearson's undefined pairs
    are counted, not skipped: they are part of what the metric costs.
    """
    import rumorsim

    _, graph, profiles = inputs
    sample = random.Random(f"probe:{seed}").sample(sorted(graph.edges), PROBE_PAIRS)
    pairs = [(profiles[a], profiles[b]) for a, b in sample]
    metrics = {"similarity.probe_pairs": (len(pairs), "count", 1)}
    for name in PROBE_METRICS:
        metric = rumorsim.Metric.from_name(name)
        passes = []
        for _ in range(PROBE_PASSES):
            failures = 0
            start = time.perf_counter()
            for pa, pb in pairs:
                try:
                    rumorsim.score(metric, pa, pb)
                except rumorsim.UndefinedCorrelationError:
                    failures += 1
            passes.append(time.perf_counter() - start)
        metrics[f"similarity.{name}.us_per_pair"] = (statistics.median(passes) / len(pairs) * 1e6, "us", len(passes))
        if name == "pearson":
            metrics["similarity.pearson.fail_frac"] = (failures / len(pairs), "ratio", 1)
    return metrics


def layer_metrics(workload: Workload, stats: dict, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""

    def fn(names, key):
        return sum(s["functions"].get(n, {}).get(key, 0) for s in stats.values() for n in names)

    def counter(key):
        return sum(s["counters"].get(key, 0) for s in stats.values())

    def ratio(num, den):
        return num / den if den else 0.0

    neighbors = ("graph.SocialGraph.in_neighbors", "graph.SocialGraph.out_neighbors")
    writers = ("simulate.write_trace_csv", "simulate.write_curve_csv", "simulate.write_summary_json")
    steps = ("diffusion.sir_step", "diffusion.ic_step", "diffusion.tipping_step")
    draws = fn(("rng.RngStream.random", "rng.RngStream.randrange"), "calls")
    admit_calls = fn(("gated.admit",), "calls")
    admit_passes = counter("gated.admit_passes")
    # every gate check of a simulate command happens inside its run_trials
    checks = sum(
        stats[cmd.name]["functions"].get("gated.admit", {}).get("calls", 0)
        for cmd in workload.commands
        if cmd.subcommand == "simulate" and cmd.name in stats
    )
    activations = counter("simulate.activations")
    changes = counter("diffusion.changes")
    traced_wall = sum(wall for wall, _ in traced.values())
    untraced_wall = sum(wall for wall, _ in untraced.values())
    m = {
        "config.load_s": (fn(("config.load_config",), "total_s"), "s"),
        "graph.load_edges_s": (fn(("graph.load_edges",), "total_s"), "s"),
        "graph.load_users_s": (fn(("graph.load_users",), "total_s"), "s"),
        "graph.build_s": (fn(("graph.SocialGraph.__init__",), "total_s"), "s"),
        "graph.neighbor_calls": (fn(neighbors, "calls"), "count"),
        "graph.neighbor_s": (fn(neighbors, "total_s"), "s"),
        "similarity.score_calls": (fn(("similarity.score",), "calls"), "count"),
        "similarity.score_s": (fn(("similarity.score",), "total_s"), "s"),
        "gated.admit_calls": (admit_calls, "count"),
        "gated.admit_passes": (admit_passes, "count"),
        "gated.admit_pass_frac": (ratio(admit_passes, admit_calls), "ratio"),
        "gated.closure_s": (fn(("gated.diffuse_user_user", "gated.diffuse_user_content"), "total_s"), "s"),
        "simulate.run_trials_s": (fn(("simulate.run_trials",), "total_s"), "s"),
        "simulate.activations": (activations, "count"),
        "simulate.checks": (checks, "count"),
        "simulate.checks_per_activation": (ratio(checks, activations), "ratio"),
        "simulate.write_s": (fn(writers, "total_s"), "s"),
        "simulate.trace_rows": (counter("simulate.trace_rows"), "count"),
        "simulate.trace_bytes": (counter("simulate.trace_bytes"), "bytes"),
        "diffusion.sir_step_s": (fn(steps[:1], "total_s"), "s"),
        "diffusion.ic_step_s": (fn(steps[1:2], "total_s"), "s"),
        "diffusion.tipping_step_s": (fn(steps[2:], "total_s"), "s"),
        "diffusion.step_calls": (fn(steps, "calls"), "count"),
        "diffusion.changes": (changes, "count"),
        "diffusion.changes_per_draw": (ratio(changes, draws), "ratio"),
        "rng.draws": (draws, "count"),
        "evaluate.metric_sweep_s": (fn(("evaluate.metric_sweep",), "total_s"), "s"),
    }
    for layer in LAYERS:
        self_s = sum(s["layer_self_s"].get(layer, 0.0) for s in stats.values())
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.self_share"] = (ratio(self_s, traced_wall), "ratio")
    for name, (wall, _) in traced.items():
        m[f"cli.{name}_s"] = (wall, "s")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_frac"] = (ratio(traced_wall, untraced_wall) - 1.0, "ratio")
    return m


def median_metrics(samples: list) -> dict:
    """name -> (median value, unit, sample count) over name -> (value, unit) dicts."""
    return {
        name: (statistics.median(sample[name][0] for sample in samples), unit, len(samples))
        for name, (_, unit) in samples[0].items()
    }


# ---------------------------------------------------------------- main


def prepare(name: str, seed: int) -> tuple:
    workload = WORKLOADS[name]
    work = WORK_ROOT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    info = gen.generate(work, workload.family, workload.users, workload.edges, seed)
    (work / "sim.cfg").write_text(
        "edges_path = edges.csv\n"
        "users_path = users.csv\n"
        f"initials = {','.join(str(u) for u in info['initials'])}\n",
        encoding="utf-8",
    )
    return workload, work, info


def measure(workload: Workload, work: Path, outcomes: Outcomes, seconds: float) -> tuple:
    """Untraced run: end-to-end metrics plus each command's median wall time."""
    start = time.perf_counter()
    setup = measure_setup(work, outcomes)
    reps = []
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(run_repetition(workload, work, outcomes, len(reps), None))
    n = len(reps)
    metrics = {
        "wall_s": (statistics.median(sum(w for w, _ in rep.values()) for rep in reps), "s", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (statistics.median(max(mb for _, mb in rep.values()) for rep in reps), "MB", n),
    }
    for cmd in workload.commands:
        metrics[f"{cmd.name}_s"] = (statistics.median(rep[cmd.name][0] for rep in reps), "s", n)
    return metrics, reps


def measure_traced(workload: Workload, work: Path, outcomes: Outcomes, seconds: float) -> tuple:
    """Traced run: untraced and traced repetitions in turn, for at least one pair."""
    start = time.perf_counter()
    samples = []
    reps = []
    while not samples or time.perf_counter() - start < seconds:
        untraced = run_repetition(workload, work, outcomes, len(samples), None)
        stats_dir = work / "stats" / str(len(samples))
        stats_dir.mkdir(parents=True)
        traced = run_repetition(workload, work, outcomes, len(samples), stats_dir)
        stats = {
            cmd.name: json.loads(path.read_text(encoding="utf-8"))
            for cmd in workload.commands
            if (path := stats_dir / f"{cmd.name}.json").is_file()
        }
        samples.append(layer_metrics(workload, stats, traced, untraced))
        reps += (untraced, traced)
    return median_metrics(samples), reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rumorsim" / "cli.py").is_file():
        print(f"error: no rumorsim sources under {SRC}; run from a rumorsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]

    workload, work, info = prepare(args.workload, args.seed)
    inputs = load_inputs(work)
    outcomes = Outcomes(args.workload, args.seed, build_checks(args.workload, inputs))
    # one import first, so every timed process finds compiled bytecode
    _, _, code = run_child(["-c", "import rumorsim"], work, work / "warmup.log")
    outcomes.record("warm-up import", code)
    if args.trace:
        metrics, reps = measure_traced(workload, work, outcomes, args.seconds)
        metrics.update(probe_similarity(inputs, args.seed))
    else:
        metrics, reps = measure(workload, work, outcomes, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  repetitions {len(reps)}")
    print(f"env python {platform.python_version()}  nproc {os.cpu_count()}  users {info['users']}  "
          f"edges {info['edges']}  in-degree mean {info['mean_in_degree']:.3f} max {info['max_in_degree']}  "
          f"peak RSS {max(mb for rep in reps for _, mb in rep.values()):.1f} MB")
    for cmd, digest in outcomes.first_digest.items():
        print(f"digest {cmd} {digest}")
    for problem in outcomes.problems:
        print(f"FAILED {problem}")
    print(f"fail_frac = {outcomes.failed / outcomes.attempted:.6g} ratio  "
          f"({outcomes.failed} failed of {outcomes.attempted} program runs)")
    for name, (value, unit, n) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {unit}  (median of {n})")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
