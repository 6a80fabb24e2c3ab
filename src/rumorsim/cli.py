"""Command-line entry points: simulate, evaluate, similarity, validate, export.

Every command reads the same flat config file; in every command but export,
each config key can be overridden with a flag of the same name.  Exit codes:
0 success, 1 for configuration or usage problems, 2 for I/O failures.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import CONFIG_KEYS, GATED_MODELS, load_config
from .errors import ConfigurationError, RumorSimError
from .graph import _write_lines, load_edges, load_rumor, load_users, validate
from .similarity import overlap_scores

# The scheduler, the evaluation harness and the decisions reader are imported
# by the commands that run them, so similarity and validate never load them.

SIMS_HEADER = ["from_user_id", "to_user_id", "cosine", "jaccard", "dice", "average"]

class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1, and whose ``config_keys`` flags wait for its first parse.

    argparse builds a help formatter for every flag it adds, so a run adds
    the config-key flags only to the command it names.
    """

    def __init__(self, *args, config_keys=(), **kwargs):
        super().__init__(*args, **kwargs)
        self._pending_keys = list(config_keys)

    def parse_known_args(self, args=None, namespace=None):
        for key in self._pending_keys:
            self.add_argument("--" + key.replace("_", "-"), dest=key, default=None, metavar="VALUE")
        self._pending_keys = []
        return super().parse_known_args(args, namespace)

    # argparse exits with status 2 on bad usage; we want 1 and no SystemExit
    def error(self, message):
        raise _UsageError(message, self)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rumorsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    for name, handler, help_text in (
        ("simulate", _cmd_simulate, "run trials; write trace.csv, curve.csv, summary.json"),
        ("evaluate", _cmd_evaluate, "sweep metrics with the gated algorithm; write eval.json"),
        ("similarity", _cmd_similarity, "write per-edge similarity scores to sims.csv"),
        ("validate", _cmd_validate, "report graph/profile inconsistencies without failing"),
    ):
        p_cmd = sub.add_parser(name, help=help_text, config_keys=CONFIG_KEYS)
        p_cmd.add_argument("config")
        p_cmd.set_defaults(func=handler, parser=p_cmd)

    p_exp = sub.add_parser("export", help="render one trial of a trace as DOT frames plus curve.csv")
    p_exp.add_argument("trace")
    p_exp.add_argument("out_dir")
    p_exp.add_argument("--config", required=True, help="config naming the graph files the trace was run on")
    p_exp.add_argument("--trial", type=int, default=0)
    p_exp.set_defaults(func=_cmd_export, parser=p_exp)
    return parser


def _overrides(args) -> dict:
    return {key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key, None) is not None}


def _load_inputs(cfg) -> tuple:
    """(graph, profiles, rumor, decisions); a classical model reads the edge list alone."""
    graph = load_edges(cfg.edges_path)
    if cfg.model not in GATED_MODELS:
        return graph, None, None, None
    profiles = load_users(cfg.users_path)
    rumor = load_rumor(cfg.rumor_path) if cfg.rumor_path else None
    decisions = None
    if cfg.decisions_path:
        from .gated import load_decisions

        decisions = load_decisions(cfg.decisions_path)
    return graph, profiles, rumor, decisions


def _cmd_simulate(args) -> int:
    from .simulate import run_trials, write_curve_csv, write_summary_json, write_trace_csv

    cfg = load_config(args.config, _overrides(args))
    graph, profiles, rumor, decisions = _load_inputs(cfg)
    start = time.perf_counter()
    traces, aggregate = run_trials(cfg, graph, profiles, rumor, decisions)
    runtime = time.perf_counter() - start
    out = Path(cfg.out_dir)
    write_trace_csv(traces, out / "trace.csv")
    write_curve_csv(aggregate, out / "curve.csv")
    write_summary_json(cfg, traces, aggregate, out / "summary.json")
    print(
        f"{cfg.trials} trial(s) of {cfg.model.value}: "
        f"mean final diffusers {aggregate[-1]:g} of {len(graph.nodes)} users in {runtime:.6f} s"
    )
    return 0


def _cmd_evaluate(args) -> int:
    from .evaluate import metric_sweep, write_eval_json

    cfg = load_config(args.config, _overrides(args))
    if cfg.model not in GATED_MODELS:
        raise ConfigurationError(
            f"evaluate requires a gated model (gated_user_user or gated_user_content), got {cfg.model.value}"
        )
    graph, profiles, rumor, decisions = _load_inputs(cfg)
    rows = metric_sweep(
        graph, profiles, rumor, cfg.initials, cfg.metrics, cfg.threshold, cfg.model, decisions
    )
    write_eval_json(rows, cfg.threshold, Path(cfg.out_dir) / "eval.json")
    best_metric, best = rows[0]
    print(f"best metric {best_metric.value}: accuracy {best.accuracy:.10f} over {best.total} labeled users")
    return 0


def _cmd_similarity(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    graph = load_edges(cfg.edges_path)
    profiles = load_users(cfg.users_path)
    path = Path(cfg.out_dir) / "sims.csv"
    _write_lines(path, SIMS_HEADER, _sims_lines(graph, profiles))
    print(f"wrote {graph.edge_count} edge scores to {path}")
    return 0


def _sims_lines(graph, profiles):
    # the four scores depend only on (|a & b|, |a|, |b|), so each shape's row
    # tail is formatted once. An endpoint without a profile scores 0.0, though no gate admits it.
    zeros = ",0.0,0.0,0.0,0.0\n"
    tails = {}
    for a, followers in graph.adjacency.items():
        pa = profiles.get(a)
        for b in followers:
            pb = profiles.get(b)
            if pa is None or pb is None:
                tail = zeros
            else:
                ta, tb = pa.topics, pb.topics
                shape = (len(ta & tb), len(ta), len(tb))
                tail = tails.get(shape)
                if tail is None:
                    tail = tails[shape] = "".join(f",{v}" for v in overlap_scores(ta, tb)) + "\n"
            yield f"{a},{b}{tail}"


def _cmd_export(args) -> int:
    from .simulate import export_frames, read_trace_csv, rebuild_trace

    cfg = load_config(args.config)
    graph = load_edges(cfg.edges_path)
    changes = read_trace_csv(args.trace, args.trial)
    trace = rebuild_trace(cfg, graph, changes)
    frames = export_frames(trace, graph, args.out_dir)
    print(f"wrote {len(frames)} DOT frames and curve.csv to {args.out_dir}")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    graph = load_edges(cfg.edges_path)
    profiles = load_users(cfg.users_path)
    report = validate(graph, profiles)
    stats = graph.load_stats
    print(
        f"{len(graph.nodes)} users, {graph.edge_count} edges "
        f"({stats.duplicate_edges} duplicate rows, {stats.self_loops_skipped} self-loops dropped)"
    )
    _print_findings("edge endpoints without a profile", report.missing_profiles)
    _print_findings("profiles with an empty topic set", report.empty_topics)
    _print_findings("users touching no edge", report.isolated_nodes)
    if report.is_empty:
        print("inputs are consistent")
    return 0


def _print_findings(label: str, ids) -> None:
    if ids:
        shown = ", ".join(str(u) for u in ids[:20])
        more = f" (+{len(ids) - 20} more)" if len(ids) > 20 else ""
        print(f"{label}: {len(ids)} [{shown}{more}]")


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        # an unknown flag is reported with the usage of the command it follows
        args, extras = parser.parse_known_args(argv)
        if extras:
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return args.func(args)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RumorSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        filename = getattr(exc, "filename", None)
        detail = f"{exc.strerror}: {filename}" if filename else str(exc)
        print(f"io error: {detail}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
