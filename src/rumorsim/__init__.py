"""Deterministic rumor-diffusion simulation and evaluation on directed social graphs.

Each public name is read from its module on first use (PEP 562), so a
process imports only the modules it touches: loading a graph does not import
the scheduler, the evaluation harness or the CLI.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# the one list of public names, by the module that defines each
_EXPORTS = {
    "cli": ("main", "run_cli"),
    "config": ("EvaluationPolicy", "ModelKind", "SimulationConfig", "load_config"),
    "diffusion": (
        "AdoptionState",
        "AgentKind",
        "BeliefState",
        "EdgeProbability",
        "EpidemicState",
        "SirParams",
        "TippingParams",
        "belief_exchange",
        "ic_step",
        "run_belief_process",
        "sir_step",
        "tipping_step",
    ),
    "errors": (
        "ConfigurationError",
        "EmptyEvaluationError",
        "ParseError",
        "RumorSimError",
        "UndefinedCorrelationError",
        "UnknownUserError",
    ),
    "evaluate": ("EvalReport", "evaluate", "metric_sweep", "sweep_rows", "write_eval_json"),
    "gated": (
        "DiffuserSet",
        "SimilarityGate",
        "diffuse_user_content",
        "diffuse_user_user",
        "filtered_edge_set",
        "load_decisions",
    ),
    "graph": (
        "RumorContent",
        "SocialGraph",
        "UserProfile",
        "ValidationReport",
        "load_edges",
        "load_rumor",
        "load_users",
        "save_edges",
        "validate",
    ),
    "rng": ("RngStream",),
    "similarity": (
        "Metric",
        "canonical_topic_string",
        "cosine",
        "dice",
        "jaccard",
        "levenshtein",
        "overlap_scores",
        "pearson",
        "score",
        "tokenize_topics",
        "vector_cosine",
    ),
    "simulate": (
        "DiffusionTrace",
        "export_frames",
        "read_trace_csv",
        "rebuild_trace",
        "run_simulation",
        "run_trials",
        "write_outputs",
        "write_trace_csv",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _OWNER.keys())


class _Package(ModuleType):
    # The import system binds each submodule it loads as an attribute of its
    # package. `evaluate` is both a module and the function it exports, and the
    # package name means the function, so that one binding is left out.
    def __setattr__(self, name, value):
        if not (name in _OWNER and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
