"""Mutation kill matrix: each planted bug must make its named test files fail.

Run from anywhere, with the interpreter the tests use:

    python3 tests/mutants.py             # every mutant
    python3 tests/mutants.py NAME ...    # only the named mutants

For each mutant the script copies ``src/``, ``tests/``, ``fixtures/``,
``pyproject.toml`` and ``README.md`` (a CLI test reads its config table)
into a fresh temporary directory, replaces one exact snippet of one file
there, and runs pytest on the mutant's test files in a subprocess.  A
failed test kills the mutant.  The script prints one line per mutant and
exits 1 if a mutant not marked equivalent survives, or if a snippet does not
occur exactly once in its file (the code it plants a bug in has moved, so
the entry needs updating).  pytest does not collect this file.

A test added to check a law or a contract brings its planted bug here.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "pyproject.toml", "README.md")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple
    reason: str
    equivalent: bool = False


DIFFUSION = "src/rumorsim/diffusion.py"

MUTANTS = [
    Mutant(
        "ic-spreader-spreads-again",
        DIFFUSION,
        "self.spreaders = sorted(hit)",
        "self.spreaders = sorted(hit.union(self.spreaders))",
        ("tests/test_simulate.py",),
        "an IC spreader stays a spreader after its step and tries its edges again",
    ),
    Mutant(
        "sir-one-draw-per-exposed-node",
        DIFFUSION,
        "for _ in range(exposure[v]):",
        "for _ in range(1):",
        ("tests/test_simulate.py", "tests/test_conformance.py"),
        "SIR draws once per exposed node, not once per infected in-neighbour",
    ),
    Mutant(
        "sir-gamma-on-new-infections",
        DIFFUSION,
        "delta.append((v, EpidemicState.INFECTED))",
        "delta.append((v, EpidemicState.INFECTED if draw() >= gamma else EpidemicState.RECOVERED))",
        ("tests/test_diffusion.py",),
        "gamma is applied to a node infected in the same step",
    ),
    Mutant(
        "sir-stops-drawing-after-a-hit",
        DIFFUSION,
        "                        hit = True\n",
        "                        hit = True\n                        break\n",
        ("tests/test_simulate.py", "tests/test_conformance.py"),
        "an exposed SIR node stops drawing after its first hit, so the stream desyncs",
    ),
    Mutant(
        "tipping-strict-threshold",
        DIFFUSION,
        "adopted / in_degree[v] >= theta",
        "adopted / in_degree[v] > theta",
        ("tests/test_diffusion.py",),
        "a node adopts only above theta, not at it",
    ),
    Mutant(
        "ic-step-retries-tried-edges",
        DIFFUSION,
        "return run.states, set(attempted).union(untried.sorted_edges)",
        "return run.states, set(attempted)",
        ("tests/test_diffusion.py",),
        "ic_step forgets the edges it tried, so a later step tries them again",
    ),
    Mutant(
        "forceful-weights-swapped",
        DIFFUSION,
        "beliefs[i] = state.epsilon * xi + (1.0 - state.epsilon) * xj",
        "beliefs[i] = (1.0 - state.epsilon) * xi + state.epsilon * xj",
        ("tests/test_diffusion.py",),
        "a regular agent meeting a forceful one keeps 1 - epsilon of its belief, not epsilon",
    ),
    Mutant(
        "belief-edge-pick-off-by-one",
        DIFFUSION,
        "a, b = edges[rng.randrange(len(edges))]",
        "a, b = edges[rng.randrange(len(edges) - 1)]",
        ("tests/test_conformance.py",),
        "the belief process never picks its last edge (the chi-square test on edge picks)",
    ),
    Mutant(
        "belief-regular-pair-moves-one-side",
        DIFFUSION,
        "beliefs[j] = avg",
        "beliefs[j] = xj",
        ("tests/test_conformance.py",),
        "only one of two regular agents moves to their average (the conserved-mean test)",
    ),
    Mutant(
        "belief-forceful-agent-moves",
        DIFFUSION,
        "beliefs[j] = state.epsilon * xj + (1.0 - state.epsilon) * xi",
        "beliefs[i] = state.epsilon * xi + (1.0 - state.epsilon) * xj",
        ("tests/test_conformance.py",),
        "a forceful agent first on an edge moves toward the regular one (the convergence test)",
    ),
    Mutant(
        "every-step-follower-always-waits",
        "src/rumorsim/gated.py",
        "heapq.heappush(events, (t + (k < j), k, True))",
        "heapq.heappush(events, (t + 1, k, True))",
        ("tests/test_simulate.py",),
        "under every-step a follower with a higher id waits for the next step instead of this one",
    ),
    Mutant(
        "content-diffusion-without-rumor-check",
        "src/rumorsim/gated.py",
        "    if rumor is None:\n"
        '        raise ConfigurationError("model gated_user_content requires rumor content")\n',
        "",
        ("tests/test_gated.py",),
        "diffuse_user_content without a rumor silently runs the user-user gate",
    ),
    Mutant(
        "levenshtein-bound-rejects-at-threshold",
        "src/rumorsim/similarity.py",
        "if _levenshtein_similarity(abs(m - n), m, n) < threshold:",
        "if _levenshtein_similarity(abs(m - n), m, n) <= threshold:",
        ("tests/test_similarity.py",),
        "the Levenshtein length bound rejects a pair whose bound equals the threshold",
    ),
    Mutant(
        "parse-user-id-unguarded",
        "src/rumorsim/graph.py",
        "    try:\n        value = int(text)\n    except ValueError:\n"
        '        raise ParseError(path, line_no, f"user id is not an integer: {text!r}") from None\n',
        "    value = int(text)\n",
        ("tests/test_graph.py",),
        "a non-integer user id escapes as ValueError, not as ParseError naming the line",
    ),
    Mutant(
        "id-text-not-interned",
        "src/rumorsim/graph.py",
        "value = self[text] = self.setdefault(value, value)",
        "self[text] = value",
        ("tests/test_graph.py",),
        "each text of an id (123, 0123) loads as its own int object",
    ),
    Mutant(
        "edge-batch-keeps-lone-cr",
        "src/rumorsim/graph.py",
        r'text = text.replace("\r\n", "\n").replace("\r", "\n")',
        r'text = text.replace("\r\n", "\n")',
        ("tests/test_graph.py",),
        "a batch with a lone CR line end is refused, so a plain file leaves the bulk route",
    ),
    Mutant(
        "topic-fragment-not-stripped",
        "src/rumorsim/graph.py",
        "sys.intern(fragment.strip().lower())",
        "sys.intern(fragment.lower())",
        ("tests/test_graph.py",),
        "a padded topic fragment keeps its padding as part of the label",
    ),
    Mutant(
        "replay-drops-recovered-users",
        "src/rumorsim/simulate.py",
        "            active.update(users)\n",
        "            active.update(users)\n"
        "            active.difference_update(uid for uid, label in self.changes[t] if label == 'recovered')\n",
        ("tests/test_golden.py",),
        "the curve counts a recovered user as inactive, so it can fall",
    ),
    Mutant(
        "rebuild-trace-accepts-unknown-users",
        "src/rumorsim/simulate.py",
        "            if uid not in graph.nodes:\n"
        '                raise ConfigurationError(f"trace references unknown user {uid}")\n',
        "",
        ("tests/test_simulate.py",),
        "a trace read back from trace.csv may name a user outside the graph",
    ),
    Mutant(
        "stale-frame-removal-keeps-the-next-frame",
        "src/rumorsim/simulate.py",
        "int(number) > trace.max_time",
        "int(number) > trace.max_time + 1",
        ("tests/test_simulate.py",),
        "a shorter export leaves the longer run's frame max_time + 1 in place",
    ),
    Mutant(
        "trials-share-one-stream",
        "src/rumorsim/simulate.py",
        "start(base.derive(k))) for k in range(cfg.trials)",
        "start(base.derive(0))) for k in range(cfg.trials)",
        ("tests/test_simulate.py",),
        "every trial of a model that draws is driven with trial 0's stream",
    ),
    Mutant(
        "sir-treated-as-drawing-nothing",
        "src/rumorsim/simulate.py",
        "DRAWING_MODELS = frozenset({ModelKind.SIR, ModelKind.IC})",
        "DRAWING_MODELS = frozenset({ModelKind.IC})",
        ("tests/test_simulate.py",),
        "SIR runs once per command and every trial repeats trial 0",
    ),
    Mutant(
        "tipping-treated-as-drawing",
        "src/rumorsim/simulate.py",
        "DRAWING_MODELS = frozenset({ModelKind.SIR, ModelKind.IC})",
        "DRAWING_MODELS = frozenset({ModelKind.SIR, ModelKind.IC, ModelKind.TIPPING})",
        ("tests/test_simulate.py",),
        "tipping runs once per trial; no output changes, so only the run-count test sees it",
    ),
    Mutant(
        "package-imports-the-cli",
        "src/rumorsim/__init__.py",
        "from types import ModuleType\n",
        "from types import ModuleType\n\nfrom .cli import main, run_cli\n",
        ("tests/test_imports.py",),
        "import rumorsim loads argparse and every module, as the eager package did",
    ),
    Mutant(
        "config-imports-the-gate",
        "src/rumorsim/config.py",
        "from .errors import ConfigurationError, ParseError\n",
        "from .errors import ConfigurationError, ParseError\nfrom .gated import SimilarityGate\n",
        ("tests/test_imports.py",),
        "loading a config loads the gate module, so every process that reads inputs does",
    ),
    Mutant(
        "package-evaluate-is-the-module",
        "src/rumorsim/__init__.py",
        "sys.modules[__name__].__class__ = _Package\n",
        "",
        ("tests/test_imports.py",),
        "once a command has imported rumorsim.evaluate, rumorsim.evaluate names the module, not the function",
    ),
    Mutant(
        "ic-draw-at-most-p",
        DIFFUSION,
        "if draw() < p and states[target] is susceptible:",
        "if draw() <= p and states[target] is susceptible:",
        ("tests/test_diffusion.py", "tests/test_simulate.py"),
        "differs from < only when a draw equals p exactly, which no seeded test meets",
        equivalent=True,
    ),
]


def run_mutant(mutant: Mutant) -> tuple:
    """Plant ``mutant`` in a fresh copy; returns (status, seconds, pytest's last line)."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="rumorsim-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, work / name)
        target = work / mutant.path
        text = target.read_text(encoding="utf-8")
        found = text.count(mutant.snippet)
        if found != 1:
            return f"snippet found {found} times", time.perf_counter() - started, ""
        target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=work,
            capture_output=True,
            text=True,
            timeout=600,
        )
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    # pytest exits 1 when a test failed; any other code but 0 means it could not run them
    status = {0: "survived", 1: "killed"}.get(proc.returncode, f"pytest exit {proc.returncode}")
    return status, time.perf_counter() - started, last


def main(argv) -> int:
    names = {m.name for m in MUTANTS}
    unknown = sorted(set(argv) - names)
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    gaps = 0
    for mutant in chosen:
        status, seconds, last = run_mutant(mutant)
        # an equivalent mutant may go either way; it is listed so it is not taken for a gap
        ok = status == "killed" or (mutant.equivalent and status == "survived")
        gaps += not ok
        tag = "ok " if ok else "GAP"
        kind = " (equivalent)" if mutant.equivalent else ""
        print(f"{tag} {status:<8} {mutant.name}{kind} [{', '.join(mutant.tests)}] {seconds:.1f} s: {last}")
        if not ok or mutant.equivalent:
            print(f"    {mutant.reason}")
    print(f"{len(chosen)} mutants, {gaps} not killed as expected")
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
