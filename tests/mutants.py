"""Mutation kill matrix: each planted bug must make its named test files fail.

Run from anywhere, with the interpreter the tests use:

    python3 tests/mutants.py             # every mutant
    python3 tests/mutants.py NAME ...    # only the named mutants

For each mutant the script copies ``src/``, ``tests/``, ``fixtures/``,
``pyproject.toml`` and ``README.md`` (CLI tests read its config table, run
its Python examples and check the test ids of its model section) into a
fresh temporary directory, replaces one exact snippet of one file
there, and runs pytest on the mutant's test files in a subprocess.  A
failed test kills the mutant.  The script prints one line per mutant and
exits 1 if a mutant not marked equivalent survives, if one marked
equivalent is killed (it is not equivalent, and its label is stale), or if
a snippet does not occur exactly once in its file (the code it plants a bug
in has moved, so the entry needs updating).  pytest does not collect this
file.

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
CLASSICAL_REACHED = (
    "tests/test_simulate.py::TestEventDrivenClassicalRuns::test_holds_state_only_for_reached_users"
)
STEP_CONTRACT = (
    "tests/test_diffusion.py::test_a_step_carries_a_user_outside_the_graph_and_leaves_its_inputs_alone"
)
SCRIPTED_SIR = "tests/test_exhaustive.py::test_sir_run_equals_the_full_sweep_reference_on_every_script"
SCRIPTED_IC = "tests/test_exhaustive.py::test_ic_run_equals_the_full_sweep_reference_on_every_script"
OUTPUT_SET_LAW = (
    "tests/test_cli.py::TestOutputSets::test_a_failure_at_every_point_leaves_the_previous_set_or_a_prefix_of_the_new"
)
ROUNDS_WORK = (
    "tests/test_gated.py::TestOracleAgreement::test_levenshtein_rounds_test_each_follower_once_against_the_rumor"
)
OVERSIZED_RUN = (
    "tests/test_cli.py::TestFailureModes::test_a_run_too_large_for_memory_is_exit_1_and_keeps_the_previous_set"
)
EVALUATE_LOOP = "tests/test_evaluate.py::TestEvaluate::test_equals_the_loop_over_every_profile"
CERTAIN_SPREAD_LAW = "tests/test_exhaustive.py::test_certain_spread_curves_are_equal_on_every_case"
LIVE_EDGE_CURVE_LAW = "tests/test_conformance.py::test_the_mean_curve_follows_the_live_edge_law"
BOTTLENECK_LAW = "tests/test_exhaustive.py::test_every_closure_engine_cuts_at_every_bottleneck_level"

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
        "sir-gamma-on-new-infections-curve-law",
        DIFFUSION,
        "delta.append((v, EpidemicState.INFECTED))",
        "delta.append((v, EpidemicState.INFECTED if draw() >= gamma else EpidemicState.RECOVERED))",
        (CERTAIN_SPREAD_LAW,),
        "the same bug, seen by the cross-model law: SIR with gamma 1 recovers each new infection unspread",
    ),
    Mutant(
        "sir-gamma-on-new-infections-live-edge-curve",
        DIFFUSION,
        "delta.append((v, EpidemicState.INFECTED))",
        "delta.append((v, EpidemicState.INFECTED if draw() >= gamma else EpidemicState.RECOVERED))",
        (LIVE_EDGE_CURVE_LAW,),
        "the same bug, seen by the mean curve against the live-edge law",
    ),
    Mutant(
        "ic-spreads-in-its-infection-step",
        DIFFUSION,
        "                    hit.add(target)\n",
        "                    hit.add(target)\n                    reached.add(target)\n                    self.spreaders.append(target)\n",
        ("tests/test_simulate.py",),
        "a user IC infects spreads in the step it is infected, so one step crosses many hops",
    ),
    Mutant(
        "ic-spreads-in-its-infection-step-curve-law",
        DIFFUSION,
        "                    hit.add(target)\n",
        "                    hit.add(target)\n                    reached.add(target)\n                    self.spreaders.append(target)\n",
        (CERTAIN_SPREAD_LAW,),
        "the same bug, seen by the cross-model law: IC with p 1 runs ahead of the BFS levels",
    ),
    Mutant(
        "ic-spreads-in-its-infection-step-live-edge-curve",
        DIFFUSION,
        "                    hit.add(target)\n",
        "                    hit.add(target)\n                    reached.add(target)\n                    self.spreaders.append(target)\n",
        (LIVE_EDGE_CURVE_LAW,),
        "the same bug, seen by the mean curve against the live-edge law",
    ),
    Mutant(
        "sir-one-draw-per-exposed-node-scripted",
        DIFFUSION,
        "for _ in range(exposure[v]):",
        "for _ in range(1):",
        (SCRIPTED_SIR,),
        "the same bug, seen by the scripted-draw check against the full-sweep reference",
    ),
    Mutant(
        "sir-stops-drawing-after-a-hit-scripted",
        DIFFUSION,
        "                        hit = True\n",
        "                        hit = True\n                        break\n",
        (SCRIPTED_SIR,),
        "the same bug, seen by the scripted-draw check against the full-sweep reference",
    ),
    Mutant(
        "sir-gamma-on-new-infections-scripted",
        DIFFUSION,
        "delta.append((v, EpidemicState.INFECTED))",
        "delta.append((v, EpidemicState.INFECTED if draw() >= gamma else EpidemicState.RECOVERED))",
        (SCRIPTED_SIR,),
        "the same bug, seen by the scripted-draw check against the full-sweep reference",
    ),
    Mutant(
        "ic-spreader-spreads-again-scripted",
        DIFFUSION,
        "self.spreaders = sorted(hit)",
        "self.spreaders = sorted(hit.union(self.spreaders))",
        (SCRIPTED_IC,),
        "the same bug, seen by the scripted-draw check against the full-sweep reference",
    ),
    Mutant(
        "sir-infection-draw-at-most-beta",
        DIFFUSION,
        "if draw() < beta:",
        "if draw() <= beta:",
        (SCRIPTED_SIR,),
        "an exposure draw of exactly beta infects; random() can return it, and a scripted draw does",
    ),
    Mutant(
        "sir-recovery-draw-at-most-gamma",
        DIFFUSION,
        "if draw() < gamma:",
        "if draw() <= gamma:",
        (SCRIPTED_SIR,),
        "a recovery draw of exactly gamma recovers; random() can return it, and a scripted draw does",
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
        "tipping-strict-threshold-exhaustive",
        DIFFUSION,
        "adopted / in_degree[v] >= theta",
        "adopted / in_degree[v] > theta",
        ("tests/test_exhaustive.py::test_tipping_run_equals_the_full_sweep_reference",),
        "the same bug, seen by the exhaustive check against the full-sweep reference",
    ),
    Mutant(
        "ic-step-retries-tried-edges",
        DIFFUSION,
        "return dict(states) | dict(delta), set(attempted).union(untried)",
        "return dict(states) | dict(delta), set(attempted)",
        ("tests/test_diffusion.py",),
        "ic_step forgets the edges it tried, so a later step tries them again",
    ),
    Mutant(
        "starter-builds-a-whole-graph-map",
        "src/rumorsim/simulate.py",
        "states = dict.fromkeys(cfg.initials, MODEL_STATES[cfg.model][1])",
        "states = dict.fromkeys(graph.nodes, MODEL_STATES[cfg.model][0])"
        " | dict.fromkeys(cfg.initials, MODEL_STATES[cfg.model][1])",
        (CLASSICAL_REACHED,),
        "each call gives its classical runs a state for every user again, a loop over the whole graph",
    ),
    Mutant(
        "ic-run-keeps-a-state-map",
        DIFFUSION,
        "        self.probs = probs\n",
        "        self.probs = probs\n        self.states = dict(states)\n",
        (CLASSICAL_REACHED,),
        "an IC run copies the map it starts from and keeps it, beside the users it reached",
    ),
    Mutant(
        "sir-run-reads-users-outside-its-graph",
        DIFFUSION,
        "self.reached = graph.nodes & {u for u, state in states.items() if state is not susceptible}\n"
        "        self.infected",
        "self.reached = {u for u, state in states.items() if state is not susceptible}\n        self.infected",
        (STEP_CONTRACT,),
        "an SIR run takes an infected user of the caller's map outside its graph as a spreader, and fails",
    ),
    Mutant(
        "ic-run-reads-users-outside-its-graph",
        DIFFUSION,
        "self.reached = graph.nodes & {u for u, state in states.items() if state is not susceptible}\n"
        "        self.spreaders",
        "self.reached = {u for u, state in states.items() if state is not susceptible}\n        self.spreaders",
        (STEP_CONTRACT,),
        "an IC run takes an infected user of the caller's map outside its graph as a spreader, and fails",
    ),
    Mutant(
        "tipping-run-reads-users-outside-its-graph",
        DIFFUSION,
        "self.adopted = graph.nodes & {",
        "self.adopted = {",
        (STEP_CONTRACT,),
        "a tipping run notifies the followers of an adopted user of the caller's map outside its graph, and fails",
    ),
    Mutant(
        "sir-step-updates-the-callers-map",
        DIFFUSION,
        "return dict(states) | dict(SirRun(graph, states, params, rng).step())",
        "states.update(SirRun(graph, states, params, rng).step())\n    return states",
        (STEP_CONTRACT,),
        "sir_step writes the step's changes into the caller's map and returns that map",
    ),
    Mutant(
        "ic-step-tries-attempted-edges",
        DIFFUSION,
        "for t in graph.out_neighbors(u) if (u, t) not in attempted]",
        "for t in graph.out_neighbors(u)]",
        ("tests/test_diffusion.py",),
        "ic_step draws for an edge already in attempted, and may infect its target again",
    ),
    Mutant(
        "ic-step-refuses-every-edge-attempted",
        DIFFUSION,
        "if not attempted <= {(a, b)",
        "if not attempted < {(a, b)",
        ("tests/test_diffusion.py",),
        "ic_step rejects an attempted set equal to the whole edge set",
    ),
    Mutant(
        "ic-step-checks-attempted-sources-alone",
        DIFFUSION,
        "if not attempted <= {(a, b) for a in {a for a, _ in attempted} for b in graph.adjacency.get(a, ())}:",
        "if not {a for a, _ in attempted} <= graph.nodes:",
        ("tests/test_diffusion.py::TestIcStep::test_attempted_must_be_subset_of_edges",),
        "ic_step accepts an attempted pair whose source is a user but whose target is not its follower",
    ),
    Mutant(
        "probability-of-one-rejected",
        "src/rumorsim/errors.py",
        "if not 0.0 <= value <= 1.0:",
        "if not 0.0 <= value < 1.0:",
        ("tests/test_diffusion.py",),
        "a belief, or any other value checked to lie in [0, 1], of exactly 1.0 is refused",
    ),
    Mutant(
        "probability-without-lower-bound",
        "src/rumorsim/errors.py",
        "if not 0.0 <= value <= 1.0:",
        "if not value <= 1.0:",
        ("tests/test_diffusion.py",),
        "a negative threshold, probability, epsilon or belief is accepted",
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
        "heapq.heappush(self.events, (t + (k < j), k, True))",
        "heapq.heappush(self.events, (t + 1, k, True))",
        ("tests/test_simulate.py",),
        "under every-step a follower with a higher id waits for the next step instead of this one",
    ),
    Mutant(
        "every-step-follower-always-waits-law",
        "src/rumorsim/gated.py",
        "heapq.heappush(self.events, (t + (k < j), k, True))",
        "heapq.heappush(self.events, (t + 1, k, True))",
        ("tests/test_exhaustive.py::test_every_step_activates_at_the_law_step",),
        "the same bug, seen by the exhaustive check against the activation-step law",
    ),
    Mutant(
        "initials-not-recorded",
        "src/rumorsim/gated.py",
        "        for i in sorted(seeds):\n            self._spread(i, -1)\n",
        "",
        ("tests/test_simulate.py",),
        "the seeds are not recorded with their followers, so no wake-up sees a seed as its source",
    ),
    Mutant(
        "seeds-spread-at-step-0",
        "src/rumorsim/gated.py",
        "self._spread(i, -1)",
        "self._spread(i, 0)",
        ("tests/test_exhaustive.py::test_gated_run_equals_the_pull_reference",),
        "a follower of a seed with a lower id and created_at 0 is taken as woken already, so it never wakes",
    ),
    Mutant(
        "wake-up-ahead-by-step-alone",
        "src/rumorsim/gated.py",
        "if (created_at, k) > (t, j):",
        "if created_at > t:",
        ("tests/test_exhaustive.py::test_gated_run_equals_the_pull_reference",),
        "a follower with a higher id waking in the step its source activates is taken as woken already",
    ),
    Mutant(
        "recheck-leaves-follower-undecided",
        "src/rumorsim/gated.py",
        "                    decided.add(k)\n",
        "",
        ("tests/test_simulate.py::TestEventDrivenScheduler::test_holds_state_only_for_reached_users",),
        "a follower whose recheck passed stays undecided, so a second activating source pushes it a second event",
    ),
    Mutant(
        "recorded-sources-in-recording-order",
        "src/rumorsim/gated.py",
        "sorted(asleep.pop(j))",
        "asleep.pop(j)",
        ("tests/test_simulate.py::TestEventDrivenScheduler::test_admits_exactly_as_the_pull_reference",),
        "a waking user tests its sources in the order they activated, not in ascending id; the decision"
        " is the same, so only the admit-call sequence shows it",
    ),
    Mutant(
        "graph-keeps-a-reversed-copy",
        "src/rumorsim/graph.py",
        "        self._out = _runs(sorted(set(chain(nodes, froms, tos))), froms, tos)\n",
        "        self._out = _runs(sorted(set(chain(nodes, froms, tos))), froms, tos)\n"
        "        self._in = _runs(self._out, tos, froms)\n",
        ("tests/test_footprint.py::test_a_graph_holds_its_adjacency_and_nothing_else",),
        "the graph builds and keeps its in-adjacency beside the out-adjacency",
    ),
    Mutant(
        "graph-stores-its-user-view",
        "src/rumorsim/graph.py",
        "        self._out = _runs(sorted(set(chain(nodes, froms, tos))), froms, tos)\n",
        "        self._out = _runs(sorted(set(chain(nodes, froms, tos))), froms, tos)\n"
        '        self.__dict__["nodes"] = self._out.keys()\n',
        ("tests/test_footprint.py::test_records_survive_pickle_and_deepcopy",),
        "the graph stores its keys view, which pickle and deepcopy cannot copy",
    ),
    Mutant(
        "graph-users-in-hash-order",
        "src/rumorsim/graph.py",
        "        self._out = _runs(sorted(set(chain(nodes, froms, tos))), froms, tos)\n",
        "        self._out = _runs(set(chain(nodes, froms, tos)), froms, tos)\n",
        ("tests/test_diffusion.py::test_a_step_names_the_smallest_user_without_a_state",),
        "the graph's users, and so every walk over them, come in hash order, not ascending",
    ),
    Mutant(
        "validate-counts-the-pair-view",
        "src/rumorsim/cli.py",
        'f"{len(graph.nodes)} users, {graph.edge_count} edges "',
        'f"{len(graph.nodes)} users, {len(graph.edges)} edges "',
        ("tests/test_footprint.py::test_a_graph_holds_its_adjacency_and_nothing_else",),
        "the validate command counts edges through the pair view, building every edge pair to count them",
    ),
    Mutant(
        "belief-pairs-in-descending-source-order",
        DIFFUSION,
        "for a, followers in graph.adjacency.items() for b in followers]",
        "for a, followers in reversed(graph.adjacency.items()) for b in followers]",
        ("tests/test_diffusion.py::TestBeliefProcess::test_equals_a_reference_loop_over_the_sorted_edges",),
        "the belief process lists its pairs by descending source, so the same draw picks another edge;"
        " the picks stay uniform, so the chi-square test does not see it",
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
        "unprofiled-pair-passes-at-threshold-0",
        "src/rumorsim/gated.py",
        "        if pi is None or pj is None:\n            return False\n",
        "        if pi is None or pj is None:\n            return 0.0 >= threshold\n",
        ("tests/test_gated.py::TestValidation",),
        "the old rule: a user without a profile scores 0, so an edge touching one passes at threshold 0",
    ),
    Mutant(
        "unprofiled-pair-always-passes",
        "src/rumorsim/gated.py",
        "        if pi is None or pj is None:\n            return False\n",
        "        if pi is None or pj is None:\n            return True\n",
        ("tests/test_gated.py::TestValidation",),
        "an edge that touches a user without a profile passes at any threshold",
    ),
    Mutant(
        "unprofiled-pair-passes-at-threshold-0-in-rounds",
        "src/rumorsim/gated.py",
        "passed = [False] * len(pairs)",
        "passed = [0.0 >= threshold] * len(pairs)",
        ("tests/test_gated.py::TestValidation",),
        "the old rule in a Levenshtein closure's rounds: an edge to a user without a profile passes at"
        " threshold 0",
    ),
    Mutant(
        "rounds-rescore-refused-followers",
        "src/rumorsim/gated.py",
        "if j in profiles and j not in refused]",
        "if j in profiles]",
        (ROUNDS_WORK,),
        "against the rumor a Levenshtein closure scores a refused follower again from each later source;"
        " the decision is the same, so only the batch test's inputs show it",
    ),
    Mutant(
        "table-admits-a-follower-without-profile",
        "src/rumorsim/gated.py",
        "return bool(table.get((i, j), False)) and (profiles is None or j in profiles)",
        "return bool(table.get((i, j), False))",
        ("tests/test_exhaustive.py::test_every_step_at_a_long_horizon_reaches_the_closure",),
        "the old rule under a decisions table: a closure admits a follower without a profile, which no timed"
        " run wakes",
    ),
    Mutant(
        "readme-example-reads-a-removed-field",
        "README.md",
        "print(sorted(result.members))",
        "print(sorted(result.missing_profiles))",
        ("tests/test_cli.py::TestReadme",),
        "the library example reads a DiffuserSet field that no longer exists",
    ),
    Mutant(
        "readme-odd-names-a-missing-test",
        "README.md",
        "`tests/test_simulate.py::TestGatedRun::test_created_at_beyond_horizon_never_evaluates`",
        "`tests/test_simulate.py::TestGatedRun::test_created_at_beyond_horizon_never_wakes`",
        ("tests/test_cli.py::TestReadme::test_every_model_rule_ends_with_tests_that_exist",),
        "a rule of the model section names a test that does not exist, as after a rename",
    ),
    Mutant(
        "config-strips-inline-comments",
        "src/rumorsim/config.py",
        "raw[key] = (value.strip(), (path, line_no))",
        'raw[key] = (value.split("#")[0].strip(), (path, line_no))',
        ("tests/test_simulate.py::TestConfigFile",),
        "a # after a value starts a comment, so a path holding # is cut short",
    ),
    Mutant(
        "output-written-through-a-symlink",
        "src/rumorsim/graph.py",
        "os.replace(tmp, path)",
        "path.write_bytes(tmp.read_bytes())",
        ("tests/test_cli.py::TestAtomicOutputs",),
        "an output is copied into the file at its path, so a symlink there is written through",
    ),
    Mutant(
        "timed-run-seed-without-profile",
        "src/rumorsim/simulate.py",
        "_check_initials(graph, cfg.initials, profiles)",
        "_check_initials(graph, cfg.initials)",
        ("tests/test_simulate.py::TestGatedRun",),
        "a timed gated run accepts a seed without a profile, which admits no follower",
    ),
    Mutant(
        "levenshtein-bound-rejects-at-threshold",
        "src/rumorsim/similarity.py",
        "return _levenshtein_similarity(abs(m - n), m, n) >= threshold",
        "return _levenshtein_similarity(abs(m - n), m, n) > threshold",
        ("tests/test_similarity.py",),
        "the Levenshtein length bound rejects a pair whose bound equals the threshold",
    ),
    Mutant(
        "shape-gate-rejects-at-threshold",
        "src/rumorsim/similarity.py",
        "passed = decided[shape] = scorer(*shape) >= threshold",
        "passed = decided[shape] = scorer(*shape) > threshold",
        (BOTTLENECK_LAW,),
        "a shape-metric gate rejects a pair that scores exactly the threshold",
    ),
    Mutant(
        "lane-kernel-rejects-at-threshold",
        "src/rumorsim/similarity.py",
        "passed[k] = _levenshtein_similarity(distance, m, n) >= threshold",
        "passed[k] = _levenshtein_similarity(distance, m, n) > threshold",
        (BOTTLENECK_LAW,),
        "the Levenshtein closure's batch test rejects a pair that scores exactly the threshold",
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
        "src/rumorsim/similarity.py",
        "sys.intern(fragment.strip().lower())",
        "sys.intern(fragment.lower())",
        ("tests/test_graph.py::TestLoadUsers::test_topics_are_tokenize_topics_labels_held_once",),
        "a padded topic fragment keeps its padding as part of the label; seen by the load_users test",
    ),
    Mutant(
        "topic-fragment-not-stripped-tokenize",
        "src/rumorsim/similarity.py",
        "sys.intern(fragment.strip().lower())",
        "sys.intern(fragment.lower())",
        ("tests/test_similarity.py::TestTokenize::test_matches_the_per_fragment_reference",),
        "the same bug, seen by the tokenize_topics test",
    ),
    Mutant(
        "rumor-line-is-one-label",
        "src/rumorsim/graph.py",
        'return RumorContent(tokenize_topics(",".join(lines)))',
        "return RumorContent(frozenset(filter(None, map(_topic_label, lines))))",
        ("tests/test_graph.py",),
        "a rumor.txt line with commas loads as one label, not as a users.csv topics field does",
    ),
    Mutant(
        "validate-clean-without-missing-profiles",
        "src/rumorsim/graph.py",
        "return not (self.missing_profiles or self.empty_topics or self.isolated_nodes)",
        "return not self.missing_profiles",
        ("tests/test_graph.py",),
        "a report holding only empty topics or only isolated users reads as clean",
    ),
    Mutant(
        "replay-drops-recovered-users",
        "src/rumorsim/simulate.py",
        "            rises[t] += 1\n",
        "            rises[t] += 1\n"
        "        for t, delta in self.changes.items():\n"
        "            rises[t] -= sum(label == 'recovered' for _, label in delta)\n",
        ("tests/test_golden.py",),
        "the curve counts a recovered user as inactive, so it can fall",
    ),
    Mutant(
        "since-keeps-the-last-step",
        "src/rumorsim/simulate.py",
        "for t in sorted(self.changes, reverse=True)",
        "for t in sorted(self.changes)",
        ("tests/test_simulate.py",),
        "a user's first step is read as the last step that sets it out of the default state",
    ),
    Mutant(
        "curve-grows-step-by-step",
        "src/rumorsim/simulate.py",
        "        rises = [0] * (self.max_time + 1)\n"
        "        for t in self._since().values():\n"
        "            rises[t] += 1\n"
        "        return list(accumulate(rises))\n",
        "        rises = __import__('collections').Counter(self._since().values())\n"
        "        return list(accumulate(map(rises.__getitem__, range(self.max_time + 1))))\n",
        (OVERSIZED_RUN,),
        "the curve is built one step at a time, so a max_time no list can hold grows memory until it runs out",
    ),
    Mutant(
        "evaluate-scores-unprofiled-predictions",
        "src/rumorsim/evaluate.py",
        "scored = profiles.keys() & members",
        "scored = members",
        ("tests/test_evaluate.py::TestEvaluate::test_unlabeled_predictions_not_scored",),
        "a predicted user without a profile counts as a false positive",
    ),
    Mutant(
        "evaluate-scores-unprofiled-predictions-loop",
        "src/rumorsim/evaluate.py",
        "scored = profiles.keys() & members",
        "scored = members",
        (EVALUATE_LOOP,),
        "the same bug, seen by the check against the loop over every profile",
    ),
    Mutant(
        "evaluate-counts-every-label",
        "src/rumorsim/evaluate.py",
        "observed = {uid for uid, profile in profiles.items() if profile.observed_diffuser}",
        "observed = set(profiles)",
        (EVALUATE_LOOP,),
        "every profiled user is taken for an observed diffuser",
    ),
    Mutant(
        "rebuild-trace-accepts-unknown-users",
        "src/rumorsim/simulate.py",
        "            if uid not in nodes:\n"
        '                raise ConfigurationError(f"trace references unknown user {uid}")\n',
        "",
        ("tests/test_simulate.py",),
        "a trace read back from trace.csv may name a user outside the graph",
    ),
    Mutant(
        "rebuild-trace-accepts-negative-steps",
        "src/rumorsim/simulate.py",
        "outside = [t for t in changes if not 0 <= t <= cfg.max_time]",
        "outside = [t for t in changes if t > cfg.max_time]",
        ("tests/test_simulate.py",),
        "a trace read back from trace.csv may hold a change before step 0",
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
        "files-renamed-as-written",
        "src/rumorsim/graph.py",
        "                fh.writelines(chunks)\n        for tmp, path in staged:\n            os.replace(tmp, path)\n",
        "                fh.writelines(chunks)\n            os.replace(tmp, path)\n",
        (OUTPUT_SET_LAW,),
        "each file is renamed over its target as soon as it is written, so a later failure mixes two runs",
    ),
    Mutant(
        "temp-files-left-on-failure",
        "src/rumorsim/graph.py",
        "            tmp.unlink(missing_ok=True)\n",
        "            pass\n",
        (OUTPUT_SET_LAW,),
        "a failed write leaves its temp files beside the previous outputs",
    ),
    Mutant(
        "summary-json-renamed-first",
        "src/rumorsim/simulate.py",
        "    _write_files([\n"
        '        (out / "trace.csv", _csv_chunks(TRACE_HEADER, _trace_lines(traces))),\n'
        '        (out / "curve.csv", _curve_chunks(aggregate)),\n'
        '        (out / "summary.json", _json_chunks(payload)),\n'
        "    ])\n",
        "    _write_files([\n"
        '        (out / "summary.json", _json_chunks(payload)),\n'
        '        (out / "trace.csv", _csv_chunks(TRACE_HEADER, _trace_lines(traces))),\n'
        '        (out / "curve.csv", _curve_chunks(aggregate)),\n'
        "    ])\n",
        (OUTPUT_SET_LAW,),
        "simulate renames summary.json first, so a failed rename leaves a new summary beside an old trace",
    ),
    Mutant(
        "stale-frames-removed-before-the-renames",
        "src/rumorsim/simulate.py",
        '    _write_files(chain(frames, [(out / "curve.csv", _curve_chunks(trace.counts))]))\n'
        "    for path in stale:\n        path.unlink()\n",
        "    for path in stale:\n        path.unlink()\n"
        '    _write_files(chain(frames, [(out / "curve.csv", _curve_chunks(trace.counts))]))\n',
        (OUTPUT_SET_LAW,),
        "export removes the stale frames before its renames, so a failed rename loses them",
    ),
    Mutant(
        "export-edge-lines-descending",
        "src/rumorsim/simulate.py",
        "for a, followers in adjacency for b in followers)",
        "for a, followers in reversed(adjacency) for b in reversed(followers))",
        ("tests/test_golden.py",),
        "export writes each frame's edge lines in descending order",
    ),
    Mutant(
        "derive-counts-its-calls",
        "src/rumorsim/rng.py",
        "        return RngStream(_mix64((self.seed + (index + 1) * _GOLDEN) & _MASK64))\n",
        "        global _DERIVED\n"
        '        _DERIVED = globals().get("_DERIVED", 0) + 1\n'
        "        return RngStream(_mix64((self.seed + (index + _DERIVED) * _GOLDEN) & _MASK64))\n",
        ("tests/test_cli.py",),
        "a child stream depends on how many streams the process derived before, so a rerun differs",
    ),
    Mutant(
        "randrange-reads-the-low-bits",
        "src/rumorsim/rng.py",
        "value = value << bits | int(draw() * (1 << bits))",
        "value = value << bits | int(draw() * (1 << 53)) & ((1 << bits) - 1)",
        ("tests/test_diffusion.py::TestRngStream::test_randrange_draws_through_random_alone",),
        "randrange keeps a draw's low bits, not its top bits: still uniform, but another sequence per seed",
    ),
    Mutant(
        "rumor-read-without-a-rumor-path",
        "src/rumorsim/cli.py",
        "rumor = load_rumor(cfg.rumor_path) if cfg.rumor_path else None",
        "rumor = load_rumor(cfg.rumor_path)",
        ("tests/test_cli.py",),
        "a gated run whose config names no rumor_path tries to open None",
    ),
    Mutant(
        "oversized-run-traceback",
        "src/rumorsim/cli.py",
        "    except MemoryError:\n",
        "    except ArithmeticError:\n",
        (OVERSIZED_RUN,),
        "a run too large for memory ends in a MemoryError traceback, not one error line",
    ),
    Mutant(
        "io-error-names-a-missing-file",
        "src/rumorsim/cli.py",
        'detail = f"{exc.strerror}: {filename}" if filename else str(exc)',
        'detail = f"{exc.strerror}: {filename}"',
        ("tests/test_cli.py",),
        "an OSError without a file name is reported as '<strerror>: None'",
    ),
    Mutant(
        "validate-drops-the-overflow-count",
        "src/rumorsim/cli.py",
        'f" (+{len(ids) - 20} more)" if len(ids) > 20 else ""',
        '""',
        ("tests/test_cli.py",),
        "validate lists the first 20 ids of a longer finding with no count of the rest",
    ),
    Mutant(
        "trials-share-one-stream",
        "src/rumorsim/simulate.py",
        "start(base.derive(k))) for k in range(",
        "start(base.derive(0))) for k in range(",
        ("tests/test_simulate.py",),
        "every trial of a model that draws is driven with trial 0's stream",
    ),
    Mutant(
        "trials-share-one-stream-live-edge-curve",
        "src/rumorsim/simulate.py",
        "start(base.derive(k))) for k in range(",
        "start(base.derive(0))) for k in range(",
        (LIVE_EDGE_CURVE_LAW,),
        "the same bug, seen by the mean curve against the live-edge law: the mean is one trial's curve",
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
        "seed-without-upper-bound",
        "src/rumorsim/config.py",
        "if not 0 <= self.seed < (1 << 64):",
        "if not 0 <= self.seed:",
        ("tests/test_simulate.py",),
        "a config seed of 2**64 or more is accepted, though no stream can be seeded with it",
    ),
    Mutant(
        "config-imports-the-gate",
        "src/rumorsim/config.py",
        "from .errors import ConfigurationError, ParseError, _check_probability, _Checked\n",
        "from .errors import ConfigurationError, ParseError, _check_probability, _Checked\n"
        "from .gated import SimilarityGate\n",
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
        "lane-vp-unmasked",
        "src/rumorsim/similarity.py",
        "vp = ((hn << 1) | (mask ^ (d0 | hp))) & mask",
        "vp = (hn << 1) | (mask ^ (d0 | hp))",
        ("tests/test_similarity.py::TestLaneKernel",),
        "VP keeps the bits above each lane's pattern, which climb into the lane above",
    ),
    Mutant(
        "recurrence-d0-without-vn-one-pair",
        "src/rumorsim/similarity.py",
        "d0 = (((eq & vp) + vp) ^ vp) | eq | vn",
        "d0 = (((eq & vp) + vp) ^ vp) | eq",
        ("tests/test_similarity.py::TestOracleEquivalence::test_kernel_matches_full_matrix_for_either_length_as_pattern",),
        "the shared recurrence leaves the last column's -1 deltas out of D0; seen by the one-pair kernel's test",
    ),
    Mutant(
        "recurrence-d0-without-vn-lanes",
        "src/rumorsim/similarity.py",
        "d0 = (((eq & vp) + vp) ^ vp) | eq | vn",
        "d0 = (((eq & vp) + vp) ^ vp) | eq",
        ("tests/test_similarity.py::TestLaneKernel::test_lanes_at_every_width_edge",),
        "the same bug, seen by the lane kernel's test",
    ),
    Mutant(
        "lanes-read-at-the-last-column",
        "src/rumorsim/similarity.py",
        "ends.setdefault(len(text), []).append(k)",
        "ends.setdefault(max(map(len, texts)), []).append(k)",
        ("tests/test_similarity.py",),
        "every lane of a pass is read after the pass's longest text, not at its own last column",
    ),
    Mutant(
        "round-admissions-by-id",
        "src/rumorsim/gated.py",
        "        admitted.sort()\n",
        "        admitted.sort(key=lambda admission: admission[1])\n",
        ("tests/test_gated.py",),
        "a level's admitted followers join the log by id alone, not after their admitting source",
    ),
    Mutant(
        "round-admissions-by-id-exhaustive",
        "src/rumorsim/gated.py",
        "        admitted.sort()\n",
        "        admitted.sort(key=lambda admission: admission[1])\n",
        ("tests/test_exhaustive.py::test_closure_engines_order_a_level_alike_on_four_users",),
        "the same bug, seen by the exhaustive two-level check on four users",
    ),
    Mutant(
        "rounds-retest-admitted-followers",
        "src/rumorsim/gated.py",
        "candidates = [c for c in candidates if c[1] not in members]",
        "candidates = list(candidates)",
        ("tests/test_exhaustive.py::test_closure_engines_equal_each_other_and_the_fixpoint",),
        "a follower admitted in one round is decided again against its next source, and joins the log twice",
    ),
    Mutant(
        "max-time-bound-off-by-one",
        "src/rumorsim/config.py",
        "            if not 1 <= value <= top:\n",
        "            if not 1 <= value <= top + 1:\n",
        ("tests/test_simulate.py::TestConfigFile::test_bad_value_messages",),
        "a max_time of sys.maxsize passes, and its curve of sys.maxsize + 1 counts fails in the run",
    ),
    Mutant(
        "ic-draw-at-most-p",
        DIFFUSION,
        "if draw() < p and target not in reached:",
        "if draw() <= p and target not in reached:",
        (SCRIPTED_IC,),
        "a draw of exactly p infects; random() can return it, and a scripted draw does",
    ),
    Mutant(
        "config-imports-dataclasses",
        "src/rumorsim/config.py",
        "from collections import namedtuple\n",
        "from collections import namedtuple\nimport dataclasses\n",
        ("tests/test_imports.py::TestNoUnneededStdlib",),
        "every process that reads a config imports dataclasses, and with it inspect and its parsers",
    ),
    Mutant(
        "pause-never-resumes-the-collector",
        "src/rumorsim/graph.py",
        "        if enabled:\n            gc.enable()\n",
        "        if enabled:\n            gc.disable()\n",
        ("tests/test_cli.py::TestCollectorPolicy",),
        "a command leaves the cyclic collector off, though it found it on",
    ),
    Mutant(
        "a-cycle-per-loaded-user",
        "src/rumorsim/graph.py",
        "        profiles[uid] = UserProfile(uid, topics, created_at, flag)\n",
        "        profiles[uid] = UserProfile(uid, topics, created_at, flag)\n        (cycle := []).append(cycle)\n",
        ("tests/test_cli.py::TestCollectorPolicy::test_a_command_leaves_as_much_cyclic_garbage_on_any_input",),
        "each loaded user leaves one reference cycle, which only the paused collector could free",
    ),
    Mutant(
        "main-exits-unfrozen",
        "src/rumorsim/cli.py",
        "        gc.freeze()\n",
        "",
        ("tests/test_cli.py::TestFailureModes::test_main_raises_systemexit_with_cli_code",),
        "the interpreter's final collection scans the whole heap the command left",
    ),
    Mutant(
        "replace-skips-record-checks",
        "src/rumorsim/errors.py",
        "        return cls(*iterable)\n",
        "        return tuple.__new__(cls, iterable)\n",
        ("tests/test_footprint.py::test_a_checked_record_runs_its_checks_however_it_is_built",),
        "_replace on a config, or any checked record, builds it past its range checks",
    ),
    Mutant(
        "check-hook-skips-keywords",
        "src/rumorsim/errors.py",
        "        self._check()\n",
        "        if not kwargs:\n            self._check()\n",
        ("tests/test_footprint.py::test_a_checked_record_runs_its_checks_however_it_is_built",),
        "a checked record built from keyword arguments skips its checks",
    ),
    Mutant(
        "rumor-table-per-level",
        "src/rumorsim/gated.py",
        "test(scored, tables if rumor is None else rumor_tables)",
        "test(scored, tables)",
        (
            "tests/test_gated.py::TestOracleAgreement::"
            "test_levenshtein_pattern_built_once_per_run_of_checks_from_a_source",
        ),
        "a Levenshtein closure against the rumor builds the rumor's pattern table again at each level",
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
        # an equivalent mutant must survive: one that a test kills is not equivalent
        ok = status == ("survived" if mutant.equivalent else "killed")
        gaps += not ok
        tag = "ok " if ok else "GAP"
        kind = " (equivalent)" if mutant.equivalent else ""
        print(f"{tag} {status:<8} {mutant.name}{kind} [{', '.join(mutant.tests)}] {seconds:.1f} s: {last}")
        if status == "killed" and mutant.equivalent:
            print("    killed, so it is not equivalent: mark it killed")
        elif not ok or mutant.equivalent:
            print(f"    {mutant.reason}")
    print(f"{len(chosen)} mutants, {gaps} not killed as expected")
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
