"""Golden output digests: byte-identical outputs per config.

Each case runs ``run_trials`` on a small input, writes the two files the
``simulate`` command writes, and compares their SHA-256 digests with the
values recorded below.  A second table pins the command-line outputs
(``summary.json`` with every config key set, ``sims.csv`` and ``eval.json``)
so that a refactor of config parsing, the config echo or the similarity
kernels shows up as a changed digest.  A refactor must leave every digest
unchanged; an intended output change updates the table and says why.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from helpers import FIXTURE_DIR, VOCAB, oracle_corpus
from rumorsim import (
    EvaluationPolicy,
    Metric,
    ModelKind,
    RumorContent,
    SimulationConfig,
    load_edges,
    load_rumor,
    load_users,
    run_cli,
    run_trials,
    save_edges,
    write_curve_csv,
    write_trace_csv,
)
from rumorsim.graph import USERS_HEADER
from rumorsim.simulate import config_echo

CORPUS_RUMOR = RumorContent(frozenset(VOCAB[:10]))

CONFIGS = {
    "user_user-once": dict(model=ModelKind.GATED_USER_USER),
    "user_user-every_step": dict(
        model=ModelKind.GATED_USER_USER, evaluation_policy=EvaluationPolicy.EVERY_STEP
    ),
    "user_content-once": dict(model=ModelKind.GATED_USER_CONTENT),
    "user_content-every_step": dict(
        model=ModelKind.GATED_USER_CONTENT, evaluation_policy=EvaluationPolicy.EVERY_STEP
    ),
    "sir": dict(model=ModelKind.SIR, beta=0.4, gamma=0.25, trials=3),
    "ic": dict(model=ModelKind.IC, ic_default_p=0.35, trials=3),
    "tipping": dict(model=ModelKind.TIPPING, theta=0.2),
    # extreme parameters: certain spread without recovery, no spread at all,
    # certain edges, unanimous adoption
    "sir-beta1-gamma0": dict(model=ModelKind.SIR, beta=1.0, gamma=0.0, trials=3),
    "sir-beta0": dict(model=ModelKind.SIR, beta=0.0, gamma=0.3, trials=3),
    "ic-p1": dict(model=ModelKind.IC, ic_default_p=1.0, trials=3),
    "tipping-theta1": dict(model=ModelKind.TIPPING, theta=1.0),
}

# (trace.csv, curve.csv) SHA-256 per input/config
GOLDEN = {
    "ten_node/user_user-once": (
        "5b4e3cbefdeee40245d9a682d650b2f96b167c1c8dcb2736732381a5364411b5",
        "9b1b98982aeb2d056524a12ab9dc02f2de9be4e3aa9fdf3e30fc20ae5a40f5d3",
    ),
    "ten_node/user_user-every_step": (
        "5b4e3cbefdeee40245d9a682d650b2f96b167c1c8dcb2736732381a5364411b5",
        "9b1b98982aeb2d056524a12ab9dc02f2de9be4e3aa9fdf3e30fc20ae5a40f5d3",
    ),
    "ten_node/user_content-once": (
        "5b4e3cbefdeee40245d9a682d650b2f96b167c1c8dcb2736732381a5364411b5",
        "9b1b98982aeb2d056524a12ab9dc02f2de9be4e3aa9fdf3e30fc20ae5a40f5d3",
    ),
    "ten_node/user_content-every_step": (
        "5b4e3cbefdeee40245d9a682d650b2f96b167c1c8dcb2736732381a5364411b5",
        "9b1b98982aeb2d056524a12ab9dc02f2de9be4e3aa9fdf3e30fc20ae5a40f5d3",
    ),
    "ten_node/sir": (
        "3937416db35a0a12e3da4fdf76a3a6a45fdca835d1f4593aa00e9bec034a7748",
        "77874d3b795375896aec639e0199ceafbb478183a680f98f1c5bc2a3acd65fbf",
    ),
    "ten_node/ic": (
        "23a7ae30e2bdfe2b575328f55e0fb586b1e7bc2f2c452d0641775af654415c76",
        "0f0979ca413b2eec21d1d013b3732f092e1d2a8dc2147e0659b78f5bb062e110",
    ),
    "ten_node/tipping": (
        "787a658b41205be63e772029159cb05650d9340483f40fd74fa0f843721bc68e",
        "bb9fb4f88440be2afd000ce138f59b7df554cedaba1507a279dc6fab71261463",
    ),
    "ten_node/sir-beta1-gamma0": (
        "9e71d54489a40fc2c0cc813968d9268fbd280d8820f1450f2373ead07a349459",
        "bb9fb4f88440be2afd000ce138f59b7df554cedaba1507a279dc6fab71261463",
    ),
    "ten_node/sir-beta0": (
        "ca90d2ece8f22755dab99df24dc7b947de3a73c6a91fb442c2df74304fb4aea8",
        "1a9e48f8db5df714a711114b64f861e23a9161382f80b02cbb7b79d084ff66a9",
    ),
    "ten_node/ic-p1": (
        "30154a268b650f4d1b2bf37ba846e9bdcb45f31e8876252ebd9187faefc05783",
        "bb9fb4f88440be2afd000ce138f59b7df554cedaba1507a279dc6fab71261463",
    ),
    "ten_node/tipping-theta1": (
        "787a658b41205be63e772029159cb05650d9340483f40fd74fa0f843721bc68e",
        "bb9fb4f88440be2afd000ce138f59b7df554cedaba1507a279dc6fab71261463",
    ),
    "corpus1/user_user-once": (
        "f9bc9844b9ae5ba9832af4a4fa0bdfa6c0e543edbf4c09280d478652bd2c722a",
        "5c2ac8edc8b7cd4acfc1202840d043dfed0d128595337c848841e37df8df2158",
    ),
    "corpus1/user_user-every_step": (
        "f9bc9844b9ae5ba9832af4a4fa0bdfa6c0e543edbf4c09280d478652bd2c722a",
        "5c2ac8edc8b7cd4acfc1202840d043dfed0d128595337c848841e37df8df2158",
    ),
    "corpus1/user_content-once": (
        "bbbb854bedb0789726a57247485b3b4e8f979edf4b18b41aed45e52df939fd9c",
        "c3010c5472e31cac2f37fbe592d181689ea41f564bc6645e3908b3cb5b3d9c2f",
    ),
    "corpus1/user_content-every_step": (
        "bbbb854bedb0789726a57247485b3b4e8f979edf4b18b41aed45e52df939fd9c",
        "c3010c5472e31cac2f37fbe592d181689ea41f564bc6645e3908b3cb5b3d9c2f",
    ),
    "corpus1/sir": (
        "262a388d92d78f107b76bfa91d36c60bdd63dfd5dbc77885ef13672219eea99e",
        "e11f54279a74bae1ad5c2c77f94e55149accf30c088c4e2bfbb83d116dffcb9d",
    ),
    "corpus1/ic": (
        "666023427fa5e3ee66ebb6f71025387c08f7a2224ee787fdd826902c0562a8de",
        "1b3d93a1e49159e83dba067004f8eb4f87630d7dbb377cdae4f5b57fee5cf966",
    ),
    "corpus1/tipping": (
        "cef614765bea48883ac69d15ef6845aa41eaea7d8aad35778b3a1c3cf2368d7c",
        "e08389f78c3b69b2ef473300458596d28ddd328dae82c436e7c6e21b7482dbd8",
    ),
    "corpus1/sir-beta1-gamma0": (
        "610e00a19173e9b8884219d8c9a9c9a752d24f8bb6fd68393cf7a503047223f8",
        "e08389f78c3b69b2ef473300458596d28ddd328dae82c436e7c6e21b7482dbd8",
    ),
    "corpus1/sir-beta0": (
        "f5555e90000f9bb69651ebbdbca630043fd47445b53c52b8a85244935711ab47",
        "39978e69389f2db73589689bb0b236cef2a295b43762e27b3a1dc650a079bc9b",
    ),
    "corpus1/ic-p1": (
        "5098ded59449d72da406ed2ded5efed179ea0f48531da21b4dfb260cc881ebe4",
        "e08389f78c3b69b2ef473300458596d28ddd328dae82c436e7c6e21b7482dbd8",
    ),
    "corpus1/tipping-theta1": (
        "961ca9213d43d29634d4eb029a1734700bfdc2ab2c3653489bb5260aac2a401b",
        "61b4463fc7ef3b3cb039c80c707e7f9c374c34e3734f17a3498f61054f54e3e2",
    ),
    "corpus2/user_user-once": (
        "48fc3a4e2748b84f3fd33e065a8fbfcef3d07e62d2db6291f8c18faa24405d61",
        "39978e69389f2db73589689bb0b236cef2a295b43762e27b3a1dc650a079bc9b",
    ),
    "corpus2/user_user-every_step": (
        "48fc3a4e2748b84f3fd33e065a8fbfcef3d07e62d2db6291f8c18faa24405d61",
        "39978e69389f2db73589689bb0b236cef2a295b43762e27b3a1dc650a079bc9b",
    ),
    "corpus2/user_content-once": (
        "adc2b58d86d18e32424bf394c5ce593199fbc5003ea4b772f3aa97f0218fe37c",
        "168cb93bc584ede6d288ffa91858fdf1f2ff97d7d01016c188e716d6061fde5e",
    ),
    "corpus2/user_content-every_step": (
        "25573bc297a5b2ee10eeec1eb9e9bd06f67aaef72d5cd952e6a57a5217f89f5b",
        "9d92774b550252e0d1f3e8dba77582ee454bd468c2a540f80a13a76e88a1da38",
    ),
    "corpus2/sir": (
        "aabc3de4bb944adaafda6964b42f2e7024c00b7227f6b6d67348d65049a16678",
        "cdbd75cbefdf0cbea264f703df0d53f278e6655dd15d71bfe18345b6262c7445",
    ),
    "corpus2/ic": (
        "38847b71b1650fd430a1bead9429b8c7c9bc7754c486c09deb51dd8d31c575c2",
        "c618e8e4a901eb3bc2f533ff3302ce824f4a3d1c953b6a9c3604261b3b72d488",
    ),
    "corpus2/tipping": (
        "d74dc5a92591f7d85dd707cc297cc6d4971ecda8ee0f016117657139e33d984a",
        "86364ce10322080a1bee17c1c2f799f73d50db2562d6a704fa66683600579872",
    ),
    "corpus2/sir-beta1-gamma0": (
        "a2c406225e4ca3d18095a3cd9509968f2eeb0573abb70602ba840bf26050eeb3",
        "86364ce10322080a1bee17c1c2f799f73d50db2562d6a704fa66683600579872",
    ),
    "corpus2/sir-beta0": (
        "afe31c1d25ffe1e62c58fb3d5dcad0d9f1ad89fa20f0fc6a82894cf246e89a4e",
        "39978e69389f2db73589689bb0b236cef2a295b43762e27b3a1dc650a079bc9b",
    ),
    "corpus2/ic-p1": (
        "ef07e39b3ae499a76faeedea62d3cbbf11a66c707b02800d40b7ac9e0c92d55f",
        "86364ce10322080a1bee17c1c2f799f73d50db2562d6a704fa66683600579872",
    ),
    "corpus2/tipping-theta1": (
        "d61fb60ef7665b3de0f71c36aeb6fb62dc11bf48f685e8b47ef548efe6ada50a",
        "39978e69389f2db73589689bb0b236cef2a295b43762e27b3a1dc650a079bc9b",
    ),
    "corpus3/user_user-once": (
        "46734303d0a7356aef831f20dc3c525181fd796bd61c505bf605bd3f1be53bbe",
        "6349db71ab1943fe8c2669c67174bd59423cff16b3da6ef609d1682e661ea54e",
    ),
    "corpus3/user_user-every_step": (
        "7ad3d675280d628e711172cd7efaa886b042c1a5fe5fcd2b67a9c6fe08da3875",
        "3e9f791beac89f53fd03ee53d7670bb9c006a25b28f710d1e6eb5237ae4b624f",
    ),
    "corpus3/user_content-once": (
        "2e1b56029a80895a4451021df1a5710b076b719643aab11138057d88765ddeb6",
        "22d72e7e70d1b559a16ff4c7ea35177184e145fc2001b9ba00eea51e1e631d00",
    ),
    "corpus3/user_content-every_step": (
        "2e1b56029a80895a4451021df1a5710b076b719643aab11138057d88765ddeb6",
        "22d72e7e70d1b559a16ff4c7ea35177184e145fc2001b9ba00eea51e1e631d00",
    ),
    "corpus3/sir": (
        "d815fa11035a27945547a79796c43e8e9642c57c644b645474ac3e683f59af6a",
        "1a9722a09775d64dfba2c0a865d7e3ad964245f4866a095b770a203d998a3da9",
    ),
    "corpus3/ic": (
        "bcae25d9e2bb2cf67e679d11a1381155040efaabecf43f8e83a90d19745164bf",
        "67bf7d38a9704f1c68a1489fc79d1a3e12638799817a6f9aa4da1601a999affa",
    ),
    "corpus3/tipping": (
        "bd183a2427c6c1e20b3f5ecb6be9e72803eb0209cd238ac0dd7418178809b024",
        "524176900e9d188baf2c62845216aa880159020bb646e516803ade07608990f5",
    ),
    "corpus3/sir-beta1-gamma0": (
        "a1a8d4d4a6b48918f2c51433984074ef7c64c321fa67988668025d062ec7e81d",
        "524176900e9d188baf2c62845216aa880159020bb646e516803ade07608990f5",
    ),
    "corpus3/sir-beta0": (
        "d68ca184f1849d9b2237fcaef3efc7585fb9e1d4190ab00e6b09ba227e8f72cc",
        "3eb2fc46b2c9bc1c946ac315f6361ffaba658f183e5733ffab6f0958459e4941",
    ),
    "corpus3/ic-p1": (
        "665faf762568a6105c4be82ef377fc47fd6f78d0959afe9920ce1252ce2427f0",
        "524176900e9d188baf2c62845216aa880159020bb646e516803ade07608990f5",
    ),
    "corpus3/tipping-theta1": (
        "607f81b85862cd691fb3fb136f55787882a962a3fe26e48b838f95fce6c4652f",
        "3eb2fc46b2c9bc1c946ac315f6361ffaba658f183e5733ffab6f0958459e4941",
    ),
}


def _inputs(name):
    """(base config, graph, profiles, rumor) for one named input."""
    base = dict(
        edges_path=Path("edges.csv"),
        users_path=Path("users.csv"),
        rumor_path=Path("rumor.txt"),
        trials=2,
        seed=42,
        metric=Metric.COSINE,
    )
    if name == "ten_node":
        graph = load_edges(FIXTURE_DIR / "edges.csv")
        profiles = load_users(FIXTURE_DIR / "users.csv")
        rumor = load_rumor(FIXTURE_DIR / "rumor.txt")
        cfg = SimulationConfig(max_time=20, threshold=0.5, initials=(1,), **base)
        return cfg, graph, profiles, rumor
    # three of the densest corpus graphs (edge probability 0.05); wake-ups
    # spread over 0..6, and at threshold 0.15 every-step reaches users that
    # once misses
    k = int(name.removeprefix("corpus"))
    corpus = oracle_corpus(seed=702, count=12, max_nodes=40, max_created=6)
    graph, profiles, initials = corpus[4 * k - 1]
    cfg = SimulationConfig(max_time=12, threshold=0.15, initials=initials, **base)
    return cfg, graph, profiles, CORPUS_RUMOR


def output_digests(input_name, config_name, out_dir):
    base, graph, profiles, rumor = _inputs(input_name)
    cfg = dataclasses.replace(base, **CONFIGS[config_name])
    traces, aggregate = run_trials(cfg, graph, profiles, rumor)
    write_trace_csv(traces, out_dir / "trace.csv")
    write_curve_csv(aggregate, out_dir / "curve.csv")
    return tuple(
        hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("trace.csv", "curve.csv")
    )


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_outputs_match_golden_digests(key, tmp_path):
    input_name, config_name = key.split("/")
    assert output_digests(input_name, config_name, tmp_path) == GOLDEN[key]


def test_golden_table_covers_every_input_and_config():
    inputs = ("ten_node", "corpus1", "corpus2", "corpus3")
    assert sorted(GOLDEN) == sorted(f"{i}/{c}" for i in inputs for c in CONFIGS)


# SHA-256 of the CLI outputs per input: summary.json, re-serialised without
# its final newline, from a simulate run that sets every config key to a
# non-default value (some in the file, some as flags); sims.csv from
# similarity; eval.json from an evaluate sweep over six metrics; export, one
# digest over every DOT frame in name order and then curve.csv, from an
# export of that simulate's trace.  The
# ``/pearson`` entry pins a Pearson gate instead: summary.json from an
# every-step user-user simulate and eval.json from an evaluate, both with
# metric pearson, on an input where Pearson is defined on every edge the gate
# checks.  Pearson over the union vocabulary is never positive, so this gate
# admits no pair and both runs end with the seeds alone
CLI_GOLDEN = {
    "ten_node": {
        "summary.json": "e82d63e61eb98699d5fdf3aa5de92ba0a227001ab0e9bad34373600dc6a441a7",
        "sims.csv": "298dfed990f0e65ba238a3cbc7ed0c1f2ba6f774449b76684fc02ebcaac7a42b",
        "eval.json": "f0a422c952235f0a7cadbcc2197f3edaca852583e5bf2d43754d342714d0a3d0",
        "export": "32687a87b837bdae8a44830723cd349d0d321012c7303650cf0cebc32e53d10e",
    },
    "corpus1": {
        "summary.json": "552c2eddbbe617a5b43f6aaaec658e422674fff902b982a09e28c198dff2eb0b",
        "sims.csv": "6f9b283c99e4e433cf0cde1fb724fbe68787562de588809039a27bcd47a32044",
        "eval.json": "9cf09bfdf5af63d3b36dc9de8671080adda41cdabafe69bd18ffeb8bbd1313f4",
        "export": "ba40c75f7251ce4018d1421b192aa0ea377a9232c6061baabd850da5321bc62c",
    },
    "corpus1/pearson": {
        "summary.json": "9b5463c11b5396132dafde25ad274f2f8f4921c52c3895283de966e63d20fd6c",
        "eval.json": "c3a5d6b77d2c035fb1e1d43e025b84eae28353d2cc6a4e798880f573128dd6e7",
    },
}


def _write_cli_inputs(input_name, root):
    """Write one named input as the files the CLI reads; returns its config."""
    cfg, graph, profiles, rumor = _inputs(input_name)
    if input_name == "ten_node":
        for name in ("edges.csv", "users.csv", "rumor.txt"):
            shutil.copy(FIXTURE_DIR / name, root / name)
    else:
        save_edges(graph, root / "edges.csv")
        with open(root / "users.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(USERS_HEADER)
            for uid, p in sorted(profiles.items()):
                # corpus profiles carry no labels; give every third user one
                writer.writerow([uid, ",".join(sorted(p.topics)), p.created_at, int(uid % 3 == 0)])
        (root / "rumor.txt").write_text("".join(f"{t}\n" for t in sorted(rumor.topics)), encoding="utf-8")
    with open(root / "decisions.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["from_user_id", "to_user_id", "pass"])
        writer.writerows([a, b, int((7 * a + b) % 3 != 0)] for a, b in sorted(graph.edges))
    return cfg


def cli_digests(key, root):
    input_name, _, gate = key.partition("/")
    cfg = _write_cli_inputs(input_name, root)
    initials = ", ".join(str(u) for u in cfg.initials)
    base = (
        "edges_path = edges.csv\n"
        "users_path = users.csv\n"
        "rumor_path = rumor.txt\n"
        f"initials = {initials}\n"
    )
    (root / "base.cfg").write_text(base, encoding="utf-8")
    (root / "all.cfg").write_text(
        base
        + "model = gated_user_content\n"
        "threshold = 0.4\n"
        "max_time = 5\n"
        "trials = 3\n"
        "beta = 0.25\n"
        "gamma = 0.125\n"
        "metrics = jaccard_set, levenshtein\n",
        encoding="utf-8",
    )
    # relative paths: the echoed config then names no temporary directory
    if gate == "pearson":
        commands = [
            ["simulate", "base.cfg", "--out-dir", "sim", "--metric", "pearson",
             "--threshold", str(cfg.threshold), "--evaluation-policy", "every_step"],
            ["evaluate", "base.cfg", "--out-dir", "eval", "--metrics", "pearson",
             "--threshold", str(cfg.threshold)],
        ]
    else:
        commands = [
            ["simulate", "all.cfg", "--out-dir", "sim", "--decisions-path", "decisions.csv",
             "--seed", "7", "--metric", "dice", "--evaluation-policy", "every_step",
             "--theta", "0.75", "--ic-default-p", "0.5"],
            ["similarity", "base.cfg", "--out-dir", "sims"],
            ["evaluate", "base.cfg", "--out-dir", "eval", "--threshold", str(cfg.threshold),
             "--metrics", "cosine, jaccard_vector, average, jaccard, dice, levenshtein"],
            ["export", "sim/trace.csv", "frames", "--config", "all.cfg"],
        ]
    for argv in commands:
        assert run_cli(argv) == 0, argv
    summary = json.loads((root / "sim" / "summary.json").read_text(encoding="utf-8"))
    blobs = {
        "summary.json": json.dumps(summary, indent=2, sort_keys=True).encode("utf-8"),
        "eval.json": (root / "eval" / "eval.json").read_bytes(),
    }
    if gate != "pearson":
        blobs["sims.csv"] = (root / "sims" / "sims.csv").read_bytes()
        frames = sorted((root / "frames").glob("frame_*.dot"))
        blobs["export"] = b"".join(path.read_bytes() for path in [*frames, root / "frames" / "curve.csv"])
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}


@pytest.mark.parametrize("key", sorted(CLI_GOLDEN))
def test_cli_outputs_match_golden_digests(key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_digests(key, Path(".")) == CLI_GOLDEN[key]
    capsys.readouterr()


def test_cli_golden_run_sets_every_config_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cli_digests("ten_node", Path("."))
    capsys.readouterr()
    echo = json.loads(Path("sim/summary.json").read_text(encoding="utf-8"))["config"]
    defaults = config_echo(SimulationConfig(edges_path=Path("e"), users_path=Path("u")))
    assert sorted(echo) == sorted(defaults)
    assert [key for key in echo if echo[key] == defaults[key]] == []
