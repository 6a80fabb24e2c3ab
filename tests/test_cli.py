"""End-to-end command tests driven through run_cli with a small fixture."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rumorsim.simulate
from helpers import FIXTURE_DIR, csv_sims_bytes, random_digraph, random_profiles
from rumorsim import SimulationConfig, UndefinedCorrelationError, run_cli, save_edges
from rumorsim.cli import build_parser, main
from rumorsim.similarity import overlap_scores

CFG = str(FIXTURE_DIR / "sim.cfg")
CONFIG_KEYS = sorted(f.name for f in dataclasses.fields(SimulationConfig))


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_writes_outputs_and_reports_mean(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "simulate", CFG, "--out-dir", str(out))
        assert code == 0
        assert "2 trial(s) of gated_user_user" in stdout
        assert "mean final diffusers 6 of 10 users" in stdout
        assert (out / "trace.csv").exists()
        assert (out / "curve.csv").exists()
        assert (out / "summary.json").exists()

    def test_a_user_user_run_reads_no_rumor(self, tmp_path, capsys):
        shutil.copytree(FIXTURE_DIR, tmp_path / "cfg")
        cfg = tmp_path / "cfg" / "sim.cfg"
        cfg.write_text(cfg.read_text(encoding="utf-8").replace("rumor_path = rumor.txt\n", ""), encoding="utf-8")
        (tmp_path / "cfg" / "rumor.txt").unlink()
        code, stdout, _ = run(capsys, "simulate", str(cfg), "--out-dir", str(tmp_path / "without"))
        assert code == 0
        assert "mean final diffusers 6 of 10 users" in stdout
        run(capsys, "simulate", CFG, "--out-dir", str(tmp_path / "with"))
        # summary.json echoes the config, rumor_path included
        for name in ("trace.csv", "curve.csv"):
            assert (tmp_path / "without" / name).read_bytes() == (tmp_path / "with" / name).read_bytes(), name

    def test_curve_has_a_row_per_step_and_never_decreases(self, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "simulate", CFG, "--out-dir", str(out))
        with (out / "curve.csv").open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "diffusers"]
        assert len(rows) == 1 + 21
        values = [float(v) for _, v in rows[1:]]
        assert values[0] == 1.0
        assert values[-1] == 6.0
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        blobs = {}
        for name in ("first", "second"):
            out = tmp_path / name
            run(capsys, "simulate", CFG, "--out-dir", str(out))
            blobs[name] = (
                (out / "trace.csv").read_bytes(),
                (out / "curve.csv").read_bytes(),
            )
        assert blobs["first"] == blobs["second"]

    @pytest.mark.parametrize("flags, diffusers", [
        pytest.param((), "6", id="gated"),
        pytest.param(("--model", "sir", "--beta", "0.3", "--gamma", "0.2", "--trials", "3"), "1.66667", id="sir"),
        pytest.param(("--model", "gated_user_content", "--evaluation-policy", "every-step"), "6", id="content"),
        pytest.param(("--model", "ic", "--ic-default-p", "0.5", "--trials", "3"), "2.33333", id="ic"),
        pytest.param(("--model", "tipping", "--theta", "0.3"), "10", id="tipping"),
    ])
    def test_rerun_into_the_same_directory_is_byte_identical(self, tmp_path, capsys, flags, diffusers):
        out = tmp_path / "out"
        runs = []
        for _ in range(2):
            code, stdout, _ = run(capsys, "simulate", CFG, *flags, "--out-dir", str(out))
            assert code == 0
            runs.append([(out / name).read_bytes() for name in ("trace.csv", "curve.csv", "summary.json")])
            # the runtime goes to stdout, not into any output file
            assert re.fullmatch(rf".* {re.escape(diffusers)} of 10 users in \d+\.\d{{6}} s\n", stdout)
        assert runs[0] == runs[1]
        assert "runtime_seconds" not in json.loads(runs[0][2])

    def test_summary_stable_apart_from_out_dir(self, tmp_path, capsys):
        summaries = []
        for name in ("first", "second"):
            out = tmp_path / name
            run(capsys, "simulate", CFG, "--out-dir", str(out))
            data = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            # the echoed out_dir tracks the override, everything else must not
            assert data["config"].pop("out_dir") == str(out)
            summaries.append(data)
        assert summaries[0] == summaries[1]
        assert summaries[0]["final_diffusers_mean"] == 6.0
        assert summaries[0]["config"]["model"] == "gated_user_user"
        assert [t["final_diffusers"] for t in summaries[0]["trials"]] == [6, 6]

    def test_metric_override_changes_the_outcome(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(
            capsys, "simulate", CFG, "--out-dir", str(out), "--metric", "jaccard"
        )
        assert code == 0
        assert "mean final diffusers 5 of 10 users" in stdout

    def test_threshold_zero_floods_the_graph(self, tmp_path, capsys):
        out = tmp_path / "out"
        _, stdout, _ = run(
            capsys, "simulate", CFG, "--out-dir", str(out), "--threshold", "0"
        )
        assert "mean final diffusers 10 of 10 users" in stdout

    def test_undefined_pearson_names_the_edge(self, tmp_path, capsys):
        # users 1 and 2 share both their labels: no variance to correlate
        out = tmp_path / "out"
        code, _, stderr = run(capsys, "simulate", CFG, "--out-dir", str(out), "--metric", "pearson")
        assert code == 1
        assert "pearson gate on edge (1, 2)" in stderr
        assert not (out / "trace.csv").exists()


class TestClassicalInputs:
    """A classical simulate reads the edge list alone."""

    PARAMS = ("--beta", "0.3", "--gamma", "0.2", "--ic-default-p", "0.4", "--theta", "0.3", "--trials", "3")

    @staticmethod
    def unreadable(tmp_path):
        corrupt = tmp_path / "corrupt.csv"
        corrupt.write_bytes(b"user_id,topics\n\xff,1\n")
        return {"missing": tmp_path / "does-not-exist.csv", "corrupt": corrupt}

    @pytest.mark.parametrize("model", ["sir", "ic", "tipping"])
    def test_users_rumor_and_decisions_are_never_opened(self, tmp_path, capsys, model):
        blobs = {}
        for name, path in {"real": None, **self.unreadable(tmp_path)}.items():
            inputs = [] if path is None else [
                arg for key in ("users", "rumor", "decisions") for arg in (f"--{key}-path", str(path))
            ]
            out = tmp_path / name
            code, _, stderr = run(capsys, "simulate", CFG, "--model", model, *self.PARAMS, *inputs,
                                  "--out-dir", str(out))
            assert (code, stderr) == (0, ""), name
            blobs[name] = [(out / f).read_bytes() for f in ("trace.csv", "curve.csv")]
        assert blobs["missing"] == blobs["real"] == blobs["corrupt"]

    @pytest.mark.parametrize("name, code", [("missing", 2), ("corrupt", 1)])
    def test_a_gated_simulate_still_reads_the_profiles(self, tmp_path, capsys, name, code):
        path = self.unreadable(tmp_path)[name]
        got, _, stderr = run(capsys, "simulate", CFG, "--users-path", str(path), "--out-dir", str(tmp_path / "out"))
        assert got == code
        assert str(path) in stderr
        assert not (tmp_path / "out").exists()


class TestEvaluate:
    def test_sweep_order_and_accuracies(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "evaluate", CFG, "--out-dir", str(out))
        assert code == 0
        assert "best metric cosine" in stdout
        rows = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        assert [(r["metric"], r["accuracy"]) for r in rows] == [
            ("cosine", 1.0),
            ("dice", 1.0),
            ("average", 0.9),
            ("jaccard", 0.9),
        ]
        for r in rows:
            assert r["tp"] + r["tn"] + r["fp"] + r["fn"] == 10
            assert r["threshold"] == 0.5

    def test_non_gated_model_is_a_config_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "evaluate", CFG, "--out-dir", str(tmp_path), "--model", "sir",
            "--beta", "0.5", "--gamma", "0.5",
        )
        assert code == 1
        assert "gated" in stderr


class TestSimilarity:
    def test_scores_every_edge(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "similarity", CFG, "--out-dir", str(out))
        assert code == 0
        assert "10 edge scores" in stdout
        with (out / "sims.csv").open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["from_user_id", "to_user_id", "cosine", "jaccard", "dice", "average"]
        assert len(rows) == 11
        by_edge = {(r[0], r[1]): r for r in rows[1:]}
        c, j, d, avg = (float(x) for x in by_edge[("2", "10")][2:])
        assert c == 0.5
        assert j == pytest.approx(1 / 3, abs=1e-15)
        assert d == 0.5
        assert avg == pytest.approx((0.5 + 1 / 3 + 0.5) / 3, abs=1e-15)
        # edges sort numerically, not lexically
        assert [r[0] for r in rows[1:]] == sorted((r[0] for r in rows[1:]), key=int)

    def test_endpoint_without_profile_scores_zero_in_every_column(self, tmp_path, capsys):
        (tmp_path / "edges.csv").write_text("from_user_id,to_user_id\n1,2\n1,3\n2,3\n", encoding="utf-8")
        # user 2 has no profile
        (tmp_path / "users.csv").write_text(
            "user_id,topics,created_at,is_diffuser\n1,\"news,tech\",0,1\n3,news,0,0\n", encoding="utf-8"
        )
        cfg = tmp_path / "s.cfg"
        cfg.write_text("edges_path = edges.csv\nusers_path = users.csv\n", encoding="utf-8")
        out = tmp_path / "out"
        code, _, _ = run(capsys, "similarity", str(cfg), "--out-dir", str(out))
        assert code == 0
        rows = (out / "sims.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1:] == [
            "1,2,0.0,0.0,0.0,0.0",
            f"1,3,{1 / 2**0.5!r},0.5,{2 / 3!r},{(1 / 2**0.5 + 0.5 + 2 / 3) / 3!r}",
            "2,3,0.0,0.0,0.0,0.0",
        ]

    @staticmethod
    def _random_inputs(tmp_path):
        """(graph, profiles, config path): many edges share an overlap shape, and some endpoints have no profile."""
        rng = random.Random(131)
        graph = random_digraph(rng, 60, 0.2)
        profiles = random_profiles(rng, graph.nodes, max_labels=4)
        for uid in rng.sample(sorted(profiles), 6):
            del profiles[uid]
        save_edges(graph, tmp_path / "edges.csv")
        with open(tmp_path / "users.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user_id", "topics", "created_at", "is_diffuser"])
            writer.writerows((u, ",".join(sorted(p.topics)), 0, 0) for u, p in profiles.items())
        cfg = tmp_path / "s.cfg"
        cfg.write_text("edges_path = edges.csv\nusers_path = users.csv\n", encoding="utf-8")
        return graph, profiles, cfg

    def test_every_field_is_str_of_its_score(self, tmp_path, capsys):
        graph, profiles, cfg = self._random_inputs(tmp_path)
        out = tmp_path / "out"
        assert run(capsys, "similarity", str(cfg), "--out-dir", str(out))[0] == 0
        with (out / "sims.csv").open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(int(a), int(b)) for a, b, *_ in rows] == sorted(graph.edges)
        missing = 0
        for a, b, *fields in rows:
            pa, pb = profiles.get(int(a)), profiles.get(int(b))
            if pa is None or pb is None:
                missing += 1
                expected = (0.0,) * 4
            else:
                expected = overlap_scores(pa.topics, pb.topics)
            assert fields == [str(v) for v in expected], (a, b)
        assert 0 < missing < len(rows)

    def test_bytes_equal_what_csv_writer_writes(self, tmp_path, capsys):
        graph, profiles, cfg = self._random_inputs(tmp_path)
        out = tmp_path / "out"
        assert run(capsys, "similarity", str(cfg), "--out-dir", str(out))[0] == 0
        assert (out / "sims.csv").read_bytes() == csv_sims_bytes(graph, profiles)


class TestExport:
    def test_renders_frames_from_a_saved_trace(self, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "simulate", CFG, "--out-dir", str(out))
        frames_dir = tmp_path / "frames"
        code, stdout, _ = run(
            capsys, "export", str(out / "trace.csv"), str(frames_dir), "--config", CFG
        )
        assert code == 0
        assert "wrote 21 DOT frames" in stdout
        frames = sorted(frames_dir.glob("frame_*.dot"))
        assert len(frames) == 21
        first = frames[0].read_text(encoding="utf-8")
        assert first.startswith("digraph diffusion {")
        assert "1 [color=red];" in first
        assert "5 [color=blue];" in first
        last = frames[-1].read_text(encoding="utf-8")
        for active in (1, 2, 4, 6, 8, 10):
            assert f"{active} [color=red];" in last
        assert (frames_dir / "curve.csv").exists()

    def test_second_trial_is_selectable(self, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "simulate", CFG, "--out-dir", str(out))
        code, stdout, _ = run(
            capsys, "export", str(out / "trace.csv"), str(tmp_path / "f1"),
            "--config", CFG, "--trial", "1",
        )
        assert code == 0
        assert "21 DOT frames" in stdout

    def test_unknown_trial_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "simulate", CFG, "--out-dir", str(out))
        code, _, stderr = run(
            capsys, "export", str(out / "trace.csv"), str(tmp_path / "f9"),
            "--config", CFG, "--trial", "9",
        )
        assert code == 1
        assert "trial" in stderr

    def test_steps_past_the_configured_horizon_are_rejected(self, tmp_path, capsys):
        # a 60-step SIR run replayed against the fixture's max_time = 20
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "simulate", CFG, "--out-dir", str(out), "--model", "sir",
            "--beta", "0.3", "--gamma", "0.05", "--max-time", "60",
        )
        assert code == 0
        frames_dir = tmp_path / "frames"
        code, _, stderr = run(
            capsys, "export", str(out / "trace.csv"), str(frames_dir), "--config", CFG
        )
        assert code == 1
        assert "step 23" in stderr
        assert "max_time = 20" in stderr
        assert not frames_dir.exists()

    def test_a_label_the_model_lacks_is_rejected(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("trial,step,user_id,new_state\n0,0,1,diffuser\n0,3,2,banana\n", encoding="utf-8")
        frames_dir = tmp_path / "frames"
        code, _, stderr = run(capsys, "export", str(trace), str(frames_dir), "--config", CFG)
        assert code == 1
        assert stderr == (
            "error: trace sets user 2 to 'banana' at step 3, not a state of model "
            "gated_user_user (non_diffuser, diffuser)\n"
        )
        assert not frames_dir.exists()

    def test_a_trace_of_another_model_is_rejected(self, tmp_path, capsys):
        # a SIR trace replayed against the fixture's gated config
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "simulate", CFG, "--out-dir", str(out), "--model", "sir", "--beta", "0.5", "--gamma", "0.2"
        )
        assert code == 0
        code, _, stderr = run(
            capsys, "export", str(out / "trace.csv"), str(tmp_path / "frames"), "--config", CFG
        )
        assert code == 1
        assert "to 'infected' at step 0, not a state of model gated_user_user" in stderr


class TestConfigKeys:
    """The SimulationConfig fields are the one list of config keys."""

    def test_readme_table_lists_exactly_the_config_fields(self):
        readme = (FIXTURE_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Config file\n", 1)[1].split("\n## ", 1)[0]
        keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert sorted(keys) == CONFIG_KEYS

    @pytest.mark.parametrize("command", ["simulate", "evaluate", "similarity", "validate"])
    def test_every_config_key_is_a_flag(self, command):
        argv = [command, CFG]
        for key in CONFIG_KEYS:
            argv += ["--" + key.replace("_", "-"), f"value-of-{key}"]
        args = build_parser().parse_args(argv)
        assert {key: getattr(args, key) for key in CONFIG_KEYS} == {
            key: f"value-of-{key}" for key in CONFIG_KEYS
        }

    @pytest.mark.parametrize("command", ["simulate", "evaluate", "similarity", "validate"])
    def test_help_lists_every_config_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--help"])
        assert exc.value.code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith(f"usage: rumorsim {command} ")
        assert [key for key in CONFIG_KEYS if f"--{key.replace('_', '-')} VALUE" not in stdout] == []

    @pytest.mark.parametrize("command", ["simulate", "evaluate", "similarity", "validate"])
    def test_a_flag_without_its_value_is_exit_1_with_usage(self, command, capsys):
        code, _, stderr = run(capsys, command, CFG, "--seed")
        assert code == 1
        assert stderr.startswith(f"usage: rumorsim {command} ")
        assert stderr.endswith("error: argument --seed: expected one argument\n")

    @pytest.mark.parametrize("command", ["simulate", "evaluate", "similarity", "validate", "export"])
    def test_an_unknown_flag_is_exit_1_with_the_command_usage(self, command, capsys):
        operands = ["trace.csv", "frames", "--config", CFG] if command == "export" else [CFG]
        code, _, stderr = run(capsys, command, *operands, "--bogus")
        assert code == 1
        assert stderr.startswith(f"usage: rumorsim {command} ")
        assert stderr.endswith("error: unrecognized arguments: --bogus\n")

    def test_only_the_named_command_builds_its_flags(self):
        parser = build_parser()
        parser.parse_args(["validate", CFG])
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        flagged = {name for name, sub in commands.items() if "--seed" in sub._option_string_actions}
        assert flagged == {"validate"}

    def test_summary_echoes_exactly_the_config_fields(self, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "simulate", CFG, "--out-dir", str(out))
        data = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert sorted(data["config"]) == CONFIG_KEYS


class TestValidate:
    def test_clean_fixture(self, capsys):
        code, stdout, _ = run(capsys, "validate", CFG)
        assert code == 0
        assert "10 users, 10 edges" in stdout
        assert "inputs are consistent" in stdout

    def test_findings_are_listed(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text(
            "from_user_id,to_user_id\n1,2\n2,3\n", encoding="utf-8"
        )
        users = tmp_path / "users.csv"
        users.write_text(
            "user_id,topics,created_at,is_diffuser\n"
            "1,news,0,1\n2,,0,0\n9,sports,0,0\n",
            encoding="utf-8",
        )
        cfg = tmp_path / "v.cfg"
        cfg.write_text("edges_path = edges.csv\nusers_path = users.csv\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "validate", str(cfg))
        assert code == 0
        assert "edge endpoints without a profile: 1 [3]" in stdout
        assert "profiles with an empty topic set: 1 [2]" in stdout
        assert "users touching no edge: 1 [9]" in stdout
        assert "inputs are consistent" not in stdout

    def test_a_long_finding_lists_its_first_20_ids_and_counts_the_rest(self, tmp_path, capsys):
        # user 1 follows users 2..30, and only user 1 has a profile
        (tmp_path / "edges.csv").write_text(
            "from_user_id,to_user_id\n" + "".join(f"1,{k}\n" for k in range(2, 31)), encoding="utf-8"
        )
        (tmp_path / "users.csv").write_text("user_id,topics,created_at,is_diffuser\n1,news,0,1\n", encoding="utf-8")
        cfg = tmp_path / "v.cfg"
        cfg.write_text("edges_path = edges.csv\nusers_path = users.csv\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "validate", str(cfg))
        assert code == 0
        shown = ", ".join(str(k) for k in range(2, 22))
        assert f"edge endpoints without a profile: 29 [{shown} (+9 more)]\n" in stdout


class TestFailureModes:
    def test_missing_input_file_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("edges_path = nowhere.csv\nusers_path = nobody.csv\n", encoding="utf-8")
        code, _, stderr = run(capsys, "simulate", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert "io error" in stderr
        assert "nowhere.csv" in stderr

    def test_an_io_error_without_a_file_name_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(rumorsim.simulate, "_write_lines", full)
        code, _, stderr = run(capsys, "simulate", CFG, "--out-dir", str(tmp_path))
        assert code == 2
        assert stderr == "io error: [Errno 28] No space left on device\n"

    def test_unknown_command_is_exit_1_with_usage(self, capsys):
        code, _, stderr = run(capsys, "transmogrify", CFG)
        assert code == 1
        assert "usage:" in stderr

    def test_no_command_is_exit_1(self, capsys):
        code, _, stderr = run(capsys)
        assert code == 1
        assert "usage:" in stderr

    def test_config_parse_error_is_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("edges_path = e.csv\nusers_path = u.csv\nwarp = 9\n", encoding="utf-8")
        code, _, stderr = run(capsys, "simulate", str(cfg))
        assert code == 1
        assert "error:" in stderr
        assert "warp" in stderr

    def test_bad_override_value_is_exit_1(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "simulate", CFG, "--out-dir", str(tmp_path), "--max-time", "never"
        )
        assert code == 1
        assert "error:" in stderr

    @pytest.mark.parametrize("name", ["sim.cfg", "rumor.txt", "users.csv", "edges.csv"])
    def test_undecodable_input_is_exit_1_naming_the_line(self, tmp_path, capsys, name):
        shutil.copytree(FIXTURE_DIR, tmp_path / "cfg")
        path = tmp_path / "cfg" / name
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
        code, _, stderr = run(
            capsys, "simulate", str(tmp_path / "cfg" / "sim.cfg"), "--out-dir", str(tmp_path / "out")
        )
        assert code == 1
        assert stderr == f"error: {path}:2: not valid UTF-8 (invalid start byte)\n"

    def test_byte_order_mark_in_rumor_is_exit_1_naming_line_1(self, tmp_path, capsys):
        shutil.copytree(FIXTURE_DIR, tmp_path / "cfg")
        path = tmp_path / "cfg" / "rumor.txt"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code, _, stderr = run(
            capsys, "simulate", str(tmp_path / "cfg" / "sim.cfg"), "--model", "gated_user_content",
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert stderr == f"error: {path}:1: starts with a byte-order mark (U+FEFF); save the file without it\n"
        assert not (tmp_path / "out").exists()

    def test_repeated_config_key_is_exit_1_naming_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "edges_path = e.csv\nusers_path = u.csv\nmax_time = 5\nmax_time = 7\n", encoding="utf-8"
        )
        code, _, stderr = run(capsys, "simulate", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert stderr == f"error: {cfg}:4: config key 'max_time' is set twice\n"
        assert not (tmp_path / "out").exists()

    def test_nul_byte_in_a_config_file_path_is_exit_1_naming_key_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("edges_path = e.csv\nusers_path = u\0.csv\n", encoding="utf-8")
        code, stdout, stderr = run(capsys, "validate", str(cfg))
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: {cfg}:2: config key users_path holds a NUL byte\n"

    @pytest.mark.parametrize("key", ["edges_path", "users_path", "rumor_path", "decisions_path", "out_dir"])
    def test_nul_byte_in_a_path_flag_is_exit_1_naming_the_key(self, tmp_path, capsys, key):
        flag = "--" + key.replace("_", "-")
        code, stdout, stderr = run(capsys, "simulate", CFG, "--out-dir", str(tmp_path / "out"), flag, "x\0y")
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: config key {key} holds a NUL byte\n"
        assert not (tmp_path / "out").exists()

    def test_main_raises_systemexit_with_cli_code(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["rumorsim", "validate", CFG])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        capsys.readouterr()


class TestAtomicOutputs:
    """Each output goes to a hidden temp file renamed over its target."""

    def test_failed_similarity_keeps_the_previous_sims_csv(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        assert run(capsys, "similarity", CFG, "--out-dir", str(out))[0] == 0
        before = (out / "sims.csv").read_bytes()
        calls = []

        def fails_on_the_fourth_edge(a, b):
            calls.append((a, b))
            if len(calls) == 4:
                raise UndefinedCorrelationError("injected failure")
            return overlap_scores(a, b)

        monkeypatch.setattr("rumorsim.cli.overlap_scores", fails_on_the_fourth_edge)
        code, _, stderr = run(capsys, "similarity", CFG, "--out-dir", str(out))
        assert code == 1
        assert stderr == "error: injected failure\n"
        assert len(calls) == 4
        assert (out / "sims.csv").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["sims.csv"]

    def test_no_command_leaves_a_temp_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        for argv in (
            ["simulate", CFG, "--out-dir", str(out)],
            ["evaluate", CFG, "--out-dir", str(out)],
            ["similarity", CFG, "--out-dir", str(out)],
            ["validate", CFG, "--out-dir", str(out)],
            ["export", str(out / "trace.csv"), str(tmp_path / "frames"), "--config", CFG],
        ):
            code, _, stderr = run(capsys, *argv)
            assert code == 0, stderr
            assert [p.name for p in tmp_path.rglob("*") if p.name.endswith(".tmp")] == [], argv[0]
        assert sorted(p.name for p in out.iterdir()) == [
            "curve.csv", "eval.json", "sims.csv", "summary.json", "trace.csv",
        ]
        assert len(list((tmp_path / "frames").glob("frame_*.dot"))) == 21

    def test_every_output_is_written_with_lf_line_ends(self, tmp_path, capsys, monkeypatch):
        # newline="" writes "\n" as is; the default would write os.linesep
        written = []

        def spy(file, mode="r", *args, **kwargs):
            if "w" in mode:
                written.append((Path(file).name, kwargs.get("newline")))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr("rumorsim.graph.open", spy, raising=False)
        out = tmp_path / "out"
        for argv in (
            ["simulate", CFG, "--out-dir", str(out)],
            ["evaluate", CFG, "--out-dir", str(out)],
            ["similarity", CFG, "--out-dir", str(out)],
            ["export", str(out / "trace.csv"), str(tmp_path / "frames"), "--config", CFG],
        ):
            code, _, stderr = run(capsys, *argv)
            assert code == 0, stderr
        names = {name for name, _ in written}
        assert {f".{name}.tmp" for name in ("trace.csv", "summary.json", "eval.json", "sims.csv")} <= names
        assert ".frame_0020.dot.tmp" in names
        assert [(name, newline) for name, newline in written if newline != ""] == []


class TestModuleEntryPoint:
    def python_m(self, *argv):
        src = str(FIXTURE_DIR.parent.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-m", *argv],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )

    def test_python_m_rumorsim_runs_the_cli(self):
        proc = self.python_m("rumorsim", "validate", CFG)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("10 users, 10 edges")

    def test_python_m_rumorsim_without_config_is_exit_1(self):
        proc = self.python_m("rumorsim", "simulate")
        assert proc.returncode == 1
        assert "usage:" in proc.stderr

    def test_python_m_rumorsim_cli_runs_the_cli(self):
        proc = self.python_m("rumorsim.cli", "validate", CFG)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("10 users, 10 edges")


class TestHashSeed:
    COMMANDS = {
        "gated": ["simulate"],
        "sir": ["simulate", "--model", "sir", "--beta", "0.3", "--gamma", "0.2"],
        "evaluate": ["evaluate", "--metrics", "cosine,jaccard,dice,average,levenshtein"],
        "similarity": ["similarity"],
    }

    def run_all(self, tmp_path, hash_seed):
        """Run every command under one PYTHONHASHSEED; returns {relative path: bytes}.

        Both seeds write to the same directories, since summary.json echoes
        the out_dir.
        """
        src = str(FIXTURE_DIR.parent.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        root = tmp_path / "out"
        shutil.rmtree(root, ignore_errors=True)
        for name, argv in self.COMMANDS.items():
            command, *flags = argv
            proc = subprocess.run(
                [sys.executable, "-m", "rumorsim", command, CFG, *flags, "--out-dir", str(root / name)],
                capture_output=True,
                text=True,
                encoding="utf-8",
                env=env,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        first = self.run_all(tmp_path, "0")
        second = self.run_all(tmp_path, "1")
        assert sorted(first) == [
            "evaluate/eval.json",
            "gated/curve.csv",
            "gated/summary.json",
            "gated/trace.csv",
            "similarity/sims.csv",
            "sir/curve.csv",
            "sir/summary.json",
            "sir/trace.csv",
        ]
        for name, blob in first.items():
            assert blob == second[name], name


class TestRelativePaths:
    @pytest.fixture
    def layout(self, tmp_path, monkeypatch):
        # the config and its inputs in a subdirectory, users.csv only in the cwd
        shutil.copytree(FIXTURE_DIR, tmp_path / "cfg")
        (tmp_path / "cfg" / "users.csv").rename(tmp_path / "users.csv")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_flag_paths_resolve_against_the_working_directory(self, layout, capsys):
        code, stdout, stderr = run(
            capsys, "simulate", "cfg/sim.cfg", "--out-dir", "run", "--users-path", "users.csv"
        )
        assert code == 0, stderr
        assert "mean final diffusers 6 of 10 users" in stdout
        assert (layout / "run" / "trace.csv").exists()
        assert not (layout / "cfg" / "run").exists()

    def test_file_paths_resolve_against_the_config_directory(self, layout, capsys):
        code, _, stderr = run(capsys, "simulate", "cfg/sim.cfg")
        assert code == 2
        assert str(Path("cfg") / "users.csv") in stderr
        shutil.copy(layout / "users.csv", layout / "cfg" / "users.csv")
        code, _, stderr = run(capsys, "simulate", "cfg/sim.cfg")
        assert code == 0, stderr
        assert (layout / "cfg" / "out" / "trace.csv").exists()
