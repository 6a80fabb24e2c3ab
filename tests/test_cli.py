"""End-to-end command tests driven through run_cli with a small fixture."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import FIXTURE_DIR
from rumorsim import SimulationConfig, run_cli
from rumorsim.cli import build_parser, main

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

    def test_summary_stable_apart_from_runtime(self, tmp_path, capsys):
        summaries = []
        for name in ("first", "second"):
            out = tmp_path / name
            run(capsys, "simulate", CFG, "--out-dir", str(out))
            data = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            assert data.pop("runtime_seconds") >= 0.0
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


class TestFailureModes:
    def test_missing_input_file_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("edges_path = nowhere.csv\nusers_path = nobody.csv\n", encoding="utf-8")
        code, _, stderr = run(capsys, "simulate", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert "io error" in stderr
        assert "nowhere.csv" in stderr

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

    def test_main_raises_systemexit_with_cli_code(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["rumorsim", "validate", CFG])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        capsys.readouterr()


class TestModuleEntryPoint:
    def python_m(self, *argv):
        src = str(FIXTURE_DIR.parent.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-m", *argv],
            capture_output=True,
            text=True,
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
            if name.endswith("summary.json"):
                ours, theirs = json.loads(blob), json.loads(second[name])
                del ours["runtime_seconds"], theirs["runtime_seconds"]
                assert ours == theirs, name
            else:
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
