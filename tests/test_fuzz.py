"""Seeded input fuzz: every command on every mutated input fails cleanly or succeeds.

Each fixture file, and a trace.csv written from it, is mutated a few hundred
times with a fixed seed and read by the commands that read it, in-process
through ``run_cli``.  Every case must end in exit 0, exit 1 with one
``error: ...`` line or exit 2 with one ``io error: ...`` line.  No case may
raise, leave a ``.*.tmp`` file or, when it fails, change an output the
previous run of its command wrote.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import random
import re
import shutil
import traceback
from pathlib import Path

from helpers import FIXTURE_DIR
from rumorsim import cli, run_cli

SEED = 17
MUTATIONS_PER_FILE = 200
CONFIG_COMMANDS = ("simulate", "evaluate", "similarity", "validate")
# the commands that read each input file
READERS = {
    "sim.cfg": CONFIG_COMMANDS,
    "edges.csv": CONFIG_COMMANDS,
    "users.csv": CONFIG_COMMANDS,
    "rumor.txt": ("simulate", "evaluate"),
    "trace.csv": ("export",),
}
_NUMBER = re.compile(rb"\d+(?:\.\d+)?")


def _number_span(rng, data):
    spans = [m.span() for m in _NUMBER.finditer(data)]
    return rng.choice(spans) if spans else (0, 0)


def _swap_number(token):
    def mutation(rng, data):
        start, end = _number_span(rng, data)
        return data[:start] + token + data[end:]

    return mutation


def _insert(token):
    def mutation(rng, data):
        at = rng.randrange(len(data) + 1)
        return data[:at] + token + data[at:]

    return mutation


def _truncate(rng, data):
    return data[: rng.randrange(len(data))]


def _flip_byte(rng, data):
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1 :]


def _duplicate_line(rng, data):
    lines = data.splitlines(keepends=True)
    at = rng.randrange(len(lines))
    return b"".join(lines[: at + 1] + lines[at:])


MUTATIONS = {
    "truncate": _truncate,
    "flip": _flip_byte,
    "bom": lambda rng, data: b"\xef\xbb\xbf" + data,
    "crlf": lambda rng, data: data.replace(b"\n", b"\r\n"),
    "nul": _insert(b"\0"),
    "nan": _swap_number(b"nan"),
    "huge": _swap_number(b"1e309"),
    "quote": _insert(b'"'),
    "duplicate": _duplicate_line,
}


def _argv(command, work):
    if command == "export":
        config = str(work / "export.cfg")
        return ["export", str(work / "trace.csv"), str(work / "out" / "export"), "--config", config]
    return [command, str(work / "sim.cfg"), "--out-dir", str(work / "out" / command)]


def _snapshot(out):
    """{name: bytes} of the files a command wrote; none writes a subdirectory, validate writes none."""
    if not out.exists():
        return {}
    return {entry.name: Path(entry.path).read_bytes() for entry in os.scandir(out)}


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = run_cli(argv)
        except Exception:
            return None, traceback.format_exc()
    return code, stderr.getvalue()


def test_mutated_inputs_fail_cleanly(tmp_path, monkeypatch):
    # one parser serves every case: building it costs more than most runs
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    work = tmp_path / "work"
    shutil.copytree(FIXTURE_DIR, work)
    # export writes a frame per step: a short horizon keeps its runs cheap
    text = (work / "sim.cfg").read_text(encoding="utf-8")
    (work / "export.cfg").write_text(text.replace("max_time = 20", "max_time = 5"), encoding="utf-8")
    assert _run([*_argv("simulate", work), "--max-time", "5"]) == (0, "")
    shutil.copy(work / "out" / "simulate" / "trace.csv", work / "trace.csv")
    for command in (*CONFIG_COMMANDS, "export"):
        assert _run(_argv(command, work)) == (0, ""), command
    outputs = {command: _snapshot(work / "out" / command) for command in (*CONFIG_COMMANDS, "export")}

    rng = random.Random(SEED)
    seen = set()
    for name, commands in READERS.items():
        original = (work / name).read_bytes()
        for k in range(MUTATIONS_PER_FILE):
            kind = rng.choice(sorted(MUTATIONS))
            (work / name).write_bytes(MUTATIONS[kind](rng, original))
            command = commands[k % len(commands)]
            code, stderr = _run(_argv(command, work))
            case = f"{name} {kind} #{k} through {command}"
            seen.add((code, command))
            lines = stderr.splitlines()
            after = _snapshot(work / "out" / command)
            # outputs are written through .<name>.tmp beside them, the only dot files
            assert not [path for path in after if path.startswith(".")], case
            if code == 0:
                outputs[command] = after
            else:
                assert (code, len(lines)) in ((1, 1), (2, 1)), f"{case}:\n{stderr}"
                assert lines[0].startswith("error: " if code == 1 else "io error: "), f"{case}: {stderr}"
                assert after == outputs[command], case
        (work / name).write_bytes(original)
    # every command both succeeded and failed on some mutated input
    for failed in (False, True):
        assert {command for code, command in seen if (code != 0) is failed} == set(outputs)
