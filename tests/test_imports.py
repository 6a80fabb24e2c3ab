"""Import contract: a process imports only the package modules its work runs.

Each check runs in a fresh interpreter on the bundled fixture, since the test
process itself has imported every module by the time it runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import rumorsim
from helpers import FIXTURE_DIR

CFG = str(FIXTURE_DIR / "sim.cfg")
SRC = str(FIXTURE_DIR.parent.parent / "src")

LOAD_INPUTS = """\
import sys
import rumorsim
cfg = rumorsim.load_config(sys.argv[1])
rumorsim.load_edges(cfg.edges_path)
rumorsim.load_users(cfg.users_path)
rumorsim.load_rumor(cfg.rumor_path)
"""

RUN_CLI = """\
import sys
from rumorsim.cli import run_cli
if run_cli(sys.argv[1:]):
    sys.exit("command failed")
"""

# what the package exports, read after every submodule has been imported the
# way the commands import them: straight from the module, not through the package
EXPORTS = """\
import importlib, pkgutil, sys
import rumorsim
for info in pkgutil.iter_modules(rumorsim.__path__):
    importlib.import_module(f"rumorsim.{info.name}")
names = {}
for name in rumorsim.__all__:
    obj = getattr(rumorsim, name)
    owner = getattr(obj, "__module__", None)
    names[name] = [owner, owner in sys.modules and getattr(sys.modules[owner], name, None) is obj]
star = {}
exec("from rumorsim import *", star)
report = {"all": rumorsim.__all__, "names": names, "dir": dir(rumorsim), "star": sorted(star)}
"""

SCHEDULER = {"rumorsim.simulate", "rumorsim.diffusion", "rumorsim.rng"}


def _python(code: str, *argv, cwd=None) -> dict:
    """Run ``code`` in a fresh interpreter; returns its ``report`` dict and the modules it loaded."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    script = code + "\nimport json\nprint(json.dumps({'report': globals().get('report'), 'modules': sorted(sys.modules)}))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        encoding="utf-8",
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _package_modules(modules) -> set:
    return {m for m in modules if m == "rumorsim" or m.startswith("rumorsim.")}


class TestPerProcessImports:
    def test_loading_inputs_imports_five_package_modules_and_no_argparse(self):
        modules = _python(LOAD_INPUTS, CFG)["modules"]
        assert _package_modules(modules) == {
            "rumorsim",
            "rumorsim.config",
            "rumorsim.errors",
            "rumorsim.graph",
            "rumorsim.similarity",
        }
        assert "argparse" not in modules

    @pytest.mark.parametrize("command", ["similarity", "validate"])
    def test_graph_commands_import_neither_scheduler_nor_gate(self, command, tmp_path):
        modules = _python(RUN_CLI, command, CFG, "--out-dir", str(tmp_path))["modules"]
        assert _package_modules(modules) == {
            "rumorsim",
            "rumorsim.cli",
            "rumorsim.config",
            "rumorsim.errors",
            "rumorsim.graph",
            "rumorsim.similarity",
        }

    def test_evaluate_imports_no_scheduler(self, tmp_path):
        modules = _package_modules(_python(RUN_CLI, "evaluate", CFG, "--out-dir", str(tmp_path))["modules"])
        assert {"rumorsim.evaluate", "rumorsim.gated"} <= modules
        assert modules.isdisjoint(SCHEDULER)

    def test_simulate_imports_the_scheduler(self, tmp_path):
        modules = _package_modules(_python(RUN_CLI, "simulate", CFG, "--out-dir", str(tmp_path))["modules"])
        assert SCHEDULER | {"rumorsim.gated"} <= modules
        assert "rumorsim.evaluate" not in modules


class TestPackageNamespace:
    @pytest.fixture(scope="class")
    def exports(self):
        return _python(EXPORTS)["report"]

    def test_all_is_sorted(self, exports):
        assert exports["all"] == sorted(exports["all"])

    def test_every_name_is_the_object_its_module_defines(self, exports):
        # `evaluate` is both a module and a function: the package name is the function
        wrong = {name: owner for name, (owner, same) in exports["names"].items() if not same}
        assert wrong == {}
        assert exports["names"]["evaluate"][0] == "rumorsim.evaluate"

    def test_dir_lists_every_exported_name(self, exports):
        assert set(exports["all"]) <= set(exports["dir"])

    def test_star_import_binds_every_exported_name(self, exports):
        assert set(exports["all"]) <= set(exports["star"])

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rumorsim.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            from rumorsim import no_such_name  # noqa: F401
