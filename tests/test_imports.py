"""What importing the package loads, checked in a fresh interpreter,
and what each module exports.

Every CLI command pays for its imports before it does any work, so a
heavy top-level import shows up in each run.  To see where the time
goes, run ``python -X importtime -c "import lambda_adapt.cli"``.  No
timings are asserted here; they are too noisy on shared machines.
scipy is a test dependency only: no command may load it, not even
lazily.  Nor may a command load hashlib, which maps OpenSSL's libcrypto
(about 3.4 MB resident) into the process: the config is hashed with
CPython's built-in SHA-256, and with hashlib only on an interpreter
built without it.  Nor may a module keep an import it does not use.
"""

import ast
import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ["lambda_adapt", *(f"lambda_adapt.{p.stem}" for p in
                             sorted((SRC / "lambda_adapt").glob("*.py"))
                             if p.stem != "__init__")]


def run_python(code: str, *args: str) -> str:
    """What ``code`` prints in a new interpreter that imports from this
    checkout's src/ and sees ``args`` as sys.argv[1:]."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def loaded_modules(module: str, then: str = "", *args: str) -> set[str]:
    """sys.modules after ``import module`` and ``then`` in a new
    interpreter, which sees ``args`` as sys.argv[1:]."""
    code = (f"import sys, {module}\n{then}\n"
            "print('\\n'.join(sys.modules))")
    return set(run_python(code, *args).split())


def scipy_modules(mods: set[str]) -> list[str]:
    return sorted(m for m in mods if m.split(".")[0] == "scipy")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    # a name left in __all__ after its definition is gone breaks
    # ``from module import *``
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ())
            if not hasattr(mod, name)] == []


def module_imports(tree: ast.Module):
    """The import statements of ``tree`` outside any function or class."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted((SRC / "lambda_adapt").glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # a name imported at module level is read somewhere in the module or
    # re-exported through __all__
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and
            not isinstance(node.ctx, ast.Store)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    imported = [alias.asname or alias.name.split(".")[0]
                for node in module_imports(tree)
                if not (isinstance(node, ast.ImportFrom)
                        and node.module == "__future__")
                for alias in node.names]
    assert [name for name in imported
            if name not in read | exported] == []


def test_library_import_loads_no_scipy():
    assert scipy_modules(loaded_modules("lambda_adapt")) == []


@pytest.mark.parametrize("heavy", ["scipy.signal", "scipy.stats"])
def test_cli_import_skips_signal_processing(heavy):
    assert heavy not in loaded_modules("lambda_adapt.cli")


def test_cli_import_skips_the_optimizer_library():
    assert "scipy.optimize" not in loaded_modules("lambda_adapt.cli")


def test_cli_import_loads_no_thread_pool():
    # sweep points run on the calling thread: no executor from the
    # concurrent package, nor the logging it pulls in, is imported
    mods = loaded_modules("lambda_adapt.cli")
    assert sorted(m for m in mods if m.split(".")[0] == "concurrent") == []


SMALL_CONFIG = """
[system]
omega_a = 50.0
gamma_a = 1.0
gamma_b = 1.0

[pulse]
family = gaussian
sigma = 1.2

[mixture]
p_a0 = 0.5

[bath]
n_modes = 801
bandwidth = 40.0

[sweep]
parameter = linewidth
lo = 0.5
hi = 1.0
n_points = 3
objective = p_ab_infty

[optimize]
parameters = detuning, rate_ratio
detuning_lo = -0.5
detuning_hi = 0.5
rate_ratio_lo = 0.5
rate_ratio_hi = 2.0
objective = p_ab_infty
budget = 12
"""

RUN_EVERY_COMMAND = """
cfg, out = sys.argv[1:]
for command in ("simulate", "sweep", "optimize", "entropy-curve",
                "oracle-verify"):
    rc = lambda_adapt.cli.main([command, "--config", cfg,
                                "--out", f"{out}/{command}"])
    assert rc == 0, (command, rc)
"""


def test_no_command_loads_scipy(tmp_path):
    cfg = tmp_path / "small.ini"
    cfg.write_text(SMALL_CONFIG)
    mods = loaded_modules("lambda_adapt.cli", RUN_EVERY_COMMAND, str(cfg),
                          str(tmp_path / "out"))
    assert "lambda_adapt.oracle" in mods
    assert scipy_modules(mods) == []
    assert {"hashlib", "_hashlib"} & mods == set()


def test_config_hash_without_the_builtin_module(tmp_path):
    # an interpreter built without CPython's SHA-2 module hashes the
    # config with hashlib, to the same digest
    cfg = tmp_path / "small.ini"
    cfg.write_text(SMALL_CONFIG)
    code = ('import sys\n'
            'sys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
            'from lambda_adapt.config import load_config\n'
            'print(load_config(sys.argv[1]).sha256, "hashlib" in sys.modules)')
    digest, loaded = run_python(code, str(cfg)).split()
    assert loaded == "True"
    assert digest == hashlib.sha256(cfg.read_bytes()).hexdigest()
