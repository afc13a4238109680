"""What importing the package loads, checked in a fresh interpreter.

Every CLI command pays for its imports before it does any work, so a
heavy top-level import shows up in each run.  To see where the time
goes, run ``python -X importtime -c "import lambda_adapt.cli"``.  No
timings are asserted here; they are too noisy on shared machines.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_modules(module: str) -> set[str]:
    """sys.modules after ``import module`` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (f"import sys, {module}\n"
            "print('\\n'.join(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return set(out.stdout.split())


def test_library_import_loads_no_scipy():
    mods = loaded_modules("lambda_adapt")
    assert sorted(m for m in mods if m.split(".")[0] == "scipy") == []


@pytest.mark.parametrize("heavy", ["scipy.signal", "scipy.stats"])
def test_cli_import_skips_signal_processing(heavy):
    assert heavy not in loaded_modules("lambda_adapt.cli")


def test_cli_import_skips_the_optimizer_library():
    assert "scipy.optimize" not in loaded_modules("lambda_adapt.cli")
