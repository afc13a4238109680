"""Every command on the default config and fourteen edits of it.

    python3 tools/command_matrix.py OUT

Runs every command of ``lambda_adapt.cli.COMMANDS`` (simulate, sweep,
optimize, entropy-curve and oracle-verify) through
``lambda_adapt.cli.main``, imported from this checkout's ``src/``, on
``configs/default.ini`` and on each edit of it in ``EDITS``.  The configs are written to OUT/configs/<name>.ini; each
command writes its artifacts to OUT/<name>/<command>/, next to
``command.json``, which holds its exit code, what it printed and, if it
raised, the exception.  Two trees made from two checkouts compare with
``tools/artifact_diff.py``.

The edits cover what the benchmark's seeded workloads never run: a
family sweep, the exponential and rectangular families (the latter
detuned), a split ground state with a mixed start, p_a0 = 0, a
one-parameter optimize, unequal decay rates, where a coupling factor
put on the wrong branch would show, a config without its optional
[system], [sweep] and [optimize] keys, which take the defaults of
``LambdaSystem``, ``SweepSpec`` and ``OptimizeSpec``, a two-parameter
optimize whose box puts the rate_ratio optimum of 1 near its lower face
(a search that folds onto that face stops at p_ab 0.790123, against
0.800000 inside), a three-parameter optimize over linewidth, detuning
and rate_ratio together, a detuned run at gamma_a = 1e300, which
overflows (each command's exit code and stderr show how it stops),
a run at gamma_b = 1e-300, whose p_ab(inf) of about 2.8e-300 is resolved
and judged relative to its maximum 4 gamma_a gamma_b / Gamma^2 = 4e-300,
and two long [grid]s, a section ``configs/default.ini`` lacks, whose
stretches ``integrate_psi`` and ``thermo.drive_overlap_integral`` work
on in several pieces: 2e5 + 1 nodes in one stretch on the resonant
Gaussian, and the rectangle of duration 2 detuned by 0.4 at t_max = 400,
dt = 0.02, whose stretches of 401, 6001 and 18,401 nodes are summed
off resonance.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import warnings
from configparser import ConfigParser
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT = ROOT / "configs" / "default.ini"

# name -> {section: {key: value}}; a value of None removes the key
EDITS = {
    "default": {},
    "family_sweep": {"sweep": {"parameter": "family"}},
    "exponential": {"pulse": {"family": "exponential", "sigma": None,
                              "delta": "0.5"}},
    "rectangular_detuned": {"pulse": {"family": "rectangular", "sigma": None,
                                      "tau": "2.0", "delta_l": "0.4"}},
    "split_ground": {"system": {"delta_ab": "0.2"},
                     "mixture": {"p_a0": "0.3"}},
    "p_a0_zero": {"mixture": {"p_a0": "0"}},
    "optimize_detuning": {"optimize": {"parameters": "detuning",
                                       "budget": "40"}},
    "unequal_rates": {"system": {"gamma_b": "1.6"}},
    "defaults": {"system": {"delta_ab": None, "gamma_a": None,
                            "gamma_b": None},
                 "sweep": {"n_points": None, "objective": None},
                 "optimize": {"objective": None, "budget": None}},
    "optimize_face": {"pulse": {"family": "exponential", "sigma": None,
                                "delta": "0.5"},
                      "optimize": {"detuning_lo": "-0.1",
                                   "detuning_hi": "2.0",
                                   "rate_ratio_lo": "0.8"}},
    "optimize_three": {"pulse": {"family": "exponential", "sigma": None,
                                 "delta": "0.5"},
                       "optimize": {"parameters":
                                    "linewidth, detuning, rate_ratio",
                                    "linewidth_lo": "0.1",
                                    "linewidth_hi": "2.0"}},
    "overflow": {"system": {"gamma_a": "1e300"}, "pulse": {"delta_l": "0.4"}},
    "tiny_rate": {"system": {"gamma_b": "1e-300"}},
    "long_grid": {"grid": {"t_max": "400.0", "dt": "0.002"}},
    "long_grid_rectangular": {"pulse": {"family": "rectangular",
                                        "sigma": None, "tau": "2.0",
                                        "delta_l": "0.4"},
                              "grid": {"t_max": "400.0", "dt": "0.02"}},
}


def read_ini(text: str) -> ConfigParser:
    parser = ConfigParser(interpolation=None,
                          inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    return parser


def config_text(edit: dict) -> str:
    """``configs/default.ini`` with ``edit`` applied, as INI text; a
    section the default config lacks is added."""
    parser = read_ini(DEFAULT.read_text())
    for section, keys in edit.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, value in keys.items():
            if value is None:
                parser.remove_option(section, key)
            else:
                parser.set(section, key, value)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def run_command(cli, command: str, config: Path, out: Path) -> dict:
    """One command through ``cli.main``: exit code, output, exception."""
    stdout, stderr = io.StringIO(), io.StringIO()
    record = {"exit_code": None, "error": ""}
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            record["exit_code"] = cli.main(
                [command, "--config", str(config), "--out", str(out)])
        except SystemExit as exc:
            record["exit_code"] = exc.code
        except Exception as exc:  # a traceback is recorded, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
    record["stdout"] = stdout.getvalue()
    record["stderr"] = stderr.getvalue()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", help="output directory")
    out = Path(parser.parse_args(argv).out)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lambda_adapt.cli as cli
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"lambda_adapt imported from {cli.__file__}, "
                         f"not {src}")
    (out / "configs").mkdir(parents=True, exist_ok=True)
    for name, edit in EDITS.items():
        config = out / "configs" / f"{name}.ini"
        config.write_text(config_text(edit))
        for command, _, _ in cli.COMMANDS:
            dest = out / name / command
            dest.mkdir(parents=True, exist_ok=True)
            record = run_command(cli, command, config, dest)
            (dest / "command.json").write_text(
                json.dumps(record, sort_keys=True, indent=2) + "\n")
            print(f"{name} {command}: exit {record['exit_code']}"
                  + (f", {record['error']}" if record["error"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
