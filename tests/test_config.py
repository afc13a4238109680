"""Config parsing, validation and hashing."""

import dataclasses
import hashlib
import math
import os
import string
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_adapt import dynamics, model
from lambda_adapt.cli import main
from lambda_adapt.config import OptimizeSpec, load_config
from lambda_adapt.errors import (ConfigurationError, LambdaAdaptError,
                                 ParameterError)
from lambda_adapt.model import Exponential, Gaussian, LambdaSystem, SimGrid
from lambda_adapt.optimize import SweepSpec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_INI = ROOT / "configs" / "default.ini"
DEFAULT_LINES = DEFAULT_INI.read_text().splitlines()
# indices of the "key = value" lines of the shipped config
VALUE_LINES = [i for i, line in enumerate(DEFAULT_LINES)
               if "=" in line and not line.lstrip().startswith("#")]

MINIMAL = """
[system]
omega_a = 50.0

[pulse]
family = exponential
delta = 1.0
"""


def write(tmp_path, text, name="run.ini"):
    # dedent section by section: indented lines would otherwise parse as
    # value continuations of the preceding key
    path = tmp_path / name
    path.write_text("\n".join(line.strip()
                              for line in textwrap.dedent(text).splitlines())
                    + "\n")
    return path


class TestLoading:
    def test_minimal_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.system.omega_a == 50.0
        assert cfg.system.gamma_a == 1.0
        assert isinstance(cfg.pulse.envelope, Exponential)
        assert cfg.pulse.carrier == 50.0
        assert cfg.mixture.p_a0 == 1.0
        assert cfg.bath.n_modes == 2001
        assert cfg.bath.bandwidth == pytest.approx(80.0)
        assert cfg.grid is None
        assert cfg.sweep is None
        assert cfg.optimize is None

    def test_shipped_default_config(self):
        cfg = load_config("configs/default.ini")
        assert isinstance(cfg.pulse.envelope, Gaussian)
        assert cfg.mixture.p_a0 == 0.5
        assert cfg.sweep is not None
        assert cfg.sweep.parameter == "linewidth"
        assert cfg.optimize is not None
        assert set(cfg.optimize.bounds) == {"detuning", "rate_ratio"}

    @pytest.mark.parametrize("newline", ["\n", "\r\n"],
                             ids=["lf", "crlf"])
    def test_hash_matches_file_bytes(self, tmp_path, newline):
        # the digest is sha256sum's of the file; the newlines change it
        # but not what the file parses to
        lf = write(tmp_path, MINIMAL, name="lf.ini")
        path = tmp_path / "run.ini"
        path.write_bytes(lf.read_bytes().replace(b"\n", newline.encode()))
        cfg = load_config(path)
        assert cfg.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert dataclasses.replace(cfg, sha256="") == \
            dataclasses.replace(load_config(lf), sha256="")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a UTF-8 mark parses as the plain file, hashed as its own bytes;
        # a bad byte after it is reported at its offset in the file
        plain = write(tmp_path, MINIMAL, name="plain.ini")
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        cfg = load_config(path)
        assert cfg.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert dataclasses.replace(cfg, sha256="") == \
            dataclasses.replace(load_config(plain), sha256="")
        path.write_bytes(b"\xef\xbb\xbf# caf\xe9\n" + plain.read_bytes())
        with pytest.raises(ConfigurationError, match=r"not UTF-8 \(byte 8\)"):
            load_config(path)

    def test_reads_utf8_whatever_the_locale(self, tmp_path):
        # an ASCII locale with UTF-8 mode and locale coercion off decodes
        # files as ASCII by default; a config is UTF-8 everywhere
        path = tmp_path / "run.ini"
        path.write_bytes(MINIMAL.replace(
            "omega_a = 50.0", "omega_a = 50.0  # caf\u00e9").encode())
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                   if p)}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; from lambda_adapt.config import load_config; "
             "print(load_config(sys.argv[1]).sha256)", str(path)],
            env=env, check=True, capture_output=True, text=True)
        assert out.stdout.strip() == \
            hashlib.sha256(path.read_bytes()).hexdigest()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "absent.ini")

    def test_detuned_carrier(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL + "delta_l = 0.5\n"))
        assert cfg.pulse.carrier == pytest.approx(50.5)

    def test_inline_comments_are_stripped(self, tmp_path):
        cfg = load_config(write(tmp_path, """
            [system]
            omega_a = 50.0  # lab units
            [pulse]
            family = exponential
            delta = 1.0
        """))
        assert cfg.system.omega_a == 50.0


class TestRejection:
    @pytest.mark.parametrize("text,match", [
        ("[system]\nomega_a = 1\n[pulse]\nfamily = exponential\ndelta = 1\n"
         "[laser]\npower = 2\n", "unknown config section"),
        ("[system]\nomega_a = 1\ncolor = red\n[pulse]\n"
         "family = exponential\ndelta = 1\n", "unknown key"),
        ("[pulse]\nfamily = exponential\ndelta = 1\n", "omega_a"),
        ("[system]\nomega_a = 1\n", "missing required section"),
        ("[system]\nomega_a = 1\n[pulse]\nfamily = square\ntau = 1\n",
         "family must be one of"),
        ("[system]\nomega_a = 1\n[pulse]\nfamily = gaussian\n",
         "requires the 'sigma' key"),
        ("[system]\nomega_a = 1\n[pulse]\nfamily = exponential\ndelta = 1\n"
         "sigma = 2\n", "does not belong"),
        ("[system]\nomega_a = abc\n[pulse]\nfamily = exponential\n"
         "delta = 1\n", "not a number"),
        ("[system]\nomega_a = 1\n[pulse]\nfamily = exponential\ndelta = 1\n"
         "[bath]\nn_modes = 2.5\n", "not an integer"),
        ("[system]\nomega_a = 1\n[pulse]\nfamily = exponential\ndelta = 1\n"
         "[sweep]\nparameter = linewidth\nlo = 0.1\n", "missing required"),
        ("[system]\nomega_a = 1\n[pulse]\nfamily = exponential\ndelta = 1\n"
         "[optimize]\nparameters = detuning\n", "needs detuning_lo"),
        ("[system]\nomega_a = 1\n[pulse]\nfamily = exponential\ndelta = 1\n"
         "[optimize]\nbudget = 10\n",
         r"^\[optimize\] missing required key 'parameters'$"),
        # every key is parsed, a bound of a parameter not searched too
        ("[system]\nomega_a = 1\n[pulse]\nfamily = exponential\ndelta = 1\n"
         "[optimize]\nparameters = detuning\ndetuning_lo = -1\n"
         "detuning_hi = 1\nlinewidth_lo = abc\n",
         "linewidth_lo = 'abc' is not a number"),
        ("[system]\nomega_a = 1\n[pulse]\nfamily = exponential\ndelta = 1\n"
         "[optimize]\nparameters = detuning\ndetuning_lo = -1\n"
         "detuning_hi = 1\nobjective = entropy\n", "objective must be"),
        ("[system]\nomega_a = 1\n[pulse]\nfamily = exponential\ndelta = 1\n"
         "[grid]\ndt = 0\n", "must both be positive"),
        ("[system]\nomega_a = 1\n[pulse]\nfamily = exponential\ndelta = 1\n"
         "[grid]\nt_max = -1\n", "must both be positive"),
    ])
    def test_configuration_errors(self, tmp_path, text, match):
        with pytest.raises(ConfigurationError, match=match):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("key", ["z_min", "z_max", "dz"])
    def test_spatial_window_keys_are_unknown(self, tmp_path, capsys, key):
        # a grid is (t_max, dt); the old spatial window keys are refused
        cfg = write(tmp_path, MINIMAL + f"[grid]\nt_max = 30\n{key} = 1\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"unknown key {key!r} in section [grid]" in \
            capsys.readouterr().err

    def test_domain_violations_use_model_errors(self, tmp_path):
        path = write(tmp_path, """
            [system]
            omega_a = 50.0
            gamma_a = -1.0
            [pulse]
            family = exponential
            delta = 1.0
        """)
        with pytest.raises(ParameterError):
            load_config(path)
        path2 = write(tmp_path, MINIMAL + "[mixture]\np_a0 = 1.5\n", "m.ini")
        with pytest.raises(ParameterError):
            load_config(path2)


class TestSections:
    def test_explicit_grid_round_trip(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL + """
            [grid]
            t_max = 20.0
            dt = 0.004
        """))
        assert cfg.grid == SimGrid(t_max=20.0, dt=0.004)
        assert cfg.make_grid() is cfg.grid

    def test_partial_grid_uses_auto(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL + "[grid]\nt_max = 30\n"))
        assert cfg.grid is not None
        assert cfg.grid.t_max == 30.0
        assert cfg.grid.dt == pytest.approx(
            0.005 / cfg.pulse.envelope.spectral_scale(), rel=1e-12)

    def test_auto_grid_when_absent(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        grid = cfg.make_grid()
        grid.validate(cfg.pulse)

    def test_bath_overrides(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL + """
            [bath]
            n_modes = 801
            bandwidth = 90.0
        """))
        assert cfg.bath.n_modes == 801
        assert cfg.bath.bandwidth == 90.0

    def test_sweep_and_optimize_parse(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL + """
            [sweep]
            parameter = detuning
            lo = -1.0
            hi = 1.0
            n_points = 11
            objective = w_over_hw

            [optimize]
            parameters = detuning, rate_ratio
            detuning_lo = -0.5
            detuning_hi = 0.5
            rate_ratio_lo = 0.25
            rate_ratio_hi = 4.0
            budget = 123
        """))
        assert cfg.sweep.n_points == 11
        assert cfg.sweep.objective == "w_over_hw"
        assert cfg.optimize.budget == 123
        assert cfg.optimize.bounds["rate_ratio"] == (0.25, 4.0)

    @pytest.mark.parametrize("section", ["grid", "sweep", "optimize"])
    def test_empty_optional_section_is_absent(self, tmp_path, section):
        cfg = load_config(write(tmp_path, MINIMAL + f"[{section}]\n"))
        assert getattr(cfg, section) is None

    def test_absent_optional_keys_take_the_library_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL + """
            [sweep]
            parameter = linewidth
            lo = 0.01
            hi = 4.0

            [optimize]
            parameters = detuning
            detuning_lo = -0.5
            detuning_hi = 0.5
        """))
        assert cfg.system == LambdaSystem(50.0)
        assert cfg.sweep == SweepSpec("linewidth", 0.01, 4.0)
        assert cfg.optimize == OptimizeSpec({"detuning": (-0.5, 0.5)})


def _numbers(obj):
    """Every float held by a loaded config (dataclasses, dicts, tuples)."""
    if isinstance(obj, float):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _numbers(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, tuple):
        for value in obj:
            yield from _numbers(value)


_VALUES = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e308", "-1e308", "1e-320",
                     "1e-9", "0", "-0.0", "", "1e400", "3", "-2"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.text(alphabet=string.ascii_letters + string.digits + ".-+e _,",
            max_size=10),
)


def _mutated(edits) -> str:
    """The shipped config with the given (line, value) edits."""
    lines = list(DEFAULT_LINES)
    for index, value in edits:
        key = lines[index].split("=", 1)[0]
        lines[index] = f"{key}= {value}"
    return "\n".join(lines) + "\n"


_EDITS = st.lists(st.tuples(st.sampled_from(VALUE_LINES), _VALUES),
                  min_size=1, max_size=3)

# the [sweep] n_points and [optimize] budget lines: a sweep or optimize
# example sets them small and mutates them only to small or malformed
# values, so that it runs a handful of trajectories
_COUNT_LINES = [i for i in VALUE_LINES
                if DEFAULT_LINES[i].split("=")[0].strip()
                in ("n_points", "budget")]
_SMALL_COUNTS = [(_COUNT_LINES[0], "3"), (_COUNT_LINES[1], "6")]
_SEARCH_EDITS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from([i for i in VALUE_LINES
                                   if i not in _COUNT_LINES]), _VALUES),
        st.tuples(st.sampled_from(_COUNT_LINES),
                  st.one_of(st.integers(-2, 6).map(str),
                            st.sampled_from(["", "nan", "1e308", "2.5",
                                             "x"])))),
    min_size=1, max_size=3)


class TestMutatedDefaultConfig:
    @settings(max_examples=300, deadline=None)
    @given(edits=_EDITS)
    # overflowing sums of finite values: Gamma (and the default bath
    # window 40 Gamma), and the carrier omega_a + delta_l
    @example(edits=[(VALUE_LINES[2], "1e308"), (VALUE_LINES[3], "1e308")])
    @example(edits=[(VALUE_LINES[0], "1e308"), (VALUE_LINES[6], "1e308")])
    def test_loads_finite_or_raises_package_error(self, edits):
        # load and grid level only: no example integrates a trajectory
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.ini"
            path.write_text(_mutated(edits))
            try:
                cfg = load_config(path)
            except LambdaAdaptError:
                return
        assert all(math.isfinite(x) for x in _numbers(cfg))
        try:
            grid = cfg.make_grid()
        except LambdaAdaptError:
            return
        assert all(math.isfinite(x) for x in _numbers(grid))

    # the whole command: main() answers with a contract exit code, never
    # raises and writes finite numbers only.  simulate and entropy-curve
    # only, and no trajectory
    # above 2e5 steps (refused with exit 2 instead), so every example
    # stays cheap; sweep, optimize and oracle-verify run many
    # trajectories or the 2001-mode oracle per config (oracle-verify has
    # its own property on smaller combs, in test_cli.py).
    @settings(max_examples=60, deadline=None)
    @given(edits=_EDITS, command=st.sampled_from(["simulate",
                                                  "entropy-curve"]))
    # a carrier detuning whose transient step count overflows to inf
    @example(edits=[(VALUE_LINES[6], "1e308")], command="simulate")
    def test_main_returns_an_exit_code(self, edits, command,
                                       strict_artifacts):
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as patch:
            for module in (model, dynamics):
                patch.setattr(module, "MAX_GRID_NODES", 200_000)
            path = Path(tmp) / "mutated.ini"
            path.write_text(_mutated(edits))
            rc = main([command, "--config", str(path),
                       "--out", str(Path(tmp) / "out")])
            strict_artifacts(Path(tmp) / "out")
        assert rc in (0, 2, 3, 4)

    # the same contract for sweep and optimize, from the shipped config
    # with a 3-point sweep and a budget of 6 evaluations
    @settings(max_examples=100, deadline=None)
    @given(edits=_SEARCH_EDITS, command=st.sampled_from(["sweep",
                                                         "optimize"]))
    def test_search_commands_return_an_exit_code(self, edits, command,
                                                 strict_artifacts):
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as patch:
            for module in (model, dynamics):
                patch.setattr(module, "MAX_GRID_NODES", 200_000)
            path = Path(tmp) / "mutated.ini"
            path.write_text(_mutated(_SMALL_COUNTS + edits))
            rc = main([command, "--config", str(path),
                       "--out", str(Path(tmp) / "out")])
            strict_artifacts(Path(tmp) / "out")
        assert rc in (0, 2, 3, 4)
