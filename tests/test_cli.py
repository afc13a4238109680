"""End-to-end runs of the command line entry point (in process)."""

import hashlib
import json

import numpy as np
import pytest

from lambda_adapt import cli, oracle
from lambda_adapt.cli import _float_lines, _fmt, main
from lambda_adapt.dynamics import asymptotic_prob_exponential
from lambda_adapt.model import LambdaSystem
from lambda_adapt.oracle import _arrowhead_eigh

BASE = """[system]
omega_a = 50.0
gamma_a = 1.0
gamma_b = 1.0

[pulse]
family = exponential
delta = 1.0

[mixture]
p_a0 = 0.5
"""


# a config every subcommand can run
EVERY_SECTION = BASE + """
[bath]
n_modes = 801

[sweep]
parameter = linewidth
lo = 0.5
hi = 2.0

[optimize]
parameters = detuning
detuning_lo = -1.0
detuning_hi = 1.0
budget = 60
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_meta(path):
    first = path.read_text().splitlines()[0]
    assert first.startswith("#")
    return json.loads(first[1:])


class TestSimulate:
    def test_artifacts_and_exit_code(self, tmp_path):
        cfg = write(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "entropy.json", "ledger.json", "trajectory.csv"]

        meta = read_meta(out / "trajectory.csv")
        assert meta["command"] == "simulate"
        assert meta["config_sha256"] == \
            hashlib.sha256(cfg.read_bytes()).hexdigest()

        ledger = json.loads((out / "ledger.json").read_text())
        assert abs(ledger["residual"]) <= 1e-8 * 50.0
        assert abs(ledger["adaptation_residual"]) <= 1e-6
        assert ledger["w_over_hw"] == pytest.approx(4.0 / 3.0, abs=1e-4)

        entropy = json.loads((out / "entropy.json").read_text())
        assert 0.0 < entropy["asymptotic"]["s_e"] < 2.0

    def test_points_caps_table_rows(self, tmp_path):
        cfg = write(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--points", "50"]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        n_rows = len(lines) - 2  # metadata + header
        assert n_rows <= 51
        header = lines[1].split(",")
        assert header == ["t", "re_psi", "im_psi", "p_e", "p_ab"]

    def test_off_resonant_run_reports_flux_only(self, tmp_path):
        cfg = write(tmp_path, BASE.replace("delta = 1.0",
                                           "delta = 1.0\ndelta_l = 0.5"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        ledger = json.loads((out / "ledger.json").read_text())
        assert "note" in ledger
        assert "w_abs" not in ledger

    def test_float_table_matches_per_value_formatting(self):
        columns = [np.array([0.0, -0.0, 1.0, -3.0, 1e300]),
                   np.array([5e-324, -2.2250738585072014e-308, 0.1,
                             123456789.0, -1.7976931348623157e308]),
                   np.array([1e-17, 2.0 ** 53, -1.5, 1e16,
                             0.30000000000000004])]
        per_value = [",".join(_fmt(v) for v in row) for row in zip(*columns)]
        assert _float_lines(*columns) == per_value

    def test_reruns_are_bit_identical(self, tmp_path):
        cfg = write(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        for name in ("trajectory.csv", "ledger.json", "entropy.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("linewidth", [1e-9, 1e-7, 1e-3])
    def test_narrowband_runs_on_the_default_grid(self, tmp_path, linewidth):
        # the default grid steps at 0.005 / linewidth; only integrate_psi
        # resolves the Gamma = 5 transient
        text = BASE.replace("gamma_b = 1.0", "gamma_b = 4.0").replace(
            "delta = 1.0", f"delta = {linewidth!r}")
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(write(tmp_path, text)),
                     "--out", str(out)])
        # at linewidth 1e-9 the e^{-30} remnant of the transient, times
        # the end correction of a 5e6 step, sits at the ledger bound: a
        # refusal is allowed there, a wrong number is not
        assert code == 0 or (linewidth == 1e-9 and code == 3)
        if code == 3:
            return
        ledger = json.loads((out / "ledger.json").read_text())
        assert abs(ledger["residual"]) <= 1e-8 * max(abs(ledger["w_abs"]),
                                                     50.0)
        system = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=4.0)
        assert ledger["p_ab_infty"] == pytest.approx(
            asymptotic_prob_exponential(system, linewidth), abs=1e-6)


class TestExitCodes:
    def test_bad_mixture_is_config_error(self, tmp_path):
        cfg = write(tmp_path, BASE.replace("p_a0 = 0.5", "p_a0 = 1.5"))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write(tmp_path, BASE + "\n[system]\n", name="dup.ini")
        # duplicate section: configparser refuses, mapped to exit 2
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        cfg2 = write(tmp_path, BASE + "\n[laser]\npower = 1\n", name="u.ini")
        assert main(["simulate", "--config", str(cfg2),
                     "--out", str(tmp_path / "o2")]) == 2

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unconverged_run_is_numerical_error(self, tmp_path):
        # the pulse is still transferring population at t_max = 3, which
        # no quadrature can make up for: the ledger refuses the run
        text = """[system]
omega_a = 1.0

[pulse]
family = exponential
delta = 1.0

[grid]
t_max = 3.0
dt = 0.005
"""
        cfg = write(tmp_path, text)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3

    def test_coarse_grid_closes_the_ledger(self, tmp_path):
        # omega_a ~ 1 keeps the bound tight; the fourth-order quadratures
        # close the 1e-8 ledger at dt = 0.005 over the whole run (a
        # trapezoid ledger failed here)
        text = """[system]
omega_a = 1.0

[pulse]
family = exponential
delta = 1.0

[grid]
t_max = 30.0
dt = 0.005
"""
        cfg = write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        ledger = json.loads((out / "ledger.json").read_text())
        assert abs(ledger["residual"]) <= 1e-8 * max(abs(ledger["w_abs"]),
                                                     1.0)

    @pytest.mark.parametrize("old, new", [
        ("omega_a = 50.0", "omega_a = inf"),
        ("gamma_b = 1.0", "gamma_b = 1.0\ndelta_ab = nan"),
        # transient windows of ~3e10 steps at 0.01 / |delta_L|, refused
        # before anything is allocated
        ("delta = 1.0", "delta = 1.0\ndelta_l = 1e7"),
    ])
    def test_unusable_numbers_are_config_errors(self, tmp_path, old, new):
        cfg = write(tmp_path, BASE.replace(old, new))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("points", ["0", "-5"])
    @pytest.mark.parametrize("command", ["simulate", "sweep", "optimize",
                                         "entropy-curve", "figure2",
                                         "oracle-verify"])
    def test_points_below_one_is_config_error(self, tmp_path, capsys,
                                              command, points):
        cfg = write(tmp_path, EVERY_SECTION)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--points", points]) == 2
        assert "--points" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_without_section_is_config_error(self, tmp_path):
        cfg = write(tmp_path, BASE)
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


class TestSweepCommand:
    def test_rows_and_override(self, tmp_path):
        cfg = write(tmp_path, BASE + """
[sweep]
parameter = linewidth
lo = 0.5
hi = 2.0
n_points = 21
""")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--points", "5"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1] == "value,family,objective,error"
        assert len(lines) == 2 + 5
        meta = read_meta(out / "sweep.csv")
        assert meta["n_points"] == 5
        assert meta["parameter"] == "linewidth"


class TestOptimizeCommand:
    def test_artifacts(self, tmp_path):
        cfg = write(tmp_path, BASE + """
[optimize]
parameters = detuning
detuning_lo = -1.0
detuning_hi = 1.0
budget = 60
""")
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "optimize.json").read_text())
        assert doc["converged"] is True
        assert abs(doc["params"]["detuning"]) < 1e-2
        trace_lines = (out / "trace.jsonl").read_text().splitlines()
        assert len(trace_lines) == doc["n_evals"]
        assert all("params" in json.loads(line) for line in trace_lines)

    def test_missing_section_is_config_error(self, tmp_path):
        cfg = write(tmp_path, BASE)
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


class TestEntropyCurveCommand:
    def test_points_and_alias(self, tmp_path):
        cfg = write(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["entropy-curve", "--config", str(cfg),
                     "--out", str(out1), "--points", "2"]) == 0
        lines = (out1 / "entropy_curve.csv").read_text().splitlines()
        assert lines[1] == "p_ab_infty,s_e,s_e_c"
        assert len(lines) == 2 + 2
        assert main(["figure2", "--config", str(cfg),
                     "--out", str(out2), "--points", "2"]) == 0
        assert (out1 / "entropy_curve.csv").read_bytes() == \
            (out2 / "entropy_curve.csv").read_bytes()


SMALL_BATH = """[system]
omega_a = 50.0

[pulse]
family = gaussian
sigma = 1.2

[mixture]
p_a0 = 0.5

[bath]
n_modes = 801
"""


class TestOracleVerifyCommand:
    def test_passes_on_small_bath(self, tmp_path, capsys):
        cfg = write(tmp_path, SMALL_BATH)
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(cfg),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "oracle_agreement: pass" in captured
        assert "backward_leak: pass" in captured
        assert "adaptation_work: pass" in captured
        doc = json.loads((out / "verify.json").read_text())
        assert doc["passed"] is True
        assert doc["checks"]["backward_leak"]["leak"] <= 1e-12
        assert doc["checks"]["backward_leak"]["norm_drift"] <= 1e-12

    def test_projects_the_pulse_once(self, tmp_path, monkeypatch):
        calls = []
        project = oracle.discretize_pulse

        def counted(*args, **kwargs):
            calls.append(args)
            return project(*args, **kwargs)

        monkeypatch.setattr(oracle, "discretize_pulse", counted)
        monkeypatch.setattr(cli, "discretize_pulse", counted, raising=False)
        cfg = write(tmp_path, SMALL_BATH)
        assert main(["oracle-verify", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_reruns_are_bit_identical(self, tmp_path):
        cfg = write(tmp_path, SMALL_BATH)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            # drop the cached comb decomposition so the rerun recomputes it
            _arrowhead_eigh.cache_clear()
            assert main(["oracle-verify", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert (out1 / "verify.json").read_bytes() == \
            (out2 / "verify.json").read_bytes()

    def test_coarse_bath_is_config_error(self, tmp_path):
        cfg = write(tmp_path, """[system]
omega_a = 50.0

[pulse]
family = gaussian
sigma = 1.2

[bath]
n_modes = 101
""")
        assert main(["oracle-verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_narrowband_projection_is_config_error(self, tmp_path, capsys):
        # the z-grid would take 8.7e13 samples; refused, not allocated
        cfg = write(tmp_path, BASE.replace("delta = 1.0", "delta = 1e-9"))
        assert main(["oracle-verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "MAX_GRID_NODES" in err
        assert "Traceback" not in err
