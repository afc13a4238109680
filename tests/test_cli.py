"""End-to-end runs of the command line entry point (in process)."""

import csv
import errno
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lambda_adapt import cli, oracle
from lambda_adapt.cli import _float_table, _json_text, main
from lambda_adapt.config import _WIDTH_KEY, load_config
from lambda_adapt.dynamics import asymptotic_prob_exponential, integrate_psi
from lambda_adapt.entropy import entropy_curve
from lambda_adapt.errors import NumericalConsistencyError
from lambda_adapt.model import LambdaSystem
from lambda_adapt.oracle import _folded_eigh

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_INI = ROOT / "configs" / "default.ini"

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


# the exact keys of the JSON artifacts: records are written with
# dataclasses.asdict, so a field added to one would show up here
RESONANT_LEDGER_KEYS = {"meta", "w_abs", "q_diss", "de_sys", "residual",
                        "w_over_hw", "p_ab_infty", "adaptation_residual"}
OFF_RESONANT_LEDGER_KEYS = {"meta", "w_over_hw", "p_ab_infty", "note"}
ORACLE_AGREEMENT_KEYS = {"passed", "deviations", "tolerances", "failures",
                         "norm_drift", "t_final", "n_modes", "bandwidth"}
OPTIMIZE_KEYS = {"meta", "params", "value", "converged", "boundary",
                 "n_evals"}


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
        assert set(ledger) == RESONANT_LEDGER_KEYS
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

    @pytest.mark.parametrize("points, rows", [("1", 2), ("2", 3)])
    def test_points_is_a_stride_bound(self, tmp_path, points, rows):
        # every k-th node, k the least stride giving at most N, plus the
        # last node when the stride misses it: up to N + 1 rows
        cfg = write(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--points", points]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) - 2 == rows

    def test_off_resonant_run_reports_flux_only(self, tmp_path):
        cfg = write(tmp_path, BASE.replace("delta = 1.0",
                                           "delta = 1.0\ndelta_l = 0.5"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        ledger = json.loads((out / "ledger.json").read_text())
        assert set(ledger) == OFF_RESONANT_LEDGER_KEYS

    def test_resonant_ledger_and_entropy_share_p_ab_infty(self, tmp_path):
        # both files hold p_ab(inf), which counts the decay of the p_e
        # still excited at t_max; the adaptation residual is then the
        # quadrature error alone
        cfg = write(tmp_path, BASE.replace("gamma_b = 1.0", "gamma_b = 1.6")
                    .replace("family = exponential\ndelta = 1.0",
                             "family = rectangular\ntau = 2.0"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        ledger = json.loads((out / "ledger.json").read_text())
        entropy = json.loads((out / "entropy.json").read_text())
        assert ledger["p_ab_infty"].hex() == entropy["p_ab_infty"].hex()
        assert abs(ledger["adaptation_residual"]) <= 1e-10

    @pytest.mark.parametrize("gamma_b, delta_l",
                             [(1.0, 0.3), (1.0, 1.0), (1.6, 0.3)])
    def test_detuned_entropy_matches_the_oracle(self, tmp_path, gamma_b,
                                                delta_l):
        # off resonance the asymptotic overlap has an imaginary part; the
        # oracle's s_e at T = 22.4, after the Gaussian has passed, on the
        # default comb
        cfg = write(tmp_path, f"""[system]
omega_a = 50.0
gamma_b = {gamma_b}

[pulse]
family = gaussian
sigma = 1.2
delta_l = {delta_l}

[mixture]
p_a0 = 0.5
""")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        s_e = json.loads((out / "entropy.json").read_text())["asymptotic"][
            "s_e"]
        run_cfg = load_config(cfg)
        system, pulse = run_cfg.system, run_cfg.pulse
        bath = oracle.DiscreteBath.default(system)
        amps = oracle.discretize_pulse(pulse, bath, system)
        run = oracle.evolve(oracle.build_hamiltonian(system, bath),
                            np.concatenate(([0.0], amps,
                                            np.zeros_like(amps))),
                            22.4, n_out=41)
        expected = oracle.Observables.from_run(run, system, run_cfg.mixture)
        assert abs(s_e - expected.spectrum.s_e[-1]) <= \
            oracle.DEFAULT_TOLERANCES["s_e"]

    def test_detuned_rows_are_the_rotating_frame_amplitude(self, tmp_path):
        # the stride rows of a detuned run carry psi~, the same doubles
        # the full-array property holds
        cfg = write(tmp_path, BASE.replace("delta = 1.0",
                                           "delta = 1.0\ndelta_l = 0.5"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        run_cfg = load_config(cfg)
        traj = integrate_psi(run_cfg.system, run_cfg.pulse,
                             run_cfg.make_grid())
        assert traj.delta_l != 0.0
        stride = read_meta(out / "trajectory.csv")["stride"]
        idx = np.arange(0, traj.times.size, stride)
        if idx[-1] != traj.times.size - 1:
            idx = np.append(idx, traj.times.size - 1)
        rows = (out / "trajectory.csv").read_text().splitlines()[2:]
        assert len(rows) == idx.size
        psi = traj.psi_nodes()
        for row, i in zip(rows, idx):
            fields = row.split(",")
            assert fields[1] == repr(float(psi.real[i]))
            assert fields[2] == repr(float(psi.imag[i]))

    @pytest.mark.parametrize("delta_l", [0.0, 0.5])
    @pytest.mark.parametrize("points, block", [
        # BASE's grid has 6001 nodes
        (None, 2000),   # stride 3: 2001 rows, the last block one row
        (None, 7),      # 285 full blocks and one of 6 rows
        (50, 10),       # stride 121, the last node appended as a block
        (50, 4),        # ... and inside a block of 3 rows
        (1, 1),         # the first node and the last
        (2, 2),         # nodes 0 and 3001, then the last in a block
    ])
    def test_blocks_join_into_the_whole_table(self, tmp_path, monkeypatch,
                                              delta_l, points, block):
        # the rows, formatted block by block (detuned psi~ included), are
        # the whole table's repr join
        monkeypatch.setattr(cli, "ROW_BLOCK", block)
        cfg = write(tmp_path, BASE.replace(
            "delta = 1.0", f"delta = 1.0\ndelta_l = {delta_l}"))
        out = tmp_path / "o"
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        assert main(argv + (["--points", str(points)] if points else [])) \
            == 0
        run_cfg = load_config(cfg)
        traj = integrate_psi(run_cfg.system, run_cfg.pulse,
                             run_cfg.make_grid())
        n = traj.times.size
        stride = -(-n // (points or 2001))
        idx = np.arange(0, n, stride)
        if idx[-1] != n - 1:
            idx = np.append(idx, n - 1)
        psi = traj.psi_nodes(idx)
        table = np.column_stack([traj.times[idx], psi.real, psi.imag,
                                 traj.p_e[idx], traj.p_ab[idx]])
        whole = "".join(",".join(map(repr, row)) + "\n"
                        for row in table.tolist())
        meta, header, body = (out / "trajectory.csv").read_text().split(
            "\n", 2)
        assert json.loads(meta[1:])["stride"] == stride
        assert header == "t,re_psi,im_psi,p_e,p_ab"
        assert body == whole

    def test_failed_block_leaves_no_file(self, tmp_path, monkeypatch):
        # the formatter fails at the second of two blocks, while
        # trajectory.csv.tmp is half written
        blocks = []
        whole = cli._float_table

        def fail_late(*columns):
            blocks.append(columns[0].size)
            if len(blocks) == 2:
                raise NumericalConsistencyError("second block")
            return whole(*columns)

        monkeypatch.setattr(cli, "_float_table", fail_late)
        monkeypatch.setattr(cli, "ROW_BLOCK", 1024)
        cfg = write(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(out)]) == 3
        assert blocks == [1024, 977]
        assert list(out.iterdir()) == []

    def test_memory_does_not_grow_with_points(self, tmp_path):
        # the rows are picked, formatted and written a block at a time, so
        # 1e5 rows (stride 2) of a 2e5-node grid peak where 2e3 rows do, at
        # about 11.7 MB: the trajectory (8 MB) and the drive-overlap series
        # (3.2 MB), every other pass over them working in pieces.  The
        # whole table and its text would add 17 MB
        cfg = write(tmp_path, BASE + "\n[grid]\nt_max = 40.0\ndt = 0.0002\n")

        def peak(points):
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", str(cfg),
                             "--out", str(tmp_path / str(points)),
                             "--points", str(points)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2_000)     # builds the formatter's tables
        small, large = peak(2_000), peak(200_000)
        table = tmp_path / "200000" / "trajectory.csv"
        rows = len(table.read_text().splitlines()) - 2
        assert rows == 100_001
        block_text = table.stat().st_size * cli.ROW_BLOCK // rows
        assert large <= small + block_text

    def test_memory_grows_by_the_trajectory_alone(self, tmp_path):
        # what simulate must hold grows by 56 B a node: the trajectory's
        # 40 (times, psi^, p_e, p_ab) and the drive-overlap series' 16.
        # The drive, the step terms, p_e' and both quadratures work in
        # pieces of a stretch, whose temporaries do not grow with it
        def peak(dt):
            grid = f"\n[grid]\nt_max = 40.0\ndt = {dt}\n"
            cfg = write(tmp_path, BASE + grid, name=f"{dt}.ini")
            c = load_config(cfg)
            nodes = integrate_psi(c.system, c.pulse, c.make_grid()).times.size
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", str(cfg),
                             "--out", str(tmp_path / str(dt))]) == 0
                return nodes, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(0.002)     # builds the formatter's tables
        (n_small, small), (n_large, large) = peak(0.002), peak(0.0002)
        assert (n_small, n_large) == (20_001, 200_001)
        assert large - small <= 56 * (n_large - n_small) + 2 ** 20

    def test_float_table_matches_per_value_formatting(self):
        columns = [np.array([0.0, -0.0, 1.0, -3.0, 1e300]),
                   np.array([5e-324, -2.2250738585072014e-308, 0.1,
                             123456789.0, -1.7976931348623157e308]),
                   np.array([1e-17, 2.0 ** 53, -1.5, 1e16,
                             0.30000000000000004])]
        per_value = [",".join(repr(float(v)) for v in row)
                     for row in zip(*columns)]
        assert "".join(_float_table(*columns)) == "\n".join(per_value) + "\n"

    def test_csv_floats_read_back_exactly(self, tmp_path):
        # every field is the shortest repr of a double: float() gives
        # that double back and its repr is the field, byte for byte
        cfg = write(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["entropy-curve", "--config", str(cfg),
                     "--out", str(out)]) == 0
        for name in ("trajectory.csv", "entropy_curve.csv"):
            text = (out / name).read_text()
            meta, header, *rows = text.split("\n")[:-1]
            assert all(row.count(",") == header.count(",") for row in rows)
            again = [",".join(repr(float(f)) for f in row.split(","))
                     for row in rows]
            assert "\n".join([meta, header, *again, ""]) == text

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

    # a config refused before it is parsed, or by configparser, whose own
    # messages quote the offending lines on lines of their own: one
    # stderr line each, and no output directory, which is made only once
    # there is an artifact to write
    @pytest.mark.parametrize("data, needle", [
        (b"\xff\xfe[system]\n", "not UTF-8"),
        (BASE.replace("omega_a = 50.0", "omega_a = 50.0  # caf\u00e9")
         .encode("latin-1"), "not UTF-8"),
        (None, "cannot read config"),
        ((BASE + "p_a0 = 0.3\n").encode(), "already exists"),
        (("omega_a = 50.0\n" + BASE).encode(), "no section headers"),
        ((BASE + "[grid]\nt_max\n").encode(), "parsing errors"),
    ], ids=["utf16_bom", "latin1_comment", "missing", "duplicate_key",
            "no_section_header", "bare_key"])
    def test_undecodable_config_is_config_error(self, tmp_path, capsys,
                                                data, needle):
        cfg = tmp_path / "run.ini"
        if data is not None:
            cfg.write_bytes(data)
        out = tmp_path / "o" / "deeper"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err
        assert not (tmp_path / "o").exists()

    def test_out_below_a_regular_file_is_io_error(self, tmp_path, capsys):
        cfg = write(tmp_path, BASE)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(blocker / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("i/o error:")

    def test_failed_write_leaves_no_artifact(self, tmp_path, capsys,
                                             monkeypatch):
        # the disk fills up at the second of simulate's three artifacts:
        # the first, already written, is not renamed into place either
        opened = Path.open

        def full(path, *args, **kwargs):
            if path.name == "ledger.json.tmp":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                              str(path))
            return opened(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", full)
        cfg = write(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("i/o error:")
        assert list(out.iterdir()) == []

    def test_config_with_a_byte_order_mark_runs(self, tmp_path):
        # as some editors save UTF-8: every artifact equals the plain
        # file's but for the config's hash, which stays its bytes' digest
        data = DEFAULT_INI.read_bytes()
        digests = {}
        for name, raw in (("plain", data), ("bom", b"\xef\xbb\xbf" + data)):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_bytes(raw)
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
            digests[name] = hashlib.sha256(raw).hexdigest()
        files = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "bom").iterdir())
        for f in files:
            plain = (tmp_path / "plain" / f).read_text()
            bom = (tmp_path / "bom" / f).read_text()
            assert digests["plain"] in plain and digests["bom"] in bom
            assert bom == plain.replace(digests["plain"], digests["bom"])

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
        ("family = exponential\ndelta = 1.0", "family = rectangular\ntau = 0"),
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

    # a point count above MAX_GRID_NODES is refused before numpy is asked
    # for a grid of terabytes
    @pytest.mark.parametrize("command, points, n_points", [
        ("entropy-curve", "1000000000000", None),
        ("sweep", "1000000000000", None),
        ("sweep", None, "1000000000000"),
    ], ids=["entropy_curve_points", "sweep_points", "sweep_n_points"])
    def test_oversized_point_count_is_config_error(self, tmp_path, capsys,
                                                   command, points,
                                                   n_points):
        text = EVERY_SECTION
        if n_points is not None:
            text = text.replace("hi = 2.0\n",
                                f"hi = 2.0\nn_points = {n_points}\n")
        argv = [command, "--config", str(write(tmp_path, text)),
                "--out", str(tmp_path / "o")]
        if points is not None:
            argv += ["--points", points]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "1000000000000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sigma", ["2e153", "6e153", "1e154", "1e160"])
    def test_overwide_gaussian_is_config_error(self, tmp_path, capsys,
                                               sigma):
        # (8 c sigma)^2, the square of the peak's reach, overflows there:
        # from 1.7e153 an overflow warning, from 6.7e153 (where 4 (c
        # sigma)^2 overflows) an envelope of nan
        cfg = write(tmp_path, BASE.replace(
            "family = exponential\ndelta = 1.0",
            f"family = gaussian\nsigma = {sigma}"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert "sigma" in capsys.readouterr().err

    def test_ideal_wide_gaussian_clamps_its_spectrum(self, tmp_path):
        # p_ab(inf) of the ideal regime exceeds its maximum 1 by a rounding
        # excess (2.1e-12); the asymptotic spectrum takes the maximum, the
        # artifacts the raw value
        cfg = write(tmp_path, BASE.replace(
            "family = exponential\ndelta = 1.0",
            "family = gaussian\nsigma = 1e20"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        entropy = json.loads((out / "entropy.json").read_text())
        ledger = json.loads((out / "ledger.json").read_text())
        assert entropy["p_ab_infty"] == ledger["p_ab_infty"] > 1.0
        spectrum = entropy["asymptotic"]
        assert spectrum["n_b"] == 1.0 and spectrum["n_a"] == 0.0
        assert all(np.isfinite(v) for v in spectrum["lambdas"])
        assert spectrum["s_e"] == pytest.approx(np.log(2.0), rel=1e-12)

    def test_ideal_wide_gaussian_writes_a_positive_zero(self, tmp_path):
        # a pure spectrum has entropy +0.0, never -0.0
        cfg = write(tmp_path, BASE.replace(
            "family = exponential\ndelta = 1.0",
            "family = gaussian\nsigma = 1e20"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        text = (out / "entropy.json").read_text()
        assert '"s_q": 0.0\n' in text
        assert not np.signbit(json.loads(text)["asymptotic"]["s_q"])

    def test_sweep_without_section_is_config_error(self, tmp_path):
        cfg = write(tmp_path, BASE)
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @staticmethod
    def overflowing_simulate(tmp_path, capsys, text):
        """Run simulate on ``text``: exit 3 with one line on stderr, no
        warning and no artifact."""
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(write(tmp_path, text)),
                         "--out", str(out)]) == 3
        assert not [w for w in caught if issubclass(w.category,
                                                    RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("numerical consistency failure: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_nan_ledger_is_numerical_error(self, tmp_path, capsys):
        # gamma_a = 1e300 overflows the work quadrature (to NaN, outside
        # the CLI): the command stops at the overflow
        self.overflowing_simulate(tmp_path, capsys, DEFAULT_INI.read_text()
                                  .replace("gamma_a = 1.0", "gamma_a = 1e300"))

    def test_non_finite_json_is_numerical_error(self, tmp_path, capsys):
        # off resonance no ledger check runs; the flux that overflows to
        # NaN outside the CLI stops the command before ledger.json's text
        self.overflowing_simulate(
            tmp_path, capsys, DEFAULT_INI.read_text()
            .replace("gamma_a = 1.0", "gamma_a = 1e300")
            .replace("delta_l = 0.0", "delta_l = 0.4"))

    def test_json_text_names_a_non_finite_artifact(self):
        # the refusal behind every JSON artifact, which an overflowing
        # run no longer reaches through main
        with pytest.raises(NumericalConsistencyError, match="ledger.json"):
            _json_text("ledger.json", {"w_over_hw": float("nan")})

    @pytest.mark.parametrize("command, edit", [
        # the work quadrature overflows before trajectory.csv's rows are
        # formatted, on resonance and off it
        ("simulate", {}),
        ("simulate", {"delta_l = 0.0": "delta_l = 0.4"}),
        # p_ab(inf) of 5e270 at the first evaluation
        ("optimize", {"budget = 500": "budget = 8"}),
    ])
    def test_failed_command_writes_no_artifact(self, tmp_path, command,
                                               edit):
        text = DEFAULT_INI.read_text()
        for old, new in {"gamma_a = 1.0": "gamma_a = 1e300", **edit}.items():
            text = text.replace(old, new)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main([command, "--config", str(write(tmp_path, text)),
                         "--out", str(out)]) == 3
        assert not out.exists()

    def test_oversized_bath_is_config_error(self, tmp_path, capsys):
        # 301 snapshots of 1 + 2 * 33223 amplitudes, 20000547 in all, just
        # over MAX_GRID_NODES: refused before the comb is projected
        cfg = write(tmp_path, BASE + "\n[bath]\nn_modes = 33223\n")
        assert main(["oracle-verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "20000547" in err and "MAX_GRID_NODES" in err
        assert "Traceback" not in err


class TestParser:
    def test_one_parser_serves_every_command(self, tmp_path):
        cfg = str(write(tmp_path, BASE))
        argvs = [["simulate", "--config", cfg, "--out", str(tmp_path / "s")],
                 ["entropy-curve", "--config", cfg,
                  "--out", str(tmp_path / "e")],
                 ["simulate", "--config", cfg, "--out", str(tmp_path / "p"),
                  "--points", "0"],
                 ["--version"]]

        def exit_code(argv):
            try:
                return main(argv)
            except SystemExit as exc:
                return exc.code

        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(exit_code(argv))
        cli.build_parser.cache_clear()
        shared = [exit_code(argv) for argv in argvs]
        assert shared == fresh == [0, 0, 2, 0]
        assert cli.build_parser.cache_info().misses == 1


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

    def test_overflowing_span_is_refused(self, tmp_path):
        # finite bounds whose difference overflows: np.linspace would
        # give the grid [nan, inf, 1e308]
        cfg = write(tmp_path, BASE + """
[sweep]
parameter = detuning
lo = -1e308
hi = 1e308
n_points = 3
""")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "sweep.csv").exists()

    def test_error_with_commas_stays_in_its_field(self, tmp_path):
        # carriers at or below 0 fail with "... positive and finite, got
        # -1.0": the field is quoted, and the rows without an error are
        # not
        cfg = write(tmp_path, BASE.replace("omega_a = 50.0", "omega_a = 1.0")
                    + """
[sweep]
parameter = detuning
lo = -2.0
hi = 2.0
""")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        header, *rows = csv.reader(lines)
        assert header == ["value", "family", "objective", "error"]
        assert len(rows) == 21
        assert all(len(row) == 4 for row in rows)
        failed = [row for row in rows if row[3]]
        assert failed and all("," in row[3] and row[2] == "nan"
                              for row in failed)
        assert all(line.count(",") == 3 and '"' not in line
                   for line, row in zip(lines[1:], rows) if not row[3])

    @pytest.mark.parametrize("gamma_b, delta_l", [("1.0", "0.0"),
                                                  ("1.6", "0.3")],
                             ids=["resonant", "detuned"])
    @pytest.mark.parametrize("pulse", [
        "family = gaussian\nsigma = 1.2", "family = exponential\ndelta = 0.5",
        "family = rectangular\ntau = 2.0"],
        ids=["gaussian", "exponential", "rectangular"])
    def test_objective_is_what_simulate_writes(self, tmp_path, pulse,
                                               gamma_b, delta_l):
        # a detuning sweep from the config's delta_l starts at the
        # config's own drive, and no [grid] puts simulate on the grid the
        # objective runs: the first row holds simulate's numbers, bit for
        # bit (on resonance the ledger's w_over_hw is W / omega_a, which
        # can round apart from the objective's flux)
        text = (BASE.replace("gamma_b = 1.0", f"gamma_b = {gamma_b}")
                .replace("family = exponential\ndelta = 1.0",
                         f"{pulse}\ndelta_l = {delta_l}"))
        cfg = write(tmp_path, text)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "sim")]) == 0
        ledger = json.loads((tmp_path / "sim" / "ledger.json").read_text())
        entropy = json.loads((tmp_path / "sim" / "entropy.json").read_text())
        assert ledger["p_ab_infty"] == entropy["p_ab_infty"]
        objectives = ["p_ab_infty"] + ["w_over_hw"] * (delta_l != "0.0")
        for objective in objectives:
            cfg = write(tmp_path, text + f"""
[sweep]
parameter = detuning
lo = {delta_l}
hi = 1.0
n_points = 3
objective = {objective}
""", name=f"{objective}.ini")
            out = tmp_path / objective
            assert main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--points", "3"]) == 0
            row = (out / "sweep.csv").read_text().splitlines()[2]
            value, _, got, error = next(csv.reader([row]))
            assert (float(value), error) == (float(delta_l), "")
            assert float(got) == ledger[objective]


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
        assert set(doc) == OPTIMIZE_KEYS
        assert doc["converged"] is True
        assert abs(doc["params"]["detuning"]) < 1e-2
        trace_lines = (out / "trace.jsonl").read_text().splitlines()
        assert len(trace_lines) == doc["n_evals"]
        assert all("params" in json.loads(line) for line in trace_lines)

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_is_config_error(self, tmp_path, capsys,
                                              budget):
        cfg = write(tmp_path, EVERY_SECTION.replace("budget = 60",
                                                    f"budget = {budget}"))
        out = tmp_path / "o"
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "budget" in capsys.readouterr().err
        assert not (out / "optimize.json").exists()

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

    def test_blocks_join_into_the_one_pass_table(self, tmp_path):
        # three blocks of points, the last one short
        cfg = write(tmp_path, BASE)
        n = 2 * cli.ROW_BLOCK + 5
        out = tmp_path / "o"
        assert main(["entropy-curve", "--config", str(cfg),
                     "--out", str(out), "--points", str(n)]) == 0
        c = load_config(cfg)
        curve = entropy_curve(c.system, c.mixture, n_points=n)
        body = (out / "entropy_curve.csv").read_text().split("\n", 2)[2]
        assert body == "".join(_float_table(curve.n_b, curve.s_e, curve.s_e_c))

    def test_failed_block_leaves_no_file(self, tmp_path, monkeypatch):
        whole = cli.entropy_curve

        def fail_late(system, mixture, n_points, start, stop):
            if start > 0:
                raise NumericalConsistencyError("second block")
            return whole(system, mixture, n_points, start, stop)

        monkeypatch.setattr(cli, "entropy_curve", fail_late)
        cfg = write(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["entropy-curve", "--config", str(cfg), "--out",
                     str(out), "--points", str(cli.ROW_BLOCK + 1)]) == 3
        assert list(out.iterdir()) == []

    def test_memory_does_not_grow_with_points(self, tmp_path):
        # the curve is computed, formatted and written a block at a time,
        # so the peak (about 1.5 MB) moves only with the length of a
        # block's text, which the digits of its values set (+2 % at 2e5
        # points); one more column of 1.8e5 doubles would add 1.4 MB
        cfg = write(tmp_path, BASE)

        def peak(points):
            tracemalloc.start()
            try:
                assert main(["entropy-curve", "--config", str(cfg),
                             "--out", str(tmp_path / str(points)),
                             "--points", str(points)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20_000)    # builds the formatter's tables
        assert peak(200_000) <= peak(20_000) + 2 ** 16


def json_numbers(doc):
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in json_numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in json_numbers(v)]
    return [doc] if isinstance(doc, float) else []


class TestNoNegativeZero:
    def test_ground_state_in_b(self, tmp_path):
        # p_a0 = 0: every entropy of the curve and of the asymptotic
        # spectrum is that of a pure state, and is written as 0.0
        cfg = write(tmp_path, BASE.replace("p_a0 = 0.5", "p_a0 = 0"))
        out = tmp_path / "o"
        for command in ("entropy-curve", "simulate"):
            assert main([command, "--config", str(cfg),
                         "--out", str(out)]) == 0
        rows = (out / "entropy_curve.csv").read_text().splitlines()[2:]
        curve = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert not np.any(curve[:, 1:])
        assert not np.any(np.signbit(curve))
        values = json_numbers(json.loads((out / "entropy.json").read_text()))
        assert not any(v == 0.0 and np.signbit(v) for v in values)


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
        agreement = doc["checks"]["oracle_agreement"]
        assert set(agreement) == ORACLE_AGREEMENT_KEYS
        assert set(agreement["deviations"]) == \
            set(agreement["tolerances"]) == set(oracle.DEFAULT_TOLERANCES)

    def test_ledger_failure_fails_the_command(self, tmp_path, capsys,
                                              monkeypatch):
        # a ledger that raises is recorded as a failed check, with no
        # adaptation check, and the command exits 4
        def refuse(*args):
            raise NumericalConsistencyError("trajectory not converged")

        monkeypatch.setattr(cli, "energy_ledger", refuse)
        cfg = write(tmp_path, SMALL_BATH)
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(cfg),
                     "--out", str(out)]) == 4
        assert "energy_ledger: FAIL" in capsys.readouterr().out
        doc = json.loads((out / "verify.json").read_text())
        assert doc["passed"] is False
        assert doc["checks"]["energy_ledger"] == {
            "passed": False, "error": "trajectory not converged"}
        assert "adaptation_work" not in doc["checks"]

    def test_norm_drift_is_numerical_failure(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr(oracle, "DRIFT_TOL", -1.0)
        cfg = write(tmp_path, SMALL_BATH)
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(cfg),
                     "--out", str(out)]) == 3
        assert "norm drift" in capsys.readouterr().err
        assert not (out / "verify.json").exists()

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
            _folded_eigh.cache_clear()
            assert main(["oracle-verify", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert (out1 / "verify.json").read_bytes() == \
            (out2 / "verify.json").read_bytes()

    def test_blas_thread_count_moves_only_the_last_digits(self, tmp_path):
        # the oracle's BLAS products sum in an order that depends on the
        # thread count, so the bits of verify.json do too; every number
        # agrees to 1e-12 relative (1e-14 absolute for residues near 0)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        docs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from lambda_adapt.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "oracle-verify", "--config", str(DEFAULT_INI),
                 "--out", str(out)],
                env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True,
                capture_output=True)
            docs.append(json.loads((out / "verify.json").read_text()))

        def numbers(doc, path=""):
            if isinstance(doc, dict):
                for key, value in doc.items():
                    yield from numbers(value, f"{path}/{key}")
            elif isinstance(doc, list):
                for i, value in enumerate(doc):
                    yield from numbers(value, f"{path}/{i}")
            elif isinstance(doc, (int, float)) and \
                    not isinstance(doc, bool):
                yield path, doc

        one, two = (dict(numbers(doc)) for doc in docs)
        assert one.keys() == two.keys()
        assert one
        for key, a in one.items():
            b = two[key]
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)) + 1e-14, key

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

    # linewidth 1e-9 on the default comb samples 2.5e7 of the pulse's
    # weight, 0.05 on 801 modes 1.52: the comb aliases both pulses
    @pytest.mark.parametrize("edit", [
        "delta = 1e-9", "delta = 0.05\n[bath]\nn_modes = 801"],
        ids=["default_comb", "801_modes"])
    def test_narrowband_projection_is_config_error(self, tmp_path, capsys,
                                                   edit):
        cfg = write(tmp_path, BASE.replace("delta = 1.0", edit))
        assert main(["oracle-verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "aliases onto its copy" in err
        assert "Traceback" not in err

    # main() answers any oracle-verify config with a contract exit code,
    # never raises and writes finite numbers only: widths from 1e-9 to
    # 1e-2 (narrowband pulses alias, short ones overflow the window) or
    # 0.1 to 10, combs too coarse for check_against (101 and 401 modes
    # over 40 Gamma) and the 801-mode one, detuned and shifted lines.  No
    # comb above 801 modes, so every example is cheap.
    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(["exponential", "gaussian", "rectangular"]),
           log_width=st.one_of(st.floats(-9.0, -2.0), st.floats(-1.0, 1.0)),
           n_modes=st.sampled_from([101, 401, 801]),
           delta_l=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
           delta_ab=st.sampled_from([0.0, 0.2, -1.5]))
    def test_main_returns_an_exit_code(self, family, log_width, n_modes,
                                       delta_l, delta_ab, strict_artifacts):
        text = f"""[system]
omega_a = 50.0
delta_ab = {delta_ab!r}

[pulse]
family = {family}
{_WIDTH_KEY[family]} = {10.0 ** log_width!r}
delta_l = {delta_l!r}

[mixture]
p_a0 = 0.5

[bath]
n_modes = {n_modes}
"""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(text)
            rc = main(["oracle-verify", "--config", str(path),
                       "--out", str(Path(tmp) / "out")])
            strict_artifacts(Path(tmp) / "out")
        event(f"exit {rc}")
        assert rc in (0, 2, 3, 4)
