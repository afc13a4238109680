"""tools/artifact_diff.py on two small artifact trees."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "artifact_diff.py"
_SPEC = importlib.util.spec_from_file_location("artifact_diff", _PATH)
artifact_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_diff)

LEDGER = {"meta": {"command": "simulate"}, "p_ab_infty": 0.25,
          "w_over_hw": 0.5, "note": "off-resonant drive"}
TABLE = '#{"command": "simulate"}\nt,re_psi\n0.0,0.0\n0.5,-0.125\n'
TRACE = '{"f": 0.5, "x": [1.0, 2.0]}\n{"f": 0.75, "x": [1.5, 2.0]}\n'


def tree(root: Path, ledger=LEDGER, table=TABLE, trace=TRACE,
         extra=None) -> Path:
    for run in ("a", "b"):
        out = root / run
        out.mkdir(parents=True)
        (out / "ledger.json").write_text(json.dumps(ledger, indent=2) + "\n")
        (out / "trajectory.csv").write_text(table)
        (out / "trace.jsonl").write_text(trace)
    for name, text in (extra or {}).items():
        (root / name).write_text(text)
    return root


def diff(tmp_path, capsys, *options, **side_b):
    a = tree(tmp_path / "A")
    b = tree(tmp_path / "B", **side_b)
    code = artifact_diff.main([str(a), str(b), *options])
    return code, capsys.readouterr().out


def test_identical_trees(tmp_path, capsys):
    code, out = diff(tmp_path, capsys)
    assert code == 0
    assert out.splitlines() == ["ledger.json: 2 identical, 0 differ",
                                "trace.jsonl: 2 identical, 0 differ",
                                "trajectory.csv: 2 identical, 0 differ"]


def test_numeric_differences_are_measured(tmp_path, capsys):
    ledger = dict(LEDGER, w_over_hw=0.5 * (1 + 2.0 ** -52))
    code, out = diff(tmp_path, capsys, ledger=ledger,
                     table=TABLE.replace("-0.125", "-0.25"),
                     trace=TRACE.replace("1.5", "1.8"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("ledger.json: 0 identical, 2 differ, largest "
                        "relative difference 2.22e-16 (a/ledger.json: "
                        "w_over_hw)")
    assert lines[1] == ("trace.jsonl: 0 identical, 2 differ, largest "
                        "relative difference 0.167 (a/trace.jsonl: "
                        "line 2.x[0])")
    assert lines[2] == ("trajectory.csv: 0 identical, 2 differ, largest "
                        "relative difference 0.5 (a/trajectory.csv: "
                        "line 4 re_psi)")


@pytest.mark.parametrize("side_b", [
    {"ledger": {k: v for k, v in LEDGER.items() if k != "note"}},
    {"ledger": dict(LEDGER, note="resonant drive")},
    {"ledger": dict(LEDGER, w_over_hw=[0.5])},
    {"table": TABLE.replace("t,re_psi", "t,im_psi")},
    {"table": TABLE + "1.0,0.5\n"},
    {"table": TABLE.replace("0.5,-0.125", "0.5,-0.125,1.0")},
    {"table": TABLE.replace("-0.125", "x")},
    {"table": TABLE.replace("-0.125", "-0.1250")},
    {"trace": TRACE + '{"f": 1.0, "x": [1.0, 2.0]}\n'},
    {"extra": {"stray.txt": "x\n"}},
])
def test_non_numeric_differences_fail(tmp_path, capsys, side_b):
    code, out = diff(tmp_path, capsys, **side_b)
    assert code == 1
    assert "not numeric: " in out


def test_file_of_another_kind_that_differs_fails(tmp_path, capsys):
    a = tree(tmp_path / "A", extra={"log.txt": "one\n"})
    b = tree(tmp_path / "B", extra={"log.txt": "two\n"})
    assert artifact_diff.main([str(a), str(b)]) == 1
    assert "not numeric: log.txt: contents differ" in capsys.readouterr().out


def test_relative_difference():
    rd = artifact_diff.relative_difference
    assert rd(1.0, 1.0) == 0.0
    assert rd(float("nan"), float("nan")) == 0.0
    assert rd(2.0, -2.0) == 2.0
    assert rd(1.0, float("nan")) == float("inf")
    assert rd(1.0, float("inf")) == float("inf")
    assert rd(2e-16, 0.0, floor=1.0) == 2e-16
    assert rd(4.0, 2.0, floor=1.0) == 0.5


def test_rtol_passes_small_numeric_differences(tmp_path, capsys):
    ledger = dict(LEDGER, w_over_hw=0.5 * (1 + 2.0 ** -52))
    code, out = diff(tmp_path, capsys, "--rtol", "1e-10", ledger=ledger)
    assert code == 0
    assert "over rtol" not in out
    # the same difference over a tolerance of zero
    code, out = diff(tmp_path / "zero", capsys, "--rtol", "0", ledger=ledger)
    assert code == 1
    assert "over rtol 0: a/ledger.json: w_over_hw differs by 2.22e-16" \
        in out.splitlines()


def test_rtol_measures_residues_against_one(tmp_path, capsys):
    # norm_drift and the deviations are zero up to rounding: their moves
    # by one ulp of 1 pass a tight --rtol, where measured against their
    # own size they would differ by 0.25 and by 1
    checks = {"norm_drift": 6.661338147750939e-16,
              "deviations": {"p_e": 2.220446049250313e-16}}
    moved = {"norm_drift": 8.881784197001252e-16,
             "deviations": {"p_e": 0.0}}
    a = tree(tmp_path / "A", ledger=dict(LEDGER, checks=checks))
    b = tree(tmp_path / "B", ledger=dict(LEDGER, checks=moved))
    assert artifact_diff.main([str(a), str(b), "--rtol", "1e-12"]) == 0
    assert "largest relative difference 2.22e-16" in capsys.readouterr().out
    # a physical field of the same size is still judged relatively
    a = tree(tmp_path / "C", ledger=dict(LEDGER, p_ab_infty=1e-14))
    b = tree(tmp_path / "D", ledger=dict(LEDGER, p_ab_infty=2e-14))
    assert artifact_diff.main([str(a), str(b), "--rtol", "1e-12"]) == 1
    assert "over rtol 1e-12: a/ledger.json: p_ab_infty differs by 0.5" \
        in capsys.readouterr().out.splitlines()


def test_rtol_fails_each_file_over_it(tmp_path, capsys):
    code, out = diff(tmp_path, capsys, "--rtol", "0.2",
                     table=TABLE.replace("-0.125", "-0.25"),
                     trace=TRACE.replace("1.5", "1.8"))
    assert code == 1
    over = [line for line in out.splitlines() if line.startswith("over")]
    # the trace moves by 0.167, inside 0.2; each table by 0.5
    assert over == [
        "over rtol 0.2: a/trajectory.csv: line 4 re_psi differs by 0.5",
        "over rtol 0.2: b/trajectory.csv: line 4 re_psi differs by 0.5"]


def test_rtol_keeps_structural_failures(tmp_path, capsys):
    code, out = diff(tmp_path, capsys, "--rtol", "1.0",
                     ledger=dict(LEDGER, note="resonant drive"))
    assert code == 1
    assert "not numeric: " in out


@pytest.mark.parametrize("rtol", ["-1e-10", "nan", "inf"])
def test_rtol_must_be_a_tolerance(tmp_path, capsys, rtol):
    a, b = tree(tmp_path / "A"), tree(tmp_path / "B")
    with pytest.raises(SystemExit) as exc:
        artifact_diff.main([str(a), str(b), f"--rtol={rtol}"])
    assert exc.value.code == 2
    assert "--rtol must be finite and >= 0" in capsys.readouterr().err
