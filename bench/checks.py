"""Output checks for the benchmark, independent of the package.

Every command's artifacts are read back with the standard library and
compared against closed forms and bounds computed here, never by
calling lambda_adapt.  A check returns a ``Verdict``: passed, or failed
with a cause; a failure whose cause is the documented oracle defect is
labelled ``known``.

Tolerances stated by the benchmark:

- SIM_TOL: simulate ``p_ab_infty`` of an exponential pulse against the
  closed form (ledger-tight auto grid, residual ~1e-9 on the seed).
- OBJ_TOL: sweep rows and the optimize optimum against the closed form.
  The objective grid cuts exponential runs at 9.5 / linewidth, which
  loses up to e^-9.5 = 7.5e-5 of the transfer by design.
- ADAPT_TOL: |p_ab(inf) - (gamma_b / Gamma) W / hbar omega_a| on
  resonance.
- ARGMAX_TOL: distance of the optimize optimum from detuning 0 and
  rate_ratio 1.
- LEAK_TOL: backward-pulse leak into the forward sector.
- KNOWN_BANDS: the oracle_agreement deviation / tolerance that the
  documented oracle defect produces on the ``oracle`` workload's
  exponential and rectangular pulses, measured on the seed commit over
  the corners of the drawn parameter ranges, widened by 10 % each way.
  A failure is labelled known only inside its band; anything else the
  forward solver gets wrong still fails the command.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SIM_TOL = 1e-6
OBJ_TOL = 2e-4
ADAPT_TOL = 1e-6
ARGMAX_TOL = 1e-3
LEAK_TOL = 1e-12
LEDGER_REL = 1e-8

KNOWN_BANDS = {"exponential": (0.9 * 2.655, 1.1 * 2.818),
               "rectangular": (0.9 * 10.53, 1.1 * 10.87)}
KNOWN_ORACLE = ("known defect: the +-20 Gamma comb clips the spectral tail "
                "of a sharp-edged {family} envelope and discretize_pulse "
                "renormalizes; oracle_agreement exceeds its tolerance")

ARTIFACTS = {"simulate": ("trajectory.csv", "ledger.json", "entropy.json"),
             "sweep": ("sweep.csv",),
             "optimize": ("optimize.json", "trace.jsonl"),
             "oracle-verify": ("verify.json",)}


@dataclass
class Verdict:
    passed: bool = True
    cause: str = ""
    known: bool = False
    margins: dict = field(default_factory=dict)

    def fail(self, cause: str, known: bool = False) -> "Verdict":
        if self.passed:
            self.passed, self.cause, self.known = False, cause, known
        return self


def p_ab_exponential(gamma_a: float, gamma_b: float, linewidth: float,
                     detuning: float) -> float:
    """Closed-form p_ab(inf) for the exponential envelope."""
    gamma = gamma_a + gamma_b
    s = gamma + linewidth
    return 4.0 * gamma_a * gamma_b * s / (gamma * (s * s
                                                   + 4.0 * detuning ** 2))


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def check_command(entry: dict, record: dict, out: Path, cfg: Path) -> Verdict:
    v = Verdict()
    command = entry["command"]
    rc = record["rc"]
    if record.get("error"):
        return v.fail(f"raised {record['error']}")
    if rc not in (0, 4) or (rc == 4 and command != "oracle-verify"):
        return v.fail(f"exit code {rc}")
    for name in ARTIFACTS[command]:
        if not (out / name).is_file():
            return v.fail(f"missing artifact {name}")
    checker = {"simulate": _check_simulate, "sweep": _check_sweep,
               "optimize": _check_optimize,
               "oracle-verify": _check_oracle}[command]
    return checker(entry["params"], rc, out, cfg, v)


def _sha_ok(meta: dict, cfg: Path) -> bool:
    return meta.get("config_sha256") == hashlib.sha256(
        cfg.read_bytes()).hexdigest()


def _check_simulate(p: dict, rc: int, out: Path, cfg: Path, v: Verdict):
    ledger = json.loads((out / "ledger.json").read_text())
    entropy = json.loads((out / "entropy.json").read_text())
    if not _sha_ok(ledger["meta"], cfg):
        return v.fail("ledger.json config_sha256 does not match the input")
    # entropy.json carries the tail-corrected value; on resonance
    # ledger.json reports p_ab at t_max, short of it by gamma_b/Gamma p_e
    p_inf = float(entropy["p_ab_infty"])
    if not _close(float(ledger["p_ab_infty"]), p_inf, SIM_TOL):
        return v.fail("ledger.json and entropy.json disagree on p_ab_infty")
    ga, gb = p["gamma_a"], p["gamma_b"]
    ceiling = 4.0 * ga * gb / (ga + gb) ** 2
    if not -1e-12 <= p_inf <= ceiling + 1e-9:
        return v.fail(f"p_ab_infty {p_inf} outside [0, {ceiling}]")
    if p["family"] == "exponential":
        exact = p_ab_exponential(ga, gb, p["width"], p["delta_l"])
        if not _close(p_inf, exact, SIM_TOL):
            return v.fail(f"p_ab_infty {p_inf} misses closed form {exact} "
                          f"by more than {SIM_TOL}")
    if p["delta_l"] == 0.0:
        resid = float(ledger["adaptation_residual"])
        if not abs(resid) <= ADAPT_TOL:
            return v.fail(f"adaptation residual {resid:.3e} > {ADAPT_TOL}")
        bound = LEDGER_REL * max(abs(ledger["w_abs"]), p["omega_a"])
        v.margins["ledger"] = abs(ledger["residual"]) / bound
    lines = (out / "trajectory.csv").read_text().splitlines()
    if not lines[1].startswith("t,") or len(lines) < 4:
        return v.fail("trajectory.csv has no table")
    last = [float(x) for x in lines[-1].split(",")]
    if len(last) != 5 or not all(math.isfinite(x) for x in last):
        return v.fail("trajectory.csv last row malformed")
    return v


def _check_sweep(p: dict, rc: int, out: Path, cfg: Path, v: Verdict):
    lines = (out / "sweep.csv").read_text().splitlines()
    meta = json.loads(lines[0][1:])
    if not _sha_ok(meta, cfg):
        return v.fail("sweep.csv config_sha256 does not match the input")
    rows = list(csv.DictReader(lines[1:]))
    if len(rows) != p["sweep"]["n_points"]:
        return v.fail(f"sweep.csv has {len(rows)} rows, expected "
                      f"{p['sweep']['n_points']}")
    for row in rows:
        if row["error"]:
            return v.fail(f"sweep row failed: {row['error']}")
        exact = p_ab_exponential(p["gamma_a"], p["gamma_b"],
                                 float(row["value"]), p["delta_l"])
        got = float(row["objective"])
        if not _close(got, exact, OBJ_TOL):
            return v.fail(f"sweep p_ab_infty {got} misses closed form "
                          f"{exact} by more than {OBJ_TOL}")
    return v


def _check_optimize(p: dict, rc: int, out: Path, cfg: Path, v: Verdict):
    doc = json.loads((out / "optimize.json").read_text())
    if not _sha_ok(doc["meta"], cfg):
        return v.fail("optimize.json config_sha256 does not match the input")
    trace = (out / "trace.jsonl").read_text().splitlines()
    if len(trace) != doc["n_evals"]:
        return v.fail(f"trace.jsonl has {len(trace)} entries, "
                      f"n_evals = {doc['n_evals']}")
    if not doc["converged"]:
        return v.fail("optimize did not converge")
    det = float(doc["params"]["detuning"])
    ratio = float(doc["params"]["rate_ratio"])
    if not (abs(det) <= ARGMAX_TOL and abs(ratio - 1.0) <= ARGMAX_TOL):
        return v.fail(f"optimum (detuning {det}, rate_ratio {ratio}) not "
                      f"within {ARGMAX_TOL} of (0, 1)")
    total = p["gamma_a"] + p["gamma_b"]
    exact = p_ab_exponential(total / (1 + ratio), total * ratio / (1 + ratio),
                             p["width"], det)
    if not _close(float(doc["value"]), exact, OBJ_TOL):
        return v.fail(f"optimum value {doc['value']} misses closed form "
                      f"{exact} by more than {OBJ_TOL}")
    return v


def _check_oracle(p: dict, rc: int, out: Path, cfg: Path, v: Verdict):
    doc = json.loads((out / "verify.json").read_text())
    if not _sha_ok(doc["meta"], cfg):
        return v.fail("verify.json config_sha256 does not match the input")
    checks = doc["checks"]
    if (rc == 0) != bool(doc["passed"]) or \
            doc["passed"] != all(c["passed"] for c in checks.values()):
        return v.fail(f"exit code {rc} disagrees with verify.json verdicts")
    leak = float(checks["backward_leak"]["leak"])
    if not leak <= LEAK_TOL:
        return v.fail(f"backward leak {leak:.3e} > {LEAK_TOL}")
    if p["delta_l"] == 0.0:
        adapt = checks.get("adaptation_work")
        if adapt is None:
            return v.fail(f"ledger check failed: "
                          f"{checks['energy_ledger'].get('error')}")
        if not abs(float(adapt["residual"])) <= ADAPT_TOL:
            return v.fail(f"adaptation residual {adapt['residual']:.3e} > "
                          f"{ADAPT_TOL}")
    agree = checks["oracle_agreement"]
    ratios = {k: agree["deviations"][k] / agree["tolerances"][k]
              for k in agree["deviations"]}
    worst = max(ratios.values())
    failing = sorted(name for name, c in checks.items() if not c["passed"])
    if failing == ["oracle_agreement"] and p["family"] in KNOWN_BANDS:
        lo, hi = KNOWN_BANDS[p["family"]]
        if not lo <= worst <= hi:
            return v.fail(f"oracle_agreement deviation {worst:.4g} x "
                          f"tolerance, outside the known-defect band "
                          f"[{lo:.4g}, {hi:.4g}] for {p['family']}")
        v.margins[f"known_dev_over_tol.{p['family']}"] = worst
        return v.fail(KNOWN_ORACLE.format(family=p["family"]), known=True)
    if failing:
        return v.fail(f"oracle-verify failed checks {failing}")
    v.margins["dev_over_tol"] = worst
    return v
