"""Command line entry point: simulate, sweep, optimize, verify, tabulate.

Every subcommand reads one INI config (see config.py), writes artifacts
into --out, and returns a contract exit code: 0 success, 2 configuration
or parameter error, 3 numerical-consistency failure, 4 oracle
disagreement.  All numerics are deterministic (fixed-step quadratures and
a dense eigendecomposition), so identical configs and package versions
produce bit-identical artifacts.  The optional [grid] section of a config
sets the trajectory grid's t_max and dt; a key left out takes
SimGrid.auto's default.  --points must be at least 1 on every subcommand.

CSV artifacts carry a '#'-prefixed JSON metadata line (config hash,
version, command) and files are written via a temporary name and atomic
rename, so readers never observe a half-written table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .dynamics import integrate_psi, p_ab_infty
from .entropy import EnvSpectrum, entropy_curve, overlap_asymptotic
from .errors import (ConfigurationError, LambdaAdaptError,
                     NumericalConsistencyError, ParameterError,
                     UnsupportedEnvelopeError)
from .model import SimGrid
from .optimize import maximize, sweep
from .oracle import OneExcitationState, build_hamiltonian, compare, evolve
from .thermo import (adaptation_work_check, drive_energy_flux, energy_ledger,
                     is_resonant)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ORACLE = 4

BACKWARD_LEAK_TOL = 1e-12
ADAPTATION_TOL = 1e-6


def _write_atomic(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _meta(command: str, cfg: RunConfig, **extra) -> dict:
    meta = {"command": command, "config_sha256": cfg.sha256,
            "version": __version__}
    meta.update(extra)
    return meta


def _write_csv(path: Path, meta: dict, header: list[str], lines: list[str]):
    text = "\n".join(["#" + json.dumps(meta, sort_keys=True),
                      ",".join(header), *lines])
    _write_atomic(path, text + "\n")


def _float_lines(*columns) -> list[str]:
    """CSV lines of a table of float columns.

    ``tolist`` turns the rows into Python floats, whose repr is what
    ``_fmt`` writes for a float, without a per-value dispatch.
    """
    return [",".join(map(repr, row))
            for row in np.column_stack(columns).tolist()]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_json(path: Path, meta: dict, payload: dict):
    doc = {"meta": meta}
    doc.update(payload)
    _write_atomic(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_simulate(cfg: RunConfig, out: Path, points: int | None) -> int:
    grid = cfg.make_grid()
    traj = integrate_psi(cfg.system, cfg.pulse, grid)

    cap = points or 2001
    stride = max(1, int(math.ceil(traj.times.size / cap)))
    idx = np.arange(0, traj.times.size, stride)
    if idx[-1] != traj.times.size - 1:
        idx = np.append(idx, traj.times.size - 1)
    lines = _float_lines(traj.times[idx], traj.psi.real[idx],
                         traj.psi.imag[idx], traj.p_e[idx], traj.p_ab[idx])
    _write_csv(out / "trajectory.csv",
               _meta("simulate", cfg, t_max=grid.t_max, dt=grid.dt,
                     stride=int(stride)),
               ["t", "re_psi", "im_psi", "p_e", "p_ab"], lines)

    p_inf = p_ab_infty(traj, cfg.system)
    if is_resonant(cfg.pulse, cfg.system):
        ledger = energy_ledger(traj, cfg.pulse, cfg.system)
        payload = ledger.as_dict()
        payload["adaptation_residual"] = adaptation_work_check(
            cfg.system, ledger.p_ab_infty, ledger.w_abs)
    else:
        payload = {
            "w_over_hw": drive_energy_flux(traj, cfg.pulse, cfg.system),
            "p_ab_infty": p_inf,
            "note": "off-resonant drive: the work ledger does not apply",
        }
    _write_json(out / "ledger.json", _meta("simulate", cfg), payload)

    asym = overlap_asymptotic(cfg.system, p_inf)
    spec = EnvSpectrum.from_branches(cfg.mixture, 0.0, 1.0 - p_inf, p_inf,
                                     asym.overlap_sq)
    _write_json(out / "entropy.json", _meta("simulate", cfg),
                {"asymptotic": spec.as_dict(), "p_ab_infty": p_inf})
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: Path, points: int | None) -> int:
    if cfg.sweep is None:
        raise ConfigurationError("sweep subcommand needs a [sweep] section")
    spec = cfg.sweep
    if points is not None:
        spec = type(spec)(parameter=spec.parameter, lo=spec.lo, hi=spec.hi,
                          n_points=points, objective=spec.objective)
    result = sweep(spec, cfg.system, cfg.pulse)
    lines = [",".join(map(_fmt, (r["value"], r["family"],
                                 r["objective_value"], r["error"])))
             for r in result.as_rows()]
    _write_csv(out / "sweep.csv",
               _meta("sweep", cfg, parameter=spec.parameter,
                     objective=spec.objective, n_points=spec.n_points),
               ["value", "family", "objective", "error"], lines)
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, out: Path) -> int:
    if cfg.optimize is None:
        raise ConfigurationError(
            "optimize subcommand needs an [optimize] section")
    spec = cfg.optimize
    result = maximize(cfg.system, cfg.pulse, spec.bounds,
                      objective=spec.objective, budget=spec.budget)
    doc = result.as_dict()
    trace = doc.pop("trace")
    _write_json(out / "optimize.json",
                _meta("optimize", cfg, objective=spec.objective), doc)
    lines = [json.dumps(entry, sort_keys=True) for entry in trace]
    _write_atomic(out / "trace.jsonl", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_entropy_curve(cfg: RunConfig, out: Path, points: int | None) -> int:
    n_points = points or 200
    curve = entropy_curve(cfg.system, cfg.mixture, n_points=n_points)
    _write_csv(out / "entropy_curve.csv",
               _meta("entropy-curve", cfg, n_points=n_points,
                     p_a0=cfg.mixture.p_a0),
               ["p_ab_infty", "s_e", "s_e_c"],
               _float_lines(curve.p_ab, curve.s_e, curve.s_e_c))
    return EXIT_OK


def cmd_oracle_verify(cfg: RunConfig, out: Path) -> int:
    checks = {}

    report = compare(cfg.system, cfg.pulse, cfg.mixture, cfg.bath)
    checks["oracle_agreement"] = {
        "passed": report.passed, **report.as_dict()}

    # the backward-leak run starts from the comb projection compare made
    h_back = build_hamiltonian(cfg.system, cfg.bath, include_backward=True)
    run_back = evolve(h_back, OneExcitationState.from_pulse(report.amplitudes,
                                                            backward=True),
                      15.0 / cfg.system.gamma_total, bath=cfg.bath,
                      system=cfg.system, n_out=51)
    n = cfg.bath.n_modes
    forward = run_back.states[:, :1 + 2 * n]
    leak = float(np.max(np.sum(np.abs(forward) ** 2, axis=1)))
    checks["backward_leak"] = {"passed": leak <= BACKWARD_LEAK_TOL,
                               "leak": leak, "tolerance": BACKWARD_LEAK_TOL,
                               "norm_drift": run_back.norm_drift}

    if is_resonant(cfg.pulse, cfg.system):
        grid = SimGrid.auto(cfg.system, cfg.pulse)
        traj = integrate_psi(cfg.system, cfg.pulse, grid)
        try:
            ledger = energy_ledger(traj, cfg.pulse, cfg.system)
            residual = adaptation_work_check(cfg.system, ledger.p_ab_infty,
                                             ledger.w_abs)
            checks["energy_ledger"] = {"passed": True,
                                       "residual": ledger.residual}
            checks["adaptation_work"] = {
                "passed": abs(residual) <= ADAPTATION_TOL,
                "residual": residual, "tolerance": ADAPTATION_TOL}
        except NumericalConsistencyError as exc:
            checks["energy_ledger"] = {"passed": False, "error": str(exc)}

    all_passed = all(c["passed"] for c in checks.values())
    _write_json(out / "verify.json", _meta("oracle-verify", cfg),
                {"passed": all_passed, "checks": checks})
    for name, c in checks.items():
        print(f"{name}: {'pass' if c['passed'] else 'FAIL'}")
    if not all_passed:
        failing = [name for name, c in checks.items() if not c["passed"]]
        print(f"failed checks: {', '.join(failing)}", file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambda-adapt",
        description="Single-photon driving of a three-level lambda system: "
                    "trajectories, work and heat ledgers, environment "
                    "entropy and discrete-bath verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, aliases=()):
        p = sub.add_parser(name, aliases=list(aliases))
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--points", type=int, default=None,
                       help="table resolution / row cap (>= 1)")
        return p

    add("simulate")
    add("sweep")
    add("optimize")
    add("entropy-curve", aliases=["figure2"])
    add("oracle-verify")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.points is not None and args.points < 1:
            raise ConfigurationError(
                f"--points must be at least 1, got {args.points}")
        out.mkdir(parents=True, exist_ok=True)
        cfg = load_config(args.config)
        command = args.command
        if command == "figure2":
            command = "entropy-curve"
        if command == "simulate":
            return cmd_simulate(cfg, out, args.points)
        if command == "sweep":
            return cmd_sweep(cfg, out, args.points)
        if command == "optimize":
            return cmd_optimize(cfg, out)
        if command == "entropy-curve":
            return cmd_entropy_curve(cfg, out, args.points)
        return cmd_oracle_verify(cfg, out)
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigurationError, ParameterError,
            UnsupportedEnvelopeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LambdaAdaptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
