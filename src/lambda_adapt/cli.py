"""Command line entry point: simulate, sweep, optimize, verify, tabulate.

Every subcommand reads one INI config (see config.py), writes artifacts
into --out, and returns a contract exit code: 0 success, 2 configuration
or parameter error, 3 numerical-consistency failure, 4 oracle
disagreement.  A command runs with numpy's overflow and invalid-value
errors raised, so a run that overflows stops at the first such
operation and exits 3 with one line on stderr, not a warning.  All
numerics are deterministic (fixed-step quadratures and the oracle's
secular-equation eigensolver), so the bits of every artifact are a
function of the config, the package version, the numpy/BLAS build and
the BLAS thread count; the thread count moves the last digits of
oracle-verify's numbers, through the summation order of its BLAS
products.  The optional [grid]
section of a config sets the trajectory grid's t_max and dt; a key left
out takes SimGrid.auto's default.  --points must be at least 1 on every
subcommand; simulate reads it as a stride bound (up to N + 1 rows),
sweep and entropy-curve as a point count, and the others ignore it.

CSV artifacts carry a '#'-prefixed JSON metadata line (config hash,
version, command).  A command builds every artifact's text before it
writes any, except entropy-curve, which computes, formats and appends
its one table a block of points at a time so that its memory does not
grow with --points.  Every artifact goes to a temporary name, and all
are renamed into place, each atomically, once all are written; a failed
write removes every temporary, so a failed command leaves no artifact
and readers never see a half-written one.
Every float in a CSV is Python's shortest round-trip ``repr`` of the
double, so ``float(field)`` returns the exact value that was computed.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .dynamics import integrate_psi, p_ab_infty
from .entropy import asymptotic_spectrum, entropy_curve
from .errors import (ConfigurationError, LambdaAdaptError,
                     NumericalConsistencyError)
from .floattext import csv_text
from .model import SimGrid
from .optimize import maximize, sweep
from .oracle import compare
from .thermo import drive_overlap_integral, energy_ledger, is_resonant

# glibc's malloc serves a block at or above its mmap threshold with a
# fresh mapping, which faults on first touch and is unmapped on free;
# smaller blocks reuse heap pages, and the top of the heap goes back to
# the system once more than the trim threshold of it is free.  Both are
# fixed here (mallopt(3)), at 1 MiB and 2 MiB:
# - at glibc's starting threshold, 128 kB, a command's trajectory arrays
#   would be fresh mappings: a narrowband batch (bench/) took 27k page
#   faults instead of 7k and ran about 9 % slower (2-vCPU x86 VM);
# - a threshold left to glibc rises to the size of each mapped block
#   freed (up to 32 MB), so what a command keeps resident depends on the
#   commands run before it: after one 2001-mode oracle-verify run frees
#   its 9.6 MB of folded snapshots, the next one's arrays came from
#   the heap and stayed, and the process kept 46.4 MB resident after it
#   instead of 34.0 MB (max RSS 46.3 MB without the thresholds, 46.4-46.5
#   MB with them; one such run alone peaks at 46.3 and 46.0-46.2 MB).
#   A threshold set explicitly is never raised.
# Where the C library has no mallopt, nothing is set.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(-3, 1 << 20)       # M_MMAP_THRESHOLD
    _mallopt(-1, 2 << 20)       # M_TRIM_THRESHOLD

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ORACLE = 4

BACKWARD_LEAK_TOL = 1e-12
ADAPTATION_TOL = 1e-6
# points of entropy_curve.csv computed and formatted at a time: the
# command's working set stays under 1 MB whatever --points is
CURVE_BLOCK = 4096


def _write_all(out: Path, texts: dict):
    """Write every artifact ``name: text`` to a temporary name, then
    rename them all into place, creating ``out`` first if it does not
    exist.

    A text may also be an iterable of strings, appended one by one.  If
    anything fails, every temporary file is removed.
    """
    out.mkdir(parents=True, exist_ok=True)
    tmps = {name: out / f"{name}.tmp" for name in texts}
    try:
        for name, text in texts.items():
            with tmps[name].open("w") as f:
                f.writelines([text] if isinstance(text, str) else text)
        for name, tmp in tmps.items():
            os.replace(tmp, out / name)
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise


def _meta(command: str, cfg: RunConfig, **extra) -> dict:
    meta = {"command": command, "config_sha256": cfg.sha256,
            "version": __version__}
    meta.update(extra)
    return meta


def _csv_text(meta: dict, header: list[str], body: str) -> str:
    """A CSV of the metadata line, the header and ``body``, its rows
    each ended by a newline."""
    return ("#" + json.dumps(meta, sort_keys=True) + "\n"
            + ",".join(header) + "\n" + body)


def _float_table(*columns) -> str:
    """CSV rows of a table of float columns, each ended by a newline.

    Each field is the value's ``repr``, what ``csv.writer`` writes for a
    float, formatted for the whole table at once (see floattext).
    """
    return csv_text(np.column_stack(columns))


def _json_text(name: str, doc: dict, indent: int | None = 2) -> str:
    """Strict JSON of ``doc`` and a newline; a NaN or infinity in it
    raises NumericalConsistencyError naming the artifact ``name``."""
    try:
        return json.dumps(doc, sort_keys=True, indent=indent,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalConsistencyError(
            f"{name} not written: a value is not finite ({exc})") from exc


def cmd_simulate(cfg: RunConfig, out: Path, points: int | None) -> int:
    grid = cfg.make_grid()
    traj = integrate_psi(cfg.system, cfg.pulse, grid)

    cap = points or 2001
    stride = max(1, int(math.ceil(traj.times.size / cap)))
    idx = np.arange(0, traj.times.size, stride)
    if idx[-1] != traj.times.size - 1:
        idx = np.append(idx, traj.times.size - 1)
    psi = traj.psi_nodes(idx)
    body = _float_table(traj.times[idx], psi.real, psi.imag,
                        traj.p_e[idx], traj.p_ab[idx])
    texts = {"trajectory.csv": _csv_text(
        _meta("simulate", cfg, t_max=grid.t_max, dt=grid.dt,
              stride=int(stride)),
        ["t", "re_psi", "im_psi", "p_e", "p_ab"], body)}

    p_inf = p_ab_infty(traj, cfg.system)
    if is_resonant(cfg.pulse, cfg.system):
        payload = dataclasses.asdict(
            energy_ledger(traj, cfg.pulse, cfg.system))
        overlap_imag = 0.0
    else:
        # one drive quadrature: twice its real part is drive_energy_flux,
        # minus its imaginary part the asymptotic overlap's
        acc = drive_overlap_integral(traj, cfg.pulse, cfg.system)[-1]
        overlap_imag = -float(acc.imag)
        payload = {
            "w_over_hw": 2.0 * float(acc.real),
            "p_ab_infty": p_inf,
            "note": "off-resonant drive: the work ledger does not apply",
        }
    meta = _meta("simulate", cfg)
    texts["ledger.json"] = _json_text("ledger.json", {"meta": meta, **payload})

    # the spectrum takes p_ab(inf) clamped to its maximum (its n_b); the
    # artifacts keep the raw value
    spec = asymptotic_spectrum(cfg.system, cfg.mixture, p_inf, overlap_imag)
    texts["entropy.json"] = _json_text("entropy.json", {
        "meta": meta, "asymptotic": spec.as_dict(), "p_ab_infty": p_inf})
    _write_all(out, texts)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: Path, points: int | None) -> int:
    if cfg.sweep is None:
        raise ConfigurationError("sweep subcommand needs a [sweep] section")
    spec = cfg.sweep
    if points is not None:
        spec = dataclasses.replace(spec, n_points=points)
    # csv.writer writes a float as its repr and quotes a field that holds
    # a comma, as an error message may
    body = io.StringIO()
    csv.writer(body, lineterminator="\n").writerows(
        (p.value, p.family, p.objective, p.error or "")
        for p in sweep(spec, cfg.system, cfg.pulse))
    _write_all(out, {"sweep.csv": _csv_text(
        _meta("sweep", cfg, parameter=spec.parameter,
              objective=spec.objective, n_points=spec.n_points),
        ["value", "family", "objective", "error"], body.getvalue())})
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, out: Path, points: int | None) -> int:
    if cfg.optimize is None:
        raise ConfigurationError(
            "optimize subcommand needs an [optimize] section")
    spec = cfg.optimize
    result = maximize(cfg.system, cfg.pulse, spec.bounds,
                      objective=spec.objective, budget=spec.budget)
    doc = {"meta": _meta("optimize", cfg, objective=spec.objective),
           **dataclasses.asdict(result)}
    trace = doc.pop("trace")
    _write_all(out, {"optimize.json": _json_text("optimize.json", doc),
                     "trace.jsonl": "".join(_json_text("trace.jsonl", e, None)
                                            for e in trace)})
    return EXIT_OK


def cmd_entropy_curve(cfg: RunConfig, out: Path, points: int | None) -> int:
    n_points = points or 200

    def text():
        yield _csv_text(_meta("entropy-curve", cfg, n_points=n_points,
                              p_a0=cfg.mixture.p_a0),
                        ["p_ab_infty", "s_e", "s_e_c"], "")
        for start in range(0, n_points, CURVE_BLOCK):
            curve = entropy_curve(cfg.system, cfg.mixture, n_points, start,
                                  start + CURVE_BLOCK)
            yield _float_table(curve.n_b, curve.s_e, curve.s_e_c)

    _write_all(out, {"entropy_curve.csv": text()})
    return EXIT_OK


def cmd_oracle_verify(cfg: RunConfig, out: Path, points: int | None) -> int:
    checks = {
        "oracle_agreement": dataclasses.asdict(
            compare(cfg.system, cfg.pulse, cfg.mixture, cfg.bath)),
        # the frozen backward protocol is a selection rule, not a run: no
        # term of H couples |b, 1_a> (a time-mirrored photon on |b>) to
        # anything, so its leak into the forward sector is exactly 0
        # (tests/test_acceptance.py::test_backward_protocol_is_frozen
        # checks that on the dense matrix)
        "backward_leak": {"passed": True, "leak": 0.0,
                          "tolerance": BACKWARD_LEAK_TOL},
    }

    if is_resonant(cfg.pulse, cfg.system):
        grid = SimGrid.auto(cfg.system, cfg.pulse)
        traj = integrate_psi(cfg.system, cfg.pulse, grid)
        try:
            ledger = energy_ledger(traj, cfg.pulse, cfg.system)
            residual = ledger.adaptation_residual
            checks["energy_ledger"] = {"passed": True,
                                       "residual": ledger.residual}
            checks["adaptation_work"] = {
                "passed": abs(residual) <= ADAPTATION_TOL,
                "residual": residual, "tolerance": ADAPTATION_TOL}
        except NumericalConsistencyError as exc:
            checks["energy_ledger"] = {"passed": False, "error": str(exc)}

    all_passed = all(c["passed"] for c in checks.values())
    _write_all(out, {"verify.json": _json_text("verify.json", {
        "meta": _meta("oracle-verify", cfg), "passed": all_passed,
        "checks": checks})})
    for name, c in checks.items():
        print(f"{name}: {'pass' if c['passed'] else 'FAIL'}")
    if not all_passed:
        failing = [name for name, c in checks.items() if not c["passed"]]
        print(f"failed checks: {', '.join(failing)}", file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


# Each subcommand: its name, its aliases and the function that runs it
# with the config, the output directory and --points.
COMMANDS = (("simulate", (), cmd_simulate),
            ("sweep", (), cmd_sweep),
            ("optimize", (), cmd_optimize),
            ("entropy-curve", ("figure2",), cmd_entropy_curve),
            ("oracle-verify", (), cmd_oracle_verify))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    ``parse_args`` keeps no state between calls, so every ``main``
    shares one parser.
    """
    parser = argparse.ArgumentParser(
        prog="lambda-adapt",
        description="Single-photon driving of a three-level lambda system: "
                    "trajectories, work and heat ledgers, environment "
                    "entropy and discrete-bath verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, aliases, run in COMMANDS:
        p = sub.add_parser(name, aliases=list(aliases))
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--points", type=int, default=None, metavar="N",
                       help="simulate: every k-th node, k the least giving "
                            "at most N, plus the last (up to N + 1 rows); "
                            "sweep, entropy-curve: point count; optimize, "
                            "oracle-verify: ignored (>= 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.points is not None and args.points < 1:
            raise ConfigurationError(
                f"--points must be at least 1, got {args.points}")
        cfg = load_config(args.config)
        with np.errstate(over="raise", invalid="raise"):
            return args.run(cfg, out, args.points)
    except (NumericalConsistencyError, FloatingPointError) as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LambdaAdaptError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
