"""lambda-adapt benchmark: seeded CLI workloads, checked and timed.

    python3 bench/run.py --workload simulate|narrowband|oracle \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  Set-up is timed in fresh interpreters; the batch runs in its
own child process, one CLI command after another.  Every artifact is
checked (see checks.py).  With --trace 0 the last line of stdout holds
the end-to-end metrics, with --trace 1 the per-layer metrics of a
second, traced batch of the same commands.  Lines before it name every
metric with its unit, the failure causes and the environment.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

SETUP_SAMPLES = 7
# A child is killed only when it hangs: a set-up child after
# SETUP_TIMEOUT_S, a batch after HANG_FACTOR times the seed commit's
# cost of the batch (plus slack), so a slower program still reports
# its numbers.
SETUP_TIMEOUT_S = 60.0
HANG_FACTOR = 5.0
HANG_SLACK_S = 60.0

# the command whose median latency is p50_s, per workload
PRIMARY = {"simulate": "simulate", "narrowband": "optimize",
           "oracle": "oracle-verify"}
# latencies printed by name on the workloads that issue each command
NAMED = {"simulate": "simulate_p50_s", "optimize": "optimize_s",
         "sweep": "sweep_s", "oracle-verify": "verify_s"}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("LAMBDA_ADAPT_THREADS", None)
    return env


def _spawn(argv: list[str], timeout: float, log: Path) -> str:
    """Run a child to completion (killed after timeout); return stdout."""
    with open(log, "a") as err:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py")]
                                  + argv, stdout=subprocess.PIPE, stderr=err,
                                  text=True, timeout=timeout, cwd=ROOT,
                                  env=_child_env())
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {argv[0]} hung: still running after "
                             f"{timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"child {argv[0]} exited {proc.returncode}; "
                         f"see {log}")
    return proc.stdout


def _setup(args, run_dir: Path) -> list[dict]:
    samples = []
    for k in range(SETUP_SAMPLES):
        target = run_dir / ("inputs" if k == 0 else f"setup-{k}")
        t0 = time.perf_counter()
        out = _spawn(["setup", "--root", str(ROOT), "--workload",
                      args.workload, "--seed", str(args.seed), "--seconds",
                      str(args.seconds), "--dir", str(target)],
                     SETUP_TIMEOUT_S, run_dir / "setup.log")
        wall = time.perf_counter() - t0
        sample = json.loads(out.strip().splitlines()[-1])
        sample["setup_s"] = wall
        samples.append(sample)
        if k:
            if (target / "plan.json").read_bytes() != \
                    (run_dir / "inputs" / "plan.json").read_bytes():
                raise BenchError("the same seed produced different inputs")
            shutil.rmtree(target)
    return samples


def _batch(run_dir: Path, name: str, trace: bool, timeout: float) -> dict:
    result = run_dir / f"{name}.json"
    argv = ["run", "--root", str(ROOT), "--dir", str(run_dir / "inputs"),
            "--out", str(run_dir / name), "--result", str(result)]
    if trace:
        argv.append("--trace")
    with open(run_dir / f"{name}.stdout", "w") as sink:
        sink.write(_spawn(argv, timeout, run_dir / f"{name}.log"))
    return json.loads(result.read_text())


def _verdicts(plan: list[dict], batch: dict, run_dir: Path, name: str):
    out = []
    for entry, rec in zip(plan, batch["records"], strict=True):
        out.append(checks.check_command(
            entry, rec, run_dir / name / entry["id"],
            run_dir / "inputs" / entry["config"]))
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (pct, value)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"{n} samples are too few for a tail percentile")
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _latencies(plan, batch, command) -> list[float]:
    return [rec["latency_s"] for entry, rec in zip(plan, batch["records"])
            if entry["command"] == command]


def end_to_end(workload, plan, batch, setup) -> tuple[dict, list[str]]:
    """Bounded metrics (same keys on every workload) and named lines."""
    p50 = statistics.median(_latencies(plan, batch, PRIMARY[workload]))
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "wall_s": (batch["wall_s"], "s"),
        "p50_s": (p50, "s"),
        "peak_rss_mb": (batch["peak_rss_mb"], "MB"),
    }
    lines = []
    for command, name in NAMED.items():
        lat = _latencies(plan, batch, command)
        if not lat:
            continue
        lines.append(f"{name} {statistics.median(lat):.6g} s "
                     f"(median of {len(lat)})")
        if command == "simulate":
            pct, value = tail(lat)
            lines.append(f"simulate_tail_s {value:.6g} s (p{pct:.1f} of "
                         f"{len(lat)} samples, 10 beyond)")
    # one line per bath size: each side of evolve's eigh/rk4 switch
    sizes = {}
    for entry, rec in zip(plan, batch["records"]):
        if entry["command"] == "oracle-verify":
            sizes.setdefault(entry["params"]["n_modes"], []).append(
                rec["latency_s"])
    for n_modes, lat in sorted(sizes.items()):
        lines.append(f"verify_{n_modes}_s "
                     f"{statistics.median(lat):.6g} s (median of {len(lat)})")
    return metrics, lines


def _span(trace, name, key="total_s"):
    return trace["by_name"].get(name, {}).get(key, 0.0)


def per_layer(plan, traced, plain, verdicts, setup, run_dir) -> dict:
    trace = traced["trace"]
    layer = trace["layer_self_s"]
    evolve = ("oracle.evolve_forward", "oracle.evolve_backward")
    evolve_dims = [_span(trace, name, "max_count") for name in evolve]
    drifts = [e["norm_drift"] for name in evolve
              for e in trace["extras"].get(name, [])]

    def margins(key):
        return [v.margins[key] for v in verdicts if key in v.margins]

    steps = _span(trace, "dynamics.integrate_psi", "count")
    psi_s = _span(trace, "dynamics.integrate_psi")
    evals = _span(trace, "optimize.maximize", "count")
    max_s = _span(trace, "optimize.maximize")
    sweep_busy = trace["worker_busy_s"].get("optimize.sweep", 0.0)
    sweep_wall = _span(trace, "optimize.sweep")
    # the pool size sweep() picks with LAMBDA_ADAPT_THREADS unset
    points = [e["params"]["sweep"]["n_points"] for e in plan
              if e["command"] == "sweep"]
    workers = min(os.cpu_count() or 1, max(points, default=1))
    artifacts = [p for e in plan
                 for p in (run_dir / "traced" / e["id"]).rglob("*")]
    metrics = {
        "config.load_s": _span(trace, "config.load_config"),
        "cli.self_s": layer.get("cli", 0.0),
        "cli.bytes_written": sum(p.stat().st_size for p in artifacts
                                 if p.is_file()),
        "model.shape_at_s": _span(trace, "model.shape_at"),
        "model.shape_at_points": _span(trace, "model.shape_at", "count"),
        "dynamics.integrate_psi_s": psi_s,
        "dynamics.integrate_psi_calls": _span(trace, "dynamics.integrate_psi",
                                              "calls"),
        "dynamics.steps": steps,
        "dynamics.steps_per_s": steps / psi_s if psi_s else 0.0,
        "dynamics.field_amplitudes_s": _span(trace,
                                             "dynamics.field_amplitudes"),
        "thermo.ledger_s": trace["layer_outer_s"].get("thermo", 0.0),
        "thermo.ledger_margin": max(margins("ledger"), default=0.0),
        "entropy.overlap_s": _span(trace, "entropy.overlap_finite_time"),
        "oracle.discretize_pulse_s": _span(trace, "oracle.discretize_pulse"),
        "oracle.evolve_forward_s": _span(trace, "oracle.evolve_forward"),
        "oracle.evolve_backward_s": _span(trace, "oracle.evolve_backward"),
        "oracle.measure_series_s": _span(trace, "oracle.measure_series"),
        "oracle.compare_self_s": _span(trace, "oracle.compare", "self_s"),
        "oracle.evolve_dim": max(evolve_dims),
        "oracle.norm_drift": max(drifts, default=0.0),
        "oracle.max_dev_over_tol": max(margins("dev_over_tol"), default=0.0),
        "oracle.known_dev_over_tol.exponential":
            max(margins("known_dev_over_tol.exponential"), default=0.0),
        "oracle.known_dev_over_tol.rectangular":
            max(margins("known_dev_over_tol.rectangular"), default=0.0),
        "optimize.evals": evals,
        "optimize.evals_per_s": evals / max_s if max_s else 0.0,
        "optimize.self_s": layer.get("optimize", 0.0),
        "optimize.sweep_parallel_eff":
            sweep_busy / (sweep_wall * workers) if sweep_wall else 0.0,
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "setup.inputs_s": statistics.median(s["inputs_s"] for s in setup),
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
        "trace.accounted_frac": sum(layer.values()) / traced["wall_s"],
    }
    for name in ("config", "model", "dynamics", "thermo", "entropy",
                 "oracle"):
        metrics[f"{name}.self_s"] = layer.get(name, 0.0)
    return metrics


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_written":
        return "B"
    if name.endswith(("_points", "_calls", ".steps", ".evals", "_dim")):
        return "count"
    return "ratio"


def _fail_lines(verdicts) -> list[str]:
    failed = [v for v in verdicts if not v.passed]
    lines = [f"fail_frac {len(failed) / len(verdicts):.6g} ratio "
             f"({len(failed)} of {len(verdicts)} commands failed)"]
    causes = {}
    for v in failed:
        causes[v.cause] = causes.get(v.cause, 0) + 1
    for cause, n in sorted(causes.items()):
        lines.append(f"  failed x{n}: {cause}")
    for family, (lo, hi) in checks.KNOWN_BANDS.items():
        seen = [v.margins[f"known_dev_over_tol.{family}"] for v in failed
                if f"known_dev_over_tol.{family}" in v.margins]
        if seen:
            lines.append(f"  known defect, {family}: deviation/tolerance "
                         f"{min(seen):.4g}-{max(seen):.4g}, accepted band "
                         f"[{lo:.4g}, {hi:.4g}]")
    return lines


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else \
        "unknown (not a git checkout)"


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lambda_adapt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(args) -> int:
    if not (ROOT / "src" / "lambda_adapt" / "cli.py").is_file():
        print(f"no lambda_adapt sources under {ROOT / 'src'}; run the "
              "benchmark from a source checkout", file=sys.stderr)
        return 2
    timeout = HANG_FACTOR * inputs.batch_cost(args.workload, args.seconds) \
        + HANG_SLACK_S
    run_dir = ROOT / ".bench_runs" / (f"{args.workload}-{args.seed}-"
                                      f"{args.trace}-{os.getpid()}")
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)

    setup = _setup(args, run_dir)
    plan = json.loads((run_dir / "inputs" / "plan.json").read_text())
    plain = _batch(run_dir, "plain", False, timeout)
    verdicts = _verdicts(plan, plain, run_dir, "plain")
    if args.trace:
        traced = _batch(run_dir, "traced", True, timeout)
        traced_verdicts = _verdicts(plan, traced, run_dir, "traced")
        values = per_layer(plan, traced, plain, traced_verdicts, setup,
                           run_dir)
        metrics = {k: (v, _unit(k)) for k, v in values.items()}
        verdicts = verdicts + traced_verdicts
        named = [f"wall_s {plain['wall_s']:.6g} s (untraced), "
                 f"{traced['wall_s']:.6g} s (traced)"]
    else:
        metrics, named = end_to_end(args.workload, plan, plain, setup)

    env = dict(plain["env"], seed=args.seed, workload=args.workload,
               git_commit=_git_commit(), source_sha256=_source_digest(),
               commands=len(plan))
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in named + _fail_lines(verdicts):
        print(line)
    failed = sum(not v.passed for v in verdicts)
    unexpected = sum(not v.passed and not v.known for v in verdicts)
    print(json.dumps({
        "correct": unexpected == 0, "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    if args.trace:
        # the raw spans outlive the run directory
        os.replace(run_dir / "traced.spans.json",
                   run_dir.parent / f"spans-{args.workload}-{args.seed}.json")
    if unexpected == 0:
        shutil.rmtree(run_dir)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
