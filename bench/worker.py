"""Benchmark child process: set-up probe or one closed-loop batch.

    python3 bench/worker.py setup --root R --workload W --seed N \
        --seconds S --dir D
        Fresh interpreter: import lambda_adapt.cli, write the seeded
        configs into D, print {"import_s", "inputs_s"} as JSON.

    python3 bench/worker.py run --root R --dir D --out O --result F \
        [--trace]
        Run every command of D/plan.json through lambda_adapt.cli.main,
        one after another (one client, closed loop), writing artifacts
        under O, and write latencies, exit codes, peak RSS, the
        environment record and, with --trace, the span summary to F.

R is the checkout root; the package is imported from R/src and nowhere
else.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import inputs


def _import_cli(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import lambda_adapt.cli as cli
    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"lambda_adapt imported from {where}, not {src}")
    return cli


def _blas_threads():
    import numpy
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "LAMBDA_ADAPT_THREADS": os.environ.get("LAMBDA_ADAPT_THREADS",
                                                   "unset")}


def cmd_setup(args):
    t0 = time.perf_counter()
    _import_cli(Path(args.root))
    t1 = time.perf_counter()
    plan = inputs.build_plan(args.workload, args.seed, args.seconds)
    inputs.write_inputs(plan, Path(args.dir))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


def _invoke(cli, entry: dict, cfg_dir: Path, out: Path) -> dict:
    """One CLI command through main(argv): exit code, error, latency."""
    argv = [entry["command"], "--config", str(cfg_dir / entry["config"]),
            "--out", str(out / entry["id"])]
    rec = {"id": entry["id"], "command": entry["command"], "rc": None,
           "error": ""}
    t0 = time.perf_counter()
    try:
        rec["rc"] = cli.main(argv)
    except SystemExit as exc:
        rec["rc"] = exc.code
    except Exception as exc:  # a traceback is a failed command
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["latency_s"] = time.perf_counter() - t0
    return rec


def cmd_run(args):
    cli = _import_cli(Path(args.root))
    cfg_dir = Path(args.dir)
    out_dir = Path(args.out)
    plan = json.loads((cfg_dir / "plan.json").read_text())
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        wall0 = time.perf_counter()
        records = [_invoke(cli, entry, cfg_dir, out_dir) for entry in plan]
        wall = time.perf_counter() - wall0
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"wall_s": wall, "records": records,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": environment()}
    if tracer is not None:
        result["trace"] = tracer.summarize()
        spans = Path(args.result).with_suffix(".spans.json")
        spans.write_text(json.dumps(tracer.spans))
    Path(args.result).write_text(json.dumps(result))


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--root", required=True)
    s.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--seconds", type=float, required=True)
    s.add_argument("--dir", required=True)
    r = sub.add_parser("run")
    r.add_argument("--root", required=True)
    r.add_argument("--dir", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--result", required=True)
    r.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    {"setup": cmd_setup, "run": cmd_run}[args.mode](args)


if __name__ == "__main__":
    main()
