"""Latency and memory of each command of one benchmark plan, in one process.

    python3 tools/rss_steps.py --workload oracle [--seed 1] [--seconds 15]

Builds the command plan that ``bench/run.py --workload W --seed N
--seconds S`` runs (``bench/inputs.py``), writes its configs to a
temporary directory and runs every command through
``lambda_adapt.cli.main``, imported from this checkout's ``src/``, one
after another in this process, the way ``bench/worker.py`` does, with
what the commands print discarded.  After each command it prints one
row: the command's id, name and exit code, its latency, the resident
set after it (``/proc/self/statm``; ``-`` where that file does not
exist) and the process's running peak (``ru_maxrss``), both in the
benchmark's MB (ru_maxrss / 1024).  The benchmark reports only the
batch's peak; the rows show which command sets it and what the
commands before it left resident.  On Linux a process inherits the
peak of the one that started it, across fork and exec, so the peaks
mean most when the tool is started from a small process such as a
shell, as ``bench/run.py`` starts its worker.  The modules of
``bench/`` are imported, not changed, and no bytecode is written there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "bench"))
import inputs  # noqa: E402
import worker  # noqa: E402

COLUMNS = ("id", "command", "rc", "latency_s", "rss_mb", "peak_mb")


def resident_mb() -> float | None:
    """This process's resident set, or None without /proc/self/statm."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0 ** 2


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mb(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    cli = worker._import_cli(ROOT)
    plan = inputs.build_plan(args.workload, args.seed, args.seconds)
    print(" ".join(COLUMNS))
    print(f"start - - - {_mb(resident_mb())} {_mb(peak_mb())}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_dir, out = Path(tmp) / "configs", Path(tmp) / "out"
        inputs.write_inputs(plan, cfg_dir)
        for entry in plan:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rec = worker._invoke(cli, entry, cfg_dir, out)
            print(f"{rec['id']} {rec['command']} {rec['rc']} "
                  f"{rec['latency_s']:.4f} {_mb(resident_mb())} "
                  f"{_mb(peak_mb())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
