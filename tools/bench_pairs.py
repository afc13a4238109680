"""Alternating parent/change pairs of bench/run.py, collected into one JSON.

    python3 tools/bench_pairs.py --base REV [--change REV] \\
        --out BENCH_<n>.json --workload oracle --seeds 1001-1010 \\
        [--workload simulate ...] [--seconds 15]

Each side is ``git archive`` of its revision (the change defaults to
HEAD) unpacked into a fresh temporary directory.  Both sides then run
from the same kind of directory: a working tree can hold uncommitted
edits, and a file watcher on it slows the write-heavy simulate batch.
Pair i runs both sides on seed i, the parent first on even pairs and
the change first on odd ones, each as
``bench/run.py --workload W --seed i --seconds S``.  The
output holds, per workload and end-to-end metric, every run's value and
each side's median and quartiles, the number of pairs the change won,
the metric's verdict (``verdict``, below), the verdict line of each run,
each side's failed share of the commands attempted, summed over its
runs, with ``more_failures`` set when the change's share is the larger
(``failed_shares``), the seeds, and the environment line of
``bench/run.py`` (python, numpy, scipy, BLAS and its thread count,
nproc).  Each side also runs every workload once more on seed
``TRACE_SEED`` with ``--trace 1``, and the output keeps both sides'
per-layer metrics under ``traced``.  The benchmark itself is not
touched.

Each end-to-end metric of each workload gets one verdict, printed and
stored, with ``bound`` the metric's bound in BENCHMARK.json (a fraction
of the parent's median) and the spread the distance between the
parent's quartiles:

- ``gain``: the change wins at least 9 pairs in 10 and the medians
  differ, in its favour, by more than the spread;
- ``regression``: the change's median is worse than the parent's by
  more than the bound;
- ``unresolved``: the spread is wider than the bound, and not every run
  of the change beats every run of the parent;
- ``no change`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 1


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _unpack(rev: str, dest: Path):
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(tree: Path, workload: str, seed: int, seconds: float,
         trace: bool = False) -> dict:
    """One bench/run.py run: its env line and its last (JSON) line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py {workload} seed {seed} in {tree} "
                           f"exited {proc.returncode}")
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    result = json.loads(lines[-1])
    return {"env": env, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def _end_to_end() -> dict:
    """BENCHMARK.json end-to-end metrics: name -> (lower is better, bound)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"] == "lower", m["bound"])
            for m in spec["end_to_end"]}


def verdict(parent: list[float], change: list[float], lower: bool,
            bound: float) -> tuple[str, int]:
    """``gain``, ``regression``, ``unresolved`` or ``no change`` for the
    paired runs of one metric (see the module docstring), with the number
    of pairs the change won."""
    # in units where lower is better
    sign = 1.0 if lower else -1.0
    p, c = [sign * x for x in parent], [sign * x for x in change]
    ps, cs = _summary(p), _summary(c)
    wins = sum(y < x for x, y in zip(p, c))
    spread = ps["q3"] - ps["q1"]
    allowed = bound * abs(ps["median"])
    if wins >= 0.9 * len(p) and ps["median"] - cs["median"] > spread:
        return "gain", wins
    if cs["median"] - ps["median"] > allowed:
        return "regression", wins
    if spread > allowed and not max(c) < min(p):
        return "unresolved", wins
    return "no change", wins


def failed_shares(runs: dict) -> dict:
    """Each side's failed / attempted commands, summed over its runs, and
    ``more_failures``: whether the change's share exceeds the parent's."""
    shares = {side: sum(r["failed"] for r in rs)
              / sum(r["attempted"] for r in rs)
              for side, rs in runs.items()}
    return {**shares, "more_failures": shares["change"] > shares["parent"]}


def collect(base: str, change: str, plan: list[tuple[str, list[int]]],
            seconds: float) -> dict:
    spec = _end_to_end()
    doc = {"base": base,
           "change": subprocess.run(
               ["git", "describe", "--always", change], cwd=ROOT,
               check=True, stdout=subprocess.PIPE, text=True).stdout.strip(),
           "seconds": seconds, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side, rev in (("parent", base), ("change", change)):
            trees[side].mkdir()
            _unpack(rev, trees[side])
        for workload, seeds in plan:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ["parent", "change"] if i % 2 == 0 \
                    else ["change", "parent"]
                for side in order:
                    run = _run(trees[side], workload, seed, seconds)
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(run['metrics'])}", flush=True)
            metrics = {}
            for name in runs["change"][0]["metrics"]:
                p = [r["metrics"][name] for r in runs["parent"]]
                c = [r["metrics"][name] for r in runs["change"]]
                label, wins = verdict(p, c, *spec[name])
                metrics[name] = {"parent": _summary(p), "change": _summary(c),
                                 "change_better_pairs": wins,
                                 "pairs": len(seeds), "verdict": label}
                print(f"{workload} {name}: {label} "
                      f"({wins}/{len(seeds)} pairs, median "
                      f"{metrics[name]['parent']['median']:.4g} -> "
                      f"{metrics[name]['change']['median']:.4g})", flush=True)
            failed = failed_shares(runs)
            print(f"{workload} failed share: {failed['parent']:.4g} -> "
                  f"{failed['change']:.4g}"
                  + (" (more failures)" if failed["more_failures"] else ""),
                  flush=True)
            doc["workloads"][workload] = {
                "seeds": seeds, "metrics": metrics, "failed_share": failed,
                "verdicts": {side: [{k: r[k] for k in
                                     ("correct", "attempted", "failed")}
                                    for r in rs]
                             for side, rs in runs.items()},
                "env": {side: {k: v for k, v in rs[0]["env"].items()
                               if k not in ("seed", "git_commit",
                                            "source_sha256")}
                        for side, rs in runs.items()}}
            doc["workloads"][workload]["traced"] = {
                "seed": TRACE_SEED,
                **{side: _run(trees[side], workload, TRACE_SEED, seconds,
                              trace=True)["metrics"]
                   for side in ("parent", "change")}}
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--change", default="HEAD",
                        help="git revision of the change side")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", action="append", required=True,
                        help="seed range lo-hi, one per --workload")
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    if len(args.workload) != len(args.seeds):
        parser.error("give one --seeds range per --workload")
    plan = [(w, _seeds(s)) for w, s in zip(args.workload, args.seeds)]
    doc = collect(args.base, args.change, plan, args.seconds)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
