"""tools/rss_steps.py on the benchmark's 3-command oracle plan."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "rss_steps.py"


def listing(directory: Path) -> list:
    return sorted((str(p.relative_to(directory)), p.stat().st_mtime_ns)
                  for p in directory.rglob("*"))


def test_oracle_plan_prints_one_row_per_command():
    bench = listing(ROOT / "bench")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "oracle", "--seed", "1",
         "--seconds", "15"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    header, start, *rows = [line.split()
                            for line in proc.stdout.splitlines()]
    assert header == ["id", "command", "rc", "latency_s", "rss_mb",
                      "peak_mb"]
    assert start[:4] == ["start", "-", "-", "-"]
    assert len(rows) == 3
    peaks = [float(start[5])]
    for cid, command, rc, latency, rss, peak in rows:
        assert cid.startswith("orc-") and command == "oracle-verify"
        # 4 is the oracle's verdict on the two known deviations
        assert rc in ("0", "4")
        assert float(latency) > 0
        assert rss == "-" or float(rss) > 0
        peaks.append(float(peak))
    # a running peak; on Linux it starts from this process's, which
    # the child inherits across fork and exec
    assert peaks == sorted(peaks)
    assert listing(ROOT / "bench") == bench
