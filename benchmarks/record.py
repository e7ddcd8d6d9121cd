"""Append one perfbench run to its workload's committed trajectory.

Usage, from the repository root (``make bench-record W=exact``)::

    python3 benchmarks/record.py exact

Runs ``python3 perfbench/run.py --workload W --seed 1 --trace 0``
unchanged and appends its result -- the last line of its standard
output -- to ``benchmarks/out/BENCH_<W>.json``, one JSON object per
line, together with the commit (``git rev-parse HEAD``), whether the
working tree outside ``benchmarks/out/`` differed from it, the
environment fingerprint
(:func:`repro.obs.env_fingerprint`) and the number of CPUs the process
may run on.  Each file is then the workload's trajectory: a change that
claims a speed-up appends an entry for its parent and one for itself,
measured on the same host.  A run that reports a failed answer, or
exits non-zero, is not recorded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _dirty() -> bool:
    """Whether a tracked file outside ``benchmarks/out/`` differs from HEAD.

    The trajectories themselves are left out: a record appends to one,
    and a second record in the same checkout measures the same code.
    """
    return bool(_git("status", "--porcelain", "--untracked-files=no",
                     "--", ".", ":(exclude)benchmarks/out"))


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platform-specific
        return os.cpu_count() or 1


def record(workload: str) -> int:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--trace", "0"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"bench-record: run failed (exit {run.returncode}); nothing recorded",
              file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    entry = {
        "workload": workload,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": _dirty(),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": ["python3", *command[1:]],
        "nproc": _cpus(),
        "env": obs.env_fingerprint(),
        "result": result,
    }
    out = ROOT / "benchmarks" / "out" / f"BENCH_{workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"bench-record: appended to {out.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not argv[0]:
        print("usage: python3 benchmarks/record.py <workload>  (make bench-record W=<workload>)",
              file=sys.stderr)
        return 2
    return record(argv[0])


if __name__ == "__main__":
    raise SystemExit(main())
