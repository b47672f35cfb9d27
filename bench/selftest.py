"""Self-test of the benchmark harness: its checks pass, and they can fail.

Usage (from the root of a checkout): ``python3 bench/selftest.py``

Each workload runs its smallest traced run (one untraced and one traced
job, default seed) twice: against ``bench/reference.json``, where no job
may fail, and against a copy with every digest and one integer cell per
reference table corrupted, where every job must fail.  Exits 0 when both
hold for all workloads.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORK = BENCH.parent / ".bench_out"


def corrupt(reference: dict) -> dict:
    bad = json.loads(json.dumps(reference))
    for digests in bad["digests"].values():
        for name in digests:
            digests[name] = digests[name][::-1]
    for name, table in bad["tables"].items():
        header, first, rest = table.split("\n", 2)
        cell, tail = first.split(",", 1)
        bad["tables"][name] = f"{header}\n{cell}x,{tail}\n{rest}"
    return bad


def run(workload: str, reference: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1",
         "--reference", str(reference)],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    WORK.mkdir(exist_ok=True)
    bad_path = WORK / "corrupted-reference.json"
    bad_path.write_text(json.dumps(corrupt(json.loads(
        (BENCH / "reference.json").read_text()))))
    ok = True
    try:
        for workload in ("spectral", "search", "encode"):
            good = run(workload, BENCH / "reference.json")
            bad = run(workload, bad_path)
            good_ratio = good["failed"] / good["attempted"]
            bad_ratio = bad["failed"] / bad["attempted"]
            passed = (good["correct"] and good_ratio == 0
                      and not bad["correct"] and bad_ratio == 1)
            ok &= passed
            print(f"{workload}: fail_ratio {good_ratio:g} with the reference, "
                  f"{bad_ratio:g} with it corrupted: "
                  f"{'ok' if passed else 'FAIL'}")
    finally:
        bad_path.unlink()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
