"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload of ``BENCHMARK.json`` at a tiny budget, untraced and
traced, and checks that each run is correct and emits exactly the
metrics ``BENCHMARK.json`` names, each with its unit. Then it plants a
wrong pinned admitted count and checks that the failure is counted.
Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_BUDGET = {"n3_sweep": 2000, "n3_campaign": 600}


def bench(workload: str, trace: int, *extra: str) -> Dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra]
    if workload in TINY_BUDGET:
        command += ["--budget", str(TINY_BUDGET[workload])]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{command} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def expect_metrics(result: Dict, declared: List[Dict], label: str) -> None:
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    wanted = {entry["name"]: entry["unit"] for entry in declared}
    if emitted != wanted:
        missing = sorted(set(wanted) - set(emitted))
        extra = sorted(set(emitted) - set(wanted))
        units = sorted(n for n in set(wanted) & set(emitted) if wanted[n] != emitted[n])
        raise AssertionError(f"{label}: missing {missing}, extra {extra},"
                             f" wrong units {units}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            result = bench(workload, trace)
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{label}: {result['failed']} failed run(s)")
            expect_metrics(result, declared, label)
            print(f"ok: {label} ({result['attempted']} runs)")
    for workload, wrong in (("n2_default", 7236), ("n3_sweep", 2001)):
        result = bench(workload, 0, "--expect-states", str(wrong))
        if result["correct"] or result["failed"] == 0:
            raise AssertionError(f"{workload}: a wrong pin ({wrong}) went unnoticed")
        print(f"ok: {workload} with a wrong pin fails"
              f" {result['failed']}/{result['attempted']} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
