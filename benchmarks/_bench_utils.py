"""Shared helpers for the benchmark harness.

Each ``bench_eXX_*`` module regenerates one experiment from DESIGN.md's
index (the paper's figures, mechanically-checked claims, and stated
bounds).  Conventions:

- the timed callable *is* the experiment (workload generation included),
  so `pytest benchmarks/ --benchmark-only` both measures and validates;
- reproduced rows/series are attached to ``benchmark.extra_info`` so
  they appear in the benchmark report, and printed with ``emit`` for
  ``-s`` runs;
- shape assertions (who wins, what breaks, which bound holds) run on
  the result of the final timed round — a benchmark that regenerates the
  wrong table fails loudly rather than reporting a meaningless time.

Environment knobs:

- ``REPRO_BENCH_SEEDS`` (default 20): seeds per statistical sweep;
- ``REPRO_E4_BUDGET`` (default 200000): N=3 states per wiring class;
- ``REPRO_E4_FULL=1``: remove the E4 budget (hours; exhaustive N=3);
- ``REPRO_E4_JOBS`` (default 1): worker processes for E4's N=3 sweep
  (wiring classes explored in parallel; 1 = serial);
- ``REPRO_E5_JOBS`` (default: ``REPRO_E4_JOBS``): worker processes for
  E5b's claim-B wiring sweep;
- ``REPRO_E4_STORE`` (default ``ram``): visited-set backend for E4's
  N=3 sweep (``ram`` | ``mmap`` | ``spill``; see :mod:`repro.store`) —
  the disk backends make ``REPRO_E4_FULL=1`` runs RAM-bounded;
- ``REPRO_E15_BUDGET`` (default 50000): states per workload in the
  checker-throughput benchmark (E15).

Performance tracking: :func:`write_checker_bench` writes
``BENCH_checker.json`` at the repository root — states/second, peak
RSS, and states explored for the serial and parallel engines on fixed
workloads — so the checker's performance trajectory is comparable
across PRs.  ``benchmarks/bench_e15_checker_throughput.py`` emits it
(both under pytest and standalone: ``python
benchmarks/bench_e15_checker_throughput.py``).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Optional

SEEDS = int(os.environ.get("REPRO_BENCH_SEEDS", "20"))
E4_BUDGET = (
    None
    if os.environ.get("REPRO_E4_FULL") == "1"
    else int(os.environ.get("REPRO_E4_BUDGET", "200000"))
)
E4_JOBS = int(os.environ.get("REPRO_E4_JOBS", "1"))
E4_STORE = os.environ.get("REPRO_E4_STORE", "ram")
E5_JOBS = int(os.environ.get("REPRO_E5_JOBS", str(E4_JOBS)))
E15_BUDGET = int(os.environ.get("REPRO_E15_BUDGET", "50000"))

#: Default location of the checker performance-trajectory file.
BENCH_CHECKER_PATH = Path(__file__).resolve().parent.parent / "BENCH_checker.json"


def emit(*lines: str) -> None:
    """Print reproduction rows (visible with ``pytest -s``)."""
    for line in lines:
        print(line)


def peak_rss_bytes(children: bool = False) -> int:
    """High-water resident set size of this process (or its children).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize
    to bytes.  Monotone over the process lifetime — for per-workload
    numbers run the workload in a fresh subprocess (see
    ``bench_e15_checker_throughput``).
    """
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    raw = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux container
        return raw
    return raw * 1024


def git_sha() -> Optional[str]:
    """Short SHA of the checked-out commit, or None outside a repo."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def _headline_states_per_s(document: dict) -> Optional[int]:
    """The history headline: best single-engine states/s on record.

    Prefers the kernel trend lines (``native``, then ``batch``) on the
    fixed identity-class workload; falls back to the serial sweep when
    neither section exists (e.g. numpy-less hosts).
    """
    best: Optional[int] = None
    for section_name, run_key in (("native", "native"), ("batch", "batch")):
        section = document.get(section_name)
        if not isinstance(section, dict):
            continue
        for mode in ("plain", "symmetry"):
            entry = section.get(mode)
            if not isinstance(entry, dict):
                continue
            run = entry.get(run_key)
            if isinstance(run, dict) and run.get("states_per_s"):
                value = int(run["states_per_s"])
                if best is None or value > best:
                    best = value
    if best is not None:
        return best
    sweep = document.get("sweep")
    if isinstance(sweep, dict):
        serial = sweep.get("serial")
        if isinstance(serial, dict) and serial.get("states_per_s"):
            return int(serial["states_per_s"])
    return None


def write_checker_bench(payload: dict, path: Optional[Path] = None) -> Path:
    """Write ``BENCH_checker.json``: the cross-PR checker perf record.

    Sections are **merged**, not overwritten: an existing file's
    top-level sections survive unless this run remeasured them, so a
    partial run (e.g. the symmetry sweep alone) never erases the
    throughput/memory record it didn't touch.  Each section written by
    this run is stamped with the current git SHA — a merged file can
    carry sections from different commits, and the stamps say which.
    Host facts (CPU count, Python, platform) are stamped alongside so
    numbers from different runners are never compared blind.

    A top-level ``history`` list accumulates one entry per git SHA —
    the headline states/s after each run (best kernel trend line; see
    :func:`_headline_states_per_s`) — so the checker's perf trajectory
    across PRs is a one-key read.  Re-runs on the same SHA replace
    that SHA's entry rather than appending.
    """
    target = Path(path) if path is not None else BENCH_CHECKER_PATH
    sha = git_sha()
    stamped = {
        key: ({**value, "git_sha": sha} if isinstance(value, dict) else value)
        for key, value in payload.items()
    }
    document = {
        "schema": "repro-checker-bench/1",
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    if target.exists():
        try:
            previous = json.loads(target.read_text())
        except (OSError, json.JSONDecodeError):
            previous = {}
        if previous.get("schema") == document["schema"]:
            for key, value in previous.items():
                if key not in ("schema", "host"):
                    document[key] = value
    document.update(stamped)
    history = [
        entry for entry in document.get("history", [])
        if isinstance(entry, dict) and entry.get("git_sha") != sha
    ]
    headline = _headline_states_per_s(document)
    if headline is not None:
        history.append({"git_sha": sha, "states_per_s": headline})
    document["history"] = history
    target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return target
