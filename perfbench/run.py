"""End-to-end benchmark of real ``repro check`` invocations.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload n3_sweep --seed 1 --seconds 20 --trace 0

One driver process runs the workload's command as ``python -m repro
check ...`` subprocesses, one after another (a closed loop with one
client), for ``--seconds`` seconds. Every invocation's output is checked.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (see ``BENCHMARK.json``).
``--trace 1`` alternates untraced invocations with traced ones
(``tracer.py``) and reports the per-layer metrics.

The checker is deterministic and takes no random input: the seed only
shuffles the order of repetitions (set-up probes among timed runs, traced
among untraced ones). Everything the benchmark writes lives under
``.perfbench_work/`` in the checkout; the compiled native kernels are
cached there across runs, every other file is deleted after its
invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
NATIVE_CACHE = WORK / "native-cache"

#: The stderr line ``repro check`` prints when ``--kernel native`` falls
#: back to numpy; a run showing it measured the wrong program.
FALLBACK_WARNING = "--kernel native unavailable"

#: Admitted states of each N=2 wiring, exhaustive (the N=2 oracle count).
N2_STATES = 7235
N3_CLASSES = 10

#: An invocation taking longer than this is killed and counted as failed.
INVOCATION_TIMEOUT_S = 150.0
#: The first invocation in a checkout compiles the native kernels.
WARMUP_TIMEOUT_S = 800.0


@dataclass(frozen=True)
class Workload:
    """One ``repro check`` command and what its output must show.

    ``pin`` is how the admitted count per class is gated: ``"n2"`` (every
    wiring admits exactly ``N2_STATES``), ``"exact"`` (exactly the budget
    per class) or ``"at_least"`` (sharded runs stop at a layer boundary,
    so they admit at least the budget).
    """

    name: str
    args: Tuple[str, ...]
    budget: Optional[int]
    pin: str
    setup_probes: int
    dirs: bool = False

    def argv(self, budget: Optional[int], run_dir: Path) -> List[str]:
        argv = ["check", *self.args]
        if budget is not None:
            argv += ["--budget", str(budget)]
        if self.dirs:
            store = run_dir / "store"
            ckpt = run_dir / "ckpt"
            argv += ["--store-dir", str(store), "--checkpoint-dir", str(ckpt),
                     "--checkpoint-every", str(max(1, (budget or 1) // 3))]
        return argv


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("n2_default", (), None, "n2", setup_probes=5),
        Workload(
            "n3_sweep",
            ("--n", "3", "--symmetry", "--engine", "batch", "--kernel", "native"),
            500_000, "exact", setup_probes=5,
        ),
        Workload(
            "n3_campaign",
            ("--n", "3", "--symmetry", "--por", "--por-unsafe-budget",
             "--engine", "batch", "--kernel", "native", "--jobs", "2",
             "--sharded", "--store", "spill", "--mem-cap", "256K"),
            20_000, "at_least", setup_probes=3, dirs=True,
        ),
    )
}

#: Units of the metrics this benchmark emits.
END_TO_END_UNITS = {
    "wall_s": "s",
    "states_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "native.load_s": "s", "native.build_cold_s": "s",
    "batch.expand_s": "s", "batch.fingerprint_s": "s", "batch.dedup_s": "s",
    "batch.probe_s": "s", "batch.insert_s": "s", "batch.invariant_s": "s",
    "batch.loop_self_s": "s", "batch.levels": "count",
    "batch.expand_in": "count", "batch.expand_out": "count",
    "batch.dedup_unique_ratio": "ratio", "batch.fresh_ratio": "ratio",
    "symmetry.setup_s": "s", "symmetry.canonical_s": "s",
    "symmetry.canonical_states": "count", "symmetry.orbit_s": "s",
    "por.select_s": "s", "por.ample_ratio": "ratio",
    "por.transitions_pruned": "count", "por.proviso_expansions": "count",
    "store.contains_s": "s", "store.contains_keys": "count",
    "store.add_s": "s", "store.add_keys": "count",
    "store.disk_probes": "count", "store.bloom_skip_ratio": "ratio",
    "store.runs": "count", "store.merge_s": "s", "store.file_mb": "MB",
    "checkpoint.write_s": "s", "checkpoint.writes": "count",
    "checkpoint.mb": "MB", "checkpoint.sweep_record_s": "s",
    "parallel.spawn_s": "s", "parallel.rounds": "count",
    "parallel.round_s": "s", "parallel.driver_wait_s": "s",
    "parallel.wire_mb": "MB", "parallel.worker_util": "ratio",
    "parallel.shard_imbalance": "ratio",
    "explorer.run_s": "s", "explorer.states": "count",
    "explorer.transitions": "count", "liveness.wait_freedom_s": "s",
    "disk_mb": "MB",
    "trace.overhead_ratio": "ratio", "trace.unattributed_ratio": "ratio",
}


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------

def child_env(tmp: Path) -> Dict[str, str]:
    """The pinned environment every invocation runs in.

    Inherited ``REPRO_*`` knobs (``REPRO_NATIVE_DISABLE``, the E4/E5
    bench sizes, ...) are dropped, the native cache is the benchmark's
    own, the package comes from this checkout's ``src`` and temporary
    files stay inside the invocation's directory.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def _first_line(command: Sequence[str]) -> str:
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = (done.stdout or done.stderr).strip().splitlines()
    return lines[0] if lines else "unavailable"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def source_id() -> str:
    """The git SHA when the checkout is a repository, else a hash of
    ``src/`` (benchmark checkouts are plain file trees)."""
    if (ROOT / ".git").exists():
        sha = _first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        if re.fullmatch(r"[0-9a-f]{40}", sha):
            return sha
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "compiler": _first_line([os.environ.get("CC", "cc"), "--version"]),
        "numpy": _version("numpy"),
        "cffi": _version("cffi"),
        "source": source_id(),
    }


# ----------------------------------------------------------------------
# One invocation
# ----------------------------------------------------------------------

def _tree_pids(root: int) -> List[int]:
    """``root`` and its live descendants, from ``/proc``."""
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/children") as handle:
                    todo.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
    return pids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemory(threading.Thread):
    """Peak RSS summed over a process tree, sampled from ``/proc``.

    Each sample sums the high-water mark (``VmHWM``) of every live
    process in the tree, so a short spike between samples still counts;
    the peak is the largest such sum. ``ru_maxrss`` of the root alone
    would miss the shard workers.
    """

    def __init__(self, root: int, interval: float = 0.05) -> None:
        super().__init__(daemon=True)
        self.root = root
        self.interval = interval
        self.peak_kb = 0
        self.done = threading.Event()

    def run(self) -> None:
        while True:
            total = sum(_hwm_kb(pid) for pid in _tree_pids(self.root))
            self.peak_kb = max(self.peak_kb, total)
            if self.done.wait(self.interval):
                return


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    disk_mb: float
    stdout: str
    error: Optional[str] = None
    admitted: int = 0
    record: Dict[str, object] = field(default_factory=dict)


def _disk_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def invoke(command: List[str], run_dir: Path, timeout: float,
           extra_env: Optional[Dict[str, str]] = None) -> Outcome:
    """Run ``command`` once in the pinned environment and measure it.

    Output goes to files (no pipe can fill up); the process group is
    killed on timeout, so shard workers never outlive their driver.
    """
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    with open(run_dir / "stdout", "wb") as out, open(run_dir / "stderr", "wb") as err:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=ROOT, env={**child_env(tmp), **(extra_env or {})},
            stdout=out, stderr=err,
            start_new_session=True,
        )
        memory = TreeMemory(process.pid)
        memory.start()
        killer = threading.Timer(
            timeout, lambda: os.killpg(process.pid, signal.SIGKILL)
        )
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            memory.done.set()
            memory.join()
        process.returncode = os.waitstatus_to_exitcode(status)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:  # stragglers of a killed or crashed tree
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    stdout = (run_dir / "stdout").read_text(errors="replace")
    stderr = (run_dir / "stderr").read_text(errors="replace")
    outcome = Outcome(
        wall_s=wall,
        cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        peak_rss_mb=max(memory.peak_kb, usage.ru_maxrss) / 1024.0,
        disk_mb=sum(
            _disk_bytes(run_dir / name) for name in ("store", "ckpt")
            if (run_dir / name).exists()
        ) / 1e6,
        stdout=stdout,
    )
    if process.returncode != 0:
        tail = (stderr.strip().splitlines() or ["no stderr"])[-1]
        outcome.error = f"exit code {process.returncode}: {tail}"
    elif FALLBACK_WARNING in stderr:
        outcome.error = "native kernel fell back to numpy"
    return outcome


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

N2_LINE = re.compile(r"^wiring (\(.*\)): (\d+) states, safety\+wait-freedom (\S+)$")
N3_LINE = re.compile(r"^wiring class (\(.*\)): (\d+) states \((.*?)\)(.*), (OK|VIOLATED.*)$")
COVERED = re.compile(r"covering (\d+) concrete states")


def check_output(workload: Workload, budget: Optional[int], outcome: Outcome,
                 expect: Optional[int]) -> None:
    """Gate on verdicts and admitted counts; record covered counts.

    Sets ``outcome.error`` on the first mismatch. ``expect`` overrides
    the pinned admitted count (the self-test uses it to plant a wrong
    pin).
    """
    if outcome.error is not None:
        return
    lines = outcome.stdout.splitlines()
    if workload.pin == "n2":
        rows = [m for m in map(N2_LINE.match, lines) if m]
        pinned = N2_STATES if expect is None else expect
        if len(rows) != 2:
            outcome.error = f"expected 2 wiring lines, got {len(rows)}"
        for row in rows:
            if row.group(3) != "OK":
                outcome.error = f"wiring {row.group(1)}: {row.group(3)}"
            elif int(row.group(2)) != pinned:
                outcome.error = (f"wiring {row.group(1)}: {row.group(2)}"
                                 f" states, pinned {pinned}")
        outcome.admitted = sum(int(row.group(2)) for row in rows)
        outcome.record = {"admitted": outcome.admitted}
        return
    rows = [m for m in map(N3_LINE.match, lines) if m]
    pinned = budget if expect is None else expect
    if len(rows) != N3_CLASSES:
        outcome.error = f"expected {N3_CLASSES} class lines, got {len(rows)}"
    covered = 0
    for row in rows:
        states = int(row.group(2))
        if row.group(5) != "OK":
            outcome.error = f"class {row.group(1)}: {row.group(5)}"
        elif workload.pin == "exact" and states != pinned:
            outcome.error = f"class {row.group(1)}: {states} states, pinned {pinned}"
        elif workload.pin == "at_least" and states < pinned:
            outcome.error = (f"class {row.group(1)}: {states} states,"
                             f" pinned at least {pinned}")
        found = COVERED.search(row.group(4))
        covered += int(found.group(1)) if found else states
    outcome.admitted = sum(int(row.group(2)) for row in rows)
    outcome.record = {"admitted": outcome.admitted, "covered": covered}


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

class Runner:
    """Runs one workload's invocations and keeps their outcomes."""

    def __init__(self, workload: Workload, budget: Optional[int],
                 expect: Optional[int]) -> None:
        self.workload = workload
        self.budget = budget
        self.expect = expect
        self.attempted = 0
        self.errors: List[str] = []
        self._serial = 0

    def _run_dir(self) -> Path:
        self._serial += 1
        path = WORK / "runs" / f"{os.getpid()}-{self._serial}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def _count(self, outcome: Outcome, kind: str) -> bool:
        self.attempted += 1
        if outcome.error is not None:
            self.errors.append(f"{kind}: {outcome.error}")
            return False
        return True

    def check(self, budget: Optional[int], traced: bool = False,
              timeout: float = INVOCATION_TIMEOUT_S
              ) -> Tuple[Optional[Outcome], Optional[dict]]:
        """One ``repro check`` at ``budget``, optionally traced."""
        run_dir = self._run_dir()
        try:
            argv = self.workload.argv(budget, run_dir)
            if traced:
                trace_path = run_dir / "trace.json"
                command = [sys.executable, str(HERE / "tracer.py"),
                           "--out", str(trace_path), "--", *argv]
            else:
                command = [sys.executable, "-m", "repro", *argv]
            outcome = invoke(command, run_dir, timeout)
            check_output(self.workload, budget, outcome, self.expect)
            trace = None
            if traced and outcome.error is None:
                trace = json.loads(trace_path.read_text())
            kind = "traced" if traced else "check"
            return (outcome if self._count(outcome, kind) else None), trace
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def setup_probe(self) -> Optional[float]:
        """Set-up time: the command cut to ``--budget 1``; for the N=2
        default, which ignores budgets, the import of the CLI and checker."""
        if self.workload.budget is not None:
            outcome, _ = self.check(1)
            return outcome.wall_s if outcome else None
        run_dir = self._run_dir()
        try:
            outcome = invoke(
                [sys.executable, "-c", "import repro.cli, repro.checker"],
                run_dir, INVOCATION_TIMEOUT_S,
            )
            return outcome.wall_s if self._count(outcome, "setup") else None
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def cold_build(self) -> Optional[float]:
        """``tracer.py --cold-build`` against an empty native cache."""
        run_dir = self._run_dir()
        try:
            outcome = invoke(
                [sys.executable, str(HERE / "tracer.py"), "--cold-build"],
                run_dir, INVOCATION_TIMEOUT_S,
                extra_env={"REPRO_NATIVE_CACHE": str(run_dir / "cold-cache")},
            )
            if not self._count(outcome, "cold build"):
                return None
            return float(json.loads(outcome.stdout.splitlines()[-1])["build_cold_s"])
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(runner: Runner, seconds: float, rng: random.Random
            ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """End-to-end metrics: a closed loop of timed invocations, with the
    set-up probes shuffled in among the first of them."""
    plan = ["setup"] * runner.workload.setup_probes + ["check"] * runner.workload.setup_probes
    rng.shuffle(plan)
    checks: List[Outcome] = []
    setups: List[float] = []
    deadline = time.perf_counter() + seconds
    while plan or time.perf_counter() < deadline:
        kind = plan.pop(0) if plan else "check"
        if kind == "setup":
            probe = runner.setup_probe()
            if probe is not None:
                setups.append(probe)
            continue
        outcome, _ = runner.check(runner.budget)
        if outcome is not None:
            checks.append(outcome)
    walls = [o.wall_s for o in checks]
    metrics = {
        "wall_s": _median(walls),
        "states_per_s": _median([o.admitted / o.wall_s for o in checks]),
        "cpu_s": _median([o.cpu_s for o in checks]),
        "peak_rss_mb": _median([o.peak_rss_mb for o in checks]),
        "setup_s": _median(setups),
    }
    # Fewer than ten samples lie beyond the 90th percentile of a run, so
    # it is recorded beside the numbers rather than reported as a metric.
    record = {"samples": len(checks), "setup_samples": len(setups),
              "check_p50_s": metrics["wall_s"], "check_p90_s": _p90(walls),
              **(checks[0].record if checks else {})}
    return metrics, record


def measure_traced(runner: Runner, seconds: float, rng: random.Random
                   ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Per-layer metrics: untraced and traced invocations in shuffled
    pairs until ``seconds`` pass; each metric is the median over pairs."""
    cold = runner.cold_build() if runner.workload.budget is not None else 0.0
    plain: List[Outcome] = []
    layers: List[Dict[str, float]] = []
    traced_walls: List[float] = []
    self_times: Dict[str, List[float]] = {}
    transitions: List[float] = []
    deadline = time.perf_counter() + seconds
    pairs = 0
    while pairs == 0 or time.perf_counter() < deadline:
        pairs += 1
        pair = [False, True]
        rng.shuffle(pair)
        for traced in pair:
            outcome, trace = runner.check(runner.budget, traced=traced)
            if outcome is None:
                continue
            if not traced:
                plain.append(outcome)
                continue
            traced_walls.append(outcome.wall_s)
            layers.append(tracer.layer_metrics(trace, outcome.wall_s, outcome.admitted))
            for name, value in tracer.merged(trace, "self").items():
                self_times.setdefault(name, []).append(value)
            counts = tracer.merged(trace, "counts")
            transitions.append(counts["result.transitions"]
                               + counts["explorer.transitions"])
    metrics = {name: _median([layer[name] for layer in layers])
               for name in layers[0]} if layers else dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics["native.build_cold_s"] = cold or 0.0
    metrics["disk_mb"] = _median([o.disk_mb for o in plain])
    metrics["trace.overhead_ratio"] = (
        _median(traced_walls) / _median([o.wall_s for o in plain]) if plain else 0.0
    )
    top = sorted(((statistics.median(v), k) for k, v in self_times.items()),
                 reverse=True)[:8]
    record = {"pairs": len(layers), "transitions": _median(transitions),
              "self_time_s": {name: round(value, 4) for value, name in top}}
    return metrics, record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--budget", type=int, default=None,
                        help="override the workload's state budget per class")
    parser.add_argument("--expect-states", type=int, default=None,
                        help="override the pinned admitted count per class"
                             " (self-test of the output checks)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    budget = workload.budget if args.budget is None else args.budget
    runner = Runner(workload, budget, args.expect_states)
    rng = random.Random(args.seed)

    NATIVE_CACHE.mkdir(parents=True, exist_ok=True)
    # Warm-up: byte-compiles the package and fills the native cache (the
    # first run in a checkout compiles every class's kernel).
    runner.check(1 if budget is not None else None, timeout=WARMUP_TIMEOUT_S)
    if args.trace:
        metrics, record = measure_traced(runner, args.seconds, rng)
        units = PER_LAYER_UNITS
    else:
        metrics, record = measure(runner, args.seconds, rng)
        units = END_TO_END_UNITS
    failed = len(runner.errors)
    print("env: " + json.dumps(environment(), sort_keys=True))
    print("record: " + json.dumps({"workload": workload.name, "seed": args.seed,
                                   "budget": budget, **record}, sort_keys=True))
    for error in runner.errors[:10]:
        print(f"error: {error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
