"""Command-line interface: ``python -m repro <command>``.

Thin, scriptable access to the library's main entry points:

- ``snapshot`` / ``renaming`` / ``consensus`` — run one of the paper's
  algorithms with chosen inputs, seed, and sizes, printing per-processor
  outputs;
- ``figure2`` — print the reproduced Figure 2 table and its certified
  repetition;
- ``check`` — TLC-style exhaustive model check of the snapshot
  algorithm for N=2 (safety + wait-freedom), or a budgeted N=3 sweep,
  optionally parallel (``--jobs``, ``--sharded``), symmetry-reduced
  (``--symmetry``), disk-backed (``--store mmap|spill``), and
  checkpointed (``--checkpoint-dir`` / ``--resume``); visited sets
  hold exact packed states, never fingerprints;
- ``lint`` — anonlint, the model-soundness static analysis (anonymity,
  wiring discipline, permutation-invariance, wait-freedom hygiene),
  with ``--dynamic`` metamorphic orbit-invariance verification;
- ``lower-bound`` — run the §2.1 covering-erasure demonstration.

Every command exits non-zero if the run violates the property it
demonstrates, so the CLI doubles as a smoke check in scripts/CI.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence


def _parse_inputs(raw: Sequence[str]) -> List[str]:
    """Inputs are strings; pure integers are converted for convenience."""
    parsed: List = []
    for token in raw:
        try:
            parsed.append(int(token))
        except ValueError:
            parsed.append(token)
    return parsed


def _parse_mem(text: str) -> int:
    """Parse a byte size: a plain integer or K/M/G-suffixed (binary)."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    cleaned = text.strip().lower()
    if cleaned.endswith("ib"):
        cleaned = cleaned[:-2]
    elif cleaned.endswith("b"):
        cleaned = cleaned[:-1]
    if cleaned and cleaned[-1] in units:
        return int(float(cleaned[:-1]) * units[cleaned[-1]])
    return int(cleaned)


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.api import run_snapshot
    from repro.core.views import all_comparable

    inputs = _parse_inputs(args.inputs)
    result = run_snapshot(
        inputs, seed=args.seed, n_registers=args.registers,
        max_steps=args.max_steps,
    )
    for pid in sorted(result.outputs):
        print(f"processor {pid} (input {inputs[pid]!r}):"
              f" {sorted(result.outputs[pid], key=repr)}")
    ok = result.all_terminated and all_comparable(result.outputs.values())
    print(f"terminated: {result.all_terminated};"
          f" containment: {all_comparable(result.outputs.values())};"
          f" steps: {result.steps}")
    return 0 if ok else 1


def _cmd_renaming(args: argparse.Namespace) -> int:
    from repro.api import run_renaming
    from repro.core.renaming import renaming_bound

    group_ids = _parse_inputs(args.inputs)
    result = run_renaming(group_ids, seed=args.seed, max_steps=args.max_steps)
    m = len(set(group_ids))
    bound = renaming_bound(m)
    for pid in sorted(result.outputs):
        print(f"processor {pid} (group {group_ids[pid]!r}):"
              f" name {result.outputs[pid]}")
    within = all(1 <= name <= bound for name in result.outputs.values())
    print(f"groups: {m}; namespace bound M(M+1)/2 = {bound};"
          f" within bound: {within}")
    return 0 if result.all_terminated and within else 1


def _cmd_consensus(args: argparse.Namespace) -> int:
    from repro.api import run_consensus

    proposals = _parse_inputs(args.inputs)
    result = run_consensus(proposals, seed=args.seed, max_steps=args.max_steps)
    for pid in sorted(result.outputs):
        print(f"processor {pid} (proposed {proposals[pid]!r}):"
              f" decided {result.outputs[pid]!r}")
    decided = set(result.outputs.values())
    agreement = len(decided) <= 1
    validity = decided <= set(proposals)
    print(f"agreement: {agreement}; validity: {validity};"
          f" decided {len(result.outputs)}/{len(proposals)}")
    return 0 if agreement and validity else 1


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.analysis import stable_view_graph_from_lasso
    from repro.sim.scripted import (
        build_figure2_runner,
        figure2_observed_rows,
        format_figure2_table,
    )

    print(format_figure2_table(figure2_observed_rows()))
    runner = build_figure2_runner(detect_lasso=True)
    result = runner.run(100_000)
    print(f"\nrows 5-13 repeat every {result.lasso.cycle_length} steps"
          f" (certified by state repetition)")
    graph = stable_view_graph_from_lasso(result)
    print(f"stable-view graph: {graph.describe()}")
    return 0 if graph.has_unique_source() else 1


def _symmetry_suffix(result) -> str:
    """Render the reduction achieved by one symmetry-reduced result."""
    if result.covered_states is None:
        return ""
    ratio = result.covered_states / max(1, result.states)
    skipped = getattr(result, "recanonicalizations_skipped", None)
    skip_note = (
        f", {skipped} re-canonicalizations skipped" if skipped else ""
    )
    return (
        f", covering {result.covered_states} concrete states"
        f" ({ratio:.2f}x, stabilizer order {result.symmetry_group_order})"
        f"{skip_note}"
    )


def _store_suffix(result) -> str:
    """Render one result's store footprint (only set when --store ran)."""
    counters = getattr(result, "store_counters", None)
    if not counters:
        return ""
    disk = ""
    if counters.get("file_bytes"):
        disk = f", {counters['file_bytes'] / (1024 * 1024):.1f} MiB on disk"
    return f" [store: {counters.get('entries', 0)} entries{disk}]"


def _por_suffix(result) -> str:
    """Render one result's ample-set reduction (only set when --por ran)."""
    counters = getattr(result, "por_counters", None)
    if not counters:
        return ""
    return (
        f" [por: {counters.get('transitions_pruned', 0)} transitions"
        f" pruned, {counters.get('ample_states', 0)} ample /"
        f" {counters.get('fully_expanded_states', 0)} full,"
        f" {counters.get('cycle_proviso_expansions', 0)} proviso"
        f" expansions]"
    )


def _cmd_check(args: argparse.Namespace) -> int:
    # Each branch imports the engines it runs, so plain N=2 loads neither
    # the class sweep, the sharded driver, nor the disk stores.
    from pathlib import Path

    import repro.store as store

    if (
        args.por
        and args.n == 3
        and args.budget > 0
        and not args.por_unsafe_budget
    ):
        print(
            "error: --por under a state budget is refused — the reduced"
            " and unreduced bounded explorations truncate *different*"
            " frontiers, so their verdicts are not comparable and a"
            " budget-missed violation cannot be told apart from a"
            " POR-pruned one; rerun with --budget 0 (exhaustive) or"
            " accept the caveat explicitly with --por-unsafe-budget"
        )
        return 2

    if args.engine == "batch":
        from repro.checker.batch import BatchEngineUnavailable, require_numpy

        try:
            require_numpy()
        except BatchEngineUnavailable as exc:
            print(f"error: {exc}")
            return 2

    # Resolve the batch kernel once up front: an explicit --kernel
    # native that cannot run here degrades to numpy with a single
    # warning (results are identical), never an error.
    kernel = args.kernel
    if args.engine == "batch":
        from repro.checker.native.loader import (
            resolve_kernel,
            warn_kernel_fallback,
        )

        kernel = resolve_kernel(args.kernel)
        if args.kernel == "native" and kernel != "native":
            warn_kernel_fallback()

    jobs = max(1, args.jobs)
    if jobs > 1:
        from repro.checker.parallel import usable_cpus

        usable = usable_cpus()
        if jobs > usable:
            print(
                f"note: --jobs {jobs} capped to {usable} — this host has"
                f" {usable} usable core(s), and oversubscribed workers are"
                " pure fork/IPC overhead (measured slower than serial)"
            )
            jobs = usable

    if args.resume is not None and not Path(args.resume).is_dir():
        print(f"error: --resume {args.resume}: no such checkpoint directory")
        return 2
    if (
        args.resume is not None
        and args.checkpoint_dir is not None
        and Path(args.resume) != Path(args.checkpoint_dir)
    ):
        print("error: --resume and --checkpoint-dir name different"
              " directories; --resume already implies the checkpoint"
              " directory")
        return 2
    ckpt_base = (
        Path(args.resume) if args.resume is not None
        else Path(args.checkpoint_dir) if args.checkpoint_dir is not None
        else None
    )
    # The store backend is deliberately NOT part of the checkpoint meta:
    # checkpoints dump visited keys in a backend-neutral format, so a
    # run started in RAM may legitimately resume onto spill when it
    # outgrows memory.
    meta_base = {
        "n": args.n,
        "budget": args.budget,
        "symmetry": bool(args.symmetry),
        "por": bool(args.por),
        "git_sha": None,
    }
    if ckpt_base is not None:
        # Advisory (resume ignores it), and only checkpoints record it.
        from repro.store.checkpoint import git_sha

        meta_base["git_sha"] = git_sha()
    # --budget 0 means unbudgeted (exhaustive) exploration.
    budget = args.budget if args.budget > 0 else None
    max_states = budget if budget is not None else 10 ** 9

    failures = 0
    # --profile wraps the exploration loop only: the profiler goes live
    # right before the engines run and the dump happens on every exit
    # path (including violations and checkpoint refusals), so the stats
    # attribute hot-path time without argparse/reporting noise.
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        # Built inside the try: a refused configuration (the spill
        # store without numpy) is reported as a one-line error.
        store_cfg = None
        if args.store != "ram" or args.store_dir is not None:
            store_cfg = store.StoreConfig(
                backend=args.store,
                directory=args.store_dir,
                mem_cap=args.mem_cap,
            )
        if args.n == 2:
            from repro.checker import Explorer, SystemSpec
            from repro.checker.liveness import check_wait_freedom
            from repro.checker.properties import SNAPSHOT_SAFETY
            from repro.core import SnapshotMachine
            from repro.memory.wiring import enumerate_wiring_assignments

            # Safety + wait-freedom need the full edge list (pid labels
            # are not orbit-stable), so liveness always runs unreduced;
            # with --symmetry the safety pass additionally runs reduced
            # and its reduction is reported per wiring.
            for wiring in enumerate_wiring_assignments(2, 2):
                spec = SystemSpec(SnapshotMachine(2), [1, 2], wiring)
                result = Explorer(spec, SNAPSHOT_SAFETY, keep_edges=True).run()
                # The lasso scan needs the whole graph, which the
                # explorer only builds when safety held.
                ok = result.ok and not check_wait_freedom(spec, result)
                suffix = ""
                if args.symmetry:
                    reduced = Explorer(
                        spec, SNAPSHOT_SAFETY, symmetry=True
                    ).run()
                    ok = ok and reduced.ok
                    suffix = (
                        f"; symmetry: {reduced.states} representatives"
                        + _symmetry_suffix(reduced)
                    )
                if not ok:
                    failures += 1
                status = "OK" if ok else "VIOLATED"
                print(f"wiring {wiring.permutations()}: {result.states}"
                      f" states, safety+wait-freedom {status}{suffix}")
            if (
                store_cfg is not None
                or ckpt_base is not None
                or args.por
                or args.engine == "batch"
            ):
                # The full-edge N=2 engine keeps object tables that only
                # live in RAM (and its liveness pass needs the unreduced
                # graph), so --store / checkpointing / --por / --engine
                # batch run through a fast class sweep on top (the
                # --symmetry precedent: both passes, one command).
                from repro.checker.parallel import check_snapshot_classes

                rows = check_snapshot_classes(
                    2, budget=budget, jobs=jobs, symmetry=args.symmetry,
                    store=store_cfg, por=args.por, engine=args.engine,
                    kernel=kernel,
                    sweep_dir=str(ckpt_base) if ckpt_base else None,
                    sweep_meta={**meta_base, "engine": "sweep"},
                    heartbeat_every=args.heartbeat,
                )
                print(f"store-backed class sweep ({args.store}):")
                for wiring, result in rows:
                    status = (
                        "OK" if result.ok else f"VIOLATED: {result.violation}"
                    )
                    if not result.ok:
                        failures += 1
                    print(f"  wiring class {wiring}: {result.states} states"
                          f"{_store_suffix(result)}{_por_suffix(result)},"
                          f" {status}")
                if args.por:
                    from repro.analysis import aggregate_por_statistics

                    stats = aggregate_por_statistics(
                        result for _, result in rows
                    )
                    print(f"por total: {stats.summary()}")
        elif args.sharded and jobs > 1:
            # One class at a time, its BFS frontier sharded across this
            # process and jobs - 1 workers that serve every class; store
            # files and checkpoints are namespaced class-NNN/ so classes
            # never share state.
            from repro.checker.fast_snapshot import canonical_wiring_classes
            from repro.checker.parallel import (
                ShardWorkers,
                class_key,
                class_store_config,
                engine_label,
                explore_sharded,
            )
            from repro.store.checkpoint import RunCheckpointer

            inputs = list(range(1, args.n + 1))
            with ShardWorkers(jobs) as workers:
                for index, wiring in enumerate(
                    canonical_wiring_classes(args.n, args.n)
                ):
                    checkpointer = None
                    if ckpt_base is not None:
                        checkpointer = RunCheckpointer(
                            ckpt_base / f"class-{index:03d}",
                            meta={
                                **meta_base,
                                "engine": "sharded",
                                "jobs": jobs,
                                "wiring": class_key(wiring),
                            },
                            every=args.checkpoint_every,
                        )
                    heartbeat = None
                    if args.heartbeat is not None:
                        from repro.service.heartbeat import Heartbeat

                        heartbeat = Heartbeat(
                            args.heartbeat,
                            label=(
                                f"class-{index:03d}"
                                f" {engine_label(args.engine, kernel)}"
                            ),
                        )
                    result = explore_sharded(
                        inputs, wiring, jobs=jobs, max_states=max_states,
                        symmetry=args.symmetry,
                        store=class_store_config(store_cfg, index),
                        checkpointer=checkpointer, por=args.por,
                        engine=args.engine, kernel=kernel, heartbeat=heartbeat,
                        workers=workers,
                    )
                    status = "OK" if result.ok else f"VIOLATED: {result.violation}"
                    if not result.ok:
                        failures += 1
                    scope = "exhaustive" if result.complete else "bounded"
                    print(f"wiring class {wiring}: {result.states} states"
                          f" ({scope}, {jobs} frontier shards)"
                          f"{_symmetry_suffix(result)}{_store_suffix(result)}"
                          f"{_por_suffix(result)}, {status}")
        else:
            # One whole class per worker (E4's natural grain).
            from repro.checker.parallel import check_snapshot_classes

            rows = check_snapshot_classes(
                args.n, budget=budget, jobs=jobs, symmetry=args.symmetry,
                store=store_cfg, por=args.por, engine=args.engine,
                kernel=kernel,
                sweep_dir=str(ckpt_base) if ckpt_base else None,
                sweep_meta=(
                    {**meta_base, "engine": "sweep"}
                    if ckpt_base is not None
                    else None
                ),
                heartbeat_every=args.heartbeat,
            )
            for wiring, result in rows:
                status = "OK" if result.ok else f"VIOLATED: {result.violation}"
                if not result.ok:
                    failures += 1
                scope = "exhaustive" if result.complete else "bounded"
                print(f"wiring class {wiring}: {result.states} states"
                      f" ({scope}){_symmetry_suffix(result)}"
                      f"{_store_suffix(result)}{_por_suffix(result)},"
                      f" {status}")
            if args.symmetry:
                explored = sum(result.states for _, result in rows)
                covered = sum(
                    result.covered_states or result.states
                    for _, result in rows
                )
                print(f"sweep total: {explored} representatives cover"
                      f" {covered} concrete states"
                      f" ({covered / max(1, explored):.2f}x reduction)")
            if args.por:
                from repro.analysis import aggregate_por_statistics

                stats = aggregate_por_statistics(
                    result for _, result in rows
                )
                print(f"por total: {stats.summary()}")
    # Named through the lazy package: an except clause is evaluated only
    # when an exception reaches it, so the checkpoint module loads then.
    except (store.CheckpointIncompatible, store.StoreError) as exc:
        print(f"error: {exc}")
        return 2
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
            print(f"profile: exploration stats written to {args.profile}")
    return 0 if failures == 0 else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import inspect
    from pathlib import Path

    from repro.lint import (
        Baseline,
        LintEngine,
        builtin_footprint_verifications,
        builtin_verifications,
        git_sha,
        load_baseline,
        match_baseline,
        render_json,
        render_text,
        rule_catalog,
        select_rules,
        write_baseline,
    )

    if args.explain:
        catalog = rule_catalog()
        rule = catalog.get(args.explain)
        if rule is None:
            print(
                f"error: unknown rule {args.explain!r}"
                f" (known: {', '.join(sorted(catalog))})"
            )
            return 2
        print(f"{rule.rule_id}: {rule.summary}")
        doc = inspect.getdoc(inspect.getmodule(type(rule)))
        if doc:
            print()
            print(doc)
        return 0

    rules = None
    if args.only:
        try:
            rules = select_rules(
                [token.strip() for token in args.only.split(",") if token.strip()]
            )
        except ValueError as exc:
            print(f"error: {exc}")
            return 2

    root = Path.cwd()
    paths = [Path(p) for p in args.paths]

    if args.infer_footprints:
        return _print_inferred_footprints(paths, root)

    report = LintEngine(rules=rules).lint_paths(paths, root=root)
    baseline_path = Path(args.baseline)
    previous = load_baseline(baseline_path)

    if args.write_baseline:
        baseline = write_baseline(
            baseline_path, report.active, previous=previous
        )
        print(
            f"wrote {len(baseline.entries)} baseline entr(ies) to"
            f" {baseline_path} (git {baseline.git_sha or 'unknown'})"
        )
        return 0

    if rules is not None:
        # A rule-restricted run must not flag the other rules' baseline
        # entries as stale: match only against the selected rules.
        selected = {rule.rule_id for rule in rules}
        previous = Baseline(
            entries=[e for e in previous.entries if e.rule in selected],
            git_sha=previous.git_sha,
            schema=previous.schema,
        )

    match = match_baseline(report.active, previous)
    dynamic = None
    if args.dynamic:
        dynamic = builtin_verifications(args.dynamic_states)
        dynamic += builtin_footprint_verifications(args.dynamic_states)
    current_sha = git_sha(root)
    renderer = render_json if args.format == "json" else render_text
    print(
        renderer(
            report,
            match,
            dynamic,
            baseline_sha=previous.git_sha,
            current_sha=current_sha,
        )
    )
    # Exit non-zero only on *new* findings (or dynamic mismatches):
    # baselined findings are accepted debt, stale entries a cleanup hint.
    dynamic_failed = any(not v.ok for v in dynamic or [])
    return 1 if match.new or dynamic_failed else 0


def _print_inferred_footprints(paths, root) -> int:
    """``repro lint --infer-footprints``: POR002's working view."""
    from repro.lint import ModuleContext, discover_files
    from repro.lint.por import (
        infer_machine_footprints,
        infer_property_footprints,
    )

    for path in discover_files(paths):
        try:
            relative = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relative = path.as_posix()
        ctx = ModuleContext(relative, path.read_text(encoding="utf-8"))
        for prop in infer_property_footprints(ctx):
            print(f"{relative}:{prop.line}: property {prop.name}")
            print(f"  declared: {prop.format_declared()}")
            print(f"  inferred: {prop.format_inferred()}")
            for problem in prop.uncovered():
                print(f"  uncovered: {problem}")
        if not ctx.is_machine:
            continue
        for machine in infer_machine_footprints(ctx):
            print(f"{relative}:{machine.line}: machine {machine.class_name}")
            print(f"  declared: {machine.declared!r}")
            print(f"  inferred: {machine.inferred!r}")
            problem = machine.mismatch()
            if problem:
                print(f"  mismatch: {problem}")
    return 0


def _parse_hostport(text: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    return host, int(port)


def _service_client(args: argparse.Namespace):
    from pathlib import Path

    from repro.service.transport import ServiceClient

    if args.connect is not None:
        host, port = args.connect
        return ServiceClient(host, port)
    return ServiceClient.for_state_dir(Path(args.state_dir))


def _print_job(record) -> int:
    """Render one job record; exit status 0 only for a clean ``done``."""
    spec = record.spec
    print(f"{record.job_id}: {record.state}"
          f" (n={spec.n}, budget={spec.budget or 'exhaustive'},"
          f" engine={spec.engine}, shards={spec.shards},"
          f" symmetry={spec.symmetry}, por={spec.por})")
    if record.error:
        print(f"  error: {record.error}")
    failures = 0
    for row in record.rows:
        result = row["result"]
        violation = result.get("violation")
        if violation:
            failures += 1
            print(f"  class {row['class']}: {result['states']} states,"
                  f" VIOLATED: {violation}")
        else:
            scope = "exhaustive" if result.get("complete") else "bounded"
            print(f"  class {row['class']}: {result['states']} states"
                  f" ({scope}), OK")
    if record.state != "done":
        return 1
    return 0 if failures == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.service.coordinator import run_coordinator

    try:
        asyncio.run(run_coordinator(
            Path(args.state_dir), host=args.host, port=args.port,
        ))
    except KeyboardInterrupt:
        print("\n[serve] interrupted; jobs resume on the next serve")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.worker import run_worker

    host, port = args.connect
    return run_worker(
        host, port, name=args.name,
        reconnect_attempts=args.reconnect_attempts,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.jobs import JobError, JobSpec
    from repro.service.transport import ServiceError

    try:
        spec = JobSpec(
            n=args.n,
            budget=args.budget,
            symmetry=args.symmetry,
            por=args.por,
            engine=args.engine,
            kernel=args.kernel,
            store=args.store,
            mem_cap=args.mem_cap,
            shards=args.shards,
            checkpoint_every=args.checkpoint_every,
        )
        spec.validate()
        with _service_client(args) as client:
            job_id = client.submit(spec)
            print(f"submitted {job_id}")
            if not args.wait:
                return 0
            record = client.wait(job_id)
        return _print_job(record)
    except (JobError, ServiceError) as exc:
        print(f"error: {exc}")
        return 2


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.jobs import JobRecord
    from repro.service.transport import ServiceError

    try:
        with _service_client(args) as client:
            reply = client.status(args.job_id)
    except ServiceError as exc:
        print(f"error: {exc}")
        return 2
    jobs = [reply["job"]] if "job" in reply else reply.get("jobs", [])
    if not jobs:
        print("no jobs")
    for payload in jobs:
        record = JobRecord.from_dict(dict(payload))
        progress = {
            key: value
            for key, value in record.progress.items()
            if not key.startswith("_") and key != "workers"
        }
        print(f"{record.job_id}: {record.state}"
              + (f" {progress}" if record.state == "running" else ""))
    workers = reply.get("workers", [])
    print(f"workers: {len(workers)}")
    for worker in workers:
        print(f"  {worker.get('name')}: shards={worker.get('shards')},"
              f" states={worker.get('states', 0)},"
              f" last seen {worker.get('last_seen_age_s', '?')}s ago")
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.service.transport import ServiceError

    try:
        with _service_client(args) as client:
            record = (
                client.wait(args.job_id) if args.wait
                else client.job(args.job_id)
            )
    except ServiceError as exc:
        print(f"error: {exc}")
        return 2
    if args.json:
        print(json_mod.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0 if record.state == "done" else 1
    return _print_job(record)


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.transport import ServiceError

    try:
        with _service_client(args) as client:
            record = client.cancel(args.job_id)
    except ServiceError as exc:
        print(f"error: {exc}")
        return 2
    print(f"{record.job_id}: {record.state}"
          + (" (cancel requested)" if record.cancel_requested else ""))
    return 0


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    from repro.core import SnapshotMachine
    from repro.sim.adversaries import demonstrate_erasure

    n = args.n
    demo = demonstrate_erasure(
        lambda: SnapshotMachine(n, n_registers=n - 1),
        inputs=list(range(1, n + 1)),
        alternate_input=999,
    )
    print(f"{n} processors, {n - 1} registers:")
    print(f"  run A: p outputs {sorted(demo.first.solo_output)};"
          f" memory after covering: {demo.first.memory_after_covering}")
    print(f"  run B: p outputs {sorted(demo.second.solo_output)};"
          f" memory after covering: {demo.second.memory_after_covering}")
    print(f"  erasure complete / twin-indistinguishable:"
          f" {demo.erasure_complete}")
    return 0 if demo.erasure_complete else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Fully-anonymous shared-memory algorithms"
            " (Losa & Gafni, PODC 2024) — reproduction CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, help_text, handler, default_inputs):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "inputs", nargs="*", default=default_inputs,
            help=f"per-processor inputs (default: {' '.join(default_inputs)})",
        )
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--max-steps", type=int, default=2_000_000)
        if name == "snapshot":
            cmd.add_argument(
                "--registers", type=int, default=None,
                help="register count M (default: one per processor)",
            )
        cmd.set_defaults(handler=handler)

    add_run_command(
        "snapshot", "run the wait-free snapshot task (Figure 3)",
        _cmd_snapshot, ["1", "2", "3"],
    )
    add_run_command(
        "renaming", "run adaptive renaming (Figure 4); inputs are group ids",
        _cmd_renaming, ["1", "2", "1"],
    )
    add_run_command(
        "consensus", "run obstruction-free consensus (Figure 5)",
        _cmd_consensus, ["a", "b", "a"],
    )

    figure2 = sub.add_parser(
        "figure2", help="reproduce the paper's Figure 2 and certify the lasso"
    )
    figure2.set_defaults(handler=_cmd_figure2)

    check = sub.add_parser(
        "check", help="model-check the snapshot algorithm (TLC-style)"
    )
    check.add_argument("--n", type=int, default=2, choices=[2, 3])
    check.add_argument(
        "--budget", type=_non_negative_int, default=200_000,
        help="states per wiring class for n=3 (n=2 is exhaustive);"
             " 0 means unbudgeted (exhaustive) exploration",
    )
    check.add_argument(
        "--jobs", type=int, default=1,
        help="processes for the n=3 sweep: wiring classes are checked"
             " in parallel by that many workers (1 = serial)",
    )
    check.add_argument(
        "--sharded", action="store_true",
        help="with --jobs K > 1, split each class's BFS frontier into K"
             " shards instead of one whole class per worker: this"
             " process expands shard 0 and K-1 workers, forked once for"
             " the whole sweep, the rest",
    )
    check.add_argument(
        "--engine", choices=["scalar", "batch"], default="scalar",
        help="exploration kernel: scalar (default; the pure-Python"
             " conformance oracle) or batch (numpy level-batched u64"
             " arrays, same verdicts at a multiple of the throughput;"
             " requires numpy).  With --por the batch engine selects"
             " ample sets level-synchronously (novelty certified"
             " against the level-boundary visited set plus"
             " earlier-in-level occurrences — pessimistic, sound):"
             " same verdicts as scalar+POR, possibly different"
             " state/transition counts",
    )
    check.add_argument(
        "--kernel", choices=["auto", "numpy", "native"], default="auto",
        help="batch-engine level kernel: auto (default; generated C"
             " kernel when a C compiler is present, numpy otherwise),"
             " numpy (force the vectorized oracle), or native (force the"
             " generated C kernel; degrades to numpy with a warning when"
             " no compiler is available).  Kernels are bit-identical —"
             " same states, counts, and verdicts; ignored by"
             " --engine scalar",
    )
    check.add_argument(
        "--symmetry", action=argparse.BooleanOptionalAction, default=False,
        help="explore one representative per orbit of the wiring"
             " stabilizer (process/register permutations + input"
             " renaming): up to N! fewer states, identical verdicts for"
             " the built-in (permutation-invariant) properties;"
             " --no-symmetry is the escape hatch for custom"
             " non-invariant properties",
    )
    check.add_argument(
        "--por", action=argparse.BooleanOptionalAction, default=False,
        help="ample-set partial-order reduction: expand one processor's"
             " steps instead of all interleavings wherever the classic"
             " C0-C3 conditions hold (independence from the wiring"
             " tables, invisibility from the properties' declared"
             " footprints, cycle proviso from the visited set)."
             " Identical verdicts, fewer transitions; composes with"
             " --symmetry.  Refused under a state budget unless"
             " --por-unsafe-budget (see docs/checking.md)",
    )
    check.add_argument(
        "--por-unsafe-budget", action="store_true",
        help="allow --por together with a truncating --budget, accepting"
             " that the reduced run truncates a different frontier than"
             " an unreduced run would (bounded verdicts no longer"
             " comparable across the two)",
    )
    from repro.store import BACKENDS, DEFAULT_MEM_CAP

    check.add_argument(
        "--store", choices=list(BACKENDS), default="ram",
        help="visited-set backend: ram (default), mmap (open-addressing"
             " table in a memory-mapped file, fixed --mem-cap), or spill"
             " (bounded RAM buffer + sorted, memory-mapped on-disk runs,"
             " TLC-style; unbounded state counts; needs numpy).  The"
             " batch engine keeps its visited set in the kernel's own"
             " table and hands mmap or spill only what overflows half of"
             " --mem-cap",
    )
    check.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="directory for store files, kept after the run (default: a"
             " fresh temporary directory per store, deleted when it"
             " closes)",
    )
    check.add_argument(
        "--mem-cap", type=_parse_mem, default=DEFAULT_MEM_CAP,
        metavar="BYTES",
        help="RAM budget per store instance, plain bytes or K/M/G"
             " suffixed (default 64M); mmap refuses to grow past it,"
             " spill spills to disk under it.  For the batch engine,"
             " half of it is the in-RAM tier in front of either",
    )
    check.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist the run into DIR: n=3 sweeps record each finished"
             " class; --sharded runs additionally dump frontier +"
             " visited set every --checkpoint-every states",
    )
    check.add_argument(
        "--checkpoint-every", type=int, default=1_000_000, metavar="STATES",
        help="checkpoint cadence in admitted states for --sharded runs"
             " (default 1000000; checkpoints land on BFS layer"
             " boundaries)",
    )
    check.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume a previous --checkpoint-dir run from DIR; the"
             " stored configuration (n, budget, symmetry, por, ...) must"
             " match or the run is refused — a git-SHA drift is only"
             " warned about",
    )
    check.add_argument(
        "--heartbeat", type=_positive_seconds, default=None, metavar="SECS",
        help="print a progress line to stderr every SECS seconds of a"
             " long run: admitted states (with delta and states/s),"
             " frontier size, transitions, and resident set size",
    )
    check.add_argument(
        "--profile", default=None, metavar="FILE",
        help="cProfile the exploration loop (only — argument parsing and"
             " reporting are excluded) and dump the stats to FILE for"
             " pstats/snakeviz; engine-agnostic",
    )
    check.set_defaults(handler=_cmd_check)

    lint = sub.add_parser(
        "lint",
        help="anonlint: model-soundness static analysis (ANON/WIRE/"
             "INVAR/WF/POR rule families; see docs/linting.md)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    lint.add_argument(
        "--only", metavar="RULE[,RULE...]", default=None,
        help="run only the named rule(s), e.g. --only POR002,INVAR002v2;"
             " baseline matching is restricted to the same rules",
    )
    lint.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print what the named rule checks (summary plus the"
             " implementing module's documentation) and exit",
    )
    lint.add_argument(
        "--infer-footprints", action="store_true",
        help="print declared vs statically inferred footprints for"
             " every property and machine class in the linted paths,"
             " then exit (POR002's working view)",
    )
    lint.add_argument(
        "--baseline", default=".anonlint-baseline.json",
        help="baseline file of accepted findings (git-SHA stamped);"
             " new findings fail the run, baselined ones do not",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="accept all current findings into the baseline"
             " (justifications of matching entries are preserved)",
    )
    lint.add_argument(
        "--dynamic", action="store_true",
        help="additionally run the dynamic verifiers: the metamorphic"
             " orbit-invariance check (every built-in property on"
             " reachable states vs their wiring-stabilizer orbit"
             " images) and the footprint cross-check (declared"
             " visibility/machine footprints vs observed behavior)",
    )
    lint.add_argument(
        "--dynamic-states", type=int, default=250,
        help="bounded-BFS sample size per system for --dynamic",
    )
    lint.set_defaults(handler=_cmd_lint)

    lower = sub.add_parser(
        "lower-bound", help="the §2.1 covering-erasure demonstration"
    )
    lower.add_argument("--n", type=int, default=4)
    lower.set_defaults(handler=_cmd_lower_bound)

    serve = sub.add_parser(
        "serve",
        help="run the checking-service coordinator: accepts campaign"
             " jobs from `repro submit` and drives `repro worker`"
             " fleets (see docs/service.md)",
    )
    serve.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="persistent state: the job queue, per-job checkpoints, and"
             " endpoint.json (how local clients discover the port)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="listening port (default 0: pick a free port and record it"
             " in endpoint.json)",
    )
    serve.set_defaults(handler=_cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="run one checking worker against a coordinator; workers"
             " may join and leave mid-run (elastic membership)",
    )
    worker.add_argument(
        "--connect", type=_parse_hostport, required=True,
        metavar="HOST:PORT",
    )
    worker.add_argument(
        "--name", default=None,
        help="worker name shown in `repro status` (default:"
             " worker-<hostname>-<pid>)",
    )
    worker.add_argument(
        "--reconnect-attempts", type=int, default=10,
        help="consecutive connect failures tolerated before giving up"
             " (exponential backoff between attempts)",
    )
    worker.set_defaults(handler=_cmd_worker)

    def add_client_command(name, help_text, handler):
        cmd = sub.add_parser(name, help=help_text)
        target = cmd.add_mutually_exclusive_group(required=True)
        target.add_argument(
            "--state-dir", metavar="DIR",
            help="a local coordinator's state directory (the port is"
                 " read from its endpoint.json)",
        )
        target.add_argument(
            "--connect", type=_parse_hostport, metavar="HOST:PORT",
            help="a coordinator's address (remote coordinators)",
        )
        cmd.set_defaults(handler=handler, connect=None, state_dir=None)
        return cmd

    submit = add_client_command(
        "submit", "submit a checking campaign to a coordinator",
        _cmd_submit,
    )
    submit.add_argument("--n", type=int, default=2, choices=[2, 3])
    submit.add_argument(
        "--budget", type=int, default=0,
        help="states per wiring class; 0 (default) = exhaustive",
    )
    submit.add_argument("--symmetry", action="store_true")
    submit.add_argument("--por", action="store_true")
    submit.add_argument(
        "--engine", choices=["scalar", "batch"], default="scalar",
    )
    submit.add_argument(
        "--kernel", choices=["auto", "numpy", "native"], default="auto",
        help="batch-engine level kernel on the worker host: auto"
             " (default), numpy, or native (degrades to numpy on"
             " compiler-less workers; bit-identical results)",
    )
    submit.add_argument("--store", choices=list(BACKENDS), default="ram")
    submit.add_argument(
        "--mem-cap", type=_parse_mem, default=DEFAULT_MEM_CAP,
        metavar="BYTES",
    )
    submit.add_argument(
        "--shards", type=int, default=4,
        help="logical frontier shards (fixed per job; workers are"
             " assigned shard subsets, so the verdict is independent of"
             " worker count — default 4)",
    )
    submit.add_argument(
        "--checkpoint-every", type=int, default=2000, metavar="STATES",
        help="checkpoint cadence in admitted states; a killed worker"
             " loses at most one interval (default 2000)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its verdicts",
    )

    status = add_client_command(
        "status", "job queue + worker fleet of a coordinator",
        _cmd_status,
    )
    status.add_argument("job_id", nargs="?", default=None)

    result = add_client_command(
        "result", "fetch one job's verdicts (and any counterexamples)",
        _cmd_result,
    )
    result.add_argument("job_id")
    result.add_argument(
        "--json", action="store_true",
        help="dump the full job record (spec, progress, per-class"
             " results) as JSON",
    )
    result.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state first",
    )

    cancel = add_client_command(
        "cancel", "cancel a queued or running job", _cmd_cancel,
    )
    cancel.add_argument("job_id")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # repro calls no BLAS routine, but importing numpy starts OpenBLAS's
    # thread pool, whose idle threads spin; a user's own setting wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
