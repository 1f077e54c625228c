"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _parse_mem, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["snapshot"])
        assert args.inputs == ["1", "2", "3"]
        assert args.seed == 0

    def test_check_n_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--n", "5"])

    def test_check_store_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--store", "redis"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--budget", "-5"],
            ["--heartbeat", "0"],
            ["--heartbeat", "-1"],
            ["--n", "3", "--heartbeat", "0"],
        ],
    )
    def test_check_refuses_negative_budget_and_heartbeat(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["check", *argv])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro check")
        assert f"argument {argv[-2]}: must be" in err

    def test_check_accepts_zero_budget_and_fractional_heartbeat(self):
        args = build_parser().parse_args(
            ["check", "--budget", "0", "--heartbeat", "0.5"]
        )
        assert (args.budget, args.heartbeat) == (0, 0.5)

    @pytest.mark.parametrize("user_value", [None, "3"])
    def test_main_pins_openblas_threads_unless_the_user_set_them(
        self, user_value
    ):
        # Importing numpy starts OpenBLAS's spinning thread pool, which
        # repro never uses; importing repro as a library sets nothing.
        env = {
            key: value for key, value in os.environ.items()
            if key != "OPENBLAS_NUM_THREADS"
        }
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        if user_value is not None:
            env["OPENBLAS_NUM_THREADS"] = user_value
        probe = (
            "import os, repro.cli\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "try:\n"
            "    repro.cli.main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == str(user_value)
        assert lines[-1] == (user_value or "1")

    def test_mem_cap_suffixes(self):
        assert _parse_mem("4096") == 4096
        assert _parse_mem("64k") == 64 * 1024
        assert _parse_mem("200M") == 200 * 1024 * 1024
        assert _parse_mem("1GiB") == 1 << 30
        assert _parse_mem("1.5m") == int(1.5 * (1 << 20))
        args = build_parser().parse_args(["check", "--mem-cap", "32M"])
        assert args.mem_cap == 32 * 1024 * 1024


class TestCommands:
    def test_snapshot_success(self, capsys):
        assert main(["snapshot", "a", "b", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "processor 0" in out and "containment: True" in out

    def test_snapshot_integer_inputs_parsed(self, capsys):
        assert main(["snapshot", "10", "20", "--seed", "1"]) == 0
        assert "(input 10)" in capsys.readouterr().out

    def test_renaming_success(self, capsys):
        assert main(["renaming", "g", "h", "g", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "within bound: True" in out

    def test_consensus_success(self, capsys):
        assert main(["consensus", "x", "y", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "agreement: True" in out

    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "repeat every 36 steps" in out
        assert "sources: ['{1}']" in out

    def test_check_n2(self, capsys):
        assert main(["check", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2

    def test_check_n3_budgeted(self, capsys):
        assert main(["check", "--n", "3", "--budget", "3000"]) == 0
        out = capsys.readouterr().out
        assert "bounded" in out and "VIOLATED" not in out

    def test_check_n3_store_backends_report_footprint(self, capsys, tmp_path):
        assert main([
            "check", "--n", "3", "--budget", "2000",
            "--store", "spill", "--store-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "[store:" in out and "VIOLATED" not in out

    def test_check_profile_writes_stats(self, capsys, tmp_path):
        import pstats

        target = tmp_path / "check.prof"
        assert main([
            "check", "--n", "2", "--profile", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert f"profile: exploration stats written to {target}" in out
        # The dump must be a loadable cProfile file covering the
        # exploration calls (not argument parsing or report printing).
        stats = pstats.Stats(str(target))
        assert stats.total_calls > 0

    @pytest.mark.parametrize("command", [
        ["check", "--n", "3", "--budget", "2000"],
        ["submit", "--state-dir", "unused"],
    ])
    def test_fingerprint_option_is_gone(self, command, capsys):
        # Visited sets key on exact packed states; the option that
        # traded that for a collision bound no longer parses.
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--fingerprint"])
        assert exit_info.value.code == 2
        assert "--fingerprint" in capsys.readouterr().err

    def test_check_checkpoint_resume_roundtrip(self, capsys, tmp_path):
        argv = ["check", "--n", "3", "--budget", "2000",
                "--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(["check", "--n", "3", "--budget", "2000",
                     "--resume", str(tmp_path)]) == 0
        replayed = capsys.readouterr().out
        assert [line for line in first.splitlines() if "wiring" in line] == [
            line for line in replayed.splitlines() if "wiring" in line
        ]

    def test_check_resume_refuses_other_config(self, capsys, tmp_path):
        assert main(["check", "--n", "3", "--budget", "2000",
                     "--checkpoint-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["check", "--n", "3", "--budget", "9999",
                     "--resume", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "configuration mismatch" in out and "budget" in out

    def test_check_resume_missing_directory(self, capsys, tmp_path):
        assert main(["check", "--resume", str(tmp_path / "nope")]) == 2
        assert "no such checkpoint directory" in capsys.readouterr().out

    def test_check_n2_with_store_runs_class_sweep_too(self, capsys, tmp_path):
        assert main(["check", "--n", "2", "--store", "mmap",
                     "--store-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "safety+wait-freedom OK" in out
        assert "store-backed class sweep (mmap)" in out

    def test_lower_bound(self, capsys):
        assert main(["lower-bound", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "erasure complete / twin-indistinguishable: True" in out

    def test_snapshot_with_extra_registers(self, capsys):
        assert main(["snapshot", "1", "2", "--registers", "4"]) == 0
