import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwfatigue import cli, data, stats
from hwfatigue.cli import ANALYZE_OUTPUTS, build_parser, main
from hwfatigue.data import SESSIONS, TASKS, Dataset, DeviceProfile, write_dataset
from hwfatigue.features import FEATURES
from hwfatigue.synth import SynthConfig, generate_dataset, write_synthetic

from oracles import (cell_mean_std, full_table_ranksum, generate_recording_reference,
                     layout_keys, mean_by_summation, parse_svc_by_lines, ratio_vs_baseline,
                     saturation_ratio_by_loop, svc_text_by_format)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def synth_args(outdir, seed=3, subjects=2, samples=120):
    return ["synth", "--output", str(outdir), "--seed", str(seed),
            "--subjects", str(subjects), "--samples", str(samples)]


class TestSynthCommand:
    def test_creates_expected_files(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code, stdout, stderr = run_cli(capsys, *synth_args(out))
        assert code == 0
        files = sorted(out.rglob("*.svc"))
        assert len(files) == 2 * 5 * 9
        assert (out / "subject01" / "session1" / "task1.svc").exists()
        assert (out / "subject02" / "session5" / "task9.svc").exists()

    def test_prints_config_json(self, tmp_path, capsys):
        code, stdout, _ = run_cli(capsys, *synth_args(tmp_path / "ds"))
        config = json.loads(stdout)
        assert config["seed"] == 3
        assert config["n_subjects"] == 2
        assert config["samples_per_recording"] == 120
        assert config["fatigue_sessions"] == [4, 5]
        assert config["base_saturation"] == 0.05 and config["fatigue_multiplier"] == 5.0

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, *synth_args(a))
        run_cli(capsys, *synth_args(b))
        assert read_tree(a) == read_tree(b)

    # sha256 of the "<path> <sha256 of its bytes>" lines, in path order, of
    # the tree `synth --seed 5 --subjects 2 --samples 120` writes (C9's shape).
    TREE_DIGEST = "b8a70409be013330b96299246bb571adc2de0e881ac4209f2f9ee94e68127da0"

    def test_pinned_tree_digest(self, tmp_path, capsys):
        out = tmp_path / "ds"
        run_cli(capsys, *synth_args(out, seed=5))
        tree = read_tree(out)
        assert (len(tree), sum(map(len, tree.values()))) == (90, 320979)
        manifest = "".join(f"{name} {hashlib.sha256(content).hexdigest()}\n"
                           for name, content in tree.items())
        assert hashlib.sha256(manifest.encode()).hexdigest() == self.TREE_DIGEST

    def test_seed_changes_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, *synth_args(a, seed=1))
        run_cli(capsys, *synth_args(b, seed=2))
        assert read_tree(a) != read_tree(b)

    def test_file_is_parseable_svc(self, tmp_path, capsys):
        out = tmp_path / "ds"
        run_cli(capsys, *synth_args(out, samples=30))
        text = (out / "subject01" / "session1" / "task1.svc").read_text()
        lines = text.splitlines()
        assert lines[0] == "30"
        assert len(lines) == 31
        assert all(len(line.split()) == 7 for line in lines[1:])

    def test_non_empty_output_refused(self, tmp_path, capsys):
        out = tmp_path / "ds"
        stale = out / "subject07" / "session1" / "task1.svc"
        stale.parent.mkdir(parents=True)
        stale.write_text("1\n0 0 0 1 0 0 5\n")
        before = read_tree(out)
        code, stdout, stderr = run_cli(capsys, *synth_args(out))
        assert code == 1
        assert stderr == f"error: {out}: output directory is not empty\n"
        assert stdout == ""
        assert read_tree(out) == before

    @pytest.mark.parametrize("output", ["taken", "taken/ds"])
    def test_output_under_a_file_refused_before_work(self, tmp_path, capsys,
                                                     monkeypatch, output):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        monkeypatch.setattr(cli, "write_synthetic", pytest.fail)
        code, stdout, stderr = run_cli(capsys, *synth_args(tmp_path / output))
        assert code == 1
        assert stderr == f"error: {taken}: not a directory\n"
        assert stdout == ""
        assert read_tree(tmp_path) == {"taken": b"keep\n"}

    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def exhaust(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "write_synthetic", exhaust)
        out = tmp_path / "ds"
        code, stdout, stderr = run_cli(capsys, *synth_args(out))
        assert code == 1 and stdout == ""
        assert stderr == "error: Unable to allocate 745. GiB for an array\n"
        assert not out.exists()

    # Each process holds one session at a time, so the peak does not depend
    # on the campaign size; a process that holds all 40 subjects' arrays
    # peaks near 230 MB.
    PEAK_RSS_LIMIT_MB = 60

    def test_peak_memory_does_not_grow_with_the_campaign(self, tmp_path):
        # A process keeps its pre-exec peak through exec, and this test
        # process is large, so a small interpreter in between runs the
        # command and reports the peak of the command's process tree.
        script = ("import resource, subprocess, sys\n"
                  "code = subprocess.run([sys.executable, '-m', 'hwfatigue.cli', *sys.argv[1:]],\n"
                  "                      stdout=subprocess.DEVNULL).returncode\n"
                  "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-c", script, *synth_args(tmp_path / "ds", subjects=40, samples=2000)],
            env=env, capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        code, peak = map(int, run.stdout.split())
        assert code == 0, run.stderr
        assert len(list((tmp_path / "ds").rglob("*.svc"))) == 40 * 5 * 9
        peak_mb = peak / (1024**2 if sys.platform == "darwin" else 1024)  # ru_maxrss units
        assert peak_mb <= self.PEAK_RSS_LIMIT_MB

    def test_empty_output_directory_accepted(self, tmp_path, capsys):
        out = tmp_path / "ds"
        out.mkdir()
        code, _, _ = run_cli(capsys, *synth_args(out))
        assert code == 0
        assert len(list(out.rglob("*.svc"))) == 2 * 5 * 9

    # The first file, one of session 2 (the first unit of a forked child at 2
    # or 3 processes) or the last file runs out of space after half its bytes.
    @pytest.mark.parametrize("failing", ["subject01/session1/task1.svc",
                                         "subject01/session2/task5.svc",
                                         "subject02/session5/task9.svc"])
    @pytest.mark.parametrize("output", ["ds", "new/ds", "empty"])
    def test_write_fault_leaves_output_as_found(self, tmp_path, capsys, monkeypatch,
                                                failing, output):
        write_bytes = Path.write_bytes

        def write_or_fail(path, content):
            if path.as_posix().endswith(failing):
                write_bytes(path, content[:len(content) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return write_bytes(path, content)

        out = tmp_path / output
        if output == "empty":
            out.mkdir()
        for n in (1, 2, 3):
            monkeypatch.setattr(data, "_process_count", lambda: n)
            with monkeypatch.context() as patch:
                patch.setattr(Path, "write_bytes", write_or_fail)
                code, stdout, stderr = run_cli(capsys, *synth_args(out))
            assert code == 1 and stdout == ""
            assert stderr.startswith("error: [Errno 28] No space left on device")
            assert stderr.count("\n") == 1
            assert multiprocessing.active_children() == []
            assert sorted(p.name for p in tmp_path.iterdir()) == (["empty"] if output == "empty"
                                                                  else [])
            assert output != "empty" or list(out.iterdir()) == []
        assert run_cli(capsys, *synth_args(out))[0] == 0
        assert run_cli(capsys, *synth_args(tmp_path / "clean"))[0] == 0
        assert read_tree(out) == read_tree(tmp_path / "clean")

    @pytest.mark.parametrize("flag, value", [
        ("--subjects", "100"), ("--subjects", "120"), ("--subjects", "x"),
        ("--subjects", "0"), ("--subjects", "-3"),
        ("--samples", "0"), ("--samples", "-5"),
        ("--sat-level", "0"), ("--sat-level", "9223372036854775808"),
    ])
    def test_invalid_flag_exits_2_and_writes_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "ds"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--output", str(out), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestAnalyzeCommand:
    @pytest.fixture()
    def dataset_dir(self, tmp_path, capsys):
        out = tmp_path / "ds"
        run_cli(capsys, *synth_args(out, seed=11, subjects=4, samples=200))
        return out

    def test_writes_all_artifacts(self, dataset_dir, tmp_path, capsys):
        results = tmp_path / "res"
        code, stdout, stderr = run_cli(
            capsys, "analyze", "--input", str(dataset_dir), "--output", str(results))
        assert code == 0
        assert sorted(p.name for p in results.iterdir()) == sorted(ANALYZE_OUTPUTS)

    def test_summary_lines(self, dataset_dir, tmp_path, capsys):
        code, stdout, _ = run_cli(
            capsys, "analyze", "--input", str(dataset_dir),
            "--output", str(tmp_path / "res"))
        lines = stdout.strip().splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("task 1:")
        assert lines[-1].startswith("task 9:")

    def test_artifact_shapes(self, dataset_dir, tmp_path, capsys):
        results = tmp_path / "res"
        run_cli(capsys, "analyze", "--input", str(dataset_dir),
                "--output", str(results))
        t1 = list(csv.reader(io.StringIO((results / "table1.csv").read_text())))
        assert len(t1) == 6 and len(t1[0]) == 10
        t2 = list(csv.reader(io.StringIO((results / "table2.csv").read_text())))
        assert len(t2) == 10 and len(t2[0]) == 12
        for name in ("fig4_data.csv", "fig5_data.csv"):
            fig = list(csv.reader(io.StringIO((results / name).read_text())))
            assert len(fig) == 46
        doc = json.loads((results / "table2.json").read_text())
        assert doc["schema_version"] == 1

    def test_deterministic_across_runs(self, dataset_dir, tmp_path, capsys):
        a, b = tmp_path / "ra", tmp_path / "rb"
        run_cli(capsys, "analyze", "--input", str(dataset_dir), "--output", str(a))
        run_cli(capsys, "analyze", "--input", str(dataset_dir), "--output", str(b))
        assert read_tree(a) == read_tree(b)

    def test_missing_input_fails(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "analyze", "--input", str(tmp_path / "nope"),
            "--output", str(tmp_path / "res"))
        assert code == 1
        assert stderr.startswith("error:")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("output", ["taken", "taken/res"])
    def test_output_under_a_file_refused_before_work(self, dataset_dir, tmp_path, capsys,
                                                     monkeypatch, output):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        monkeypatch.setattr(cli, "load_dataset", pytest.fail)
        code, stdout, stderr = run_cli(capsys, "analyze", "--input", str(dataset_dir),
                                       "--output", str(tmp_path / output))
        assert code == 1
        assert stderr == f"error: {taken}: not a directory\n"
        assert stdout == ""
        assert taken.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds", "taken"]

    def test_memory_error_is_one_error_line(self, dataset_dir, tmp_path, capsys,
                                            monkeypatch):
        def exhaust(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "load_dataset", exhaust)
        out = tmp_path / "res"
        code, stdout, stderr = run_cli(capsys, "analyze", "--input", str(dataset_dir),
                                       "--output", str(out))
        assert code == 1 and stdout == ""
        assert stderr == "error: Unable to allocate 745. GiB for an array\n"
        assert not out.exists()

    def test_empty_input_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, stderr = run_cli(
            capsys, "analyze", "--input", str(empty),
            "--output", str(tmp_path / "res"))
        assert code == 1
        assert "no recordings" in stderr

    def test_malformed_file_reports_location(self, dataset_dir, tmp_path, capsys):
        bad = dataset_dir / "subject01" / "session2" / "task3.svc"
        bad.write_text("2\n1 2 3 1 5 6 7\n1 2 3 9 5 6 7\n")
        code, _, stderr = run_cli(
            capsys, "analyze", "--input", str(dataset_dir),
            "--output", str(tmp_path / "res"))
        assert code == 1
        assert "task3.svc" in stderr
        assert ":3:" in stderr  # 1-based line of the bad pen status

    @pytest.mark.parametrize("content, message", [
        (b"1\n99999999999999999999 2 3 1 0 0 5\n", ":2: integer out of range"),
        (b"1\n1 2 3 1 0 0 \xff5\n", ":2: non-ASCII byte 0xff"),
        (b"2\r\n1 2 3 1 0 0 5\r\n1 2 3 1 0 0 \xe95\r\n", ":3: non-ASCII byte 0xe9"),
        (b"1\n1_0 2 3 1 0 0 5\n", ":2: non-integer token '1_0'"),
    ])
    def test_malformed_token_reports_location(self, dataset_dir, tmp_path, capsys,
                                              content, message):
        bad = dataset_dir / "subject01" / "session2" / "task3.svc"
        bad.write_bytes(content)
        code, _, stderr = run_cli(
            capsys, "analyze", "--input", str(dataset_dir),
            "--output", str(tmp_path / "res"))
        assert code == 1
        assert stderr.startswith(f"error: {bad}{message}")
        assert not (tmp_path / "res").exists()

    def test_decreasing_timestamp_reports_path_and_sample(self, dataset_dir, tmp_path,
                                                          capsys):
        bad = dataset_dir / "subject02" / "session4" / "task7.svc"
        bad.write_text("2\n1 2 30 1 0 0 5\n1 2 20 1 0 0 5\n")
        code, _, stderr = run_cli(
            capsys, "analyze", "--input", str(dataset_dir),
            "--output", str(tmp_path / "res"))
        assert code == 1
        assert stderr.startswith(f"error: {bad}:3: timestamp 20 follows 30")
        assert not (tmp_path / "res").exists()

    def test_failed_rerun_leaves_no_stale_artifacts(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "res"
        assert run_cli(capsys, "analyze", "--input", str(dataset_dir),
                       "--output", str(out))[0] == 0
        (out / "notes.txt").write_text("keep\n")
        (dataset_dir / "subject03" / "session2" / "task6.svc").write_text("junk\n")
        code, stdout, stderr = run_cli(capsys, "analyze", "--input", str(dataset_dir),
                                       "--output", str(out))
        assert code == 1
        assert stderr.startswith("error:") and stdout == ""
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "keep\n"

    def test_removes_temporaries_of_dead_runs(self, dataset_dir, tmp_path, capsys):
        # What a run killed between its writes leaves: .<name>.<pid>.tmp.
        reaped = subprocess.Popen([sys.executable, "-c", "pass"])
        reaped.wait()
        out = tmp_path / "res"
        out.mkdir()
        planted = [f".table1.csv.{reaped.pid}.tmp", f".table2.json.{os.getppid()}.tmp",
                   f".notes.txt.{reaped.pid}.tmp"]
        for name in planted:
            (out / name).write_text("partial\n")
        assert run_cli(capsys, "analyze", "--input", str(dataset_dir),
                       "--output", str(out))[0] == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([*ANALYZE_OUTPUTS, *planted[1:]])

    @pytest.mark.parametrize("failing_write", range(1, len(ANALYZE_OUTPUTS) + 1))
    def test_write_fault_leaves_no_artifact(self, dataset_dir, tmp_path, capsys, monkeypatch,
                                            failing_write):
        # The k-th artifact write runs out of space after half its text.
        write_text, writes = Path.write_text, []

        def write_or_fail(path, text, *args, **kwargs):
            writes.append(path)
            if len(writes) == failing_write:
                write_text(path, text[:len(text) // 2], *args, **kwargs)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return write_text(path, text, *args, **kwargs)

        out = tmp_path / "res"
        argv = ["analyze", "--input", str(dataset_dir), "--output", str(out)]
        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", write_or_fail)
            code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: [Errno 28] No space left on device")
        assert stderr.count("\n") == 1
        assert len(writes) == failing_write
        assert list(out.iterdir()) == []
        assert run_cli(capsys, *argv)[0] == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(ANALYZE_OUTPUTS)

    def test_fanned_out_exact_tests_give_the_same_artifacts(self, dataset_dir, tmp_path,
                                                            capsys, monkeypatch):
        # The fan-out bound is lowered so that this small grid's exact tests
        # fan out; JSON floats round-trip, so equal bytes are equal bits.
        argv = ["analyze", "--input", str(dataset_dir), "--exact-threshold", "64"]
        assert run_cli(capsys, *argv, "--output", str(tmp_path / "inline"))[0] == 0
        inline = read_tree(tmp_path / "inline")
        table2 = json.loads(inline["table2.json"])
        assert {cell["method"] for row in table2["rows"] for cell in row["cells"].values()} \
            == {"exact"}
        monkeypatch.setattr(stats, "_FAN_OUT_COST", 0)
        for n in (1, 2, 3):
            monkeypatch.setattr(data, "_process_count", lambda: n)
            assert run_cli(capsys, *argv, "--output", str(tmp_path / f"n{n}"))[0] == 0
            assert multiprocessing.active_children() == []
            assert read_tree(tmp_path / f"n{n}") == inline

    def test_invalid_sat_level_rerun_keeps_artifacts(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "res"
        assert run_cli(capsys, "analyze", "--input", str(dataset_dir),
                       "--output", str(out))[0] == 0
        before = read_tree(out)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", str(dataset_dir), "--output", str(out),
                  "--sat-level", "0"])
        assert exc.value.code == 2
        assert ("argument --sat-level: max_level must lie in [1, 9223372036854775807], got 0"
                in capsys.readouterr().err)
        assert sorted(before) == sorted(ANALYZE_OUTPUTS)
        assert read_tree(out) == before

    def test_worker_exiting_without_results_is_an_error(self, dataset_dir, tmp_path,
                                                        capsys, monkeypatch):
        caller, read = os.getpid(), data.read_svc

        def read_or_die(path, device):
            if os.getpid() != caller:
                os._exit(3)
            return read(path, device)

        monkeypatch.setattr(data, "read_svc", read_or_die)
        monkeypatch.setattr(data, "_process_count", lambda: 2)
        code, stdout, stderr = run_cli(capsys, "analyze", "--input", str(dataset_dir),
                                       "--output", str(tmp_path / "res"))
        assert code == 1
        assert stderr == "error: worker process exited with code 3 before reporting its results\n"
        assert stdout == ""
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "7"), ("--alpha", "1"), ("--alpha", "0"), ("--alpha", "-0.1"),
        ("--alpha", "nan"), ("--exact-threshold", "-1"), ("--exact-threshold", "2.5"),
        ("--sat-level", "0"), ("--sat-level", "9223372036854775808"),
    ])
    def test_invalid_flag_exits_2_and_writes_nothing(self, dataset_dir, tmp_path,
                                                     capsys, flag, value):
        out = tmp_path / "res"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", str(dataset_dir), "--output", str(out),
                  flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_exact_threshold_above_64_falls_back_to_normal(self, tmp_path, capsys):
        # 33 subjects in sessions 1 and 2 of task 1: one comparison, pooled size 66
        ds = generate_dataset(SynthConfig(n_subjects=33, samples_per_recording=20))
        write_dataset(Dataset(r for r in ds if r.task_id == 1 and r.session_id <= 2),
                      tmp_path / "ds")
        with pytest.warns(UserWarning, match="skipping"):
            code, _, _ = run_cli(capsys, "analyze", "--input", str(tmp_path / "ds"),
                                 "--output", str(tmp_path / "res"),
                                 "--exact-threshold", "100")
        assert code == 0
        doc = json.loads((tmp_path / "res" / "table2.json").read_text())
        cells = [cell for row in doc["rows"] for cell in row["cells"].values() if cell]
        assert [cell["method"] for cell in cells] == ["normal_approx"]

    def test_single_subject_warns(self, tmp_path, capsys):
        ds = tmp_path / "solo"
        run_cli(capsys, *synth_args(ds, subjects=1, samples=50))
        with pytest.warns(UserWarning, match="fewer than 2 subjects per cell, "
                                             "p-values are degenerate"):
            code, _, _ = run_cli(
                capsys, "analyze", "--input", str(ds), "--output", str(tmp_path / "res"))
        assert code == 0

    def test_skipped_pairs_give_one_warning(self, tmp_path, capsys):
        # One recording: every one of the 9 x 10 session pairs lacks data.
        ds = generate_dataset(SynthConfig(n_subjects=1, samples_per_recording=20))
        write_dataset(Dataset([ds.get(1, 1, 1)]), tmp_path / "ds")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(capsys, "analyze", "--input", str(tmp_path / "ds"),
                                 "--output", str(tmp_path / "res"))
        assert code == 0
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, "skipping 90 session pairs with no data for one or both sessions")]

    def test_other_warnings_pass_through(self, dataset_dir, tmp_path, capsys, monkeypatch):
        def warn_and_analyze(*args, **kwargs):
            warnings.warn("something else", RuntimeWarning)
            return analyze(*args, **kwargs)

        analyze = cli.analyze_dataset
        monkeypatch.setattr(cli, "analyze_dataset", warn_and_analyze)
        with pytest.warns(RuntimeWarning, match="something else"):
            code, _, _ = run_cli(capsys, "analyze", "--input", str(dataset_dir),
                                 "--output", str(tmp_path / "res"))
        assert code == 0

    def test_unknown_feature_refused_before_work(self, monkeypatch):
        monkeypatch.setattr(cli, "aggregate", pytest.fail)
        with pytest.raises(ValueError) as exc:
            cli.analyze_dataset(Dataset(), feature="speed")
        assert str(exc.value) == ("unknown feature 'speed', expected one of "
                                  f"{cli.FEATURES}")
        for alpha in (0, 1, 1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\), got "):
                cli.analyze_dataset(Dataset(), alpha=alpha)

    @pytest.mark.parametrize("exact_threshold", ["64", None, True, 2.5, -1])
    def test_bad_exact_threshold_refused_before_work(self, monkeypatch, exact_threshold):
        for module, name in ((cli, "aggregate"), (stats, "ranksum_exact"),
                             (stats, "ranksum_normal"), (stats, "_fan_out")):
            monkeypatch.setattr(module, name, pytest.fail)
        cells = {(1, session): [0.1, 0.2] for session in SESSIONS}
        refused = "^exact_threshold must be (an integer|at least 0)"
        for call in (lambda: stats.ranksum([0.1], [0.2], exact_threshold),
                     lambda: stats.pairwise_session_tests(cells, exact_threshold),
                     lambda: cli.analyze_dataset(Dataset(), exact_threshold=exact_threshold)):
            with pytest.raises(ValueError, match=refused):
                call()

    def test_alpha_flag_changes_flags(self, dataset_dir, tmp_path, capsys):
        strict = tmp_path / "strict"
        run_cli(capsys, "analyze", "--input", str(dataset_dir),
                "--output", str(strict), "--alpha", "1e-12")
        rows = list(csv.reader(io.StringIO((strict / "table2.csv").read_text())))
        assert all(row[11] == "" for row in rows[1:])

    def test_exact_threshold_flag(self, dataset_dir, tmp_path, capsys):
        forced = tmp_path / "forced"
        run_cli(capsys, "analyze", "--input", str(dataset_dir),
                "--output", str(forced), "--exact-threshold", "0")
        doc = json.loads((forced / "table2.json").read_text())
        methods = {cell["method"] for row in doc["rows"]
                   for cell in row["cells"].values() if cell}
        assert methods == {"normal_approx"}

    def test_feature_flag_switches_tested_grid(self, dataset_dir, tmp_path, capsys):
        a, b = tmp_path / "fa", tmp_path / "fb"
        run_cli(capsys, "analyze", "--input", str(dataset_dir), "--output", str(a))
        run_cli(capsys, "analyze", "--input", str(dataset_dir), "--output", str(b),
                "--feature", "mean_pressure")
        pa = json.loads((a / "table2.json").read_text())
        pb = json.loads((b / "table2.json").read_text())
        assert pa != pb
        # table1 is the same either way, it always reports mean pressure
        assert (a / "table1.csv").read_bytes() == (b / "table1.csv").read_bytes()


def children(pid: int) -> list[str]:
    """Process ids of the live children of ``pid``."""
    return Path(f"/proc/{pid}/task/{pid}/children").read_text().split()


def alive(pid: str) -> bool:
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def cli_process(argv) -> subprocess.Popen:
    """``hwfatigue.cli`` run on ``argv`` from this checkout's sources, in a
    session of its own, with stderr piped as text."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "hwfatigue.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2
                    or not Path("/proc/self/task").is_dir(),
                    reason="needs two CPUs for a forked child, and Linux /proc to see it")
class TestInterrupts:
    """SIGINT or SIGTERM to the process group of a running ``synth`` or
    ``analyze`` ends it with status 130 or 143 and one ``error:`` line, once
    no process of the group is left and nothing of the run remains in
    ``--output``; a rerun then succeeds."""

    OUTCOME = {signal.SIGINT: (130, ["error: interrupted"]),
               signal.SIGTERM: (143, ["error: terminated"])}

    @staticmethod
    def interrupted(argv, ready, signum):
        """Exit status and stderr lines of the command ``argv``, run in a
        session of its own and sent ``signum`` to its process group as soon
        as ``ready(pid)``, polled without a fixed sleep, holds."""
        with cli_process(argv) as proc:
            try:
                deadline = time.monotonic() + 60
                while not ready(proc.pid):
                    assert proc.poll() is None, "the command ended before it was signalled"
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                os.killpg(proc.pid, signum)
                _, stderr = proc.communicate(timeout=120)
                with pytest.raises(ProcessLookupError):
                    os.killpg(proc.pid, 0)  # no process of the group is left
            finally:  # after a failed check, nothing of the group keeps running
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
        return proc.returncode, stderr.splitlines()

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["INT", "TERM"])
    def test_synth(self, tmp_path, capsys, signum):
        out = tmp_path / "ds"
        argv = synth_args(out, subjects=40, samples=2000)

        def first_file(pid):
            return out.is_dir() and any(out.rglob("*.svc"))

        assert self.interrupted(argv, first_file, signum) == self.OUTCOME[signum]
        assert not out.exists()
        assert run_cli(capsys, *argv)[0] == 0
        assert len(list(out.rglob("*.svc"))) == 40 * 5 * 9

    def test_killed_synth_takes_its_children(self, tmp_path):
        # SIGKILL to the caller alone, not to its process group, gives it no
        # chance to stop its children: they die with it, and the tree stops
        # growing.
        out = tmp_path / "ds"
        with cli_process(synth_args(out, subjects=40, samples=2000)) as proc:
            try:
                deadline = time.monotonic() + 60
                while not (out.is_dir() and any(out.rglob("*.svc"))):
                    assert proc.poll() is None, "synth ended before it was killed"
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                recorded = [child for task in Path(f"/proc/{proc.pid}/task").iterdir()
                            for child in (task / "children").read_text().split()]
                proc.kill()
                assert proc.wait(timeout=60) == -signal.SIGKILL
                assert recorded
                while any(map(alive, recorded)):
                    assert time.monotonic() < deadline, "a child outlived its killed caller"
                    time.sleep(0.001)
            finally:  # after a failed check, nothing of the group keeps running
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
        assert len(list(out.rglob("*.svc"))) < 40 * 5 * 9 // 2

    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("campaign")
        write_synthetic(SynthConfig(n_subjects=21, samples_per_recording=500), root)
        return root

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["INT", "TERM"])
    def test_analyze(self, dataset_dir, tmp_path, capsys, signum):
        out = tmp_path / "results"
        argv = ["analyze", "--input", str(dataset_dir), "--output", str(out)]
        assert self.interrupted(argv, children, signum) == self.OUTCOME[signum]
        assert not out.exists() or not set(os.listdir(out)) & set(ANALYZE_OUTPUTS)
        assert run_cli(capsys, *argv)[0] == 0
        assert sorted(os.listdir(out)) == sorted(ANALYZE_OUTPUTS)


MALFORMED_LINES = ("1 2 3 9 5 6 7", "1 2 3", "x 2 3 1 5 6 7", "1 2 3 1 5 6 -1")


@st.composite
def campaigns(draw):
    """The config of a small campaign, its ceiling (``--sat-level`` of both
    commands), the ``analyze`` threshold and feature, and what to break in
    its tree in between: files or whole sessions removed, and maybe one file
    overwritten with a malformed line."""
    subjects = draw(st.integers(1, 4))
    session = st.tuples(st.integers(1, subjects), st.sampled_from(SESSIONS))
    return {
        "config": SynthConfig(n_subjects=subjects, samples_per_recording=draw(st.integers(1, 30)),
                              seed=draw(st.integers(0, 2**32)),
                              device=DeviceProfile(draw(st.integers(1, 2**62)))),
        "exact_threshold": draw(st.integers(0, 64)),
        "feature": draw(st.sampled_from(FEATURES)),
        "removed": draw(st.lists(st.tuples(session, st.none() | st.sampled_from(TASKS)),
                                 max_size=8)),
        "malformed": draw(st.none() | st.tuples(session, st.sampled_from(TASKS),
                                                st.sampled_from(MALFORMED_LINES))),
    }


def run_quietly(*argv):
    """Exit code, stdout, stderr and warnings of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), [(w.category, str(w.message)) for w in caught]


def break_tree(root: Path, removed, malformed) -> None:
    for (subject, session), task in removed:
        path = data.recording_path(root, subject, session, task or 1)
        if task is None:
            shutil.rmtree(path.parent, ignore_errors=True)
        else:
            path.unlink(missing_ok=True)
    if malformed is not None:
        (subject, session), task, line = malformed
        path = data.recording_path(root, subject, session, task)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"1\n{line}\n")


def pairwise_results(root: Path, feature: str, exact_threshold: int,
                     device: DeviceProfile) -> list[dict]:
    """Every field of the pairwise test results ``analyze_dataset`` returns
    for the dataset under ``root``, in their order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, results, _ = cli.analyze_dataset(data.load_dataset(root, device), feature=feature,
                                            exact_threshold=exact_threshold)
    return [vars(r) for r in results]


def recording_key(name: str) -> tuple[int, int, int]:
    """``(subject, session, task)`` of a tree path ``subjectNN/sessionS/taskT.svc``."""
    subject_dir, session_dir, task_file = Path(name).parts
    return (int(subject_dir[len("subject"):]), int(session_dir[len("session"):]),
            int(task_file[len("task"):-len(".svc")]))


def cell_values(tree: dict[str, bytes], feature: str,
                sat_level: int) -> dict[tuple[int, int], list[float]]:
    """Per-subject feature values of each (task, session), computed by the
    oracles from the pressure column of the files in ``tree``."""
    cells = {}
    for name, content in tree.items():  # in path order, so by subject id
        _, session, task = recording_key(name)
        pressure = [int(line.split()[6]) for line in content.decode().splitlines()[1:]]
        value = (saturation_ratio_by_loop(pressure, sat_level) if feature == "saturation_ratio"
                 else mean_by_summation(pressure))
        cells.setdefault((task, session), []).append(value)
    return cells


def same_float(got, want) -> bool:
    """Both undefined, or equal to a relative 1e-12."""
    if got is None or want is None:
        return got is want
    return math.isclose(got, want, rel_tol=1e-12)


class TestFanOutContract:
    """``synth`` and ``analyze`` give the same files, output, warnings,
    error and pairwise results whether their work fans out or not, on 1, 2
    or 3 processes.  Each file is the reference generator's and writer's
    and parses as the line oracle parses it; the recordings loaded are
    those the layout oracle walks; each grid cell, empty test pair, exact
    p-value and normal one is the oracles' (loops, the full table, scipy)."""

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(campaigns())
    def test_same_outcome_for_any_process_count_and_bound(self, campaign):
        scipy_stats = pytest.importorskip("scipy.stats")
        config, feature = campaign["config"], campaign["feature"]
        exact_threshold, sat_level = campaign["exact_threshold"], config.device.max_level
        with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
            root = Path(scratch)
            synths, trees = [], []
            for n in (1, 2, 3):
                patch.setattr(data, "_process_count", lambda: n)
                synths.append(run_quietly(
                    *synth_args(root / f"ds{n}", config.seed, config.n_subjects,
                                config.samples_per_recording), "--sat-level", str(sat_level)))
                trees.append(read_tree(root / f"ds{n}"))
                assert multiprocessing.active_children() == []
            assert synths[0][0] == 0
            assert synths == [synths[0]] * 3
            assert trees == [trees[0]] * 3
            assert len(trees[0]) == config.n_subjects * len(SESSIONS) * len(TASKS)
            dataset = root / "ds1"
            for name, content in trees[0].items():
                reference = generate_recording_reference(config, *recording_key(name))
                assert content == svc_text_by_format(reference.samples).encode()
                assert (data.read_svc(dataset / name, config.device).tolist()
                        == parse_svc_by_lines(content.decode(), sat_level))
            break_tree(dataset, campaign["removed"], campaign["malformed"])

            analyses = []
            for cost in (0, stats._FAN_OUT_COST):
                for n in (1, 2, 3):
                    patch.setattr(stats, "_FAN_OUT_COST", cost)
                    patch.setattr(data, "_process_count", lambda: n)
                    out = root / f"res-{cost}-{n}"
                    run = run_quietly("analyze", "--input", str(dataset), "--output", str(out),
                                      "--exact-threshold", str(exact_threshold),
                                      "--feature", feature, "--sat-level", str(sat_level))
                    analyses.append((*run, read_tree(out) if out.exists() else None,
                                     pairwise_results(dataset, feature, exact_threshold,
                                                      config.device)
                                     if run[0] == 0 else None))
                    assert multiprocessing.active_children() == []
            assert analyses == [analyses[0]] * 6
            code, stdout, stderr, _, artifacts, _ = analyses[0]
            keys = layout_keys(dataset)
            assert (code != 0) == (campaign["malformed"] is not None or not keys)
            if code != 0:
                assert code == 1 and stdout == "" and artifacts is None
                assert stderr.startswith("error: ") and stderr.count("\n") == 1
                return
            assert stderr == "" and sorted(artifacts) == sorted(ANALYZE_OUTPUTS)
            assert data.load_dataset(dataset, config.device).keys() == keys
            tree = read_tree(dataset)
            grids = {f: cell_values(tree, f, sat_level) for f in FEATURES}

            def summary(feature, task, session):  # mean, std, n, ratio_vs_s1 of a cell
                values = grids[feature].get((task, session), [])
                mean, std = cell_mean_std(values)
                baseline, _ = cell_mean_std(grids[feature].get((task, 1), []))
                return mean, std, len(values), ratio_vs_baseline(mean, baseline)

            for row in json.loads(artifacts["table1.json"])["rows"]:
                for task in TASKS:
                    _, std, n, _ = summary("mean_pressure", task, row["session"])
                    assert row["n"][f"T{task}"] == n
                    assert same_float(row["std"][f"T{task}"], std)
            for name, fig_feature in (("fig4_data.csv", "saturation_ratio"),
                                      ("fig5_data.csv", "mean_pressure")):
                rows = list(csv.reader(io.StringIO(artifacts[name].decode())))[1:]
                assert [(int(r[0]), int(r[1])) for r in rows] == [(t, s) for t in TASKS
                                                                  for s in SESSIONS]
                for task, session, *fields in rows:
                    mean, std, n, ratio = summary(fig_feature, int(task), int(session))
                    got = [float(x) if x else None for x in fields]
                    assert got[2] == n
                    assert all(map(same_float, got[:2] + got[3:], (mean, std, ratio)))
            cells = grids[feature]
            table2 = json.loads(artifacts["table2.json"])
            for row in table2["rows"]:
                for (a, b), cell in zip(stats.SESSION_PAIRS, row["cells"].values()):
                    assert (cell is None) == (not cells.get((row["task"], a))
                                              or not cells.get((row["task"], b)))
                    if cell is None:
                        continue
                    values = cells[(row["task"], a)], cells[(row["task"], b)]
                    if cell["method"] == "exact":
                        assert (cell["p_value"], cell["rank_sum"]) == full_table_ranksum(*values)
                    else:
                        want = scipy_stats.mannwhitneyu(*values, method="asymptotic",
                                                        use_continuity=True,
                                                        alternative="two-sided").pvalue
                        assert cell["p_value"] == pytest.approx(want, rel=1e-12, abs=0)


class TestFeaturesCommand:
    def test_saturated_file(self, tmp_path, capsys):
        svc = tmp_path / "one.svc"
        svc.write_text("2\n0 0 0 1 0 0 1023\n1 1 10 1 0 0 1023\n")
        code, stdout, _ = run_cli(capsys, "features", "--input", str(svc))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["n_samples"] == 2
        assert doc["saturation_ratio"] == 1.0
        assert doc["mean_pressure"] == 1023.0
        assert doc["speed_x_abs"] == {"min": 1.0, "max": 1.0, "mean": 1.0}
        assert doc["sat_level"] == 1023

    def test_pen_down_only_flag(self, tmp_path, capsys):
        svc = tmp_path / "mix.svc"
        svc.write_text("4\n0 0 0 0 0 0 0\n1 0 5 1 0 0 1023\n"
                       "2 0 10 1 0 0 1023\n3 0 15 0 0 0 0\n")
        _, full_out, _ = run_cli(capsys, "features", "--input", str(svc))
        _, down_out, _ = run_cli(capsys, "features", "--input", str(svc),
                                 "--pen-down-only")
        assert json.loads(full_out)["saturation_ratio"] == 0.5
        assert json.loads(down_out)["saturation_ratio"] == 1.0
        assert json.loads(down_out)["n_samples"] == 2

    def test_custom_sat_level(self, tmp_path, capsys):
        svc = tmp_path / "low.svc"
        svc.write_text("2\n0 0 0 1 0 0 400\n1 1 5 1 0 0 500\n")
        _, stdout, _ = run_cli(capsys, "features", "--input", str(svc),
                               "--sat-level", "500")
        doc = json.loads(stdout)
        assert doc["saturation_ratio"] == 0.5
        assert doc["sat_level"] == 500

    def test_missing_file(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "features", "--input",
                                  str(tmp_path / "absent.svc"))
        assert code == 1
        assert stderr.startswith("error:")

    def test_unreadable_input_fails(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "features", "--input", str(tmp_path))
        assert code == 1
        assert stderr.startswith("error:")

    def test_malformed_file_location(self, tmp_path, capsys):
        svc = tmp_path / "bad.svc"
        svc.write_text("1\n1 2 3 1 5 6\n")
        code, _, stderr = run_cli(capsys, "features", "--input", str(svc))
        assert code == 1
        assert "bad.svc:2:" in stderr

    @pytest.mark.parametrize("content, message", [
        ("0\n", ":1: sample count must be positive, got 0"),
        ("2\n0 0 30 1 0 0 5\n0 0 20 1 0 0 5\n", ":3: timestamp 20 follows 30, "),
    ])
    def test_invalid_samples_report_path_and_line(self, tmp_path, capsys, content, message):
        svc = tmp_path / "bad.svc"
        svc.write_text(content)
        code, stdout, stderr = run_cli(capsys, "features", "--input", str(svc))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"error: {svc}{message}")

    @pytest.mark.parametrize("content, flags", [
        ("1\n0 0 0 1 0 0 1023\n", ()),
        ("2\n0 0 0 1 0 0 1023\n1 1 10 0 0 0 0\n", ("--pen-down-only",)),
    ], ids=["one-sample", "one-pen-down-sample"])
    def test_one_selected_sample_has_null_speeds(self, tmp_path, capsys, content, flags):
        svc = tmp_path / "one.svc"
        svc.write_text(content)
        code, stdout, stderr = run_cli(capsys, "features", "--input", str(svc), *flags)
        assert (code, stderr) == (0, "")
        assert json.loads(stdout) == {"n_samples": 1, "saturation_ratio": 1.0,
                                      "mean_pressure": 1023.0, "speed_x_abs": None,
                                      "speed_y_abs": None, "sat_level": 1023}

    @pytest.mark.parametrize("content, flags, message", [
        ("2\n0 0 0 0 0 0 0\n1 1 10 0 0 0 0\n", ("--pen-down-only",),
         "recording has no pen-down samples"),
    ])
    def test_featureless_file_names_path(self, tmp_path, capsys, content, flags, message):
        svc = tmp_path / "short.svc"
        svc.write_text(content)
        code, stdout, stderr = run_cli(capsys, "features", "--input", str(svc), *flags)
        assert (code, stdout, stderr) == (1, "", f"error: {svc}: {message}\n")


class TestParser:
    def test_help_includes_format_reference(self):
        parser = build_parser()
        text = parser.format_help()
        assert "pen_status" in text
        assert "subject<NN>" in text

    def test_commands_registered(self):
        parser = build_parser()
        for argv in (["synth", "--output", "x"],
                     ["analyze", "--input", "a", "--output", "b"],
                     ["features", "--input", "f"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_feature_choices_enforced(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "--input", "a", "--output", "b",
                 "--feature", "speed"])
        capsys.readouterr()
