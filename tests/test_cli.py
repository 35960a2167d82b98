"""CLI: exit codes 0 to 3, and for the batch command that a bad input fails
only its own tasks, with the failure reason in report.json and on standard
error, one line per failed attempt."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossdock
from crossdock import cli

from conftest import key_points, lock_points, make_structure, write_pdb


def test_exit_0_on_success(capsys):
    assert cli.main(["rotations", "--step", "90"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "24 unique rotations at 90.0 degree step\n"
    assert cli.main(["rotations", "--step", "15"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "6384 unique rotations at 15.0 degree step\n"


def test_exit_1_on_a_missing_or_unreadable_input(tmp_path, capsys):
    missing = str(tmp_path / "missing.pdb")
    assert cli.main(["dock", missing, missing]) == cli.EXIT_INPUT
    assert "missing.pdb" in capsys.readouterr().err
    directory = str(tmp_path)
    assert cli.main(["dock", directory, directory]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_2_on_a_bad_parameter(capsys):
    assert cli.main(["rotations", "--step", "7"]) == cli.EXIT_CONFIG
    assert "does not divide 360" in capsys.readouterr().err


@pytest.mark.parametrize("config", ["[1, 2]", '{"pitch": "abc"}', '{"pitch": NaN}',
                                    '{"top_k": 2.7}', '{"threads": true}'])
def test_exit_2_on_a_bad_config_file(tmp_path, capsys, config):
    receptor = write_pdb(tmp_path, make_structure("lock", lock_points()))
    (tmp_path / "list.txt").write_text(f"{receptor}\n", encoding="utf-8")
    (tmp_path / "cfg.json").write_text(config, encoding="utf-8")
    lists = [str(tmp_path / "list.txt")] * 2
    code = cli.main(["cross", *lists, "--config", str(tmp_path / "cfg.json"), "--dry-run"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flags", [[], ["--dry-run"]])
def test_exit_2_on_a_bad_step_before_any_task_runs(tmp_path, capsys, flags):
    receptor = write_pdb(tmp_path, make_structure("lock", lock_points()))
    (tmp_path / "list.txt").write_text(f"{receptor}\n", encoding="utf-8")
    lists = [str(tmp_path / "list.txt")] * 2
    out = tmp_path / "out"
    code = cli.main(["cross", *lists, "--step", "7", "--workers", "2",
                     "--out-dir", str(out), *flags])
    assert code == cli.EXIT_CONFIG
    assert "does not divide 360" in capsys.readouterr().err
    assert not out.exists()


def test_v_sets_the_crossdock_logger_under_a_configured_root(capsys):
    """A host program's root handler must not swallow -v, and repeated runs
    must not stack stderr handlers."""
    root, crossdock_log = logging.getLogger(), logging.getLogger("crossdock")
    host, level = logging.NullHandler(), crossdock_log.level
    handlers = list(crossdock_log.handlers)
    root.addHandler(host)
    try:
        for _ in range(2):
            assert cli.main(["-v", "rotations", "--step", "90"]) == cli.EXIT_OK
            assert crossdock_log.level == logging.INFO
            assert crossdock_log.handlers == handlers
        assert cli.main(["rotations", "--step", "90"]) == cli.EXIT_OK
        assert crossdock_log.level == logging.WARNING
    finally:
        root.removeHandler(host)
        crossdock_log.setLevel(level)


def test_exit_2_on_a_malformed_analyzer_table(tmp_path, capsys):
    runs = tmp_path / "runs.tsv"
    runs.write_text("instance\tn_instances\twall_time_s\tn_pairs\nH16\tx\t300.0\t3481\n",
                    encoding="utf-8")
    assert cli.main(["analyze", "--runs", str(runs)]) == cli.EXIT_CONFIG
    assert f"{runs} line 2" in capsys.readouterr().err


def test_cross_with_atomless_ligand_exits_3_and_names_the_error(tmp_path, capsys):
    receptor = write_pdb(tmp_path, make_structure("lock", lock_points()))
    key = write_pdb(tmp_path, make_structure("key", key_points()))
    (tmp_path / "empty.pdb").write_text("REMARK no atom records\nEND\n", encoding="utf-8")
    (tmp_path / "receptors.txt").write_text(f"{receptor}\n", encoding="utf-8")
    (tmp_path / "ligands.txt").write_text(f"{key}\nempty.pdb\n", encoding="utf-8")
    out = tmp_path / "out"

    code = cli.main(["cross", str(tmp_path / "receptors.txt"), str(tmp_path / "ligands.txt"),
                     "--step", "90", "--top-k", "3", "--threads", "1", "--workers", "2",
                     "--out-dir", str(out)])

    assert code == cli.EXIT_FAILED_TASKS
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [r["task_id"] for r in report["results"]] == ["lock__key"]
    [failed] = report["failed"]
    assert failed["task_id"] == "lock__empty" and failed["attempts"] == 3
    assert failed["error"].startswith("NoAtomsError")
    assert "failed after 3 attempts: lock__empty: NoAtomsError" in capsys.readouterr().err


def test_cross_results_do_not_depend_on_the_inner_threads(tmp_path, monkeypatch):
    # 4 cores over 2 lanes: the default threads resolve to 2 in each lane
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    receptor = write_pdb(tmp_path, make_structure("lock", lock_points()))
    key = write_pdb(tmp_path, make_structure("key", key_points()))
    (tmp_path / "receptors.txt").write_text(f"{receptor}\n{key}\n", encoding="utf-8")
    (tmp_path / "ligands.txt").write_text(f"{key}\n{receptor}\n", encoding="utf-8")
    results = []
    for name, flags in (("default", []), ("one", ["--threads", "1"])):
        out = tmp_path / name
        code = cli.main(["cross", str(tmp_path / "receptors.txt"), str(tmp_path / "ligands.txt"),
                         "--step", "90", "--top-k", "50", "--workers", "2",
                         "--out-dir", str(out), *flags])
        assert code == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        results.append([{k: v for k, v in r.items() if k != "wall_time"}
                        for r in report["results"]])
    assert len(results[0]) == 4 and results[0] == results[1]


def run_cross_in_subprocess(tmp_path, *flags: str) -> subprocess.CompletedProcess:
    """``crossdock [flags] cross`` on the lock and an atom-less ligand, in a
    fresh interpreter, so that the CLI's own logging setup writes stderr."""
    receptor = write_pdb(tmp_path, make_structure("lock", lock_points()))
    (tmp_path / "empty.pdb").write_text("REMARK no atom records\nEND\n", encoding="utf-8")
    (tmp_path / "receptors.txt").write_text(f"{receptor}\n", encoding="utf-8")
    (tmp_path / "ligands.txt").write_text("empty.pdb\n", encoding="utf-8")
    src = str(Path(crossdock.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-m", "crossdock.cli", *flags, "cross",
         str(tmp_path / "receptors.txt"), str(tmp_path / "ligands.txt"),
         "--step", "90", "--top-k", "3", "--threads", "1", "--workers", "1",
         "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_failed_attempts_log_one_line_each_and_a_traceback_only_with_v(tmp_path):
    quiet = run_cross_in_subprocess(tmp_path)
    assert quiet.returncode == cli.EXIT_FAILED_TASKS, quiet.stderr
    assert "Traceback" not in quiet.stderr
    attempts = [line for line in quiet.stderr.splitlines()
                if "task lock__empty failed: NoAtomsError" in line]
    assert len(attempts) == 3 and all(" WARNING " in line for line in attempts)
    assert "failed after 3 attempts: lock__empty: NoAtomsError" in quiet.stderr

    verbose = run_cross_in_subprocess(tmp_path, "-v")
    assert verbose.returncode == cli.EXIT_FAILED_TASKS, verbose.stderr
    assert verbose.stderr.count("Traceback") == 3
