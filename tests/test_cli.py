"""CLI: exit codes 0 to 3, for the batch command that a bad input fails
only its own tasks, with the failure reason in report.json and on standard
error, one line per failed attempt, and that the run record it writes is
one the analyzer reads."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossdock
from crossdock import cli, costmodel
from crossdock.dispatch import BatchReport
from crossdock.grid import ScoringParams

from conftest import key_points, lock_points, make_structure, sample_result, write_pdb

# A complete "params" object, as ScoringParams.from_dict needs, with one NaN.
NAN_WEIGHT = ('{"params": {"surface_weight": NaN, "receptor_core_weight": -15.0, '
              '"ligand_weight": 1.0, "atom_radius": 1.5, "surface_thickness": 1}}')


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
                                    '{"top_k": 2.7}', '{"threads": true}',
                                    pytest.param(NAN_WEIGHT, id="surface_weight-NaN"),
                                    pytest.param(b"\xff\xfe", id="not-utf-8")])
def test_exit_2_on_a_bad_config_file(tmp_path, capsys, config):
    receptor = write_pdb(tmp_path, make_structure("lock", lock_points()))
    (tmp_path / "list.txt").write_text(f"{receptor}\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    if isinstance(config, bytes):
        cfg.write_bytes(config)
    else:
        cfg.write_text(config, encoding="utf-8")
    lists = [str(tmp_path / "list.txt")] * 2
    code = cli.main(["cross", *lists, "--config", str(cfg), "--dry-run"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_2_on_a_list_file_that_is_not_utf_8(tmp_path, capsys):
    receptor = write_pdb(tmp_path, make_structure("lock", lock_points()))
    (tmp_path / "list.txt").write_text(f"{receptor}\n", encoding="utf-8")
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe")
    code = cli.main(["cross", str(tmp_path / "list.txt"), str(tmp_path / "bad.txt"), "--dry-run"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.txt" in err and "Traceback" not in err


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


@pytest.mark.parametrize("config, key", [
    ('{"angualr_step": 30}', "angualr_step"),
    (json.dumps({"params": {**ScoringParams().to_dict(), "atom_radus": 2.0}}), "atom_radus"),
], ids=["config", "params"])
def test_exit_2_on_an_unknown_config_key(tmp_path, capsys, config, key):
    """A misspelt key fails the run and is named, rather than leaving its
    field at the default."""
    receptor = write_pdb(tmp_path, make_structure("lock", lock_points()))
    (tmp_path / "list.txt").write_text(f"{receptor}\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config, encoding="utf-8")
    lists = [str(tmp_path / "list.txt")] * 2
    code = cli.main(["cross", *lists, "--config", str(cfg), "--dry-run"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize("timeout", ["nan", "inf", "-1", "0"])
def test_exit_2_on_a_startup_timeout_out_of_range(tmp_path, capsys, timeout):
    """A NaN timeout would never expire and an infinite one overflows the
    wait, so both, like one not above 0, fail before the master binds."""
    receptor = write_pdb(tmp_path, make_structure("lock", lock_points()))
    (tmp_path / "list.txt").write_text(f"{receptor}\n", encoding="utf-8")
    lists = [str(tmp_path / "list.txt")] * 2
    out = tmp_path / "out"
    code = cli.main(["master", *lists, f"--startup-timeout={timeout}",
                     "--listen", "127.0.0.1:0", "--out-dir", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "startup_timeout" in err and "Traceback" not in err
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
    for wall in ("nan", "inf"):
        runs.write_text(f"instance\tn_instances\twall_time_s\tn_pairs\nH16\t1\t{wall}\t3481\n",
                        encoding="utf-8")
        assert cli.main(["analyze", "--runs", str(runs)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{runs} line 2" in err and "Traceback" not in err, wall
    catalog = tmp_path / "catalog.tsv"
    for column, value in (("dp_peak_gflops", "inf"), ("ram_gb", "nan"),
                          ("price_usd_per_hour", "nan")):
        cells = ["H16", "cpu", "16", "100.0", "0", "112", "no", "1.9"]
        row = dict(zip(costmodel._CATALOG_COLUMNS, cells))
        row[column] = value
        catalog.write_text("\t".join(row) + "\n" + "\t".join(row.values()) + "\n",
                           encoding="utf-8")
        assert cli.main(["analyze", "--catalog", str(catalog)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{catalog} line 2" in err and column in err and "Traceback" not in err, column
    runs.write_bytes(b"\xff\xfe")
    for flag in ("--runs", "--catalog"):
        assert cli.main(["analyze", flag, str(runs)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {runs}") and "Traceback" not in err


DATA = Path(__file__).parent / "data"


def test_analyze_prints_the_golden_tables_of_the_bundled_data(tmp_path, capsys):
    """The text and the JSON of ``crossdock analyze`` on the bundled tables,
    byte for byte: H16 scales 0.931 and NC24 0.890, NC24 speeds up 5.91x,
    and H16's fees are 37.1 and 39.9 USD."""
    assert cli.main(["analyze", "--json", str(tmp_path / "report.json")]) == cli.EXIT_OK
    assert capsys.readouterr().out == (DATA / "analyze_bundled.txt").read_text(encoding="utf-8")
    assert (tmp_path / "report.json").read_bytes() == (DATA / "analyze_bundled.json").read_bytes()


def test_analyze_reads_the_runs_tsv_that_cross_writes(tmp_path, capsys):
    receptor = write_pdb(tmp_path, make_structure("lock", lock_points()))
    key = write_pdb(tmp_path, make_structure("key", key_points()))
    (tmp_path / "receptors.txt").write_text(f"{receptor}\n", encoding="utf-8")
    (tmp_path / "ligands.txt").write_text(f"{key}\n", encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["cross", str(tmp_path / "receptors.txt"), str(tmp_path / "ligands.txt"),
                     "--step", "90", "--top-k", "3", "--workers", "1", "--instance-name", "H16",
                     "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    wall = json.loads((out / "report.json").read_text(encoding="utf-8"))["wall_time_s"]
    assert costmodel.load_runs(out / "runs.tsv") == [
        costmodel.RunRecord("H16", 1, float(f"{wall:.3f}"), 1)]
    capsys.readouterr()
    assert cli.main(["analyze", "--runs", str(out / "runs.tsv")]) == cli.EXIT_OK
    runs_table = capsys.readouterr().out.splitlines()[:3]
    assert runs_table[0] == "Runs" and runs_table[2].split()[:3] == ["H16", "1", "16"]


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


def test_cross_with_no_completed_pair_writes_no_run_record(tmp_path, capsys):
    """The analyzer rejects a run record of 0 pairs, so cross writes none
    and removes a stale one."""
    receptor = write_pdb(tmp_path, make_structure("lock", lock_points()))
    (tmp_path / "noatoms.pdb").write_text("REMARK no atom records\nEND\n", encoding="utf-8")
    (tmp_path / "receptors.txt").write_text(f"{receptor}\n", encoding="utf-8")
    (tmp_path / "ligands.txt").write_text("noatoms.pdb\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "runs.tsv").write_text("stale\n", encoding="utf-8")
    code = cli.main(["cross", str(tmp_path / "receptors.txt"), str(tmp_path / "ligands.txt"),
                     "--step", "90", "--workers", "1", "--out-dir", str(out)])
    assert code == cli.EXIT_FAILED_TASKS
    assert not (out / "runs.tsv").exists()
    assert f"no pair completed, so no run record: {out / 'runs.tsv'} not written" in \
        capsys.readouterr().err


@pytest.mark.parametrize("wall, written", [(0.002, "0.002"), (0.0004, "0.0004"),
                                           (1234.56789, "1234.568")])
def test_a_run_record_of_a_short_batch_round_trips_through_load_runs(tmp_path, wall, written):
    report = BatchReport(("a__b", "a__c"), {"a__b": sample_result("a__b")}, {"a__c": 3},
                         {"a__c": "NoAtomsError"}, {"w": 1}, wall)
    text = report.run_record_tsv("H16", 2)
    assert text.splitlines()[1].split("\t") == ["H16", "2", written, "1"]
    (tmp_path / "runs.tsv").write_text(text, encoding="utf-8")
    assert costmodel.load_runs(tmp_path / "runs.tsv") == [
        costmodel.RunRecord("H16", 2, float(written), 1)]


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
