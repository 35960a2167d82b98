"""CLI batch command: a bad input fails only its own tasks, exit code 3, and
the failure reason reaches report.json and standard error."""

import json

from crossdock import cli

from conftest import key_points, lock_points, make_structure, write_pdb


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
