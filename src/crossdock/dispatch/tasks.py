"""Docking work units and all-to-all batch generation."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..docking import DockConfig, DockingResult, dock_pair
from ..errors import ParameterError
from ..grid import str_field
from ..pdb_io import load_structure

__all__ = ["DockingTask", "cross_tasks", "execute_task"]


@dataclass(frozen=True)
class DockingTask:
    """One (receptor, ligand) pair to dock. task_id is deterministic:
    "<receptor_id>__<ligand_id>"."""

    task_id: str
    receptor_path: str
    ligand_path: str
    config: DockConfig

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "receptor_path": self.receptor_path,
            "ligand_path": self.ligand_path,
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DockingTask":
        """The task whose to_dict() is ``d``. An id or a path that is not a
        string is a ValueError."""
        fields = d["task_id"], d["receptor_path"], d["ligand_path"]
        return cls(*map(str_field, fields), config=DockConfig.from_dict(d["config"]))


def _ids_for(paths: Sequence[str], side: str) -> list[str]:
    ids = [Path(p).stem for p in paths]
    seen: set[str] = set()
    for name in ids:
        if name in seen:
            raise ParameterError(f"duplicate {side} id {name!r} in batch")
        seen.add(name)
    return ids


def cross_tasks(
    receptors: Sequence[str],
    ligands: Sequence[str],
    config: DockConfig | None = None,
) -> list[DockingTask]:
    """Full receptor-major Cartesian product: |R| * |L| tasks.

    Ids are the file stems and must be unique within each list.
    """
    if not receptors or not ligands:
        raise ParameterError("receptor and ligand lists must both be non-empty")
    config = config or DockConfig()
    rec_ids = _ids_for(receptors, "receptor")
    lig_ids = _ids_for(ligands, "ligand")
    return [
        DockingTask(
            task_id=f"{rid}__{lid}",
            receptor_path=str(rpath),
            ligand_path=str(lpath),
            config=config,
        )
        for rid, rpath in zip(rec_ids, receptors)
        for lid, lpath in zip(lig_ids, ligands)
    ]


def execute_task(task: DockingTask) -> DockingResult:
    """Load both structures and dock them: what a lane's docking process
    runs for each task."""
    receptor = load_structure(task.receptor_path)
    ligand = load_structure(task.ligand_path)
    return dock_pair(receptor, ligand, task.config)
