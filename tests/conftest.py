"""Shared fixture builders: synthetic structures and the lock-and-key pair."""

from __future__ import annotations

import numpy as np
import pytest

from crossdock.docking import DockingResult, Pose, Rotation, rotate_structure
from crossdock.grid import GridSpec, ScoringParams
from crossdock.pdb_io import AtomRecord, Structure, bounding_box, structure_to_pdb

# Atom spacing for grid-aligned synthetic shapes: two 1.2 A voxels. With an
# even grid edge every atom center then sits exactly between voxel centers,
# each atom rasterizes to a crisp 2x2x2 cube, and atoms two units apart make
# surface contact without core overlap.
UNIT = 2.4


def make_structure(sid: str, points, spacing: float = UNIT) -> Structure:
    atoms = tuple(
        AtomRecord(
            serial=i + 1,
            atom_name="C",
            residue_name="GLY",
            chain_id="A",
            residue_seq=i + 1,
            x=spacing * p[0],
            y=spacing * p[1],
            z=spacing * p[2],
            element="C",
        )
        for i, p in enumerate(points)
    )
    return Structure(id=sid, atoms=atoms)


def single_atom(sid: str, x: float = 10.0, y: float = 20.0, z: float = 30.0) -> Structure:
    return Structure(
        id=sid,
        atoms=(AtomRecord(1, "N", "MET", "A", 1, x, y, z, "N"),),
    )


def lock_points() -> list[tuple[int, int, int]]:
    """A stepped channel: floor, a tall wall, a mid wall, an arm shelf and an
    end pillar. Complements key_points exactly one way."""
    pts: list[tuple[int, int, int]] = []
    for x in (0, 1, 2, 3, 4):
        for z in (-1, 0, 1):
            pts.append((x, 0, z))  # floor
    for y in (1, 2):
        for z in (-1, 0, 1):
            pts.append((0, y, z))  # tall wall at -x
    for z in (-1, 0, 1):
        pts.append((2, 1, z))  # mid wall under the arm
        pts.append((3, 1, z))  # shelf under the arm tip
    for y in (1, 2, 3):
        for z in (-1, 0, 1):
            pts.append((4, y, z))  # end pillar at +x
    for y in (1, 2):
        pts.append((1, y, -1))
        pts.append((1, y, 1))  # pillars flanking the plug/stem column
    return pts


def key_points() -> list[tuple[int, int, int]]:
    """Chiral key: plug, stem, arm, arm tip, hook, riser. No rotation maps
    the set (or its voxelization) onto itself."""
    return [(1, 1, 0), (1, 2, 0), (2, 2, 0), (3, 2, 0), (3, 3, 0), (2, 3, 0)]


KEY_INPUT_ROTATION = Rotation.from_euler_zyz(90.0, 0.0, 0.0)


@pytest.fixture
def lock_structure() -> Structure:
    return make_structure("lock", lock_points())


@pytest.fixture
def key_docked() -> Structure:
    return make_structure("key", key_points())


@pytest.fixture
def key_input(key_docked: Structure) -> Structure:
    """The key as it arrives in the input file: rotated 90 degrees about z
    around its bounding-box center."""
    lo, hi = bounding_box(key_docked)
    return rotate_structure(key_docked, KEY_INPUT_ROTATION, (lo + hi) / 2.0)


def write_pdb(tmp_path, structure: Structure) -> str:
    path = tmp_path / f"{structure.id}.pdb"
    path.write_text(structure_to_pdb(structure), encoding="utf-8")
    return str(path)


def random_structure(rng: np.random.Generator, sid: str, n_atoms: int,
                     lo: float = -20.0, hi: float = 20.0) -> Structure:
    coords = rng.uniform(lo, hi, size=(n_atoms, 3))
    atoms = tuple(
        AtomRecord(i + 1, "CA", "ALA", "A", i + 1,
                   float(c[0]), float(c[1]), float(c[2]), "C")
        for i, c in enumerate(coords)
    )
    return Structure(id=sid, atoms=atoms)


def sample_result(task_id: str = "r1__l1") -> DockingResult:
    """A small hand-made DockingResult for dispatch and wire tests."""
    poses = (Pose(3, 1, 2, 0, 12.5), Pose(0, 7, 7, 7, -1.0))
    return DockingResult(
        task_id=task_id, receptor_id="r1", ligand_id="l1",
        grid_spec=GridSpec(8, 1.2, (0.5, -1.0, 2.25)), params=ScoringParams(),
        angular_step=90.0, top_poses=poses, best_score=12.5, wall_time=0.25,
    )
