"""Shared fixture builders: synthetic structures and the lock-and-key pair,
the correlation oracle pair, and the dict forms of a result and a report
that their JSON writers are checked against."""

from __future__ import annotations

import numpy as np
import pytest

from crossdock.docking import (
    DockingResult,
    Pose,
    _correlate,
    _spectrum,
    generate_rotations,
    rotate_structure,
)
from crossdock.grid import DockGrid, GridSpec, ScoringParams
from crossdock.pdb_io import AtomRecord, Structure, bounding_box

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


def z_quarter_turn() -> np.ndarray:
    """The 90 degree rotation about +z, (cos 45, 0, 0, sin 45), as the row
    of the 90 degree rotation set that holds it."""
    rotations = generate_rotations(90.0)
    w, x, y, z = rotations.T
    [q] = rotations[(x == 0.0) & (y == 0.0) & (w > 0.0) & (z > 0.0)]
    return q


KEY_INPUT_ROTATION = z_quarter_turn()


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


def _format_atom_name(name: str, element: str) -> str:
    # Standard alignment: names shorter than 4 chars start in column 14
    # unless the element symbol is two characters wide.
    if len(name) < 4 and len(element) != 2:
        name = " " + name
    return f"{name:<4.4s}"


def structure_to_pdb(s: Structure) -> str:
    """Serialize to standards-shaped ATOM lines (3-decimal coordinates,
    constant occupancy and B-factor): the writer the PDB round-trip test
    and the file fixtures use."""
    out = []
    for a in s.atoms:
        out.append(
            "ATOM  {serial:>5d} {name}{altloc}{res:>3.3s} {chain:1.1s}"
            "{resseq:>4d}{icode}   {x:8.3f}{y:8.3f}{z:8.3f}{occ:6.2f}"
            "{bfac:6.2f}          {element:>2.2s}".format(
                serial=a.serial,
                name=_format_atom_name(a.atom_name, a.element),
                altloc=" ",
                res=a.residue_name,
                chain=a.chain_id or " ",
                resseq=a.residue_seq,
                icode=" ",
                x=a.x,
                y=a.y,
                z=a.z,
                occ=1.0,
                bfac=0.0,
                element=a.element,
            )
        )
    out.append("END")
    return "\n".join(out) + "\n"


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


@pytest.fixture
def forbid_pose(monkeypatch):
    """A call that makes building a Pose, by its constructor or by
    Pose._make, raise AssertionError for the rest of the test."""

    def built(*args, **kwargs):
        raise AssertionError("a Pose was built")

    def forbid() -> None:
        monkeypatch.setattr(Pose, "__new__", staticmethod(built))
        monkeypatch.setattr(Pose, "_make", classmethod(built))

    return forbid


def result_dict(result: DockingResult) -> dict:
    """A result's JSON as a dict: its header plus each pose as a dict."""
    return {**result.header(), "top_poses": [p._asdict() for p in result.top_poses]}


def report_dict(report) -> dict:
    """A BatchReport's JSON as a dict; json.dumps(report_dict(r),
    sort_keys=True) is the oracle for r.to_json()."""
    return {
        "tasks": list(report.task_order),
        "results": [
            result_dict(report.completed[tid]) for tid in report.task_order
            if tid in report.completed
        ],
        "failed": [
            {"task_id": tid, "attempts": report.failed[tid], "error": report.errors[tid]}
            for tid in sorted(report.failed)
        ],
        "per_worker": dict(sorted(report.per_worker.items())),
        "wall_time_s": report.wall_time,
    }


def fft_correlate(receptor: DockGrid, ligand: DockGrid) -> np.ndarray:
    """Correlation volume C(t) = sum_v Re[conj(R(v)) * L(v + t)] over all
    cyclic voxel translations t, through dock_pair's transform pair. The
    inverse transform's 1/n^3 factor makes C match the direct sum exactly."""
    assert receptor.spec == ligand.spec
    return _correlate(np.conj(_spectrum(receptor.voxels)), ligand.voxels)


def direct_correlate(receptor: DockGrid, ligand: DockGrid) -> np.ndarray:
    """Brute-force oracle for fft_correlate: a literal translation scan with
    cyclic indexing and no transforms. O(n^6); intended for n <= 16."""
    assert receptor.spec == ligand.spec
    n = receptor.spec.n
    rc = np.conj(receptor.voxels)
    lig = ligand.voxels
    out = np.empty((n, n, n), dtype=np.float64)
    for tx in range(n):
        lx = np.roll(lig, -tx, axis=0)
        for ty in range(n):
            lxy = np.roll(lx, -ty, axis=1)
            for tz in range(n):
                out[tx, ty, tz] = np.sum(rc * np.roll(lxy, -tz, axis=2)).real
    return out
