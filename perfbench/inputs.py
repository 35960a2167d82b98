"""Seeded synthetic inputs for the crossdock benchmark.

Runs in the benchmark's own process and never imports crossdock: the program
under test receives only the PDB files written here. The same seed always
writes the same files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

DEFAULT_SEED = 1

# cross: (atoms, longest bounding-box edge in A). Receptor x ligand spans
# give grids of n = 24..32 at the default pitch and margin, so grid sizes
# differ between tasks while the per-task fixed costs stay visible.
CROSS_RECEPTORS = ((60, 10.0), (120, 11.5), (200, 13.0), (300, 15.0))
CROSS_LIGANDS = (("lig0", 15, 4.5), ("lig1", 40, 6.5), ("noatoms", 0, 0.0), ("lig2", 80, 8.0))
BAD_LIGAND = "noatoms"


def blob(rng: np.random.Generator, atoms: int, edge: float) -> np.ndarray:
    """``atoms`` points uniform in a ball, scaled so that the longest edge of
    their bounding box is ``edge`` A."""
    v = rng.normal(size=(atoms, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    points = v * rng.random(atoms)[:, None] ** (1.0 / 3.0)
    return points * (edge / (points.max(axis=0) - points.min(axis=0)).max())


def pdb_text(coords: np.ndarray) -> str:
    """Fixed-column ATOM records, one alanine CA per point."""
    lines = [
        f"ATOM  {i + 1:5d}  CA  ALA A{i // 10 + 1:4d}    "
        f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C"
        for i, (x, y, z) in enumerate(coords)
    ]
    return "\n".join(lines + ["END"]) + "\n"


NO_ATOMS_TEXT = (
    "REMARK   1 A LIGAND FILE WITH NO ATOM RECORDS\n"
    "HETATM    1  O   HOH A   1       0.000   0.000   0.000  1.00  0.00           O\n"
    "END\n"
)


def write_pair(seed: int, work: Path) -> None:
    # Protein-sized blobs whose 32 A + 21 A edges give n = 54 at the default
    # pitch and margin, whatever the seed.
    rng = np.random.default_rng([seed, 1])
    (work / "receptor.pdb").write_text(pdb_text(blob(rng, 1500, 32.0)), encoding="utf-8")
    (work / "ligand.pdb").write_text(pdb_text(blob(rng, 500, 21.0)), encoding="utf-8")


def write_cross(seed: int, work: Path) -> None:
    rng = np.random.default_rng([seed, 2])
    receptors = []
    for i, (atoms, edge) in enumerate(CROSS_RECEPTORS):
        name = f"rec{i}.pdb"
        (work / name).write_text(pdb_text(blob(rng, atoms, edge)), encoding="utf-8")
        receptors.append(name)
    ligands = []
    for stem, atoms, edge in CROSS_LIGANDS:
        text = NO_ATOMS_TEXT if stem == BAD_LIGAND else pdb_text(blob(rng, atoms, edge))
        (work / f"{stem}.pdb").write_text(text, encoding="utf-8")
        ligands.append(f"{stem}.pdb")
    (work / "receptors.txt").write_text("\n".join(receptors) + "\n", encoding="utf-8")
    (work / "ligands.txt").write_text("\n".join(ligands) + "\n", encoding="utf-8")


# dispatch writes no files: its no-op executor never opens the task paths,
# and every process that needs the canned result rebuilds it from the seed.
WRITERS = {"pair": write_pair, "cross": write_cross}
