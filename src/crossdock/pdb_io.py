"""Read the fixed-column subset of the PDB format used for docking.

Only ``ATOM`` records are read. HETATM, TER, REMARK and every other record
type is skipped, and ``ENDMDL`` stops parsing, so multi-model files yield the
first model only. Alternate-location indicators are not interpreted: every
ATOM line is kept, in file order. Occupancy and B-factor columns are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NoAtomsError, PdbParseError

__all__ = [
    "AtomRecord",
    "Structure",
    "parse_pdb",
    "load_structure",
    "bounding_box",
]

# 0-based column slices of the ATOM record (PDB format v3.3).
_SERIAL = slice(6, 11)
_NAME = slice(12, 16)
_RESNAME = slice(17, 20)
_CHAIN = slice(21, 22)
_RESSEQ = slice(22, 26)
_X = slice(30, 38)
_Y = slice(38, 46)
_Z = slice(46, 54)
_ELEMENT = slice(76, 78)


@dataclass(frozen=True)
class AtomRecord:
    """One ATOM record; coordinates in Angstroms."""

    serial: int
    atom_name: str
    residue_name: str
    chain_id: str
    residue_seq: int
    x: float
    y: float
    z: float
    element: str = ""


class Structure:
    """An ordered list of atoms read from one file (or built in memory).

    The coordinates live in one read-only (n_atoms, 3) float64 array. The
    other per-atom fields stay in the AtomRecords the structure was built
    from, which every copy made by ``with_coords`` shares; such a copy
    builds its own AtomRecords only when ``atoms`` is first read.
    Construction, ``atoms``, ``len``, equality and hashing behave as for a
    frozen dataclass of (id, atoms, source_path).
    """

    __slots__ = ("_id", "_source_path", "_records", "_coords", "_atoms")

    def __init__(self, id: str, atoms: tuple[AtomRecord, ...], source_path: str = ""):
        atoms = tuple(atoms)
        coords = np.array([(a.x, a.y, a.z) for a in atoms], dtype=np.float64).reshape(-1, 3)
        self._init(id, source_path, atoms, coords, atoms)

    def _init(self, id, source_path, records, coords, atoms) -> None:
        coords.flags.writeable = False
        self._id = id
        self._source_path = source_path
        self._records = records
        self._coords = coords
        self._atoms = atoms

    @property
    def id(self) -> str:
        return self._id

    @property
    def source_path(self) -> str:
        return self._source_path

    @property
    def atoms(self) -> tuple[AtomRecord, ...]:
        if self._atoms is None:
            self._atoms = tuple(
                AtomRecord(a.serial, a.atom_name, a.residue_name, a.chain_id,
                           a.residue_seq, x, y, z, a.element)
                for a, (x, y, z) in zip(self._records, self._coords.tolist())
            )
        return self._atoms

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.id, self.atoms, self.source_path) == (other.id, other.atoms, other.source_path)

    def __hash__(self) -> int:
        return hash((self.id, self.atoms, self.source_path))

    def __repr__(self) -> str:
        return f"Structure(id={self.id!r}, {len(self)} atoms, source_path={self.source_path!r})"

    def coords(self) -> np.ndarray:
        """A writable copy of the atom coordinates, (n_atoms, 3) float64,
        file order."""
        return self._coords.copy()

    def with_coords(self, coords: np.ndarray) -> "Structure":
        """Copy of this structure with atom coordinates replaced, order kept."""
        coords = np.array(coords, dtype=np.float64)
        if coords.shape != (len(self), 3):
            raise ValueError(f"expected coords of shape ({len(self)}, 3)")
        copy = Structure.__new__(Structure)
        copy._init(self.id, self.source_path, self._records, coords, None)
        return copy


def _parse_int(line: str, col: slice, line_no: int, what: str) -> int:
    text = line[col].strip()
    try:
        return int(text)
    except ValueError:
        raise PdbParseError(line_no, f"unparseable {what} field {text!r}") from None


def _parse_coord(line: str, col: slice, line_no: int, axis: str) -> float:
    text = line[col].strip()
    try:
        value = float(text)
    except ValueError:
        raise PdbParseError(line_no, f"unparseable {axis} coordinate {text!r}") from None
    if not math.isfinite(value):
        raise PdbParseError(line_no, f"non-finite {axis} coordinate {text!r}")
    return value


def parse_pdb(text: str, id: str, source_path: str = "") -> Structure:
    """Parse ATOM records out of the PDB text of a whole file.

    Raises PdbParseError (with the 1-based line number) for a bad ATOM line
    and NoAtomsError when no ATOM record is found.
    """
    atoms: list[AtomRecord] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        record = line[:6].rstrip()
        if record == "ENDMDL":
            break
        if record != "ATOM":
            continue
        serial = _parse_int(line, _SERIAL, line_no, "serial")
        if serial < 0:
            raise PdbParseError(line_no, f"negative atom serial {serial}")
        atoms.append(
            AtomRecord(
                serial=serial,
                atom_name=line[_NAME].strip(),
                residue_name=line[_RESNAME].strip(),
                chain_id=line[_CHAIN] or " ",
                residue_seq=_parse_int(line, _RESSEQ, line_no, "resSeq"),
                x=_parse_coord(line, _X, line_no, "x"),
                y=_parse_coord(line, _Y, line_no, "y"),
                z=_parse_coord(line, _Z, line_no, "z"),
                element=line[_ELEMENT].strip(),
            )
        )

    if not atoms:
        raise NoAtomsError(f"no atoms in PDB input {id!r}")
    return Structure(id=id, atoms=tuple(atoms), source_path=source_path)


def load_structure(path: str | Path) -> Structure:
    """Read a structure from a PDB file; the file stem becomes its id."""
    p = Path(path)
    # errors="replace" so arbitrary bytes degrade to a parse error, not a crash
    text = p.read_text(encoding="utf-8", errors="replace")
    return parse_pdb(text, id=p.stem, source_path=str(p))


def bounding_box(s: Structure) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise (min_corner, max_corner) over all atom coordinates."""
    if not len(s):
        raise NoAtomsError(f"structure {s.id!r} has no atoms")
    coords = s.coords()
    return coords.min(axis=0), coords.max(axis=0)
