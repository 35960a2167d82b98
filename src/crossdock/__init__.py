"""crossdock: FFT grid docking, master-worker batch dispatch, cost analysis."""

from .docking import (
    DockConfig,
    DockingResult,
    Pose,
    dock_pair,
    generate_rotations,
    rotate_structure,
)
from .errors import (
    ComparisonError,
    CrossdockError,
    DispatchError,
    GridOverflowError,
    NoAtomsError,
    ParameterError,
    PdbParseError,
    WireError,
)
from .grid import (
    LIGAND,
    RECEPTOR,
    DockGrid,
    GridSpec,
    ScoringParams,
    assign_grid,
    choose_grid_size,
)
from .pdb_io import AtomRecord, Structure, bounding_box, load_structure, parse_pdb

__all__ = [
    "DockConfig", "DockingResult", "Pose", "dock_pair", "generate_rotations", "rotate_structure",
    "ComparisonError", "CrossdockError", "DispatchError", "GridOverflowError", "NoAtomsError",
    "ParameterError", "PdbParseError", "WireError",
    "LIGAND", "RECEPTOR", "DockGrid", "GridSpec", "ScoringParams", "assign_grid",
    "choose_grid_size",
    "AtomRecord", "Structure", "bounding_box", "load_structure", "parse_pdb",
]

__version__ = "0.1.0"
