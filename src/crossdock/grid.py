"""Voxelization of structures onto cubic grids with complementarity weights.

A structure is rasterized onto an N x N x N grid of 1.2 A voxels (default).
Receptor grids carry a thin favorable surface shell (+1) around a heavily
penalized core (-15); ligand grids carry +1 inside the molecular core.
Grids are float64. The grid correlation is then the classic
shape-complementarity score: +1 per surface contact, -15 per core clash.

Rasterization is non-periodic: an atom whose inflated extent leaves the
lattice raises GridOverflowError instead of wrapping to the opposite face.
A whole-voxel translation of a structure therefore equals ``np.roll`` of its
grid only while every shifted atom stays inside the lattice.

Grid edge sizes are restricted to 5-smooth integers (2^a * 3^b * 5^c) so the
transforms stay in their fast radix paths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridOverflowError, NoAtomsError, ParameterError
from .pdb_io import Structure, bounding_box

__all__ = [
    "RECEPTOR",
    "LIGAND",
    "ScoringParams",
    "GridSpec",
    "DockGrid",
    "is_radix_friendly",
    "next_radix_friendly",
    "choose_grid_size",
    "assign_grid",
    "int_field",
    "float_field",
    "str_field",
]

RECEPTOR = "receptor"
LIGAND = "ligand"


@dataclass(frozen=True)
class ScoringParams:
    """Shape-complementarity weights and rasterization constants.

    Recorded in every docking result so scores are reproducible. The weights
    follow the classic grid-correlation convention; the atom radius is
    uniform (no per-element radii) and the surface shell is a Chebyshev
    dilation of the core, ``surface_thickness`` voxels deep. A weight that
    is not finite, or a radius outside (0, inf), raises ParameterError.
    """

    surface_weight: float = 1.0
    receptor_core_weight: float = -15.0
    ligand_weight: float = 1.0
    atom_radius: float = 1.5
    surface_thickness: int = 1

    def __post_init__(self):
        for name in ("surface_weight", "receptor_core_weight", "ligand_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.atom_radius < math.inf:
            raise ParameterError(f"atom_radius must be finite and > 0, got {self.atom_radius}")
        if self.surface_thickness < 0:
            raise ParameterError(
                f"surface_thickness must be >= 0, got {self.surface_thickness}"
            )

    def to_dict(self) -> dict:
        return {
            "surface_weight": self.surface_weight,
            "receptor_core_weight": self.receptor_core_weight,
            "ligand_weight": self.ligand_weight,
            "atom_radius": self.atom_radius,
            "surface_thickness": self.surface_thickness,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScoringParams":
        """The params whose to_dict() is ``d``; a key that names no field
        is a ParameterError naming it."""
        params = cls(
            surface_weight=float_field(d["surface_weight"]),
            receptor_core_weight=float_field(d["receptor_core_weight"]),
            ligand_weight=float_field(d["ligand_weight"]),
            atom_radius=float_field(d["atom_radius"]),
            surface_thickness=int_field(d["surface_thickness"]),
        )
        if unknown := d.keys() - params.to_dict().keys():
            raise ParameterError(f"unknown scoring parameter {min(unknown)!r}")
        return params


def int_field(value) -> int:
    """A JSON value read as an int: anything but an int or an integral
    float is a ValueError, where int() would read True as 1, "54" as 54 and
    truncate 2.7 to 2."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def float_field(value) -> float:
    """A JSON value read as a float: anything but an int or a float (a
    bool, a string) is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def str_field(value) -> str:
    """A JSON value read as a string: anything else (a number, null, a
    list) is a ValueError, where str() would read 7 as "7"."""
    if type(value) is not str:
        raise ValueError(f"{value!r} is not a string")
    return value


def is_radix_friendly(n: int) -> bool:
    """True when n factors only into the primes 2, 3 and 5."""
    if n < 1:
        return False
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def next_radix_friendly(n: int) -> int:
    """Smallest 5-smooth integer >= n."""
    m = max(1, n)
    while not is_radix_friendly(m):
        m += 1
    return m


@dataclass(frozen=True)
class GridSpec:
    """Cubic voxel lattice: n voxels per edge, ``origin`` is the center of
    voxel (0, 0, 0). A pitch outside (0, inf) or an origin that is not
    finite raises ParameterError."""

    n: int
    pitch: float
    origin: tuple[float, float, float]

    def __post_init__(self):
        if self.n < 4:
            raise ParameterError(f"grid edge must be >= 4 voxels, got {self.n}")
        if not is_radix_friendly(self.n):
            raise ParameterError(f"grid edge {self.n} is not 5-smooth")
        if not 0 < self.pitch < math.inf:
            raise ParameterError(f"pitch must be finite and > 0, got {self.pitch}")
        if not all(map(math.isfinite, self.origin)):
            raise ParameterError(f"origin must be finite, got {self.origin}")

    def center(self) -> np.ndarray:
        """Coordinate of the lattice midpoint (between voxels for even n)."""
        return np.asarray(self.origin) + (self.n - 1) / 2.0 * self.pitch

    def to_dict(self) -> dict:
        return {"n": self.n, "pitch": self.pitch, "origin": list(self.origin)}

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        ox, oy, oz = d["origin"]
        return cls(n=int_field(d["n"]), pitch=float_field(d["pitch"]),
                   origin=(float_field(ox), float_field(oy), float_field(oz)))


@dataclass(frozen=True)
class DockGrid:
    """Voxel weights for one structure, indexed [x, y, z]: ``block`` is the
    grid from lattice index ``lo`` on, and every voxel outside it is zero.
    ``voxels`` is the whole (n, n, n) grid in the block's dtype, built on
    first read."""

    spec: GridSpec
    block: np.ndarray
    lo: tuple[int, int, int] = (0, 0, 0)

    @functools.cached_property
    def voxels(self) -> np.ndarray:
        voxels = np.zeros((self.spec.n,) * 3, dtype=self.block.dtype)
        voxels[tuple(map(slice, self.lo, np.add(self.lo, self.block.shape)))] = self.block
        return voxels


def choose_grid_size(
    receptor: Structure,
    ligand: Structure,
    pitch: float = 1.2,
    margin_voxels: int = 4,
) -> GridSpec:
    """Pick the docking grid for a pair.

    The edge covers the receptor's largest bounding-box edge plus the
    ligand's, plus ``margin_voxels`` of clearance on each side, rounded up to
    the next 5-smooth integer (and never below 4). The origin places the
    receptor's bounding-box center at the grid center.
    """
    if pitch <= 0:
        raise ParameterError(f"pitch must be > 0, got {pitch}")
    if margin_voxels < 0:
        raise ParameterError(f"margin_voxels must be >= 0, got {margin_voxels}")
    rec_lo, rec_hi = bounding_box(receptor)
    lig_lo, lig_hi = bounding_box(ligand)
    span = float((rec_hi - rec_lo).max() + (lig_hi - lig_lo).max())
    required = math.ceil(span / pitch) + 2 * margin_voxels
    n = next_radix_friendly(max(required, 4))
    rec_center = (rec_lo + rec_hi) / 2.0
    origin = rec_center - (n - 1) / 2.0 * pitch
    return GridSpec(n=n, pitch=pitch, origin=(float(origin[0]), float(origin[1]), float(origin[2])))


# Candidate voxels (atoms x stencil cells) rasterized per chunk, which bounds
# the temporaries for large receptors on fine lattices.
_CORE_MASK_CHUNK_CELLS = 1 << 18


def _extents(xyz: np.ndarray, spec: GridSpec, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Per atom and axis, the first and last lattice index whose voxel
    center can lie within ``radius`` of the atom center (last < first when
    none can)."""
    origin = np.asarray(spec.origin)
    lo = np.ceil((xyz - radius - origin) / spec.pitch).astype(np.int64)
    hi = np.floor((xyz + radius - origin) / spec.pitch).astype(np.int64)
    return lo, hi


@functools.lru_cache
def _stencil(m: int, ny: int, nz: int) -> np.ndarray:
    """Flat offsets, in a C-order block of ny x nz rows, of the m^3 cube
    from its corner."""
    steps = np.arange(m)
    ox, oy, oz = np.meshgrid(steps, steps, steps, indexing="ij")
    stencil = ((ox * ny + oy) * nz + oz).ravel()
    stencil.flags.writeable = False
    return stencil


def _core_mask(s: Structure, spec: GridSpec, radius: float,
               grow: int) -> tuple[np.ndarray, tuple[int, int, int]]:
    """``(mask, lo)``: the boolean mask of voxels whose center lies within
    ``radius`` of any atom center, as its block from lattice index ``lo``.
    The block is the smallest lattice box that holds every such voxel,
    grown by ``grow`` voxels on each side and clipped to the lattice; no
    voxel outside it is set. Raises GridOverflowError (naming the serial of
    the first such atom in file order) when an atom's inflated bounding
    cube maps outside the voxel lattice.

    All atoms are rasterized at once: each atom's voxel extent [lo, hi] per
    axis, then one stencil of m = max(hi - lo) + 1 offsets per axis from lo,
    where offsets past an atom's hi are excluded, then a single scatter.
    Distances use the float operations, in the order, of a per-atom scan
    of [lo, hi] (tests keep that scan as the oracle), so the mask is bit
    identical to it.
    """
    n, pitch = spec.n, spec.pitch
    origin = np.asarray(spec.origin)
    xyz = s.coords()
    lo, hi = _extents(xyz, spec, radius)
    outside = np.flatnonzero((lo < 0).any(axis=1) | (hi > n - 1).any(axis=1))
    if outside.size:
        raise GridOverflowError(s.atoms[outside[0]].serial,
                                "inflated atom extends outside the grid")
    b_lo = np.maximum(lo.min(axis=0) - grow, 0)
    shape = tuple((np.minimum(hi.max(axis=0) + 1 + grow, n) - b_lo).tolist())
    mask = np.zeros(math.prod(shape), dtype=bool)
    m = int((hi - lo).max()) + 1
    if m < 1:
        return mask.reshape(shape), tuple(b_lo.tolist())  # no sphere catches a center
    steps = np.arange(m)
    _, ny, nz = shape
    stencil = _stencil(m, ny, nz)
    r2 = radius * radius
    chunk = max(1, _CORE_MASK_CHUNK_CELLS // m**3)
    for a in range(0, len(xyz), chunk):
        c_lo, c_hi, c_xyz = lo[a : a + chunk], hi[a : a + chunk], xyz[a : a + chunk]
        idx = c_lo[:, :, None] + steps  # (atoms, 3 axes, m offsets)
        d2 = (origin[None, :, None] + idx * pitch - c_xyz[:, :, None]) ** 2
        d2[idx > c_hi[:, :, None]] = np.inf  # past this atom's extent
        within = (
            d2[:, 0, :, None, None] + d2[:, 1, None, :, None] + d2[:, 2, None, None, :]
        ) <= r2
        atom, cell = np.nonzero(within.reshape(len(c_xyz), -1))
        corner = c_lo - b_lo
        base = (corner[:, 0] * ny + corner[:, 1]) * nz + corner[:, 2]
        mask[base[atom] + stencil[cell]] = True
    return mask.reshape(shape), tuple(b_lo.tolist())


def _dilate(mask: np.ndarray, steps: int) -> np.ndarray:
    """``mask`` dilated ``steps`` times by the 3x3x3 cube, without wrapping
    at the faces: the voxels within Chebyshev distance ``steps`` of a True
    voxel. That cube is separable, so this ORs shifted slices along each
    axis in turn, which on booleans is exact."""
    for axis in range(mask.ndim):
        src = np.moveaxis(mask, axis, 0)
        grown = src.copy()
        for shift in range(1, min(steps, len(src) - 1) + 1):
            grown[shift:] |= src[:-shift]
            grown[:-shift] |= src[shift:]
        mask = np.moveaxis(grown, 0, axis)
    return mask


def assign_grid(
    s: Structure,
    spec: GridSpec,
    role: str,
    params: ScoringParams | None = None,
) -> DockGrid:
    """Rasterize a structure onto ``spec`` with role-dependent weights.

    Core voxels (center within ``params.atom_radius`` of an atom) get the
    role's core weight. For receptors, zero voxels within
    ``params.surface_thickness`` Chebyshev shells of the core become surface
    voxels with the surface weight. Dilation does not wrap at grid edges.

    Rasterization is non-periodic: an atom whose inflated extent leaves the
    lattice raises GridOverflowError naming its serial. Translating the
    structure by whole voxels rolls the grid (``np.roll``) only while the
    shifted atoms stay inside.

    The grid is built as its float64 block in the structure's voxel box:
    the box of its core voxels, grown for a receptor by the surface shell
    and clipped to the lattice. Every voxel outside the box is zero.
    """
    if role not in (RECEPTOR, LIGAND):
        raise ParameterError(f"role must be {RECEPTOR!r} or {LIGAND!r}, got {role!r}")
    if params is None:
        params = ScoringParams()
    if not len(s):
        raise NoAtomsError(f"structure {s.id!r} has no atoms")

    shell = params.surface_thickness if role == RECEPTOR else 0
    core, lo = _core_mask(s, spec, params.atom_radius, shell)
    block = np.zeros(core.shape)
    if role == RECEPTOR:
        block[_dilate(core, shell) & ~core] = params.surface_weight
    block[core] = params.ligand_weight if role == LIGAND else params.receptor_core_weight
    return DockGrid(spec, block, lo)
