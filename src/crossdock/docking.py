"""Rigid-body docking: rotation sampling plus FFT grid correlation.

For every sampled rotation the ligand is rotated about its bounding-box
center, rasterized onto the shared grid, and correlated against the receptor
grid over all cyclic voxel translations in one FFT pass. The best-scoring
placements are merged into a global top-K list under a total order
(score descending, then rotation index and translation ascending), which
makes results independent of thread scheduling. A DockingResult keeps that
list as columns (PoseColumns): a (K, 4) int32 block of rotation index and
translation, and a (K,) float64 score column. A Pose is built only when
one is read, so the top-K crosses the wire and reaches report.json without
one.

The tests keep the brute-force oracle for the FFT path: a literal
translation scan with cyclic indexing and no transforms.

The transforms are numpy.fft's one-axis passes, each run in place with
``out=`` so that the results equal np.fft.fftn/ifftn bit for bit: fftn
transforms the last axis first, hence one-axis passes in that order; its
ifftn scales by 1/n on every pass, hence three one-axis inverse calls. The
spectra's product is written in the operand order of the digests, which
depends on n (see _correlate). The top-K breaks ties between equal scores
on the last bits of these transforms, so a change here that is not
bit-identical moves it.

Grids are float64, and assign_grid builds each one as the block inside
its structure's voxel box, with the block's lattice offset. One forward
routine, _spectrum, copies a block into an n^3 buffer at its offset and
transforms it, skipping the rows and slabs outside the block, which are
all zero. It transforms the receptor once and the ligand at every
rotation. The rotation scan holds the receptor spectrum plus one n^3
complex128 buffer per scanning thread, which dock_pair allocates in the
calling thread. Past rotation 0, which is reduced under no floor, no
rotation allocates a float or integer n^3 array: the transforms, the
product and the candidate reduction run in the buffer.
"""

from __future__ import annotations

import functools
import json
import math
import os
import queue
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NoAtomsError, ParameterError
from .grid import (
    LIGAND,
    RECEPTOR,
    GridSpec,
    ScoringParams,
    assign_grid,
    choose_grid_size,
    float_field,
    int_field,
    str_field,
)
from .pdb_io import Structure, bounding_box

__all__ = [
    "generate_rotations",
    "rotate_structure",
    "DockConfig",
    "Pose",
    "PoseColumns",
    "DockingResult",
    "dock_pair",
    "place_ligand",
    "thread_budget",
]

_ZERO_SNAP = 1e-12


def generate_rotations(angular_step: float) -> np.ndarray:
    """The rotation set for one angular step: an (N, 4) float64 array of
    unit quaternions (w, x, y, z), one row per rotation. A pose's
    ``rotation_index`` is a row of this array. The set is built once per
    step value and shared: every call returns the same read-only array,
    for an int step as for the equal float.

    The rows come from the uniform z-y-z Euler grid: alpha and gamma run
    over [0, 360) and beta over [0, 180] in ``angular_step`` steps. Each
    quaternion is put in canonical form: components within 1e-12 of zero
    are snapped to zero, the row is renormalized, and its first nonzero
    component is made positive. Rows are sorted lexicographically by
    (w, x, y, z); equal rows keep their (alpha, beta, gamma) order.

    Dedupe: distinct Euler triples name the same rotation only at the
    poles, where a beta = 0 triple depends on alpha + gamma alone and a
    beta = 180 triple on alpha - gamma alone (mod 360). Of each such group
    the row first in sort order is kept. Every other triple is a distinct
    rotation; at the usual steps (the tests check 15 to 90 degrees) no two
    kept rows lie within 1e-6 of each other (max-norm).
    """
    return _rotation_set(float(angular_step))


def _steps_per_turn(angular_step: float) -> int:
    """The steps in one full turn; ParameterError unless the step is in
    (0, 120] and divides 360 evenly."""
    if not (0.0 < angular_step <= 120.0):
        raise ParameterError(f"angular step must be in (0, 120], got {angular_step}")
    turns = 360.0 / angular_step
    if abs(turns - round(turns)) > 1e-9:
        raise ParameterError(f"angular step {angular_step} does not divide 360 evenly")
    return int(round(turns))


@functools.cache
def _rotation_set(angular_step: float) -> np.ndarray:
    n = _steps_per_turn(angular_step)
    angles = [i * angular_step for i in range(n)]
    n_beta = sum(1 for a in angles if a <= 180.0 + 1e-9)
    half = [math.radians(a) / 2.0 for a in angles]
    cos = np.array([math.cos(h) for h in half])
    sin = np.array([math.sin(h) for h in half])
    ca, sa = cos[:, None, None], sin[:, None, None]
    cb, sb = cos[None, :n_beta, None], sin[None, :n_beta, None]
    cg, sg = cos[None, None, :], sin[None, None, :]
    # q_z(alpha) * q_y(beta) * q_z(gamma), the Hamilton products with their
    # zero terms dropped and the others summed in the product's order.
    w1, x1, y1, z1 = ca * cb, -(sa * sb), ca * sb, sa * cb
    q = np.stack(
        [w1 * cg - z1 * sg, x1 * cg + y1 * sg, y1 * cg - x1 * sg, w1 * sg + z1 * cg],
        axis=-1,
    ).reshape(-1, 4)

    def normalized(q: np.ndarray) -> np.ndarray:
        w, x, y, z = q.T  # squares summed left to right, as on Python floats
        return q / np.sqrt(w * w + x * x + y * y + z * z)[:, None]

    q = normalized(q)
    q[np.abs(q) < _ZERO_SNAP] = 0.0
    q = normalized(q)
    first_nonzero = q[np.arange(len(q)), np.argmax(q != 0.0, axis=1)]
    q = np.where((first_nonzero < 0.0)[:, None], -q, q)

    order = np.lexsort(q.T[::-1])
    # One key per rotation: a pole triple keeps only the angle it depends on.
    ia, ib, ig = np.indices((n, n_beta, n)).reshape(3, -1)
    pole = (ib == 0) | (2 * ib == n)
    ia = np.where(pole, np.where(ib == 0, ia + ig, ia - ig) % n, ia)
    ig = np.where(pole, 0, ig)
    _, first = np.unique(((ia * n_beta + ib) * n + ig)[order], return_index=True)
    q = q[order[np.sort(first)]]
    q.flags.writeable = False
    return q


def _matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix, acting on column vectors, of the unit quaternion
    row ``q`` = (w, x, y, z)."""
    w, x, y, z = (float(c) for c in q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotate_structure(s: Structure, q: np.ndarray, center) -> Structure:
    """Rotate every atom of ``s`` about ``center`` by the unit quaternion
    ``q``, one (w, x, y, z) row of a generate_rotations array.

    Atom order and identities are unchanged; the identity rotation
    (w == 1) returns ``s`` itself, coordinates untouched bit for bit.
    """
    if not len(s):
        raise NoAtomsError(f"structure {s.id!r} has no atoms")
    if q[0] == 1.0:
        return s
    c = np.asarray(center, dtype=np.float64)
    coords = (s.coords() - c) @ _matrix(q).T + c
    return s.with_coords(coords)


def _spectrum(block: np.ndarray, lo=(0, 0, 0), out: np.ndarray | None = None) -> np.ndarray:
    """FFT(G) in ``out``, an n^3 complex128 C-contiguous buffer, equal bit
    for bit to np.fft.fftn(G). ``block`` is G from lattice index ``lo`` on,
    and G is zero outside it; it is only read, and copied into ``out`` at
    ``lo`` (a float64 block as complex, as fftn casts it). With ``out``
    None, a new buffer of the block's shape, so the block is the whole G.

    The transform is pruned to the block (Sorensen and Burrus, IEEE Trans.
    Signal Process. 1993): the transform of an all-zero line is zero, so
    the last-axis pass runs only on the block's rows and the middle-axis
    pass only on its slabs, and the first-axis pass runs in full. Each line
    is transformed as fftn transforms it, and every pass runs in ``out``:
    one view is both the input and ``out=``.
    """
    if out is None:
        out = np.empty(block.shape, dtype=np.complex128)
    (x0, y0, z0), (x1, y1, z1) = lo, np.add(lo, block.shape).tolist()
    out[:x0] = out[x1:] = 0
    out[x0:x1, :y0] = out[x0:x1, y1:] = 0
    rows = out[x0:x1, y0:y1]
    rows[..., :z0] = rows[..., z1:] = 0
    rows[..., z0:z1] = block
    np.fft.fft(rows, axis=2, out=rows)
    slab = out[x0:x1]
    np.fft.fft(slab, axis=1, out=slab)
    np.fft.fft(out, axis=0, out=out)
    return out


# From this size of a temporary b on, NumPy's elision runs a * b as b *= a.
_ELISION_BYTES = 256 * 1024


def _correlate(rec_hat_conj: np.ndarray, block: np.ndarray, lo=(0, 0, 0),
               out: np.ndarray | None = None) -> np.ndarray:
    """Correlation volume of one ligand grid L against conj(_spectrum(R)),
    equal bit for bit to np.real(np.fft.ifftn(rec_hat_conj *
    np.fft.fftn(L))): a real view into ``out``, the n^3 complex128
    C-contiguous buffer that the transforms and the product run in (a new
    one when None). ``block`` is L from lattice index ``lo`` on, as in
    _spectrum, which prunes the forward transform to it. A block passed as
    a temporary is freed before the inverse transforms.

    The two operand orders of the product can round differently, so the
    order is written out as NumPy's temporary elision ran it in the
    expression ``rec_hat_conj * fftn(L)`` that the digests were recorded
    with: the spectrum times the receptor once the spectrum holds 256 KiB
    (n >= 26), the receptor times the spectrum below that. The three
    inverse passes run in ``out`` as the forward ones do.
    """
    spectrum = _spectrum(block, lo, out if out is not None else np.empty_like(rec_hat_conj))
    del block
    if spectrum.nbytes >= _ELISION_BYTES:
        np.multiply(spectrum, rec_hat_conj, out=spectrum)
    else:
        np.multiply(rec_hat_conj, spectrum, out=spectrum)
    for axis in (2, 1, 0):
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
    return spectrum.real


# The thread budget of the dispatch lane running in this thread; 0 outside
# any lane. Set once per lane by thread_budget.
_lane_threads: ContextVar[int] = ContextVar("lane_threads", default=0)


@contextmanager
def thread_budget(lanes: int):
    """Run the block as one of ``lanes`` dispatch lanes in this process:
    in this thread, a threads=0 DockConfig resolves to the logical cores
    divided by ``lanes``, and at least 1, so the lanes share the cores."""
    token = _lane_threads.set(max(1, (os.cpu_count() or 1) // lanes))
    try:
        yield
    finally:
        _lane_threads.reset(token)


@dataclass(frozen=True)
class DockConfig:
    """Knobs for one docking run; every field has a usable default. A field
    out of its range raises ParameterError on construction."""

    pitch: float = 1.2
    margin_voxels: int = 4
    angular_step: float = 15.0
    top_k: int = 2000
    params: ScoringParams = field(default_factory=ScoringParams)
    # 0 = the thread budget: inside a dispatch lane, the logical cores
    # divided by the lanes in this process (at least 1); all cores otherwise.
    threads: int = 0

    def __post_init__(self):
        if not 0 < self.pitch < math.inf:
            raise ParameterError(f"pitch must be finite and > 0, got {self.pitch}")
        if self.margin_voxels < 0:
            raise ParameterError(f"margin_voxels must be >= 0, got {self.margin_voxels}")
        _steps_per_turn(self.angular_step)
        if self.top_k < 1:
            raise ParameterError(f"top_k must be >= 1, got {self.top_k}")
        if self.threads < 0:
            raise ParameterError(f"threads must be >= 0, got {self.threads}")

    def resolved_threads(self) -> int:
        return self.threads or _lane_threads.get() or os.cpu_count() or 1

    def to_dict(self) -> dict:
        return {
            "pitch": self.pitch,
            "margin_voxels": self.margin_voxels,
            "angular_step": self.angular_step,
            "top_k": self.top_k,
            "params": self.params.to_dict(),
            "threads": self.threads,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DockConfig":
        """Fields missing from ``d`` keep their defaults. ``d`` that is not
        a mapping, a key that names no field (in ``d`` or in its "params"),
        or a value that does not convert exactly (a bool, or a fraction
        where an int is due), is a ParameterError naming the key."""
        if not isinstance(d, dict):
            raise ParameterError(f"config must be a JSON object, not {type(d).__name__}")
        convert = {"pitch": float_field, "margin_voxels": int_field,
                   "angular_step": float_field, "top_k": int_field,
                   "params": ScoringParams.from_dict, "threads": int_field}
        fields = {}
        for key, value in d.items():
            if key not in convert:
                raise ParameterError(f"config has no field {key!r}")
            try:
                fields[key] = convert[key](value)
            except (TypeError, ValueError, KeyError, OverflowError) as exc:
                raise ParameterError(
                    f"config field {key!r}: bad value {value!r} "
                    f"({type(exc).__name__}: {exc})") from None
        return cls(**fields)


class Pose(NamedTuple):
    """One rigid-body placement: a rotation plus a cyclic voxel translation,
    with its score. ``rotation_index`` is a row of the (N, 4) quaternion
    array generate_rotations(angular_step) of the run's angular step.

    A named tuple, for cheap construction: a Pose equals the plain tuple of
    its fields and has tuple ordering, which is not the Pose total order;
    sort by sort_key.
    """

    rotation_index: int
    tx: int
    ty: int
    tz: int
    score: float

    def sort_key(self):
        # Total order: score descending, then indices ascending.
        return (-self.score, self.rotation_index, self.tx, self.ty, self.tz)


class PoseColumns(Sequence):
    """A read-only sequence of Pose kept as two columns: ``indices``, a
    (K, 4) little-endian int32 array of (rotation_index, tx, ty, tz) rows,
    and ``scores``, a (K,) little-endian float64 array. Both are
    non-writeable views. Indexing and iteration build each Pose on demand,
    with Python int indices and a Python float score; a slice is a
    PoseColumns. Two are equal when their columns are equal element by
    element (so, as for floats, a NaN score equals nothing).
    """

    __slots__ = ("indices", "scores")

    def __init__(self, indices: np.ndarray, scores: np.ndarray):
        indices = np.asarray(indices, dtype="<i4").view()
        scores = np.asarray(scores, dtype="<f8").view()
        if scores.ndim != 1 or indices.shape != (len(scores), 4):
            raise ValueError(f"pose columns of shapes {indices.shape} and {scores.shape}")
        indices.flags.writeable = scores.flags.writeable = False
        self.indices, self.scores = indices, scores

    @classmethod
    def of(cls, poses) -> "PoseColumns":
        """The columns of an iterable of Pose (or of 5-tuples like it)."""
        columns = tuple(zip(*poses)) or ((),) * 5
        return cls(np.array(columns[:4], dtype="<i4").T, np.array(columns[4], dtype="<f8"))

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PoseColumns(self.indices[i], self.scores[i])
        return Pose(*self.indices[i].tolist(), self.scores.item(i))

    def __iter__(self):
        return map(Pose._make, zip(*self.indices.T.tolist(), self.scores.tolist()))

    def __eq__(self, other):
        if not isinstance(other, PoseColumns):
            return NotImplemented
        return (np.array_equal(self.indices, other.indices)
                and np.array_equal(self.scores, other.scores))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which it equals.
        return hash((self.indices.tobytes(), (self.scores + 0.0).tobytes()))

    def __repr__(self):
        return f"PoseColumns({list(self)!r})"

    def to_json(self) -> str:
        """json.dumps([p._asdict() for p in self], sort_keys=True), written
        straight from the columns: float.__repr__ for a finite score, and
        NaN, Infinity and -Infinity as json spells them."""
        scores = list(map(float.__repr__, self.scores.tolist()))
        if not np.isfinite(self.scores).all():
            spelled = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
            scores = [spelled.get(s, s) for s in scores]
        pose = '{"rotation_index": %d, "score": %s, "tx": %d, "ty": %d, "tz": %d}'
        rotation, tx, ty, tz = self.indices.T.tolist()
        return "[" + ", ".join(map(pose.__mod__, zip(rotation, scores, tx, ty, tz))) + "]"


def splice_json(d: dict, key: str, raw: str) -> str:
    """json.dumps({**d, key: value}, sort_keys=True) for the value whose
    JSON text is ``raw``: the other keys of ``d`` are dumped on either side
    of it in sorted order, and ``raw`` is never parsed."""
    before = json.dumps({k: v for k, v in d.items() if k < key}, sort_keys=True)[1:-1]
    after = json.dumps({k: v for k, v in d.items() if k > key}, sort_keys=True)[1:-1]
    return "{" + ", ".join(filter(None, (before, f"{json.dumps(key)}: {raw}", after))) + "}"


@dataclass(frozen=True)
class DockingResult:
    """One docked pair. ``top_poses`` is a PoseColumns; a tuple or list of
    Pose given to the constructor is converted once."""

    task_id: str
    receptor_id: str
    ligand_id: str
    grid_spec: GridSpec
    params: ScoringParams
    angular_step: float
    top_poses: PoseColumns
    best_score: float
    wall_time: float

    def __post_init__(self):
        if not isinstance(self.top_poses, PoseColumns):
            object.__setattr__(self, "top_poses", PoseColumns.of(self.top_poses))

    def header(self) -> dict:
        """The result's JSON fields but "top_poses"."""
        return {
            "task_id": self.task_id,
            "receptor_id": self.receptor_id,
            "ligand_id": self.ligand_id,
            "grid": self.grid_spec.to_dict(),
            "params": self.params.to_dict(),
            "angular_step": self.angular_step,
            "best_score": self.best_score,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_header(cls, d: dict, top_poses: PoseColumns) -> "DockingResult":
        """The result whose header() is ``d``, with ``top_poses``. An id
        that is not a string, or a number field that is not a JSON number,
        is a ValueError."""
        return cls(
            *map(str_field, (d["task_id"], d["receptor_id"], d["ligand_id"])),
            grid_spec=GridSpec.from_dict(d["grid"]),
            params=ScoringParams.from_dict(d["params"]),
            angular_step=float_field(d["angular_step"]),
            top_poses=top_poses,
            best_score=float_field(d["best_score"]),
            wall_time=float_field(d["wall_time"]),
        )

    def to_json(self) -> str:
        """The header's fields plus "top_poses", a list of pose objects
        keyed by Pose's field names, as json.dumps(..., sort_keys=True)."""
        return splice_json(self.header(), "top_poses", self.top_poses.to_json())

    def to_tsv_line(self) -> str:
        return "\t".join(
            [
                self.task_id,
                self.receptor_id,
                self.ligand_id,
                str(self.grid_spec.n),
                repr(self.best_score),
                f"{self.wall_time:.3f}",
            ]
        )


TSV_HEADER = "task_id\treceptor_id\tligand_id\tn\tbest_score\twall_time_s"


class _TopK:
    """Bounded best-K set under the Pose total order, kept as two arrays:
    the scores and the global keys ``rotation * n^3 + flat``, whose
    ascending order is (rotation, tx, ty, tz) ascending.

    A candidate is buffered only if it beats the K-th kept entry: a higher
    score, or an equal score and a smaller key. Once the buffer holds K
    entries, and before sorted_poses, the buffer is folded into the kept
    set: the K best by (-score, key), which therefore depend only on the
    multiset of candidates, never on merge order. Once K entries are kept,
    ``floor`` is the K-th score (-inf before): it never decreases, and no
    entry scoring below it can enter the set any more.
    """

    def __init__(self, k: int):
        self.k = k
        self.floor = -math.inf
        self._n = 0
        self._scores = np.empty(0)
        self._keys = np.empty(0, dtype=np.int64)
        self._buffer: list[tuple[np.ndarray, np.ndarray]] = []
        self._buffered = 0

    def merge(self, ri: int, idx: np.ndarray, scores: np.ndarray, n: int) -> None:
        """Buffer rotation ``ri``'s candidates from _best_candidates (flat
        indices into its n^3 volume) that beat the K-th kept entry."""
        self._n = n
        keys = idx + ri * n**3
        if len(self._scores) == self.k:
            score, key = self._scores[-1], self._keys[-1]
            beats = (scores > score) | ((scores == score) & (keys < key))
            scores, keys = scores[beats], keys[beats]
        self._buffer.append((scores, keys))
        self._buffered += len(scores)
        if self._buffered >= self.k:
            self._fold()

    def _fold(self) -> None:
        # A partition finds the K-th best score, and only the entries at or
        # above it (ties included) are sorted: by key, which is unique, then
        # stably by score.
        neg = -np.concatenate([self._scores, *(s for s, _ in self._buffer)])
        keys = np.concatenate([self._keys, *(k for _, k in self._buffer)])
        if len(neg) > self.k:
            keep = neg <= np.partition(neg, self.k - 1)[self.k - 1]
            neg, keys = neg[keep], keys[keep]
        by_key = np.argsort(keys)
        best = by_key[np.argsort(neg[by_key], kind="stable")[: self.k]]
        self._scores, self._keys = -neg[best], keys[best]
        self._buffer, self._buffered = [], 0
        if len(best) == self.k:
            self.floor = float(self._scores[-1])

    def sorted_poses(self) -> PoseColumns:
        if self._buffer:
            self._fold()
        n = self._n
        ri, flat = np.divmod(self._keys, n**3)
        tx, rem = np.divmod(flat, n * n)
        ty, tz = np.divmod(rem, n)
        return PoseColumns(np.stack((ri, tx, ty, tz), axis=1), self._scores)


def _best_candidates(
    volume: np.ndarray, k: int, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and scores of the k best entries of one correlation
    volume that score at least ``floor``, ordered by score descending then
    flat index ascending (flat index ascending is (tx, ty, tz) ascending
    for the [x, y, z] layout).

    ``floor`` is a published _TopK.floor: an entry below it could never
    enter the top-K, so dropping it first changes no merged result, at any
    thread count. With a floor of -inf every entry is a candidate.

    The threshold comes first: when more than k entries clear the floor,
    their values are partitioned in place and the floor is raised to the
    k-th best of them, so the index array holds only the entries at or
    above the k-th best score (its ties included).
    """
    flat = volume.reshape(-1)  # a view: the volume is an n^3 real view of a buffer
    k = min(k, flat.size)
    above = flat >= floor
    if np.count_nonzero(above) > k:
        values = flat[above]
        values.partition(values.size - k)
        above = flat >= values[-k]
        del values
    sel = np.flatnonzero(above)
    idx = sel[np.argsort(-flat[sel], kind="stable")[:k]]
    return idx, flat[idx]


def _centered_coords(ligand: Structure, spec: GridSpec) -> np.ndarray:
    """Ligand coordinates with the bounding-box center moved onto the grid
    center, which is where dock_pair rotates it."""
    lo, hi = bounding_box(ligand)
    return ligand.coords() + (spec.center() - (lo + hi) / 2.0)


def place_ligand(
    result: DockingResult,
    pose: Pose,
    ligand: Structure,
    wrap: bool = True,
) -> np.ndarray:
    """Atom coordinates of ``ligand`` in the placement that ``pose`` scores.

    The correlation samples the rotated ligand grid at v + t, so a pose
    moves the centered, rotated ligand by -t voxels; with ``wrap`` the
    coordinates are folded cyclically into the grid box. ``ligand`` must be
    the structure that was passed to dock_pair. The rotation is row
    ``pose.rotation_index`` of the (N, 4) quaternion array
    generate_rotations(result.angular_step), applied by rotate_structure as
    in dock_pair.
    """
    spec = result.grid_spec
    q = generate_rotations(result.angular_step)[pose.rotation_index]
    centered = ligand.with_coords(_centered_coords(ligand, spec))
    coords = rotate_structure(centered, q, spec.center()).coords()
    coords = coords - np.array([pose.tx, pose.ty, pose.tz]) * spec.pitch
    if wrap:
        box_lo = np.asarray(spec.origin) - spec.pitch / 2.0
        coords = (coords - box_lo) % (spec.n * spec.pitch) + box_lo
    return coords


def dock_pair(receptor: Structure, ligand: Structure, config: DockConfig | None = None) -> DockingResult:
    """Dock ``ligand`` against ``receptor`` over all sampled rotations and
    cyclic translations; returns the global top-K poses.

    The receptor grid and its transform are built exactly once. Each
    rotation's candidates, those at or above the published floor, are
    merged as arrays into _TopK, which folds them in once per K buffered
    entries. Rotation 0 is scanned first, in the calling thread, so that
    the other rotations, pooled or not, are reduced under the floor it
    publishes once K entries are kept. Results are bit-identical across
    runs and across thread counts (wall_time aside). ``config.threads`` =
    0 means all logical cores, or inside a dispatch lane the lane's share
    of them (thread_budget). The margin must absorb the ligand's rotation
    sweep: a very elongated ligand against a much smaller receptor can
    overflow the grid, which raises GridOverflowError naming the atom.
    """
    config = config or DockConfig()
    t_start = time.perf_counter()
    spec = choose_grid_size(receptor, ligand, config.pitch, config.margin_voxels)
    rotations = generate_rotations(config.angular_step)
    # The ligand docks about the grid center: its bounding-box center is
    # translated there once, rotations spin it in place, and the cyclic
    # translation does the rest. The grid-size rule sized n for exactly
    # this centered layout.
    centered = ligand.with_coords(_centered_coords(ligand, spec))
    lig_center = spec.center()
    rec_grid = assign_grid(receptor, spec, RECEPTOR, config.params)
    rec_hat_conj = _spectrum(rec_grid.block, rec_grid.lo,
                             np.empty((spec.n,) * 3, dtype=np.complex128))
    np.conj(rec_hat_conj, out=rec_hat_conj)
    del rec_grid
    top = _TopK(config.top_k)
    # One buffer per scanning thread, for this call only: a scan takes one
    # and puts it back, so no two concurrent scans share one.
    workers = min(config.resolved_threads(), len(rotations))
    buffers: queue.SimpleQueue = queue.SimpleQueue()
    buffers.put(np.empty_like(rec_hat_conj))

    def scan_rotation(ri: int) -> tuple[np.ndarray, np.ndarray]:
        grid = assign_grid(rotate_structure(centered, rotations[ri], lig_center),
                           spec, LIGAND, config.params)
        buffer = buffers.get()
        try:
            volume = _correlate(rec_hat_conj, grid.block, grid.lo, buffer)
            return _best_candidates(volume, config.top_k, top.floor)
        finally:
            buffers.put(buffer)

    top.merge(0, *scan_rotation(0), spec.n)
    # The other threads' buffers come once rotation 0, reduced under no
    # floor, has freed its temporaries.
    for _ in range(1, workers):
        buffers.put(np.empty_like(rec_hat_conj))
    if workers <= 1:
        for ri in range(1, len(rotations)):
            top.merge(ri, *scan_rotation(ri), spec.n)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scans = pool.map(scan_rotation, range(1, len(rotations)))
            for ri, (idx, scores) in enumerate(scans, start=1):
                top.merge(ri, idx, scores, spec.n)

    poses = top.sorted_poses()
    return DockingResult(
        task_id=f"{receptor.id}__{ligand.id}",
        receptor_id=receptor.id,
        ligand_id=ligand.id,
        grid_spec=spec,
        params=config.params,
        angular_step=config.angular_step,
        top_poses=poses,
        best_score=float(poses.scores[0]),
        wall_time=time.perf_counter() - t_start,
    )
