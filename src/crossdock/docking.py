"""Rigid-body docking: rotation sampling plus FFT grid correlation.

For every sampled rotation the ligand is rotated about its bounding-box
center, rasterized onto the shared grid, and correlated against the receptor
grid over all cyclic voxel translations in one FFT pass. The best-scoring
placements are merged into a global top-K list under a total order
(score descending, then rotation index and translation ascending), which
makes results independent of thread scheduling.

The tests keep the brute-force oracle for the FFT path: a literal
translation scan with cyclic indexing and no transforms.

The transforms are scipy.fft's pocketfft, the same library NumPy vendors,
called so that the results equal np.fft.fftn/ifftn bit for bit: scipy runs
each axis pass as one vectorized call where NumPy loops over the axes in
Python. NumPy transforms the last axis first, hence ``axes=(2, 1, 0)``; its
ifftn scales by 1/n on every pass, hence three one-axis inverse calls where
one scipy.fft.ifftn would scale once by 1/n^3 and round differently. The
top-K breaks ties between equal scores on the last bits of these
transforms, so a change here that is not bit-identical moves it.

scipy.fft (about 0.25 s and 25 MB to load) is imported at the first
transform, not with this module: a master, an analyzer or a worker that has
not docked yet imports this module for its records only. The transforms
look scipy.fft.fftn and ifft up at call time.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
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
)
from .pdb_io import Structure, bounding_box

__all__ = [
    "generate_rotations",
    "rotate_structure",
    "DockConfig",
    "Pose",
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


def _receptor_spectrum(receptor_voxels: np.ndarray) -> np.ndarray:
    """conj(FFT(R)): the receptor half of the correlation, computed once.
    Equal bit for bit to np.conj(np.fft.fftn(R)); see the module docstring."""
    import scipy.fft

    return np.conj(scipy.fft.fftn(receptor_voxels, axes=(2, 1, 0)))


def _correlate(rec_hat_conj: np.ndarray, ligand_voxels: np.ndarray) -> np.ndarray:
    """Correlation volume of one ligand grid against _receptor_spectrum,
    equal bit for bit to np.real(np.fft.ifftn(rec_hat_conj *
    np.fft.fftn(L))).

    Each pool thread holds these n^3 buffers at once, so the ligand grid is
    dropped before the inverse transform; pass it as a temporary for that
    to free it. The forward transform leaves the ligand grid as it is (it
    may be a caller's DockGrid.voxels); only the product, which this
    function owns, is transformed in place. The product stays out of place
    and in this operand order: in place or swapped, it can round
    differently.
    """
    import scipy.fft

    spectrum = rec_hat_conj * scipy.fft.fftn(ligand_voxels, axes=(2, 1, 0))
    del ligand_voxels
    for axis in (2, 1, 0):
        spectrum = scipy.fft.ifft(spectrum, axis=axis, overwrite_x=True)
    return np.real(spectrum)


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
        a mapping, or a value that does not convert exactly (a bool, or a
        fraction where an int is due), is a ParameterError."""
        if not isinstance(d, dict):
            raise ParameterError(f"config must be a JSON object, not {type(d).__name__}")
        convert = {"pitch": float_field, "margin_voxels": int_field,
                   "angular_step": float_field, "top_k": int_field,
                   "params": ScoringParams.from_dict, "threads": int_field}
        fields = {}
        for key, value in d.items():
            if key in convert:
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

    def to_dict(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class DockingResult:
    task_id: str
    receptor_id: str
    ligand_id: str
    grid_spec: GridSpec
    params: ScoringParams
    angular_step: float
    top_poses: tuple[Pose, ...]
    best_score: float
    wall_time: float

    def to_dict(self) -> dict:
        d = self.header()
        d["top_poses"] = [p.to_dict() for p in self.top_poses]
        return d

    def header(self) -> dict:
        """to_dict without "top_poses"."""
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
    def from_header(cls, d: dict, top_poses: tuple[Pose, ...]) -> "DockingResult":
        """The result whose header() is ``d``, with ``top_poses``."""
        return cls(
            task_id=d["task_id"],
            receptor_id=d["receptor_id"],
            ligand_id=d["ligand_id"],
            grid_spec=GridSpec.from_dict(d["grid"]),
            params=ScoringParams.from_dict(d["params"]),
            angular_step=float(d["angular_step"]),
            top_poses=top_poses,
            best_score=float(d["best_score"]),
            wall_time=float(d["wall_time"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

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
    entries, and before sorted_poses, one lexsort by (-score, key) folds it
    into the kept set, which therefore depends only on the multiset of
    candidates, never on merge order. Once K entries are kept, ``floor`` is
    the K-th score (-inf before): it never decreases, and no entry scoring
    below it can enter the set any more.
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
        scores = np.concatenate([self._scores, *(s for s, _ in self._buffer)])
        keys = np.concatenate([self._keys, *(k for _, k in self._buffer)])
        best = np.lexsort((keys, -scores))[: self.k]
        self._scores, self._keys = scores[best], keys[best]
        self._buffer, self._buffered = [], 0
        if len(best) == self.k:
            self.floor = float(self._scores[-1])

    def sorted_poses(self) -> list[Pose]:
        if self._buffer:
            self._fold()
        n = self._n
        ri, flat = np.divmod(self._keys, n**3)
        tx, rem = np.divmod(flat, n * n)
        ty, tz = np.divmod(rem, n)
        columns = (ri.tolist(), tx.tolist(), ty.tolist(), tz.tolist(), self._scores.tolist())
        return list(map(Pose._make, zip(*columns)))


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
    """
    flat = volume.ravel()
    k = min(k, flat.size)
    sel = np.flatnonzero(flat >= floor)
    neg = -flat[sel]
    if sel.size > k:
        keep = neg <= np.partition(neg, k - 1)[k - 1]
        sel, neg = sel[keep], neg[keep]
    idx = sel[np.lexsort((sel, neg))[:k]]
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
    merged as arrays into _TopK, which folds them in with one lexsort per
    K buffered entries. Results are bit-identical across runs and across
    thread counts (wall_time aside). ``config.threads`` = 0 means all
    logical cores, or inside a dispatch lane the lane's share of them
    (thread_budget). The margin must absorb the ligand's rotation sweep: a
    very elongated ligand against a much smaller receptor can overflow the
    grid, which raises GridOverflowError naming the atom.
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
    rec_hat_conj = _receptor_spectrum(rec_grid.voxels)
    top = _TopK(config.top_k)

    def scan_rotation(ri: int) -> tuple[np.ndarray, np.ndarray]:
        rotated = rotate_structure(centered, rotations[ri], lig_center)
        # The ligand grid is passed as a temporary so that _correlate frees it.
        volume = _correlate(
            rec_hat_conj, assign_grid(rotated, spec, LIGAND, config.params).voxels
        )
        return _best_candidates(volume, config.top_k, top.floor)

    workers = config.resolved_threads()
    if workers <= 1:
        for ri in range(len(rotations)):
            top.merge(ri, *scan_rotation(ri), spec.n)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for ri, (idx, scores) in enumerate(pool.map(scan_rotation, range(len(rotations)))):
                top.merge(ri, idx, scores, spec.n)

    poses = tuple(top.sorted_poses())
    return DockingResult(
        task_id=f"{receptor.id}__{ligand.id}",
        receptor_id=receptor.id,
        ligand_id=ligand.id,
        grid_spec=spec,
        params=config.params,
        angular_step=config.angular_step,
        top_poses=poses,
        best_score=poses[0].score,
        wall_time=time.perf_counter() - t_start,
    )
