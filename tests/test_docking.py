"""Docking: a golden top-K, thread-count independence, the array top-K and
floor pruning of the per-rotation candidates against sorted oracles, the
pose columns against a tuple of Pose and the result JSON against its dict
form, config parsing, the FFT correlation against its direct oracle and bit
for bit against the NumPy transforms, the box-pruned forward transform bit
for bit against fftn, dock_pair end to end (the
lock-and-key pose, re-scoring by a direct cyclic sum), the array-backed
Structure API, the call seams the benchmark's tracer patches, that the
scan's transforms allocate no n^3 temporary and the scan holds one buffer
per thread, and that no process loads SciPy."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from crossdock import docking
from crossdock.docking import (
    DockConfig,
    DockingResult,
    Pose,
    PoseColumns,
    _best_candidates,
    _TopK,
    dock_pair,
    generate_rotations,
    place_ligand,
    rotate_structure,
)
from crossdock.errors import ParameterError
from crossdock.grid import LIGAND, RECEPTOR, DockGrid, GridSpec, ScoringParams, assign_grid
from crossdock.pdb_io import AtomRecord, Structure

from conftest import direct_correlate, fft_correlate, random_structure, result_dict

# sha256 of the exact top-K lines "rotation tx ty tz score.hex()" of the
# blob pair below at a 60 degree step, recorded with the per-atom loop
# rasterizer and the unpruned candidate reduction that preceded the array
# path. Its 2,000 poses hold only 25 distinct scores, so the digest also
# pins how ties are broken.
GOLDEN_TOP_K = "7d45dee3c569e5612281fb888bba4d9db1b4ba513cf56a039d13ff3bb3882c89"


def blob(rng: np.random.Generator, sid: str, atoms: int, edge: float) -> Structure:
    """``atoms`` points uniform in a ball whose bounding box's longest edge
    is ``edge`` A."""
    v = rng.normal(size=(atoms, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    points = v * rng.random(atoms)[:, None] ** (1.0 / 3.0)
    points *= edge / (points.max(axis=0) - points.min(axis=0)).max()
    return Structure(sid, tuple(
        AtomRecord(i + 1, "CA", "ALA", "A", i // 10 + 1, float(x), float(y), float(z), "C")
        for i, (x, y, z) in enumerate(points)
    ))


@pytest.fixture(scope="module")
def blob_pair() -> tuple[Structure, Structure]:
    rng = np.random.default_rng(2024)
    return blob(rng, "rec", 300, 20.0), blob(rng, "lig", 80, 12.0)


def exact(poses) -> list[tuple]:
    return [(p.rotation_index, p.tx, p.ty, p.tz, p.score.hex()) for p in poses]


def digest(poses) -> str:
    lines = [" ".join(str(v) for v in pose) for pose in exact(poses)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_golden_top_k_and_thread_counts(blob_pair):
    rec, lig = blob_pair
    single = dock_pair(rec, lig, DockConfig(angular_step=60.0, threads=1))
    double = dock_pair(rec, lig, DockConfig(angular_step=60.0, threads=2))
    assert single.grid_spec.n == 36 and len(single.top_poses) == 2000
    assert digest(single.top_poses) == GOLDEN_TOP_K
    assert exact(double.top_poses) == exact(single.top_poses)


def test_more_scanning_threads_than_cores_share_no_buffer(blob_pair):
    """Eight scanning threads, switched every microsecond: a buffer handed
    to two scans at once would corrupt a volume and move the top-K."""
    rec, lig = blob_pair
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = dock_pair(rec, lig, DockConfig(angular_step=60.0, threads=8))
    finally:
        sys.setswitchinterval(interval)
    assert digest(result.top_poses) == GOLDEN_TOP_K


def merged_top_k(volumes, k: int, floor_lag: int | None, order=None) -> tuple[list, int]:
    """Merge per-rotation candidates as dock_pair does, rotation indices in
    ``order`` (ascending by default). With ``floor_lag`` set, each rotation
    is reduced under the floor published ``floor_lag`` merges before the
    latest one (a pool thread may read an old floor); with None, under a
    floor of -inf. Returns the poses and the number of candidates offered."""
    top = _TopK(k)
    floors: list = []
    offered = 0
    for ri in order if order is not None else range(len(volumes)):
        floor = -math.inf
        if floor_lag is not None and len(floors) > floor_lag:
            floor = floors[-1 - floor_lag]
        idx, scores = _best_candidates(volumes[ri], k, floor)
        offered += len(idx)
        top.merge(ri, idx, scores, volumes[ri].shape[0])
        floors.append(top.floor)
    return top.sorted_poses(), offered


@pytest.mark.parametrize("k", [1, 5, 40, 64, 300])
def test_floor_pruning_keeps_the_merged_top_k(k):
    rng = np.random.default_rng([31, k])
    n = 4
    # integer scores in a narrow range: every volume is full of ties, and
    # the real part of a complex array is a strided view, as in dock_pair
    volumes = [(rng.integers(-3, 4, size=(n, n, n)) + 0j).real for _ in range(12)]
    plain, plain_offered = merged_top_k(volumes, k, None)
    oracle = sorted(
        (-float(v[tx, ty, tz]), ri, tx, ty, tz)
        for ri, v in enumerate(volumes)
        for tx in range(n) for ty in range(n) for tz in range(n)
    )[:k]
    assert [p.sort_key() for p in plain] == oracle
    # the kept set never depends on merge order, so neither may the floor
    for order in (None, range(len(volumes) - 1, -1, -1)):
        for lag in (0, 3):
            pruned, pruned_offered = merged_top_k(volumes, k, lag, order)
            assert pruned == plain, f"floor lag {lag}, order {order}"
            assert pruned_offered <= plain_offered
            if k == 40:
                assert pruned_offered < plain_offered  # the floor dropped candidates


def sorted_oracle(candidates, k: int) -> list[tuple]:
    """The first k sort keys of every (rotation, idx, scores, n) candidate."""
    return sorted(
        (-s, ri, *np.unravel_index(i, (n, n, n)))
        for ri, idx, scores, n in candidates
        for i, s in zip(idx.tolist(), scores.tolist())
    )[:k]


@pytest.mark.parametrize("k", [1, 3, 7, 16, 50, 10_000])
def test_array_top_k_equals_a_sorted_oracle_in_any_merge_order(k):
    """Every entry of 9 tie-heavy volumes is offered, each rotation's
    entries in random order and the rotations in three orders. Scores take
    3 values, so each fold's cut at K lands inside a run of tied scores;
    k = 10,000 exceeds the 576 candidates, and k = 1 keeps one."""
    rng = np.random.default_rng([43, k])
    n = 4
    candidates = []
    for ri in range(9):
        idx = rng.permutation(n**3)
        candidates.append((ri, idx, rng.integers(-1, 2, size=idx.size).astype(float), n))
    oracle = sorted_oracle(candidates, k)
    assert len(oracle) == min(k, 9 * n**3)
    kth_score = -oracle[-1][0] if len(oracle) == k else -math.inf
    for order in (range(9), range(8, -1, -1), rng.permutation(9)):
        top = _TopK(k)
        floors = []
        for i in order:
            top.merge(*candidates[i])
            floors.append(top.floor)
        assert [p.sort_key() for p in top.sorted_poses()] == oracle
        # the floor never falls and never passes the final K-th score
        assert floors == sorted(floors) and top.floor == kth_score


def test_array_top_k_floor_rises_only_with_k_kept_entries():
    top = _TopK(4)
    top.merge(0, np.array([5, 1, 2]), np.array([2.0, 2.0, 1.0]), 4)
    assert top.floor == -math.inf
    top.merge(1, np.array([0, 3]), np.array([2.0, 0.0]), 4)
    assert top.floor == 1.0
    # (1.0, rotation 0) beats the 4th entry (1.0, rotation 2) on its key
    top.merge(2, np.array([0, 9]), np.array([1.0, 3.0]), 4)
    assert [p.sort_key() for p in top.sorted_poses()] == [
        (-3.0, 2, 0, 2, 1), (-2.0, 0, 0, 0, 1), (-2.0, 0, 0, 1, 1), (-2.0, 1, 0, 0, 0)]
    assert top.floor == 2.0


def test_pose_is_a_named_tuple_with_a_dict_form():
    pose = Pose(3, 1, 2, 0, 12.5)
    d = pose._asdict()
    assert type(d) is dict
    assert list(d.items()) == [("rotation_index", 3), ("tx", 1), ("ty", 2), ("tz", 0),
                               ("score", 12.5)]
    assert pose.sort_key() == (-12.5, 3, 1, 2, 0)
    assert pose == (3, 1, 2, 0, 12.5)  # tuple equality, as the docstring says
    top = _TopK(2)
    top.merge(0, np.array([5, 1]), np.array([2.0, 1.0]), 4)
    assert [type(p) for p in top.sorted_poses()] == [Pose, Pose]


def oracle_poses(k: int) -> tuple[Pose, ...]:
    """K seeded poses, -0.0 and both infinities among the scores."""
    rng = np.random.default_rng(k)
    scores = [*rng.normal(scale=50.0, size=k), -0.0, math.inf, -math.inf][-k:] if k else []
    return tuple(Pose(int(r), int(x), int(y), int(z), float(s)) for r, (x, y, z), s in
                 zip(rng.integers(0, 2**31, size=k), rng.integers(0, 54, size=(k, 3)), scores))


@pytest.mark.parametrize("k", [0, 1, 2, 7])
def test_pose_columns_are_the_sequence_of_their_poses(k):
    oracle = oracle_poses(k)
    columns = PoseColumns.of(oracle)
    assert len(columns) == k
    assert columns.indices.dtype == np.dtype("<i4") and columns.indices.shape == (k, 4)
    assert columns.scores.dtype == np.dtype("<f8") and columns.scores.shape == (k,)
    assert not columns.indices.flags.writeable and not columns.scores.flags.writeable
    poses = list(columns)
    assert [type(p) for p in poses] == [Pose] * k
    assert all(type(v) is int for p in poses for v in p[:4])
    assert all(type(p.score) is float for p in poses)
    assert exact(poses) == exact(oracle)
    for i in range(-k, k):
        assert type(columns[i]) is Pose and exact([columns[i]]) == exact([oracle[i]])
    for i in (k, -k - 1):
        with pytest.raises(IndexError):
            columns[i]
    for part in (slice(None), slice(1, None), slice(None, -1), slice(None, None, 2),
                 slice(None, None, -1), slice(2, 5), slice(5, 2), slice(-3, None)):
        assert type(columns[part]) is PoseColumns
        assert exact(columns[part]) == exact(oracle[part])
    assert exact(reversed(columns)) == exact(reversed(oracle))


def test_results_from_a_tuple_a_list_and_columns_are_equal_and_hash_alike():
    oracle = oracle_poses(7)

    def result(top_poses) -> DockingResult:
        return DockingResult("r__l", "r", "l", GridSpec(54, 1.2, (0.0, 1.0, 2.0)),
                             ScoringParams(), 15.0, top_poses, oracle[0].score, 0.5)

    results = [result(oracle), result(list(oracle)), result(PoseColumns.of(oracle))]
    assert all(type(r.top_poses) is PoseColumns for r in results)
    assert results[0] == results[1] == results[2]
    assert len({hash(r) for r in results}) == 1
    # -0.0 equals 0.0, so it hashes alike; a NaN equals nothing, as a float.
    zero = [Pose(0, 0, 0, 0, 0.0)]
    assert result(zero) == result([Pose(0, 0, 0, 0, -0.0)])
    assert hash(result(zero)) == hash(result([Pose(0, 0, 0, 0, -0.0)]))
    assert result([Pose(0, 0, 0, 0, math.nan)]) != result([Pose(0, 0, 0, 0, math.nan)])
    assert result(oracle) != result(oracle[:-1] + (oracle[-1]._replace(tz=1),))


def test_result_json_is_the_json_of_its_dict(blob_pair):
    rec, lig = blob_pair
    docked = dock_pair(rec, lig, DockConfig(angular_step=60.0, threads=1))
    specials = dataclasses.replace(docked, task_id='r"\u00e9__l', top_poses=oracle_poses(7)
                                   + (Pose(1, 2, 3, 4, math.nan),))
    for result in (docked, specials, dataclasses.replace(docked, top_poses=())):
        assert result.to_json() == json.dumps(result_dict(result), sort_keys=True)


def test_the_top_k_hands_over_columns_and_builds_no_pose(forbid_pose):
    forbid_pose()
    top = _TopK(3)
    top.merge(1, np.array([5, 1]), np.array([2.0, 1.0]), 4)
    top.merge(0, np.array([63]), np.array([2.0]), 4)
    columns = top.sorted_poses()
    assert type(columns) is PoseColumns
    assert columns.indices.tolist() == [[0, 3, 3, 3], [1, 0, 1, 1], [1, 0, 0, 1]]
    assert columns.scores.tolist() == [2.0, 2.0, 1.0]


@pytest.mark.parametrize("bad", [{"top_k": 2.7}, {"threads": True}, {"margin_voxels": 1.5},
                                 {"pitch": False}, {"top_k": math.inf},
                                 {"params": {**ScoringParams().to_dict(), "ligand_weight": True}},
                                 {"params": {**ScoringParams().to_dict(),
                                             "surface_thickness": 1.5}}])
def test_config_rejects_bools_and_fractions_in_number_fields(bad):
    with pytest.raises(ParameterError, match=f"config field {next(iter(bad))!r}"):
        DockConfig.from_dict(bad)


@pytest.mark.parametrize("bad", [{"pitch": "1.2"}, {"top_k": "5"}, {"margin_voxels": None},
                                 {"params": {**ScoringParams().to_dict(), "atom_radius": "1.5"}}])
def test_config_rejects_numbers_given_as_strings(bad):
    """A config is JSON: a number field holds a JSON number, as on the wire."""
    with pytest.raises(ParameterError, match=f"config field {next(iter(bad))!r}"):
        DockConfig.from_dict(bad)


@pytest.mark.parametrize("make", [lambda: DockConfig(angular_step=7),
                                  lambda: dataclasses.replace(DockConfig(), top_k=0)],
                         ids=["step-7", "replaced-top-k-0"])
def test_config_is_checked_on_construction(make):
    with pytest.raises(ParameterError):
        make()


def test_config_reads_integral_numbers_as_ints():
    cfg = DockConfig.from_dict({"top_k": 20.0, "threads": 2, "pitch": 1})
    assert (cfg.top_k, cfg.threads, cfg.pitch) == (20, 2, 1.0)
    assert type(cfg.top_k) is int and type(cfg.pitch) is float


@pytest.mark.parametrize("n", [4, 5, 6, 8, 9, 12])
def test_fft_correlate_matches_direct_oracle(n):
    rng = np.random.default_rng([37, n])
    spec = GridSpec(n=n, pitch=0.5, origin=(0.0, 0.0, 0.0))
    params = ScoringParams(atom_radius=0.6)
    shape = (n, n, n)
    random_pair = (rng.normal(size=shape) + 1j * rng.normal(size=shape),
                   rng.normal(size=shape) + 1j * rng.normal(size=shape))
    inside = (0.65, (n - 1) * 0.5 - 0.65)
    rasterized = (assign_grid(random_structure(rng, "r", 6, *inside), spec, RECEPTOR, params).voxels,
                  assign_grid(random_structure(rng, "l", 3, *inside), spec, LIGAND, params).voxels)
    for rec, lig in (random_pair, rasterized):
        r, g = DockGrid(spec, rec), DockGrid(spec, lig)
        want = direct_correlate(r, g)
        atol = 1e-12 * n**3 * np.abs(rec).max() * max(np.abs(lig).max(), 1.0)
        np.testing.assert_allclose(fft_correlate(r, g), want, rtol=0, atol=atol)


def numpy_correlate(rec_hat_conj: np.ndarray, ligand_voxels: np.ndarray) -> np.ndarray:
    """The oracle for _correlate: the same correlation through np.fft, whose
    bits _correlate must keep."""
    return np.real(np.fft.ifftn(rec_hat_conj * np.fft.fftn(ligand_voxels)))


def five_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


@pytest.mark.parametrize("n", [n for n in range(4, 65) if five_smooth(n)])
def test_correlation_is_bit_identical_to_the_numpy_transforms(n):
    """Receptor spectrum and correlation volume equal the NumPy oracle byte
    for byte, on grids of the scoring weights (+1 surface, -15 core), as
    assign_grid's float64 grids and as the complex128 grids the digests
    were recorded with. A single 1/n^3-scaled inverse instead of one 1/n
    pass per axis fails here at every n that is not a power of two."""
    rng = np.random.default_rng([59, n])
    receptor = rng.choice([0.0, 1.0, -15.0], size=(n, n, n)) + 0j
    ligand = rng.choice([0.0, 1.0], size=(n, n, n)) + 0j
    want = np.conj(np.fft.fftn(receptor))
    correlation = numpy_correlate(want, ligand).tobytes()
    for rec, lig in ((receptor, ligand), (receptor.real.copy(), ligand.real.copy())):
        assert np.conj(docking._spectrum(rec)).tobytes() == want.tobytes(), rec.dtype
        assert docking._correlate(want, lig).tobytes() == correlation, lig.dtype


@pytest.mark.parametrize("n, first", [(25, "receptor"), (26, "ligand")])
def test_numpy_picks_the_spectrum_products_operand_order(n, first):
    """NumPy's temporary elision computes _correlate's product
    rec_hat_conj * fftn(L) in place, as fftn(L) *= rec_hat_conj, once the
    temporary holds 256 KiB: from n = 26 in complex128. The two operand
    orders can round differently (they do on these grids), so which one
    runs depends on n."""
    rng = np.random.default_rng([67, n])
    rec_hat_conj, ligand = rng.standard_normal((2, n, n, n)) + 1j * rng.standard_normal(
        (2, n, n, n))
    spectrum = np.fft.fftn(ligand)
    volumes = {
        "receptor": np.real(np.fft.ifftn(np.multiply(rec_hat_conj, spectrum))).tobytes(),
        "ligand": np.real(np.fft.ifftn(np.multiply(spectrum, rec_hat_conj))).tobytes(),
    }
    assert volumes["receptor"] != volumes["ligand"]
    assert docking._correlate(rec_hat_conj, ligand).tobytes() == volumes[first]


def pruning_cases(n: int) -> dict:
    """(lo, hi) boxes by name, half-open lattice boxes on an n^3 grid."""
    c = n // 2
    return {
        "centered": ((c - 5, c - 4, c - 6), (c + 4, c + 5, c + 3)),
        "touching-face-0": ((0, 0, 0), (7, 6, 5)),
        "touching-face-n": ((n - 7, n - 6, n - 5), (n, n, n)),
        "one-voxel": ((3, 4, 5), (4, 5, 6)),
        "all-zero": ((c, c, c), (c, c, c)),
        "full-lattice": ((0, 0, 0), (n, n, n)),
    }


def inside(box) -> tuple[slice, ...]:
    """The index of a lattice box's block in an n^3 grid."""
    return tuple(slice(a, b) for a, b in zip(*box))


def grid_in_box(rng: np.random.Generator, n: int, box) -> np.ndarray:
    """An n^3 complex grid, random inside ``box`` and zero outside it."""
    grid = np.zeros((n, n, n), dtype=np.complex128)
    shape = grid[inside(box)].shape
    grid[inside(box)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return grid


@pytest.mark.parametrize("n", [24, 25, 26, 27, 30, 45, 54])
def test_pruned_forward_transform_is_fftn_bit_for_bit(n):
    """The ligand spectrum of the box's block, pruned to the box, equals
    the full grid's fftn byte for byte, in a buffer that held other values
    before."""
    rng = np.random.default_rng([71, n])
    for name, box in pruning_cases(n).items():
        grid = grid_in_box(rng, n, box)
        block = grid[inside(box)].copy()
        before = block.tobytes()
        out = np.full((n, n, n), np.nan + 1j * np.nan)
        got = docking._spectrum(block, box[0], out)
        assert got is out
        assert got.tobytes() == scipy.fft.fftn(grid, axes=(2, 1, 0)).tobytes(), name
        assert block.tobytes() == before, name


@pytest.mark.parametrize("n", [25, 26])
def test_a_pruned_correlation_equals_the_unpruned_one_bit_for_bit(n):
    """The box's block against the whole grid, on either side of the
    operand-order switch at n = 26, and in one buffer reused from box to
    box."""
    rng = np.random.default_rng([73, n])
    rec_hat_conj = np.conj(docking._spectrum(rng.choice([0.0, 1.0, -15.0], size=(n, n, n))))
    out = np.empty((n, n, n), dtype=np.complex128)
    for name, box in pruning_cases(n).items():
        ligand = grid_in_box(rng, n, box).real.round() + 0j
        want = docking._correlate(rec_hat_conj, ligand).tobytes()
        assert numpy_correlate(rec_hat_conj, ligand).tobytes() == want, name
        block = ligand[inside(box)].copy()
        assert docking._correlate(rec_hat_conj, block, box[0], out).tobytes() == want, name


def test_fft_correlate_leaves_its_input_grids_unchanged():
    rng = np.random.default_rng(61)
    n = 12
    spec = GridSpec(n=n, pitch=1.0, origin=(0.0, 0.0, 0.0))
    receptor = DockGrid(spec, rng.choice([0.0, 1.0, -15.0], size=(n, n, n)) + 0j)
    ligand = DockGrid(spec, rng.choice([0.0, 1.0], size=(n, n, n)) + 0j)
    before = receptor.voxels.tobytes(), ligand.voxels.tobytes()
    fft_correlate(receptor, ligand)
    assert (receptor.voxels.tobytes(), ligand.voxels.tobytes()) == before


def test_dock_pair_recovers_the_lock_and_key_pose(lock_structure, key_input, key_docked):
    result = dock_pair(lock_structure, key_input, DockConfig(angular_step=90.0, threads=1))
    best, runner_up = result.top_poses[:2]
    assert best.score > runner_up.score
    placed = place_ligand(result, best, key_input)
    np.testing.assert_allclose(placed, key_docked.coords(), rtol=0, atol=1e-9)


def test_best_poses_rescore_by_a_direct_cyclic_sum(blob_pair):
    """Each pose's score equals the direct correlation sum at its own
    translation, on grids rasterized anew from place_ligand's coordinates."""
    rec, lig = blob_pair
    result = dock_pair(rec, lig, DockConfig(angular_step=60.0, top_k=10, threads=1))
    spec = result.grid_spec
    receptor = np.conj(assign_grid(rec, spec, RECEPTOR).voxels)
    for pose in result.top_poses:
        unshifted = Pose(pose.rotation_index, 0, 0, 0, pose.score)
        coords = place_ligand(result, unshifted, lig, wrap=False)
        ligand = assign_grid(lig.with_coords(coords), spec, LIGAND).voxels
        shifted = np.roll(ligand, (-pose.tx, -pose.ty, -pose.tz), axis=(0, 1, 2))
        assert float(np.sum(receptor * shifted).real) == pytest.approx(pose.score, abs=1e-6)


class TestStructureArrays:
    def structure(self) -> Structure:
        rng = np.random.default_rng(41)
        atoms = tuple(
            AtomRecord(3 * i + 7, f"C{i}", "LYS", "B", 40 + i, *map(float, c), "C")
            for i, c in enumerate(rng.uniform(-9, 9, (25, 3)))
        )
        return Structure("s", atoms, "s.pdb")

    def test_with_coords_atoms_equal_the_eager_records(self):
        s = self.structure()
        coords = s.coords() * 1.5 - 2.0
        eager = tuple(
            AtomRecord(
                serial=a.serial, atom_name=a.atom_name, residue_name=a.residue_name,
                chain_id=a.chain_id, residue_seq=a.residue_seq,
                x=float(c[0]), y=float(c[1]), z=float(c[2]), element=a.element,
            )
            for a, c in zip(s.atoms, coords)
        )
        moved = s.with_coords(coords)
        assert moved.atoms == eager
        assert all(type(a.x) is float for a in moved.atoms)
        assert (moved.id, moved.source_path, len(moved)) == ("s", "s.pdb", 25)

    def test_equality_and_hashing(self):
        s = self.structure()
        same = s.with_coords(s.coords())
        rebuilt = Structure(s.id, s.atoms, s.source_path)
        assert same == s and rebuilt == s and hash(same) == hash(s) == hash(rebuilt)
        assert hash((s.id, s.atoms, s.source_path)) == hash(s)
        shifted = s.with_coords(s.coords() + 0.25)
        assert shifted != s
        assert Structure("other", s.atoms, s.source_path) != s
        assert s != s.atoms
        assert len({s, same, rebuilt, shifted}) == 2

    def test_coordinate_arrays_are_not_shared_with_callers(self):
        s = self.structure()
        before = s.coords()
        out = s.coords()
        out[:] = 0.0
        np.testing.assert_array_equal(s.coords(), before)
        given = before + 1.0
        moved = s.with_coords(given)
        given[:] = -1.0
        np.testing.assert_array_equal(moved.coords(), before + 1.0)
        assert moved.atoms[0].x == before[0, 0] + 1.0

    def test_identity_rotation_keeps_coordinates_bit_for_bit(self):
        s = self.structure()
        [identity] = [q for q in generate_rotations(90.0) if q[0] == 1.0]
        same = rotate_structure(s, identity, (1.0, 2.0, 3.0))
        assert np.array_equal(same.coords(), s.coords()) and same == s


@pytest.mark.parametrize("threads", [1, 2])
def test_tracing_seams_are_called_once_per_rotation(monkeypatch, threads, blob_pair):
    """A tracer patches these module attributes and divides by the ligand
    assign_grid count; dock_pair must keep calling them. The transforms are
    numpy.fft.fft (the forward, one per axis for the receptor and for each
    rotation) and numpy.fft.ifft (one per axis per rotation); numpy.fft.fftn
    and ifftn are not called."""
    rec, lig = blob_pair
    rotations = len(generate_rotations(90.0))
    counts: Counter = Counter()
    lock = threading.Lock()

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            with lock:
                counts[key(*args, **kwargs)] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(docking, "assign_grid",
                        counting(docking.assign_grid, lambda s, spec, role, *_: role))
    monkeypatch.setattr(docking, "rotate_structure",
                        counting(docking.rotate_structure, lambda *a: "rotate"))
    for name in ("fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name),
                                                   lambda *a, name=name, **k: name))
    dock_pair(rec, lig, DockConfig(angular_step=90.0, top_k=10, threads=threads))
    assert counts == Counter({LIGAND: rotations, RECEPTOR: 1, "rotate": rotations,
                              "fft": 3 * (rotations + 1), "ifft": 3 * rotations})
    assert counts["fftn"] == counts["ifftn"] == 0


def test_a_pruned_correlation_allocates_no_grid_sized_temporary():
    """Every transform pass and the product run in the buffer: at n = 54 a
    correlation of a block into ``out`` allocates less than one n^3
    float64 grid."""
    n = 54
    rng = np.random.default_rng(79)
    rec_hat_conj = np.conj(docking._spectrum(rng.choice([0.0, 1.0, -15.0], size=(n, n, n))))
    lo, ligand = (10, 12, 14), np.ones((20, 20, 20))
    out = np.empty((n, n, n), dtype=np.complex128)
    docking._correlate(rec_hat_conj, ligand, lo, out=out)
    tracemalloc.start()
    try:
        docking._correlate(rec_hat_conj, ligand, lo, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n ** 3 * 8


def test_the_rotation_scan_holds_one_buffer_per_thread():
    """At n = 54 and 2 threads, dock_pair's traced peak stays below the
    receptor spectrum plus one complex128 n^3 buffer per thread, one
    float64 n^3 array (the receptor grid, or rotation 0's values above an
    unset floor) and 1 MiB: no rotation allocates a float or integer n^3
    array, in the calling thread or in a pool thread."""
    rng = np.random.default_rng(83)
    rec, lig = blob(rng, "rec", 300, 36.0), blob(rng, "lig", 80, 18.0)
    config = DockConfig(angular_step=90.0, threads=2)
    dock_pair(rec, lig, config)  # first-call caches (rotation set, stencils)
    tracemalloc.start()
    try:
        result = dock_pair(rec, lig, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = result.grid_spec.n
    assert n == 54
    assert peak < (config.threads + 1) * n**3 * 16 + n**3 * 8 + 2**20


LEAN_MODULES = ["crossdock", "crossdock.cli", "crossdock.costmodel",
                "crossdock.dispatch.master", "crossdock.dispatch.worker"]
DOCK_ONE_PAIR = """
from crossdock import AtomRecord, DockConfig, Structure, dock_pair
s = Structure("s", tuple(AtomRecord(i + 1, "CA", "ALA", "A", 1, 2.0 * i, 0.0, 0.0, "C")
                         for i in range(3)))
dock_pair(s, s, DockConfig(angular_step=120.0, top_k=1, threads=1))
"""


def modules_after(code: str) -> list[str]:
    """The SciPy modules loaded once ``code`` has run in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = code + "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.split()


@pytest.mark.parametrize("code", [
    *(f"import {module}" for module in LEAN_MODULES),
    DOCK_ONE_PAIR,
], ids=[*LEAN_MODULES, "dock_pair"])
def test_no_process_loads_scipy(code):
    """A process that imports the package to dispatch, analyze or parse,
    or that docks a pair, loads no SciPy module."""
    assert modules_after(code) == []
