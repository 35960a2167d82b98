import math
import random

import numpy as np
import pytest
from scipy import ndimage

from crossdock.errors import GridOverflowError, NoAtomsError, ParameterError
from crossdock.grid import (
    LIGAND,
    RECEPTOR,
    GridSpec,
    ScoringParams,
    _dilate,
    assign_grid,
    choose_grid_size,
    is_radix_friendly,
    next_radix_friendly,
)
from crossdock.pdb_io import AtomRecord, Structure

from conftest import make_structure, single_atom


def smooth_numbers_oracle(limit: int) -> list[int]:
    """Every 2^a * 3^b * 5^c <= limit, by exhaustive enumeration."""
    out = set()
    a = 1
    while a <= limit:
        b = a
        while b <= limit:
            c = b
            while c <= limit:
                out.add(c)
                c *= 5
            b *= 3
        a *= 2
    return sorted(out)


def span_structure(sid: str, span: float) -> Structure:
    atoms = (
        AtomRecord(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0, "C"),
        AtomRecord(2, "CA", "ALA", "A", 2, span, 0.0, 0.0, "C"),
    )
    return Structure(id=sid, atoms=atoms)


class TestChooseGridSize:
    def test_spans_24_and_12_margin_1_gives_32(self):
        spec = choose_grid_size(span_structure("r", 24.0), span_structure("l", 12.0),
                                pitch=1.2, margin_voxels=1)
        assert spec.n == 32

    def test_requirement_33_rounds_to_36(self):
        # spans summing to 39.6 A at pitch 1.2 need 33 voxels + 0 margin
        spec = choose_grid_size(span_structure("r", 24.0), span_structure("l", 15.6),
                                pitch=1.2, margin_voxels=0)
        assert math.ceil((24.0 + 15.6) / 1.2) == 33
        assert spec.n == 36

    def test_two_single_atoms_margin_4_matches_enumeration_oracle(self):
        spec = choose_grid_size(single_atom("a"), single_atom("b"),
                                pitch=1.2, margin_voxels=4)
        required = 0 + 2 * 4
        oracle = min(m for m in smooth_numbers_oracle(64) if m >= required)
        assert oracle == 8  # frozen from the oracle
        assert spec.n == oracle

    def test_origin_centers_receptor_box(self):
        rec = span_structure("r", 24.0)
        spec = choose_grid_size(rec, single_atom("l", 0, 0, 0), 1.2, 2)
        np.testing.assert_allclose(spec.center(), [12.0, 0.0, 0.0])

    def test_rule_and_radix_invariant_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rspan = float(rng.uniform(0, 60))
            lspan = float(rng.uniform(0, 40))
            pitch = float(rng.uniform(0.5, 2.0))
            margin = int(rng.integers(0, 8))
            spec = choose_grid_size(span_structure("r", rspan), span_structure("l", lspan),
                                    pitch, margin)
            required = math.ceil((rspan + lspan) / pitch) + 2 * margin
            assert spec.n >= required
            assert is_radix_friendly(spec.n)
            # minimal: no smaller 5-smooth integer >= max(required, 4)
            smaller = [m for m in smooth_numbers_oracle(spec.n - 1) if m >= max(required, 4)]
            assert not smaller

    def test_empty_structure_rejected(self):
        with pytest.raises(NoAtomsError):
            choose_grid_size(Structure(id="e", atoms=()), single_atom("l"), 1.2, 1)

    def test_bad_pitch_rejected(self):
        with pytest.raises(ParameterError):
            choose_grid_size(single_atom("a"), single_atom("b"), 0.0, 1)


def test_next_radix_friendly_against_oracle():
    smooth = set(smooth_numbers_oracle(3000))
    for n in range(1, 2000):
        got = next_radix_friendly(n)
        assert got in smooth and got >= n
        assert not any(m in smooth for m in range(n, got))


def test_gridspec_rejects_non_smooth_and_small():
    with pytest.raises(ParameterError):
        GridSpec(n=33, pitch=1.2, origin=(0.0, 0.0, 0.0))
    with pytest.raises(ParameterError):
        GridSpec(n=2, pitch=1.2, origin=(0.0, 0.0, 0.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["surface_weight", "receptor_core_weight",
                                  "ligand_weight", "atom_radius"])
def test_scoring_params_reject_a_non_finite_value(name, value):
    """A NaN weight would empty the top-K and a NaN radius would read as a
    grid overflow; both are parameter errors up front."""
    with pytest.raises(ParameterError, match=name):
        ScoringParams(**{name: value})


@pytest.mark.parametrize("radius", [0.0, -1.5])
def test_scoring_params_reject_a_radius_not_above_zero(radius):
    with pytest.raises(ParameterError, match="atom_radius"):
        ScoringParams(atom_radius=radius)


def sphere_membership_oracle(spec: GridSpec, center, radius: float) -> set:
    """Triple-loop scan over every voxel center."""
    hits = set()
    for i in range(spec.n):
        for j in range(spec.n):
            for k in range(spec.n):
                cx = spec.origin[0] + i * spec.pitch
                cy = spec.origin[1] + j * spec.pitch
                cz = spec.origin[2] + k * spec.pitch
                d2 = (cx - center[0]) ** 2 + (cy - center[1]) ** 2 + (cz - center[2]) ** 2
                if d2 <= radius * radius:
                    hits.add((i, j, k))
    return hits


def chebyshev_dilation_oracle(cells: set, thickness: int, n: int) -> set:
    """Brute-force set expansion, clipped at the grid boundary."""
    out = set(cells)
    for _ in range(thickness):
        grown = set(out)
        for (i, j, k) in out:
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    for dk in (-1, 0, 1):
                        p = (i + di, j + dj, k + dk)
                        if 0 <= p[0] < n and 0 <= p[1] < n and 0 <= p[2] < n:
                            grown.add(p)
        out = grown
    return out


def core_mask_loop_oracle(s: Structure, spec: GridSpec, radius: float) -> np.ndarray:
    """The per-atom rasterization loop: each atom's voxel extent [lo, hi]
    per axis, then the distance of every voxel center in that window.
    Raises GridOverflowError for the first atom in file order whose extent
    leaves the lattice."""
    n, pitch = spec.n, spec.pitch
    origin = np.asarray(spec.origin)
    mask = np.zeros((n, n, n), dtype=bool)
    r2 = radius * radius
    for atom in s.atoms:
        pos = np.array((atom.x, atom.y, atom.z))
        lo = [math.ceil((pos[k] - radius - origin[k]) / pitch) for k in range(3)]
        hi = [math.floor((pos[k] + radius - origin[k]) / pitch) for k in range(3)]
        if any(l < 0 for l in lo) or any(h > n - 1 for h in hi):
            raise GridOverflowError(atom.serial, "inflated atom extends outside the grid")
        if any(h < l for l, h in zip(lo, hi)):
            continue  # sphere too small to catch any voxel center on this lattice
        axes = [origin[k] + np.arange(lo[k], hi[k] + 1) * pitch - pos[k] for k in range(3)]
        d2 = (
            axes[0][:, None, None] ** 2
            + axes[1][None, :, None] ** 2
            + axes[2][None, None, :] ** 2
        )
        window = mask[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1]
        window |= d2 <= r2
    return mask


def random_atoms(rng: np.random.Generator, coords) -> tuple[AtomRecord, ...]:
    """Atoms at ``coords`` with scattered, non-consecutive serials."""
    serials = rng.choice(100_000, size=len(coords), replace=False) + 1
    return tuple(
        AtomRecord(int(serial), "CA", "ALA", "A", i + 1, float(c[0]), float(c[1]), float(c[2]), "C")
        for i, (serial, c) in enumerate(zip(serials, coords))
    )


class TestRasterizationOracle:
    """assign_grid against core_mask_loop_oracle, bit for bit."""

    @pytest.mark.parametrize("pitch", [0.5, 1.0, 1.2, 2.0])
    def test_masks_match_the_loop_oracle(self, pitch):
        rng = np.random.default_rng([23, int(pitch * 10)])
        n = 20
        for trial in range(6):
            # radius 0.2 at pitch >= 1.0 leaves most atoms without a voxel center
            radius = float(rng.choice([0.2, 0.45, 1.0, 1.5, 2.3]))
            params = ScoringParams(atom_radius=radius)
            origin = tuple(float(v) for v in rng.uniform(-5.0, 5.0, 3))
            spec = GridSpec(n=n, pitch=pitch, origin=origin)
            low = np.asarray(origin) + radius
            high = np.asarray(origin) + (n - 1) * pitch - radius
            coords = rng.uniform(low, high, size=(int(rng.integers(1, 60)), 3))
            s = Structure(id="r", atoms=random_atoms(rng, coords))
            moved = s.with_coords(coords[::-1].copy())
            for structure in (s, moved):
                want = core_mask_loop_oracle(structure, spec, radius)
                ligand = assign_grid(structure, spec, LIGAND, params)
                receptor = assign_grid(structure, spec, RECEPTOR, params)
                msg = f"pitch={pitch} trial={trial} radius={radius}"
                np.testing.assert_array_equal(ligand.voxels.real == params.ligand_weight, want,
                                              err_msg=msg)
                np.testing.assert_array_equal(
                    receptor.voxels.real == params.receptor_core_weight, want, err_msg=msg)

    @pytest.mark.parametrize("pitch", [0.5, 1.0, 1.2, 2.0])
    def test_box_grids_are_blocks_of_the_lattice_grid(self, pitch):
        """Each role's grid equals the whole-lattice oracles, its block is
        the grid inside the block's box, and the grid is zero outside it.
        Away from the faces, the receptor's box is the ligand's grown by
        the surface shell on every side, and the shell is dilated inside
        that box."""
        rng = np.random.default_rng([89, int(pitch * 10)])
        n = 20
        for trial in range(6):
            radius = float(rng.choice([0.2, 0.45, 1.0, 1.5, 2.3]))
            thickness = trial % 3
            params = ScoringParams(atom_radius=radius, surface_thickness=thickness)
            spec = GridSpec(n=n, pitch=pitch, origin=(-1.0, 0.5, 2.0))
            # The grown box stays one voxel clear of every face.
            clear = radius + (thickness + 1) * pitch
            low = np.asarray(spec.origin) + clear
            high = np.asarray(spec.origin) + (n - 1) * pitch - clear
            coords = rng.uniform(low, high, size=(int(rng.integers(1, 30)), 3))
            s = Structure(id="b", atoms=random_atoms(rng, coords))
            core = core_mask_loop_oracle(s, spec, radius)
            surface = ndimage_dilation(core, thickness) & ~core
            want = {
                LIGAND: np.where(core, params.ligand_weight, 0.0),
                RECEPTOR: np.where(core, params.receptor_core_weight,
                                   np.where(surface, params.surface_weight, 0.0)),
            }
            grids = {role: assign_grid(s, spec, role, params) for role in want}
            for role, grid in grids.items():
                msg = f"trial {trial} {role}"
                hi = np.add(grid.lo, grid.block.shape)
                assert min(grid.lo) >= 1 and max(hi) <= n - 1, msg
                inside = tuple(slice(a, b) for a, b in zip(grid.lo, hi))
                assert grid.block.dtype == grid.voxels.dtype == np.float64, msg
                np.testing.assert_array_equal(grid.voxels, want[role], err_msg=msg)
                np.testing.assert_array_equal(grid.voxels[inside], grid.block, err_msg=msg)
                outside = grid.voxels.copy()
                outside[inside] = 0.0
                assert not outside.any(), msg
            lig, rec = grids[LIGAND], grids[RECEPTOR]
            assert rec.lo == tuple(np.subtract(lig.lo, thickness).tolist()), f"trial {trial}"
            assert rec.block.shape == tuple(np.add(lig.block.shape, 2 * thickness).tolist())

    @pytest.mark.parametrize("pitch", [0.5, 1.0, 1.2, 2.0])
    def test_tangent_atoms_match_the_loop_oracle(self, pitch):
        # Atoms offset from a voxel center by a vector of length radius
        # (radius along an axis, or a 3-4-5 split of it), so some distances
        # round to either side of radius: only the loop's float operations,
        # in its order and within each atom's [lo, hi], give its mask.
        rng = np.random.default_rng([43, int(pitch * 10)])
        n = 30
        origin = (-3.3, 0.7, 1.1)
        spec = GridSpec(n=n, pitch=pitch, origin=origin)
        for radius in (0.6, 1.2, 1.5, 2.0):
            offsets = np.array([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.6, 0.8, 0.0),
                                (-0.6, 0.8, 0.0), (0.0, -0.6, -0.8)]) * radius
            centers = np.asarray(origin) + rng.integers(8, 20, size=(60, 3)) * pitch
            picked = offsets[np.arange(60) % len(offsets)]
            coords = centers + np.array([o[rng.permutation(3)] for o in picked])
            s = Structure(id="tangent", atoms=random_atoms(rng, coords))
            want = core_mask_loop_oracle(s, spec, radius)
            got = assign_grid(s, spec, LIGAND, ScoringParams(atom_radius=radius))
            np.testing.assert_array_equal(got.voxels.real == 1.0, want, err_msg=f"radius={radius}")

    def test_chunked_rasterization_matches_the_loop_oracle(self, monkeypatch):
        # a chunk bound of 100 stencil cells splits 40 atoms into chunks of 3
        monkeypatch.setattr("crossdock.grid._CORE_MASK_CHUNK_CELLS", 100)
        rng = np.random.default_rng(47)
        spec = GridSpec(n=16, pitch=1.2, origin=(-9.0, -9.0, -9.0))
        s = Structure(id="c", atoms=random_atoms(rng, rng.uniform(-6.5, 6.5, (40, 3))))
        want = core_mask_loop_oracle(s, spec, ScoringParams().atom_radius)
        np.testing.assert_array_equal(assign_grid(s, spec, LIGAND).voxels.real == 1.0, want)

    def test_some_atoms_catch_no_voxel_center(self):
        spec = GridSpec(n=10, pitch=2.0, origin=(0.0, 0.0, 0.0))
        atoms = (AtomRecord(1, "CA", "ALA", "A", 1, 5.0, 5.0, 5.0, "C"),   # 1 A from any center
                 AtomRecord(2, "CA", "ALA", "A", 2, 8.1, 8.0, 8.0, "C"))   # 0.1 A from (4, 4, 4)
        s = Structure(id="sparse", atoms=atoms)
        params = ScoringParams(atom_radius=0.2)
        want = core_mask_loop_oracle(s, spec, params.atom_radius)
        assert {tuple(i) for i in np.argwhere(want)} == {(4, 4, 4)}
        got = assign_grid(s, spec, LIGAND, params).voxels.real == 1.0
        np.testing.assert_array_equal(got, want)
        alone = Structure(id="none", atoms=atoms[:1])
        assert not np.any(assign_grid(alone, spec, LIGAND, params).voxels)

    def test_overflow_names_the_first_offending_atom_in_file_order(self):
        spec = GridSpec(n=8, pitch=1.2, origin=(0.0, 0.0, 0.0))
        inside = (4.0, 4.0, 4.0)
        coords = np.array([inside, (50.0, 4.0, 4.0), inside, (4.0, -9.0, 4.0)])
        rng = np.random.default_rng(29)
        s = Structure(id="two", atoms=random_atoms(rng, coords))
        serials = [a.serial for a in s.atoms]
        with pytest.raises(GridOverflowError) as err:
            assign_grid(s, spec, LIGAND)
        assert err.value.serial == serials[1]
        with pytest.raises(GridOverflowError) as oracle_err:
            core_mask_loop_oracle(s, spec, ScoringParams().atom_radius)
        assert oracle_err.value.serial == serials[1]
        # moved by with_coords so that atoms 0 and 3 leave the lattice
        moved = s.with_coords(np.array([(4.0, -9.0, 4.0), inside, inside, (50.0, 4.0, 4.0)]))
        with pytest.raises(GridOverflowError) as err:
            assign_grid(moved, spec, RECEPTOR)
        assert err.value.serial == serials[0]


class TestAssignGrid:
    def test_single_atom_ligand_matches_sphere_oracle(self):
        spec = GridSpec(n=9, pitch=1.2, origin=(-4.8, -4.8, -4.8))
        s = single_atom("one", 0.0, 0.0, 0.0)
        grid = assign_grid(s, spec, LIGAND)
        got = {tuple(idx) for idx in np.argwhere(grid.voxels.real == 1.0)}
        want = sphere_membership_oracle(spec, (0.0, 0.0, 0.0), 1.5)
        assert got == want
        assert len(want) == 7  # plus-shape at 1.2 A pitch, 1.5 A radius

    def test_far_region_is_zero(self):
        spec = GridSpec(n=16, pitch=1.2, origin=(0.0, 0.0, 0.0))
        s = single_atom("one", 2.4, 2.4, 2.4)
        grid = assign_grid(s, spec, LIGAND)
        assert np.all(grid.voxels[8:, 8:, 8:] == 0)

    def test_receptor_surface_matches_dilation_oracle(self):
        spec = GridSpec(n=9, pitch=1.2, origin=(-4.8, -4.8, -4.8))
        s = single_atom("one", 0.0, 0.0, 0.0)
        params = ScoringParams()
        grid = assign_grid(s, spec, RECEPTOR, params)
        core = sphere_membership_oracle(spec, (0.0, 0.0, 0.0), params.atom_radius)
        dilated = chebyshev_dilation_oracle(core, params.surface_thickness, spec.n)
        got_surface = {tuple(i) for i in np.argwhere(grid.voxels.real == params.surface_weight)}
        got_core = {tuple(i) for i in np.argwhere(grid.voxels.real == params.receptor_core_weight)}
        assert got_core == core
        assert got_surface == dilated - core
        assert len(got_surface) == len(dilated) - len(core)

    def test_receptor_surface_thickness_two(self):
        spec = GridSpec(n=12, pitch=1.2, origin=(-6.0, -6.0, -6.0))
        params = ScoringParams(surface_thickness=2)
        s = single_atom("one", 0.6, 0.6, 0.6)
        grid = assign_grid(s, spec, RECEPTOR, params)
        core = sphere_membership_oracle(spec, (0.6, 0.6, 0.6), params.atom_radius)
        dilated = chebyshev_dilation_oracle(core, 2, spec.n)
        got_surface = {tuple(i) for i in np.argwhere(grid.voxels.real == 1.0)}
        assert got_surface == dilated - core

    def test_multi_atom_receptor_matches_oracles(self):
        spec = GridSpec(n=16, pitch=1.2, origin=(-9.0, -9.0, -9.0))
        rng = np.random.default_rng(3)
        coords = rng.uniform(-3.0, 3.0, (5, 3))
        atoms = tuple(
            AtomRecord(i + 1, "CA", "ALA", "A", i + 1,
                       float(c[0]), float(c[1]), float(c[2]), "C")
            for i, c in enumerate(coords)
        )
        s = Structure(id="m", atoms=atoms)
        params = ScoringParams()
        grid = assign_grid(s, spec, RECEPTOR, params)
        core = set()
        for c in coords:
            core |= sphere_membership_oracle(spec, c, params.atom_radius)
        dilated = chebyshev_dilation_oracle(core, 1, spec.n)
        got_core = {tuple(i) for i in np.argwhere(grid.voxels.real == -15.0)}
        got_surface = {tuple(i) for i in np.argwhere(grid.voxels.real == 1.0)}
        assert got_core == core
        assert got_surface == dilated - core

    def test_value_sets_per_role(self):
        spec = GridSpec(n=10, pitch=1.2, origin=(-5.4, -5.4, -5.4))
        s = make_structure("s", [(0, 0, 0), (1, 0, 0)])
        rec = assign_grid(s, spec, RECEPTOR)
        lig = assign_grid(s, spec, LIGAND)
        assert rec.voxels.dtype == lig.voxels.dtype == np.float64
        assert set(np.unique(rec.voxels)) <= {0.0, 1.0, -15.0}
        assert set(np.unique(lig.voxels)) <= {0.0, 1.0}

    def test_surface_and_core_disjoint_and_adjacent(self):
        spec = GridSpec(n=12, pitch=1.2, origin=(-6.0, -6.0, -6.0))
        s = make_structure("s", [(0, 0, 0), (0, 1, 0)])
        grid = assign_grid(s, spec, RECEPTOR)
        core = {tuple(i) for i in np.argwhere(grid.voxels.real == -15.0)}
        surface = {tuple(i) for i in np.argwhere(grid.voxels.real == 1.0)}
        assert not (core & surface)
        for cell in surface:
            assert any(
                max(abs(cell[0] - c[0]), abs(cell[1] - c[1]), abs(cell[2] - c[2])) <= 1
                for c in core
            )

    def test_deterministic_bit_identical(self):
        spec = GridSpec(n=15, pitch=1.2, origin=(-8.0, -8.0, -8.0))
        rng = np.random.default_rng(11)
        coords = rng.uniform(-4, 4, (20, 3))
        atoms = tuple(
            AtomRecord(i + 1, "CA", "ALA", "A", i + 1,
                       float(c[0]), float(c[1]), float(c[2]), "C")
            for i, c in enumerate(coords)
        )
        s = Structure(id="d", atoms=atoms)
        a = assign_grid(s, spec, RECEPTOR)
        b = assign_grid(s, spec, RECEPTOR)
        assert np.array_equal(a.voxels, b.voxels)

    def test_translation_equivariance_on_dyadic_lattice(self):
        # dyadic pitch/coords make shifted distances bit-exact. Rasterization
        # is non-periodic, so np.roll equals the shifted grid only while every
        # inflated atom stays inside the lattice before and after the shift:
        # 24 voxels at pitch 0.5 hold 7.75 + 1.5 + 3 * 0.5 A.
        n = 24
        radius = ScoringParams().atom_radius
        rng = random.Random(17)
        pitches = []
        for trial in range(20):
            pitch = rng.choice([0.5, 1.0, 2.0])
            pitches.append(pitch)
            spec = GridSpec(n=n, pitch=pitch, origin=(0.0, 0.0, 0.0))
            pts = [
                (rng.randrange(16, 32) * 0.25, rng.randrange(16, 32) * 0.25,
                 rng.randrange(16, 32) * 0.25)
                for _ in range(4)
            ]
            atoms = tuple(
                AtomRecord(i + 1, "CA", "ALA", "A", i + 1, *p, "C")
                for i, p in enumerate(pts)
            )
            s = Structure(id="t", atoms=atoms)
            k = rng.choice([1, 2, 3])
            axis = rng.randrange(3)
            shift = [0.0, 0.0, 0.0]
            shift[axis] = k * pitch
            moved = s.with_coords(s.coords() + np.array(shift))
            msg = f"trial {trial}: pitch={pitch} k={k} axis={axis}"
            # precondition, computed without _core_mask: a voxel-index extent
            # at least as wide as each inflated atom's stays in [0, n-1]
            for p in pts:
                for q in (p, [c + d for c, d in zip(p, shift)]):
                    lo = min(math.floor((c - radius) / pitch) for c in q)
                    hi = max(math.ceil((c + radius) / pitch) for c in q)
                    assert 0 <= lo and hi <= n - 1, f"{msg}: extent {lo}..{hi}"
            base = assign_grid(s, spec, LIGAND)
            shifted = assign_grid(moved, spec, LIGAND)
            assert np.any(base.voxels), f"{msg}: empty base grid"
            assert not np.array_equal(base.voxels, shifted.voxels), f"{msg}: shift is a no-op"
            np.testing.assert_array_equal(
                np.roll(base.voxels, k, axis=axis), shifted.voxels,
                err_msg=msg,
            )
        assert 0.5 in pitches  # the finest lattice, the one nearest its edge, is exercised

    def test_atom_at_lattice_edge_rasterizes_and_one_pitch_beyond_raises(self):
        # dyadic lattice: the inflated extent (2.0 + 1.5) / 0.5 ends exactly at n-1
        n, pitch = 8, 0.5
        spec = GridSpec(n=n, pitch=pitch, origin=(0.0, 0.0, 0.0))
        radius = ScoringParams().atom_radius
        x = (n - 1) * pitch - radius
        edge = Structure(id="edge", atoms=(AtomRecord(7, "CA", "ALA", "A", 1, x, 2.0, 2.0, "C"),))
        grid = assign_grid(edge, spec, LIGAND)
        assert grid.voxels[n - 1, 4, 4] == 1.0
        beyond = edge.with_coords(edge.coords() + np.array([pitch, 0.0, 0.0]))
        # non-periodic: the voxel past n-1 is an overflow, never a wrap to index 0
        with pytest.raises(GridOverflowError) as err:
            assign_grid(beyond, spec, LIGAND)
        assert err.value.serial == 7

    def test_atom_outside_grid_names_serial(self):
        spec = GridSpec(n=8, pitch=1.2, origin=(0.0, 0.0, 0.0))
        s = single_atom("far", 50.0, 0.0, 0.0)
        with pytest.raises(GridOverflowError) as err:
            assign_grid(s, spec, LIGAND)
        assert err.value.serial == 1

    def test_empty_structure_rejected(self):
        spec = GridSpec(n=8, pitch=1.2, origin=(0.0, 0.0, 0.0))
        with pytest.raises(NoAtomsError):
            assign_grid(Structure(id="e", atoms=()), spec, LIGAND)


def ndimage_dilation(core: np.ndarray, thickness: int) -> np.ndarray:
    """The oracle: scipy's dilation by the 3x3x3 cube, ``thickness`` times,
    with nothing beyond the faces (its iterations=0 means "until nothing
    changes", so thickness 0 is the core itself)."""
    if thickness == 0:
        return core.copy()
    return ndimage.binary_dilation(core, structure=np.ones((3, 3, 3), dtype=bool),
                                   iterations=thickness)


def face_cores(n: int) -> list[np.ndarray]:
    """Cores with voxels on every face, an edge and a corner of the grid."""
    on_faces = np.zeros((n, n, n), dtype=bool)
    for axis in range(3):
        for side in (0, n - 1):
            index = [n // 2] * 3
            index[axis] = side
            on_faces[tuple(index)] = True
    corner = np.zeros((n, n, n), dtype=bool)
    corner[0, 0, 0] = corner[n - 1, n - 1, 0] = True
    edge = np.zeros((n, n, n), dtype=bool)
    edge[0, :, n - 1] = True
    return [on_faces, corner, edge, np.ones((n, n, n), dtype=bool)]


@pytest.mark.parametrize("thickness", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [4, 5, 9, 16])
def test_dilation_equals_ndimage_including_cores_on_the_faces(n, thickness):
    rng = np.random.default_rng([71, n, thickness])
    cores = face_cores(n) + [rng.random((n, n, n)) < p for p in (0.005, 0.05, 0.3)]
    for core in cores:
        before = core.copy()
        assert np.array_equal(_dilate(core, thickness), ndimage_dilation(core, thickness))
        assert np.array_equal(core, before)  # the input is left as it was


@pytest.mark.parametrize("thickness", [0, 1, 2, 3])
def test_receptor_surface_equals_the_ndimage_oracle_with_atoms_on_the_faces(thickness):
    n, pitch = 12, 1.2
    spec = GridSpec(n=n, pitch=pitch, origin=(0.0, 0.0, 0.0))
    near, far = 1.4, (n - 1) * pitch - 1.4  # 1.4 A from the first or last voxel center
    rng = np.random.default_rng([73, thickness])
    coords = [(near, 7.2, 6.0), (6.0, far, 4.8), (3.6, 2.4, near), (far, 6.0, 6.0)]
    coords += [tuple(rng.uniform(near, far, 3)) for _ in range(4)]
    s = Structure("faces", tuple(AtomRecord(i + 1, "CA", "ALA", "A", i + 1, *map(float, c), "C")
                                 for i, c in enumerate(coords)))
    params = ScoringParams(surface_thickness=thickness)
    core = core_mask_loop_oracle(s, spec, params.atom_radius)
    assert core[0].any() and core[:, n - 1].any() and core[:, :, 0].any() and core[n - 1].any()
    grid = assign_grid(s, spec, RECEPTOR, params)
    want = ndimage_dilation(core, thickness) & ~core
    assert np.array_equal(grid.voxels.real == params.surface_weight, want)
    assert np.array_equal(grid.voxels.real == params.receptor_core_weight, core)
