"""The rotation set: generate_rotations against a per-triple reference
construction, bit for bit, and the set's own properties (counts, unit norm,
canonical sign, no near-duplicates, one identity)."""

import math

import numpy as np
import pytest

from crossdock.docking import generate_rotations


def _axis_quat(axis: str, angle_deg: float) -> tuple[float, float, float, float]:
    half = math.radians(angle_deg) / 2.0
    c, s = math.cos(half), math.sin(half)
    return (c, 0.0, 0.0, s) if axis == "z" else (c, 0.0, s, 0.0)


def _qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _canonical(w: float, x: float, y: float, z: float) -> tuple[float, ...]:
    """Normalize, snap components within 1e-12 of zero to zero, normalize
    again and make the first nonzero component positive. The squares are
    summed left to right, as ``sum`` did before Python 3.12."""
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    comps = [c / norm for c in (w, x, y, z)]
    comps = [0.0 if abs(c) < 1e-12 else c for c in comps]
    c0, c1, c2, c3 = comps
    norm = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3)
    comps = [c / norm for c in comps]
    for c in comps:
        if c != 0.0:
            if c < 0.0:
                comps = [-v for v in comps]
            break
    return tuple(comps)


def from_euler_zyz(alpha: float, beta: float, gamma: float) -> tuple[float, ...]:
    """z-y-z Euler angles (degrees) to a canonical quaternion, on Python
    floats."""
    q = _qmul(_qmul(_axis_quat("z", alpha), _axis_quat("y", beta)), _axis_quat("z", gamma))
    return _canonical(*q)


def reference_rotations(step: float) -> np.ndarray:
    """The rotation set built one Euler triple at a time: sort the canonical
    quaternions as tuples, then keep each one that no kept quaternion lies
    within 1e-6 of (max-norm), found through a 1e-6 grid hash, since such a
    duplicate always lies in the same or a neighboring cell."""
    n = int(round(360.0 / step))
    alphas = [i * step for i in range(n)]
    betas = [a for a in alphas if a <= 180.0 + 1e-9]
    quats = sorted(from_euler_zyz(a, b, g) for a in alphas for b in betas for g in alphas)
    tol = 1e-6
    offsets = [(dw, dx, dy, dz) for dw in (-1, 0, 1) for dx in (-1, 0, 1)
               for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
    unique = []
    cells: dict[tuple[int, ...], list[tuple[float, ...]]] = {}
    for q in quats:
        cell = tuple(math.floor(c / tol) for c in q)
        if not any(
            max(abs(a - b) for a, b in zip(q, kept)) <= tol
            for offset in offsets
            for kept in cells.get(tuple(c + o for c, o in zip(cell, offset)), ())
        ):
            cells.setdefault(cell, []).append(q)
            unique.append(q)
    return np.array(unique, dtype=np.float64)


@pytest.mark.parametrize("step", [12, 15, 18, 20, 24, 30, 36, 40, 45, 60, 72, 90, 120])
def test_rotation_set_equals_the_reference_bit_for_bit(step):
    rotations = generate_rotations(float(step))
    assert rotations.dtype == np.float64 and rotations.shape[1] == 4
    assert rotations.tobytes() == reference_rotations(float(step)).tobytes()


@pytest.mark.parametrize("step, count", [(90.0, 24), (60.0, 84), (30.0, 744), (15.0, 6384)])
def test_rotation_set_properties(step, count):
    q = generate_rotations(step)
    assert q.shape == (count, 4)
    np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, rtol=0, atol=4e-16)
    first_nonzero = q[np.arange(count), np.argmax(q != 0.0, axis=1)]
    assert (first_nonzero > 0.0).all()
    # Two rows within 1e-6 of each other (max-norm) are within 2e-6 in the
    # Euclidean norm, and for unit rows |a - b|^2 = 2 - 2 a.b.
    for start in range(0, count, 512):
        dots = q[start:start + 512] @ q.T
        dots[np.arange(len(dots)), np.arange(start, start + len(dots))] = -1.0
        assert (2.0 - 2.0 * dots).min() > 4e-12
    [identity] = q[q[:, 0] == 1.0]
    assert identity.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_rotation_set_is_built_once_per_step_and_read_only():
    q = generate_rotations(30.0)
    assert generate_rotations(30.0) is q
    assert generate_rotations(60.0) is not q
    with pytest.raises(ValueError, match="read-only"):
        q[0, 0] = 0.5
    assert q[0].flags.writeable is False


def test_an_int_step_shares_the_set_of_the_equal_float():
    q = generate_rotations(30)
    assert generate_rotations(30.0) is q and generate_rotations(np.float64(30)) is q
    assert q.tobytes() == reference_rotations(30.0).tobytes()
