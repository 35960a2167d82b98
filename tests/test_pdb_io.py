import random

import numpy as np
import pytest

from crossdock.errors import NoAtomsError, PdbParseError
from crossdock.pdb_io import (
    AtomRecord,
    Structure,
    bounding_box,
    load_structure,
    parse_pdb,
)

from conftest import structure_to_pdb

CANON_LINE = "ATOM      1  N   MET A   1      10.000  20.000  30.000  1.00  0.00           N"


def test_parse_canonical_atom_line():
    s = parse_pdb(CANON_LINE, "x")
    assert len(s) == 1
    a = s.atoms[0]
    assert a == AtomRecord(
        serial=1, atom_name="N", residue_name="MET", chain_id="A",
        residue_seq=1, x=10.0, y=20.0, z=30.0, element="N",
    )


def test_non_atom_records_are_skipped():
    text = "\n".join(
        [
            "REMARK test",
            "HETATM    2  O   HOH A 101      1.000   2.000   3.000  1.00  0.00           O",
            CANON_LINE,
            "TER",
            "CONECT    1",
        ]
    )
    s = parse_pdb(text, "x")
    assert [a.serial for a in s.atoms] == [1]


def test_only_remark_and_hetatm_is_no_atoms_error():
    text = "\n".join(
        [
            "REMARK nothing here",
            "HETATM    2  O   HOH A 101      1.000   2.000   3.000  1.00  0.00           O",
        ]
    )
    with pytest.raises(NoAtomsError):
        parse_pdb(text, "x")


def test_unparseable_x_coordinate_reports_line_number():
    bad = CANON_LINE[:30] + "     abc" + CANON_LINE[38:]
    text = "REMARK 1\n" + bad
    with pytest.raises(PdbParseError) as err:
        parse_pdb(text, "x")
    assert err.value.line_number == 2


def test_non_finite_coordinate_rejected():
    bad = CANON_LINE[:30] + "     nan" + CANON_LINE[38:]
    with pytest.raises(PdbParseError):
        parse_pdb(bad, "x")


def test_negative_serial_rejected():
    bad = "ATOM     -1" + CANON_LINE[11:]
    with pytest.raises(PdbParseError):
        parse_pdb(bad, "x")


def test_endmdl_stops_at_first_model():
    second = CANON_LINE.replace("  1  N ", "  2  N ")
    text = "\n".join(["MODEL        1", CANON_LINE, "ENDMDL", "MODEL        2", second])
    s = parse_pdb(text, "x")
    assert [a.serial for a in s.atoms] == [1]


def test_missing_element_columns_give_empty_element():
    s = parse_pdb(CANON_LINE[:54], "x")
    assert s.atoms[0].element == ""
    assert s.atoms[0].x == 10.0


def test_atom_order_preserved():
    lines = []
    for i, serial in enumerate([7, 3, 9], start=1):
        lines.append(
            f"ATOM  {serial:>5d}  CA  ALA A{i:>4d}    "
            f"{float(i):8.3f}{float(i):8.3f}{float(i):8.3f}"
        )
    s = parse_pdb("\n".join(lines), "x")
    assert [a.serial for a in s.atoms] == [7, 3, 9]


def test_round_trip_preserves_count_coords_and_order():
    rng = np.random.default_rng(7)
    atoms = tuple(
        AtomRecord(i + 1, "CA", "ALA", "B", i + 1,
                   float(x), float(y), float(z), "C")
        for i, (x, y, z) in enumerate(np.round(rng.uniform(-99, 99, (50, 3)), 3))
    )
    s = Structure(id="rt", atoms=atoms)
    back = parse_pdb(structure_to_pdb(s), "rt")
    assert len(back) == len(s)
    for a, b in zip(s.atoms, back.atoms):
        assert (a.serial, a.atom_name, a.residue_name, a.chain_id, a.residue_seq) == (
            b.serial, b.atom_name, b.residue_name, b.chain_id, b.residue_seq,
        )
        # coordinates are written with 3 decimals
        assert (a.x, a.y, a.z) == (b.x, b.y, b.z)


def test_parser_never_crashes_on_arbitrary_input():
    rng = random.Random(123)
    for _ in range(300):
        n = rng.randrange(0, 200)
        blob = bytes(rng.randrange(256) for _ in range(n))
        text = blob.decode("utf-8", errors="replace")
        try:
            parse_pdb(text, "fuzz")
        except (PdbParseError, NoAtomsError):
            pass  # documented outcomes


def test_parser_never_crashes_on_atomlike_garbage():
    rng = random.Random(99)
    for _ in range(300):
        junk = "".join(chr(rng.randrange(32, 127)) for _ in range(rng.randrange(0, 75)))
        try:
            parse_pdb("ATOM  " + junk, "fuzz")
        except (PdbParseError, NoAtomsError):
            pass


def test_bounding_box_single_point():
    s = parse_pdb(CANON_LINE.replace("10.000  20.000  30.000", " 1.000   2.000   3.000"), "x")
    lo, hi = bounding_box(s)
    assert np.array_equal(lo, [1.0, 2.0, 3.0])
    assert np.array_equal(hi, [1.0, 2.0, 3.0])


def test_bounding_box_componentwise_extrema():
    atoms = (
        AtomRecord(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0, "C"),
        AtomRecord(2, "CA", "ALA", "A", 2, -1.0, 5.0, 2.0, "C"),
    )
    lo, hi = bounding_box(Structure(id="b", atoms=atoms))
    assert np.array_equal(lo, [-1.0, 0.0, 0.0])
    assert np.array_equal(hi, [0.0, 5.0, 2.0])


def test_bounding_box_matches_linear_scan_oracle():
    rng = np.random.default_rng(42)
    coords = rng.uniform(-50, 50, (100, 3))
    atoms = tuple(
        AtomRecord(i + 1, "CA", "ALA", "A", i + 1,
                   float(c[0]), float(c[1]), float(c[2]), "C")
        for i, c in enumerate(coords)
    )
    s = Structure(id="r100", atoms=atoms)
    lo, hi = bounding_box(s)
    # independent scan, one coordinate at a time
    want_lo = [min(a.x for a in atoms), min(a.y for a in atoms), min(a.z for a in atoms)]
    want_hi = [max(a.x for a in atoms), max(a.y for a in atoms), max(a.z for a in atoms)]
    assert list(lo) == want_lo
    assert list(hi) == want_hi
    # and the box contains every atom
    for a in atoms:
        assert lo[0] <= a.x <= hi[0] and lo[1] <= a.y <= hi[1] and lo[2] <= a.z <= hi[2]


def test_bounding_box_empty_structure_errors():
    with pytest.raises(NoAtomsError):
        bounding_box(Structure(id="empty", atoms=()))


def test_load_structure_uses_stem_as_id(tmp_path):
    p = tmp_path / "mol1.pdb"
    p.write_text(CANON_LINE + "\n", encoding="utf-8")
    s = load_structure(p)
    assert s.id == "mol1"
    assert s.source_path == str(p)


def test_load_structure_tolerates_binary_bytes(tmp_path):
    p = tmp_path / "weird.pdb"
    p.write_bytes(b"\xff\xfe\x00garbage\n" + CANON_LINE.encode() + b"\n\x80\x81")
    s = load_structure(p)
    assert len(s) == 1
