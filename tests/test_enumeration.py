import json
from math import gcd

import pytest

from twobridge.conway import canonical_class
from twobridge.enumeration import (
    ScanRecord,
    _scan_single_p,
    amphicheiral_crosscheck,
    conjecture_scan,
    enumerate_classes,
    ribbon_table,
)
from twobridge.errors import DomainError
from twobridge.families import build_family_index, generate


# -------------------------------------------------------------- enumeration

def test_enumerate_smallest():
    assert {str(c.canonical) for c in enumerate_classes(3)} == {"3/1"}


def test_enumerate_crossing_4():
    assert {str(c.canonical) for c in enumerate_classes(4)} == {"3/1", "5/2"}


def test_enumerate_crossing_6_has_seven_classes():
    classes = enumerate_classes(6)
    assert len(classes) == 7
    dets = sorted(c.determinant for c in classes)
    assert dets == [3, 5, 5, 7, 9, 11, 13]


def test_enumerate_validates_bounds():
    with pytest.raises(DomainError):
        enumerate_classes(2)
    with pytest.raises(DomainError):
        enumerate_classes(27)


def test_amphicheiral_iff_even_palindromic_expansion():
    from twobridge.conway import cf_expand, fraction_orbit

    for cls in enumerate_classes(14):
        has_palindrome = False
        for rep in fraction_orbit(cls.canonical):
            e = cf_expand(rep).entries
            if len(e) % 2 == 0 and e == tuple(reversed(e)):
                has_palindrome = True
        assert cls.amphicheiral == has_palindrome, cls


# -------------------------------------------------------------------- table

def test_table_rows_up_to_12():
    rows = {r.crossing: (r.family0, r.family1, r.family2, r.total) for r in ribbon_table(12)}
    assert rows[6] == (1, 0, 0, 1)
    assert rows[8] == (1, 1, 0, 2)
    assert rows[9] == (0, 1, 0, 1)
    assert rows[10] == (3, 1, 0, 4)
    assert rows[11] == (0, 1, 0, 1)
    assert rows[12] == (5, 2, 1, 8)
    assert rows[7] == (0, 0, 0, 0)


def test_table_row_sums():
    for row in ribbon_table(14):
        assert row.total == row.family0 + row.family1 + row.family2


def test_generator_margin_plus_two_adds_nothing():
    # pushing the family-1/2 parameter bounds two beyond the sweep used
    # for the table finds no additional class within the crossing bound
    max_crossing = 19
    inside = {
        cls for cls, fams in build_family_index(max_crossing).items() if fams & {1, 2}
    }
    widened = set()
    bound = max_crossing + 2
    for family in (1, 2):
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                if a == 0 or b == 0:
                    continue
                _, frac = generate(family, (a, b))
                if frac.is_link:
                    continue
                cls = canonical_class(frac)
                if cls.crossing <= max_crossing:
                    widened.add(cls)
    assert widened == inside


# --------------------------------------------------------------- crosscheck

def test_crosscheck_small():
    rows = amphicheiral_crosscheck(8)
    assert [(r.crossing, r.amphicheiral, r.family0_at_next) for r in rows] == [
        (4, 1, 1),
        (6, 1, 1),
        (8, 3, 3),
    ]
    assert all(r.equal for r in rows)


# --------------------------------------------------------------------- scan

def test_scan_p3():
    recs = conjecture_scan(3, 3)
    assert len(recs) == 1
    rec = recs[0]
    # the lone surviving orbit is that of q = 4 (the ribbon knot 9/4),
    # recorded through its minimal representative 2
    assert rec.cg_passing == (2,)
    orbit = {2, pow(2, -1, 9), 9 - 2, 9 - pow(2, -1, 9)}
    assert 4 in orbit
    assert rec.non_family == ()


def test_scan_11_includes_fig9_knot():
    rec = conjecture_scan(11, 11)[0]
    assert 46 in rec.cg_passing
    assert rec.non_family == ()


def test_scan_small_range_has_no_candidates():
    for rec in conjecture_scan(3, 13):
        assert rec.non_family == ()


def test_scan_rounds_bounds_inward():
    recs = conjecture_scan(4, 12)
    assert [r.p for r in recs] == [5, 7, 9, 11]
    with pytest.raises(DomainError):
        conjecture_scan(4, 4)


def test_scan_pass_status_is_orbit_invariant():
    # auditing every q must succeed on exactly the orbit closures of the
    # canonical survivors, validating the one-representative shortcut
    for p in (3, 5, 7, 9):
        p2 = p * p
        audit = _scan_single_p(p, audit=True)
        canon = _scan_single_p(p)
        closure = set()
        for q in canon.cg_passing:
            inv = pow(q, -1, p2)
            closure |= {q, inv, p2 - q, p2 - inv}
        assert set(audit.cg_passing) == closure
        assert audit.q_tested == sum(1 for q in range(1, p2) if gcd(q, p) == 1)
        assert audit.non_family == ()


def test_scan_parallel_matches_serial():
    serial = conjecture_scan(3, 21)
    parallel = conjecture_scan(3, 21, jobs=3)
    assert parallel == serial


def test_scan_record_json_round_trip():
    rec = ScanRecord(11, 28, (24, 37, 46), ())
    line = rec.to_json_line()
    assert json.loads(line) == {
        "p": 11,
        "q_tested": 28,
        "cg_passing": [24, 37, 46],
        "non_family": [],
    }
    assert ScanRecord.from_json_line(line) == rec


def test_scan_checkpoint_written_and_reused(tmp_path):
    path = tmp_path / "ck.jsonl"
    recs = conjecture_scan(3, 11, checkpoint=str(path))
    lines = path.read_text().splitlines()
    assert [ScanRecord.from_json_line(s).p for s in lines] == [3, 5, 7, 9, 11]
    again = conjecture_scan(3, 11, checkpoint=str(path))
    assert again == recs


def test_scan_resume_is_byte_identical(tmp_path):
    full_path = tmp_path / "full.jsonl"
    full = conjecture_scan(3, 31, checkpoint=str(full_path))
    full_bytes = full_path.read_bytes()

    # simulate an interrupted run: a valid prefix plus a torn final line
    resumed_path = tmp_path / "resumed.jsonl"
    prefix = b"".join(full_bytes.splitlines(keepends=True)[:6])
    resumed_path.write_bytes(prefix + b'{"p": 21, "q_te')
    resumed = conjecture_scan(3, 31, checkpoint=str(resumed_path))

    assert resumed == full
    assert resumed_path.read_bytes() == full_bytes


@pytest.mark.parametrize("tail", [b"3\n", b"[1, 2]\n"])
def test_scan_resume_stops_at_a_non_record_line(tmp_path, tail):
    path = tmp_path / "ck.jsonl"
    recs = conjecture_scan(3, 11, checkpoint=str(path))
    full_bytes = path.read_bytes()
    path.write_bytes(full_bytes + tail)
    assert conjecture_scan(3, 11, checkpoint=str(path)) == recs
    assert path.read_bytes() == full_bytes


def test_scan_checkpoint_io_error(tmp_path):
    with pytest.raises(DomainError):
        conjecture_scan(3, 5, checkpoint=str(tmp_path / "no" / "dir" / "ck.jsonl"))
