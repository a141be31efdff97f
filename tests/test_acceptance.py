"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact; nothing here is tolerance-based.
"""

import functools
from math import gcd, isqrt

from twobridge.casson_gordon import (
    _column_quarters,
    _floorsum_quarters,
    _oracle_quarters,
    cg_condition,
    sigma,
    weighted_count,
)
from twobridge.cli import execute
from twobridge.conway import canonical_class, cf_expand, parse_fraction, same_knot
from twobridge.enumeration import amphicheiral_crosscheck, conjecture_scan, ribbon_table
from twobridge.families import (
    build_family_index,
    family0_identity_holds,
    family_conditions,
    generate,
    is_family_member,
    iter_compositions,
    partial_fractions,
    partial_knot,
)

EXPECTED_TABLE = {
    3: (0, 0, 0, 0), 4: (0, 0, 0, 0), 5: (0, 0, 0, 0), 6: (1, 0, 0, 1),
    7: (0, 0, 0, 0), 8: (1, 1, 0, 2), 9: (0, 1, 0, 1), 10: (3, 1, 0, 4),
    11: (0, 1, 0, 1), 12: (5, 2, 1, 8), 13: (0, 2, 1, 3), 14: (11, 2, 0, 13),
    15: (0, 2, 0, 2), 16: (21, 3, 2, 26), 17: (0, 3, 2, 5), 18: (43, 3, 0, 46),
    19: (0, 3, 0, 3),
}


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {name}: FAIL", flush=True)
                raise
            print(f"[acceptance] {name}: PASS", flush=True)
            return result

        return wrapper

    return decorate


@criterion("table reproduction (crossing 3..19, cell for cell)")
def test_table_reproduction(capsys):
    rows = ribbon_table(19)
    assert len(rows) == 17
    for row in rows:
        assert (row.family0, row.family1, row.family2, row.total) == EXPECTED_TABLE[row.crossing], row
    code = execute(["table", "--max-crossing", "19", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "crossing,family0,family1,family2,total"
    assert len(lines) == 18
    for line in lines[1:]:
        c, f0, f1, f2, total = (int(tok) for tok in line.split(","))
        assert (f0, f1, f2, total) == EXPECTED_TABLE[c]


@criterion("figure values: sigma(11,46,1) and sigma(11,46,2)")
def test_figure_values():
    assert weighted_count(11, 46, 1) == 93        # int = 23 1/4
    assert 46 * 1 * 1 == 46                       # area = 23
    assert sigma(11, 46, 1) == -1
    assert weighted_count(11, 46, 2) == 367       # int = 91 3/4
    assert 46 * 2 * 2 == 184                      # area = 92
    assert sigma(11, 46, 2) == 1


@criterion("worked example 121/84: conditions ii, iv and partial knot C(2,1,3)")
def test_worked_example_121_84():
    matches = family_conditions(11, 84)
    assert [(m.condition, m.sign, m.n, m.d) for m in matches] == [
        ("ii", 1, 7, None),
        ("iv", -1, 4, 3),
    ]
    cls = partial_knot(11, 84)
    eleven_fourths = parse_fraction("11/4")
    assert same_knot(cls.canonical, eleven_fourths, include_mirror=True)
    assert same_knot(cls.canonical, parse_fraction("11/7"), include_mirror=True)
    assert cls == canonical_class(eleven_fourths)
    assert str(cf_expand(eleven_fourths)) == "C(2,1,3)"


@criterion("oracle equivalence, exhaustive for odd p <= 25 (three routes)")
def test_oracle_equivalence_exhaustive():
    for p in range(3, 26, 2):
        p2 = p * p
        for q in range(1, p2):
            if gcd(q, p) != 1:
                continue
            for r in range(1, p):
                brute = _oracle_quarters(p, q, r)
                columns = _column_quarters(p, q, r)
                floors = _floorsum_quarters(p, q, r)
                assert brute == columns == floors, (p, q, r)


@criterion("desk-scale scan p = 3..99: no cg-passing class outside the families")
def test_desk_scale_scan():
    records = conjecture_scan(3, 99, jobs=2)
    assert [r.p for r in records] == list(range(3, 100, 2))
    assert all(r.non_family == () for r in records)
    assert sum(len(r.cg_passing) for r in records) > 0


@criterion("necessity: every family class with crossing <= 16 passes the obstruction")
def test_necessity_on_families():
    index = build_family_index(16)
    assert len(index) == sum(v[3] for c, v in EXPECTED_TABLE.items() if c <= 16)
    for cls in index:
        p = isqrt(cls.determinant)
        report = cg_condition(p, cls.canonical.q)
        assert report.passes, cls


@criterion("determinant squaring: det = p^2 and partial det = p (entry sum <= 24)")
def test_determinant_squaring():
    knots = []
    for s in range(1, 12):  # family-0 words have entry sum 2s + 2 <= 24
        for params in iter_compositions(s):
            knots.append(generate(0, params)[1])
    for family in (1, 2):
        for a in range(-4, 5):
            for b in range(-4, 5):
                if a == 0 or b == 0 or 4 * abs(a) + 4 * abs(b) + 4 > 24:
                    continue
                knots.append(generate(family, (a, b))[1])
    checked = 0
    for frac in knots:
        if frac.is_link:
            continue
        p = isqrt(frac.p)
        assert p * p == frac.p and p % 2 == 1, frac
        assert partial_knot(p, frac.q).determinant == p, frac
        checked += 1
    assert checked > 500


@criterion("partial-knot coherence: one class up to mirror for crossing <= 19")
def test_partial_coherence():
    for cls in build_family_index(19):
        p = isqrt(cls.determinant)
        q = cls.canonical.q
        partial = partial_knot(p, q)  # raises InternalError on any disagreement
        for frac in partial_fractions(p, q):
            assert same_knot(frac, partial.canonical, include_mirror=True)


@criterion("family-0 symmetric-union identity for parameter sums <= 10")
def test_family0_identity():
    checked = 0
    for s in range(2, 11):
        for params in iter_compositions(s):
            if params[-1] < 2:
                continue
            assert family0_identity_holds(params), params
            checked += 1
    assert checked == sum(2 ** max(s - 2, 0) for s in range(2, 11))


@criterion("amphicheiral counts at c equal family-0 counts at c+2 (c = 4..16)")
def test_amphicheiral_crosscheck():
    rows = amphicheiral_crosscheck(16)
    got = [(r.crossing, r.amphicheiral, r.family0_at_next) for r in rows]
    assert got == [
        (4, 1, 1), (6, 1, 1), (8, 3, 3), (10, 5, 5),
        (12, 11, 11), (14, 21, 21), (16, 43, 43),
    ]
    assert all(r.equal for r in rows)


@criterion("scan resume equals uninterrupted scan byte for byte (p = 3..31)")
def test_scan_resume_byte_identical(tmp_path):
    full_path = tmp_path / "full.jsonl"
    full = conjecture_scan(3, 31, checkpoint=str(full_path))
    full_bytes = full_path.read_bytes()

    resumed_path = tmp_path / "resumed.jsonl"
    kept = b"".join(full_bytes.splitlines(keepends=True)[:7])
    resumed_path.write_bytes(kept + b'{"p": 19, "q_tested": 5')  # torn write
    resumed = conjecture_scan(3, 31, checkpoint=str(resumed_path))

    assert resumed == full
    assert resumed_path.read_bytes() == full_bytes


def test_generated_family_members_are_detected():
    # cross-link of the membership and generator routes at small size
    for family, params in [(0, (2,)), (0, (1, 1)), (1, (1, -1)), (2, (1, 1))]:
        _, frac = generate(family, params)
        p = isqrt(frac.p)
        assert is_family_member(p, frac.q, family_lookup=False).member
