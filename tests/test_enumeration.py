import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from twobridge import casson_gordon, enumeration
from twobridge.casson_gordon import INT64_MAX_P, SigmaTerm, _tested_blocks, cg_survivors
from twobridge.conway import ConwayWord, canonical_class, cf_eval
from twobridge.enumeration import (
    ScanRecord,
    _orbit_count,
    _scan_single_p,
    amphicheiral_crosscheck,
    conjecture_scan,
    enumerate_classes,
    ribbon_table,
)
from twobridge.errors import DomainError, InternalError
from twobridge.families import build_family_index, generate, iter_compositions


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


def _brute_force_classes(max_crossing):
    """cf_eval + canonical_class over every composition of every total <= max_crossing."""
    classes = set()
    for total in range(1, max_crossing + 1):
        for entries in iter_compositions(total):
            frac = cf_eval(ConwayWord(entries))
            if not frac.is_unknot and not frac.is_link:
                classes.add(canonical_class(frac))
    return classes


def test_enumerate_classes_equals_a_brute_force_oracle():
    oracle = _brute_force_classes(14)
    for c in range(3, 15):
        assert enumerate_classes(c) == {cls for cls in oracle if cls.crossing <= c}, c


def _ernst_sumners(c):
    """Number of 2-bridge knot classes (mirror pairs once) with crossing number c >= 3."""
    m = c % 4
    if m == 0:
        v = 2 ** (c - 3) + 2 ** ((c - 4) // 2)
    elif m == 1:
        v = 2 ** (c - 3) + 2 ** ((c - 3) // 2)
    elif m == 2:
        v = 2 ** (c - 3) + 2 ** ((c - 4) // 2) - 1
    else:
        v = 2 ** (c - 3) + 2 ** ((c - 3) // 2) + 1
    return v // 3


def test_class_counts_match_ernst_sumners():
    counts = Counter(cls.crossing for cls in enumerate_classes(18))
    assert counts == Counter({c: _ernst_sumners(c) for c in range(3, 19)})


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


def test_crosscheck_holds_up_to_crossing_20():
    rows = amphicheiral_crosscheck(20)
    assert [r.crossing for r in rows] == list(range(4, 21, 2))
    assert all(r.equal for r in rows), rows


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
    # every coprime q must survive exactly when its orbit's least member does,
    # validating the one-representative shortcut
    for p in range(3, 100, 2):
        p2 = p * p
        closure = set()
        for q in _scan_single_p(p).cg_passing:
            inv = pow(q, -1, p2)
            closure |= {q, inv, p2 - q, p2 - inv}
        coprime = [q for q in range(1, p2) if gcd(q, p) == 1]
        assert set(cg_survivors(p, coprime).tolist()) == closure, p


def test_scan_parallel_matches_serial():
    serial = conjecture_scan(3, 21)
    parallel = conjecture_scan(3, 21, jobs=3)
    assert parallel == serial


def test_scan_record_json_round_trip():
    # the record a scan writes at p = 11
    rec = ScanRecord(11, 28, (10, 21, 32, 36, 43, 46, 54), ())
    assert conjecture_scan(11, 11) == [rec]
    line = rec.to_json_line()
    assert json.loads(line) == {
        "p": 11,
        "q_tested": 28,
        "cg_passing": [10, 21, 32, 36, 43, 46, 54],
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


@pytest.mark.parametrize(
    "tail",
    [
        b"3\n",
        b"[1, 2]\n",
        # fields of the wrong type, which int() would coerce into a different
        # record; p = 13 lies outside the scanned range, so no record hides it
        b'{"p": 13.0, "q_tested": true, "cg_passing": "1021", "non_family": []}\n',
        # p far above the int64 guard
        b'{"p": 1000000000000001, "q_tested": 1, "cg_passing": [], "non_family": []}\n',
        # q outside 0 < q < p^2, or a non-family q that did not pass: a resume
        # that kept such a line would report a counterexample never found
        b'{"p": 13, "q_tested": 1, "cg_passing": [-3, 999], "non_family": [777]}\n',
        b'{"p": 13, "q_tested": 1, "cg_passing": [0], "non_family": []}\n',
        b'{"p": 13, "q_tested": 1, "cg_passing": [169], "non_family": [169]}\n',
        b'{"p": 13, "q_tested": 1, "cg_passing": [5], "non_family": [7]}\n',
        # lists out of order, more survivors than q tested, or a negative count
        b'{"p": 13, "q_tested": 40, "cg_passing": [12, 12], "non_family": []}\n',
        b'{"p": 13, "q_tested": 40, "cg_passing": [14, 12], "non_family": []}\n',
        b'{"p": 13, "q_tested": 1, "cg_passing": [12, 14], "non_family": []}\n',
        b'{"p": 13, "q_tested": -5, "cg_passing": [], "non_family": []}\n',
        # a non-family q that is a family knot (12) or not the least of its
        # orbit (157 = 13^2 - 12, the mirror of 169/12), which the scan never writes
        b'{"p": 13, "q_tested": 40, "cg_passing": [12], "non_family": [12]}\n',
        b'{"p": 13, "q_tested": 40, "cg_passing": [157], "non_family": [157]}\n',
        # a q sharing the factor 13 with p is no knot the kernel accepts
        b'{"p": 13, "q_tested": 40, "cg_passing": [26], "non_family": []}\n',
        # p = 13's real survivors with a count no scan writes: one q per orbit
        # tests _orbit_count(13) = 40, an audit 13 * phi(13) = 156
        b'{"p": 13, "q_tested": 10, "cg_passing": [12, 25, 36, 38, 50, 51, 64, 70, 77], '
        b'"non_family": []}\n',
        # p = 13's real survivors with a non-family q = 2 that is not reported, or
        # without the family knot 12: a resume would report 0 outside the families
        # for a knot it never cleared
        b'{"p": 13, "q_tested": 40, "cg_passing": [2, 12, 25, 36, 38, 50, 51, 64, 70, 77], '
        b'"non_family": []}\n',
        b'{"p": 13, "q_tested": 40, "cg_passing": [25, 36, 38, 50, 51, 64, 70, 77], '
        b'"non_family": []}\n',
        # nested deeper than the recursion limit: json.loads raises RecursionError
        b"[" * 200_000 + b"\n",
        # p = 13's real record, reformatted: a line is a record only if it is
        # byte for byte the line the scan writes
        b'{"p":13,"q_tested":40,"cg_passing":[12,25,36,38,50,51,64,70,77],"non_family":[]}\n',
        b'{"q_tested": 40, "p": 13, "cg_passing": [12, 25, 36, 38, 50, 51, 64, 70, 77], '
        b'"non_family": []}\n',
        b'{"p": 13, "q_tested": 40, "cg_passing": [12, 25, 36, 38, 50, 51, 64, 70, 77], '
        b'"non_family": [], "audit": false}\n',
        b'{"p": 13, "q_tested": 40, "cg_passing": [12, 25, 36, 38, 50, 51, 64, 70, 77], '
        b'"non_family": []} \n',
        # p = 13's real record with a bool, a float, a list or an int past int64
        # among its q; true reads as the non-family q = 1 in the int64 array, so
        # only the rebuilt record's bytes tell it apart
        b'{"p": 13, "q_tested": 40, "cg_passing": [true, 12, 25, 36, 38, 50, 51, 64, 70, 77], '
        b'"non_family": [1]}\n',
        b'{"p": 13, "q_tested": 40, "cg_passing": [12, 25.0, 36, 38, 50, 51, 64, 70, 77], '
        b'"non_family": []}\n',
        b'{"p": 13, "q_tested": 40, "cg_passing": [[12], 25, 36, 38, 50, 51, 64, 70, 77], '
        b'"non_family": []}\n',
        b'{"p": 13, "q_tested": 40, "cg_passing": [12, 25, 36, 38, 50, 51, 64, 70, 77, '
        b'9223372036854775808], "non_family": []}\n',
    ],
)
def test_scan_resume_stops_at_a_non_record_line(tmp_path, tail):
    path = tmp_path / "ck.jsonl"
    recs = conjecture_scan(3, 11, checkpoint=str(path))
    full_bytes = path.read_bytes()
    path.write_bytes(full_bytes + tail)
    assert conjecture_scan(3, 11, checkpoint=str(path)) == recs
    assert path.read_bytes() == full_bytes


# the first record of a 3..11 scan, with compact separators
_COMPACT_P3 = b'{"p":3,"q_tested":2,"cg_passing":[2],"non_family":[]}\n'


def test_every_scan_record_reloads_equal():
    recs = conjecture_scan(3, 99)
    for rec in recs:
        assert ScanRecord.from_json_line(rec.to_json_line() + "\n") == rec, rec.p
    assert json.loads(_COMPACT_P3) == json.loads(recs[0].to_json_line())


@pytest.mark.parametrize(
    "content",
    [
        b"scan notes\nresume from p = 11\n",
        b"[3, 5, 7]\n",
        _COMPACT_P3,
        # a lone torn line holds no finished p
        b'{"p": 3, "q_te',
    ],
)
def test_resume_refuses_a_file_the_scan_did_not_write(tmp_path, content):
    path = tmp_path / "ck.jsonl"
    path.write_bytes(content)
    with pytest.raises(DomainError, match="cannot resume a scan"):
        conjecture_scan(3, 11, checkpoint=str(path))
    assert path.read_bytes() == content


def _count_scans(monkeypatch):
    """Patch the serial scan of one p to record each p it scans, and return the list."""
    real, scanned = enumeration._scan_single_p, []

    def counted(p):
        scanned.append(p)
        return real(p)

    monkeypatch.setattr(enumeration, "_scan_single_p", counted)
    return scanned


def test_a_blank_line_ends_the_valid_prefix(monkeypatch, tmp_path):
    fresh = tmp_path / "fresh.jsonl"
    conjecture_scan(3, 11, checkpoint=str(fresh))
    lines = fresh.read_bytes().splitlines(keepends=True)
    # p = 3 and 5, a blank line, then p = 7, 9 and 11: the scan writes no blank
    # line, so the records after it are not taken back but rescanned
    path = tmp_path / "ck.jsonl"
    path.write_bytes(b"".join(lines[:2]) + b"\n" + b"".join(lines[2:]))
    scanned = _count_scans(monkeypatch)
    conjecture_scan(3, 11, checkpoint=str(path))
    assert scanned == [7, 9, 11]
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("kept", [0, 2])
def test_a_checkpoint_that_cannot_be_rewritten_fails_before_any_p(monkeypatch, tmp_path, kept):
    fresh = tmp_path / "fresh.jsonl"
    conjecture_scan(3, 11, checkpoint=str(fresh))
    path = tmp_path / "ck.jsonl"
    prefix = b"".join(fresh.read_bytes().splitlines(keepends=True)[:kept])
    if kept:
        path.write_bytes(prefix)
    (tmp_path / "ck.jsonl.tmp").mkdir()
    scanned = _count_scans(monkeypatch)
    with pytest.raises(DomainError, match="cannot write checkpoint"):
        conjecture_scan(3, 11, checkpoint=str(path))
    assert scanned == []
    assert path.read_bytes() == prefix if kept else not path.exists()


def test_scan_checkpoint_io_error(tmp_path):
    with pytest.raises(DomainError):
        conjecture_scan(3, 5, checkpoint=str(tmp_path / "no" / "dir" / "ck.jsonl"))


def test_bulk_orbit_selection_matches_pow():
    # composite p included, where q may share a prime with p without being a
    # multiple of p; 525 = 3 * 5^2 * 7 and 1001 = 7 * 11 * 13 lift the inverse
    # table through repeated and distinct prime factors
    for p in [*range(3, 100, 2), 525, 1001]:
        p2 = p * p
        expected = []
        for q in range(1, p2):
            if gcd(q, p) != 1:
                continue
            inv = pow(q, -1, p2)
            if q == min(q, inv, p2 - q, p2 - inv):
                expected.append(q)
        assert np.concatenate(list(_tested_blocks(p))).tolist() == expected, p


def test_orbit_count_is_the_number_of_q_tested():
    # Burnside's count, with every prime factor 1 mod 4 (5, 13, 65, 325) or not
    for p in [*range(3, 402, 2), 4001]:
        assert _orbit_count(p) == sum(map(len, _tested_blocks(p))), p
    assert _orbit_count(4001) == 4_001_001


def test_scan_raises_when_orbit_selection_miscounts(monkeypatch):
    real = casson_gordon._scan_windows
    # one q lost from the count of each window: p = 11 has one and tests 27 q, not 28
    monkeypatch.setattr(casson_gordon, "_scan_windows", lambda p: ((n - 1, kept) for n, kept in real(p)))
    with pytest.raises(InternalError, match="tested 27 q, not 28"):
        _scan_single_p(11)


def test_scan_by_small_blocks_gives_the_same_records(monkeypatch):
    whole = {p: _scan_single_p(p) for p in range(3, 100, 2)}
    monkeypatch.setattr(casson_gordon, "_BATCH", 64)
    for p in range(3, 100, 2):
        assert _scan_single_p(p) == whole[p], p


def test_each_scan_block_is_one_first_round_window(monkeypatch):
    # p = 1001 has 2 blocks of _BATCH consecutive q below p^2 / 2: one sweep each
    # on the numpy route, one scan_window call each on the C route
    sweep, window = casson_gordon._first_round_sums, casson_gordon._scan_window
    calls = []
    monkeypatch.setattr(
        casson_gordon, "_first_round_sums", lambda p, q: calls.append(len(q)) or sweep(p, q)
    )

    def scan_window(*args):
        tested, survivors = window(*args)
        calls.append(tested)
        return tested, survivors

    monkeypatch.setattr(casson_gordon, "_scan_window", scan_window)
    record = _scan_single_p(1001)
    assert len(calls) == 2 and sum(calls) == record.q_tested


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("p", [3, 1001, 2001])
def test_scan_windows_take_the_library_where_it_loads_and_numpy_elsewhere(monkeypatch, p):
    # _scan_windows is the one place the scan chooses a route: scan_window alone
    # where the library loads, _window_survivors alone where it does not, with
    # the same tested count and survivors in every window
    calls = []
    window, survivors = casson_gordon._scan_window, casson_gordon._window_survivors
    monkeypatch.setattr(casson_gordon, "_scan_window", lambda *a: calls.append("C") or window(*a))
    monkeypatch.setattr(casson_gordon, "_window_survivors", lambda *a: calls.append("numpy") or survivors(*a))

    def windows():
        calls.clear()
        return [(n, kept.tolist()) for n, kept in casson_gordon._scan_windows(p)]

    compiled = windows()
    assert calls == ["C"] * len(list(casson_gordon._windows(p)))
    monkeypatch.setattr(casson_gordon, "_compiled_lanes", lambda: None)
    assert windows() == compiled
    assert calls == ["numpy"] * len(compiled)


def test_scan_matches_the_benchmark_reference_digest():
    # perfbench/reference.json pins the scan of p = 3..151; the benchmark reads it too
    ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    expected = json.loads(ref.read_text())["scan_sha256"]["3..151"]
    lines = "".join(rec.to_json_line() + "\n" for rec in conjecture_scan(3, 151))
    assert hashlib.sha256(lines.encode()).hexdigest() == expected


@pytest.mark.parametrize(
    "wrong, match",
    [
        (lambda qs, kept: kept[1:], "rejects the ribbon knot 121/10"),
        (lambda qs, kept: np.setdiff1d(kept, [46]), "rejects the ribbon knot 121/46"),
        (lambda qs, kept: qs[:0], "rejects the ribbon knot"),
        # 121/1 fails at r = 1, found by the floor-sum sigma
        (lambda qs, kept: qs, "passes 121/1, which the floor-sum sigma rejects"),
    ],
    ids=["drops-p-1", "drops-46", "rejects-all", "passes-all"],
)
def test_scan_raises_when_the_batched_kernel_disagrees(monkeypatch, wrong, match):
    # each window's survivors replaced, given the q it tests
    real = casson_gordon._scan_windows
    monkeypatch.setattr(
        casson_gordon,
        "_scan_windows",
        lambda p: ((n, wrong(qs, kept)) for (n, kept), qs in zip(real(p), _tested_blocks(p))),
    )
    with pytest.raises(InternalError, match=match):
        _scan_single_p(11)


def test_scan_raises_when_the_report_differs_from_the_floor_sum(monkeypatch):
    # a report that still passes, with the sign of its term at r = (p-1)/2 flipped
    real = enumeration.cg_condition

    def flipped(p, q):
        report = real(p, q)
        terms = list(report.terms)
        t = terms[(p - 1) // 2 - 1]
        terms[(p - 1) // 2 - 1] = SigmaTerm(t.r, t.area_halves, t.quarters, -t.sigma)
        return dataclasses.replace(report, terms=tuple(terms))

    monkeypatch.setattr(enumeration, "cg_condition", flipped)
    with pytest.raises(InternalError, match="report of 121/10 differs from the floor-sum sigma"):
        _scan_single_p(11)


class RecordingConn:
    """A worker's pipe end that records, in ``sent``, what the scheduler sends it."""

    def __init__(self, conn, sent):
        self.conn, self.sent = conn, sent

    def fileno(self):
        return self.conn.fileno()

    def recv(self):
        return self.conn.recv()

    def close(self):
        self.conn.close()

    def send(self, p):
        self.sent.append(p)
        self.conn.send(p)


def test_scan_dispatches_largest_p_first(monkeypatch):
    real, sent = enumeration._start_worker, []

    def recording_worker():
        proc, conn = real()
        return proc, RecordingConn(conn, sent)

    monkeypatch.setattr(enumeration, "_start_worker", recording_worker)
    recs = conjecture_scan(3, 13, jobs=2)
    # each worker gets the next p as its record comes back, then None
    assert [p for p in sent if p is not None] == [13, 11, 9, 7, 5, 3]
    assert sent.count(None) == 2
    assert [r.p for r in recs] == [3, 5, 7, 9, 11, 13]
    assert multiprocessing.active_children() == []


def test_scan_runs_a_single_pending_p_in_process(monkeypatch, tmp_path):
    def no_worker():
        raise AssertionError("a worker was started for one p")

    monkeypatch.setattr(enumeration, "_start_worker", no_worker)
    path = tmp_path / "ck.jsonl"
    conjecture_scan(3, 9, checkpoint=str(path))
    assert [r.p for r in conjecture_scan(3, 11, checkpoint=str(path), jobs=2)] == [3, 5, 7, 9, 11]


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a patched _scan_single_p reaches the workers only when they fork",
)


@needs_fork
@pytest.mark.parametrize("error", [InternalError, DomainError])
def test_a_worker_error_reaches_the_caller_intact(monkeypatch, tmp_path, error):
    real = enumeration._scan_single_p

    def failing(p):
        if p == 21:
            raise error(f"no record for p = {p}")
        return real(p)

    monkeypatch.setattr(enumeration, "_scan_single_p", failing)
    path = tmp_path / "ck.jsonl"
    seen = []
    with pytest.raises(error) as caught:
        conjecture_scan(3, 41, checkpoint=str(path), jobs=2, progress=seen.append)
    assert type(caught.value) is error and str(caught.value) == "no record for p = 21"
    assert "in failing" in str(caught.value.__cause__)  # the worker's traceback
    assert multiprocessing.active_children() == []
    # 21 is dispatched as the 9th record comes back, largest first from 41
    assert len(seen) >= 9 and all(rec == real(rec.p) for rec in seen)
    on_disk = [ScanRecord.from_json_line(line) for line in path.read_text().splitlines()]
    assert on_disk == seen


@needs_fork
def test_a_worker_gone_before_its_next_p_raises_internal_error(monkeypatch):
    # each worker sends one record and exits while progress sleeps, so the
    # next p goes into a closed pipe: that p is reported, not the pipe error
    def one_record_worker(conn):
        conn.send(enumeration._scan_single_p(conn.recv()))
        os._exit(3)

    monkeypatch.setattr(enumeration, "_worker", one_record_worker)
    with pytest.raises(InternalError, match=r"^the scan worker for p = 3[57] died \(exit code 3\)$"):
        conjecture_scan(3, 41, jobs=2, progress=lambda rec: time.sleep(0.2))
    assert multiprocessing.active_children() == []


def _is_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc ")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _is_glibc(), reason="mallopt is glibc's")
def test_keep_freed_memory_applies_both_settings():
    # in a process of its own: the setting is for the whole process
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "from twobridge import enumeration; print(enumeration._keep_freed_memory())"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out == "(1, 1)\n"


def _no_cdll(*args, **kwargs):
    raise AssertionError("mallopt was looked up")


@pytest.fixture
def fresh_mallopt():
    # the handle is made once per process: look it up afresh under the test's
    # patches, and leave none made under them for later tests
    enumeration._mallopt.cache_clear()
    yield
    enumeration._mallopt.cache_clear()


def _raises(exc):
    def confstr(name):
        raise exc

    return confstr


@pytest.mark.parametrize(
    "confstr",
    [_raises(ValueError("unrecognized configuration name")), _raises(OSError(22, "EINVAL")),
     lambda name: None, lambda name: "musl libc 1.2.4", None],
)
def test_keep_freed_memory_is_a_no_op_off_glibc(monkeypatch, fresh_mallopt, confstr):
    import ctypes

    if confstr is None:  # a platform without confstr
        monkeypatch.delattr(os, "confstr", raising=False)
    else:
        monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", _no_cdll)
    assert enumeration._keep_freed_memory() == ()


@pytest.mark.parametrize("cdll", [lambda name: object(), _raises(OSError("no libc handle"))])
def test_keep_freed_memory_is_a_no_op_without_mallopt(monkeypatch, fresh_mallopt, cdll):
    import ctypes

    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert enumeration._keep_freed_memory() == ()


def test_an_in_process_scan_keeps_the_allocator(monkeypatch):
    calls = []
    monkeypatch.setattr(enumeration, "_keep_freed_memory", lambda: calls.append(os.getpid()))
    assert conjecture_scan(3, 31)[-1].p == 31
    assert calls == []


@needs_fork
def test_each_scan_worker_keeps_freed_memory(monkeypatch, tmp_path):
    def keep():
        (tmp_path / str(os.getpid())).touch()

    monkeypatch.setattr(enumeration, "_keep_freed_memory", keep)
    assert conjecture_scan(3, 31, jobs=2) == conjecture_scan(3, 31)
    pids = {int(path.name) for path in tmp_path.iterdir()}
    assert len(pids) == 2 and os.getpid() not in pids


@needs_fork
def test_a_parallel_scan_loads_the_library_once_before_the_workers_fork(monkeypatch):
    # counted across processes: a worker that forked before the load would try
    # again in its own process, library or None (no compiler) alike
    loads = multiprocessing.Value("i", 0)
    real = casson_gordon._load_lanes

    def load():
        with loads.get_lock():
            loads.value += 1
        return real()

    monkeypatch.setattr(casson_gordon, "_load_lanes", load)
    casson_gordon._compiled_lanes.cache_clear()
    try:
        assert conjecture_scan(3, 61, jobs=2)[-1].p == 61
    finally:
        casson_gordon._compiled_lanes.cache_clear()
    assert loads.value == 1


@needs_fork
@pytest.mark.skipif(not _is_glibc(), reason="mallopt is glibc's")
def test_a_parallel_scan_makes_the_mallopt_handle_once_before_the_workers_fork(
    monkeypatch, fresh_mallopt
):
    # counted across processes, with the pid of the last lookup: a worker that
    # forked before the parent made the handle would look mallopt up in its own
    import ctypes

    lookups = multiprocessing.Array("q", 2)
    real = ctypes.CDLL

    def cdll(name, *args, **kwargs):
        if name is None:  # the process's own symbols, where mallopt is
            with lookups.get_lock():
                lookups[0] += 1
                lookups[1] = os.getpid()
        return real(name, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert conjecture_scan(3, 61, jobs=2)[-1].p == 61
    assert lookups[:] == [1, os.getpid()]


class Stop(Exception):
    pass


@pytest.mark.parametrize("k", [1, 4])
def test_interrupted_parallel_scan_keeps_what_progress_saw(tmp_path, k):
    full_path = tmp_path / "full.jsonl"
    conjecture_scan(3, 41, checkpoint=str(full_path))
    full_bytes = full_path.read_bytes()

    path = tmp_path / "ck.jsonl"
    seen = []

    def progress(rec):
        seen.append(rec.p)
        if len(seen) == k:
            raise Stop

    with pytest.raises(Stop):
        conjecture_scan(3, 41, checkpoint=str(path), jobs=2, progress=progress)
    assert multiprocessing.active_children() == []
    on_disk = [ScanRecord.from_json_line(line).p for line in path.read_text().splitlines()]
    assert set(seen) <= set(on_disk)
    conjecture_scan(3, 41, checkpoint=str(path), jobs=2)
    assert path.read_bytes() == full_bytes


def test_narrower_resume_keeps_records_outside_the_range(tmp_path):
    path = tmp_path / "ck.jsonl"
    conjecture_scan(3, 41, checkpoint=str(path))
    full_bytes = path.read_bytes()
    assert len(full_bytes.splitlines()) == 20
    recs = conjecture_scan(31, 41, checkpoint=str(path), jobs=2)
    assert [r.p for r in recs] == [31, 33, 35, 37, 39, 41]
    assert path.read_bytes() == full_bytes


def test_resume_drops_a_torn_tail_before_appending(tmp_path):
    path = tmp_path / "ck.jsonl"
    conjecture_scan(3, 15, checkpoint=str(path))
    full_bytes = path.read_bytes()
    lines = full_bytes.splitlines(keepends=True)
    # p = 3, 7 and a torn 9, as an interrupted parallel run may leave them
    path.write_bytes(lines[0] + lines[2] + lines[3][:-5])

    def progress(rec):
        if rec.p == 15:
            raise Stop

    with pytest.raises(Stop):
        conjecture_scan(3, 15, checkpoint=str(path), progress=progress)
    on_disk = [ScanRecord.from_json_line(line).p for line in path.read_text().splitlines()]
    assert on_disk == [3, 7, 5, 9, 11, 13, 15]
    conjecture_scan(3, 15, checkpoint=str(path))
    assert path.read_bytes() == full_bytes


def test_resume_refuses_an_audit_checkpoint(tmp_path):
    # p = 21: an audit tested all 21 * phi(21) = 252 coprime q
    path = tmp_path / "ck.jsonl"
    path.write_bytes(b'{"p": 21, "q_tested": 252, "cg_passing": [20, 22], "non_family": []}\n')
    before = path.read_bytes()
    with pytest.raises(DomainError, match="cannot resume"):
        conjecture_scan(21, 21, checkpoint=str(path))
    assert path.read_bytes() == before


def test_scan_refuses_p_max_above_the_int64_guard(tmp_path):
    path = tmp_path / "ck.jsonl"
    path.write_bytes(b'{"p": 3, "q_te')
    with pytest.raises(DomainError, match="INT64_MAX_P"):
        conjecture_scan(3, INT64_MAX_P + 1, checkpoint=str(path))
    assert path.read_bytes() == b'{"p": 3, "q_te'
    with pytest.raises(DomainError, match="INT64_MAX_P"):
        conjecture_scan(3, INT64_MAX_P + 1, checkpoint=str(tmp_path / "new.jsonl"))
    assert not (tmp_path / "new.jsonl").exists()
