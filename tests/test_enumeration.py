import hashlib
import json
import multiprocessing
import os
import time
from collections import Counter
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from twobridge import casson_gordon, enumeration
from twobridge.casson_gordon import INT64_MAX_P, cg_survivors
from twobridge.conway import ConwayWord, canonical_class, cf_eval
from twobridge.enumeration import (
    ScanRecord,
    _scan_single_p,
    _tested_blocks,
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
    ],
)
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


def test_scan_by_small_blocks_gives_the_same_records(monkeypatch):
    whole = {p: _scan_single_p(p) for p in range(3, 100, 2)}
    monkeypatch.setattr(enumeration, "SCAN_BLOCK", 64)
    for p in range(3, 100, 2):
        assert _scan_single_p(p) == whole[p], p


def test_each_scan_block_is_one_first_round_window(monkeypatch):
    # p = 1001 has 2 blocks of SCAN_BLOCK consecutive q below p^2 / 2
    assert enumeration.SCAN_BLOCK == casson_gordon._BATCH
    real = casson_gordon._first_round_sums
    calls = []
    monkeypatch.setattr(
        casson_gordon, "_first_round_sums", lambda p, q: calls.append(len(q)) or real(p, q)
    )
    record = _scan_single_p(1001)
    assert len(calls) == 2 and sum(calls) == record.q_tested


def test_scan_matches_the_benchmark_reference_digest():
    # perfbench/reference.json pins the scan of p = 3..151; the benchmark reads it too
    ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    expected = json.loads(ref.read_text())["scan_sha256"]["3..151"]
    lines = "".join(rec.to_json_line() + "\n" for rec in conjecture_scan(3, 151))
    assert hashlib.sha256(lines.encode()).hexdigest() == expected


@pytest.mark.parametrize(
    "wrong",
    [
        lambda p, qs, real: real(p, qs)[1:],  # loses the ribbon knot p^2/(p-1)
        lambda p, qs, real: np.setdiff1d(real(p, qs), [46]),  # loses the family knot 121/46
        lambda p, qs, real: qs[:0],  # rejects every q
        lambda p, qs, real: qs,  # passes every q
    ],
    ids=["drops-p-1", "drops-46", "rejects-all", "passes-all"],
)
def test_scan_raises_when_the_batched_kernel_disagrees(monkeypatch, wrong):
    real = enumeration.cg_survivors
    monkeypatch.setattr(enumeration, "cg_survivors", lambda p, qs: wrong(p, qs, real))
    with pytest.raises(InternalError):
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


def test_a_record_tells_its_mode():
    # an old audit tested all p * phi(p) coprime q, one q per orbit at most half
    for p in range(3, 100, 2):
        assert not ScanRecord(p, sum(map(len, _tested_blocks(p))), (), ()).audit, p
        assert ScanRecord(p, sum(1 for q in range(1, p * p) if gcd(q, p) == 1), (), ()).audit, p


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
    with pytest.raises(DomainError, match="int64"):
        conjecture_scan(3, INT64_MAX_P + 1, checkpoint=str(path))
    assert path.read_bytes() == b'{"p": 3, "q_te'
    with pytest.raises(DomainError, match="int64"):
        conjecture_scan(3, INT64_MAX_P + 1, checkpoint=str(tmp_path / "new.jsonl"))
    assert not (tmp_path / "new.jsonl").exists()
