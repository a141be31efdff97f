"""Enumeration, the ribbon count table, and the conjecture scan.

Knot classes are mirror-insensitive throughout counting, matching the
convention that chiral pairs count once.  The unknot and even
determinants (2-bridge links) are excluded everywhere.

The scan walks every knot p^2/q in a determinant range, applies the
Casson-Gordon obstruction, and sets the survivors against the family set
:func:`families.family_reps` builds for each p.  Up to orbit that set is
every 2-bridge ribbon knot: Lisca (Geom. Topol. 11 (2007) 429-472) proved
that p^2/q is ribbon iff q is one of three types, and the tests check that
his types give ``family_reps(p)`` for every odd p <= 401.  So "0 outside
the families" is a computational claim: in the range scanned, the
signature condition alone already cuts out the ribbon knots.  A survivor
outside the families would be a non-ribbon knot that the obstruction
misses, not a new ribbon knot.  It is not an error: it is the most
interesting possible output and is reported with full sigma evidence via
``cg-check``.  One
representative per orbit of q modulo p^2 is tested (pass/fail is a knot
invariant), in ascending blocks of :data:`SCAN_BLOCK` consecutive q, so
a worker's memory does not grow with p^2: the least orbit members of a
block are picked in numpy, each inverse mod p^2 lifted once (Hensel)
from a table of inverses mod p, and checked together in int64 by
:func:`casson_gordon.cg_survivors`, so p is at most
:data:`casson_gordon.INT64_MAX_P`.  At every p every family member must
survive (the families are ribbon) and the least survivor is re-derived
by the Python-int :func:`casson_gordon.cg_condition`; a disagreement
raises :class:`InternalError`.

With several jobs the parent runs one worker process per job and sends
each worker one p at a time over its own pipe, largest first, so the
costliest start early and the cheap ones fill the tail; a worker gets its
next p when its record comes back.  An exception raised in a worker is
re-raised in the parent, and a worker that dies raises
:class:`InternalError` naming its p (the CLI exits 2); either way every
worker is stopped.  Records reach the checkpoint (one JSON line per p) as
each p completes, so an interrupted scan loses no finished p; when the
scan ends the file is rewritten in ascending p, and the result is in
ascending p whatever the schedule, so resumed scans finish with
byte-identical output.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from math import gcd, isqrt
from typing import Callable, Iterator

import numpy as np

from .casson_gordon import INT64_MAX_P, cg_condition, cg_survivors, coprime_mask
from .conway import BridgeFraction, KnotClass, is_amphicheiral
# perfbench/spans.py traces cf_eval and canonical_class under this module's
# names as well as conway's, so they stay bound here though nothing calls them
from .conway import canonical_class, cf_eval  # noqa: F401
from .errors import DomainError, InternalError
from .families import build_family_index, family_reps, is_family_member

__all__ = [
    "enumerate_classes",
    "ribbon_table",
    "amphicheiral_crosscheck",
    "conjecture_scan",
    "TableRow",
    "CrosscheckRow",
    "ScanRecord",
]


def _canonical_fractions(max_crossing: int) -> Iterator[tuple[int, int, int]]:
    """(p, q, crossing) once for every 2-bridge knot class of crossing <= max_crossing,
    q being the least member of the class's orbit {+-q, +-q^-1} mod p.

    Every p/q with 0 < q < p coprime has exactly one all-positive expansion
    [a1,...,an] with an >= 2, and its entry sum is the crossing number.  The
    walk runs depth first over these words, left to right, carrying the
    convergents h_i/k_i (h_i = a_i h_(i-1) + h_(i-2), likewise k), so that
    p/q = h_n/k_n.  The reversed word [an,...,a1] evaluates to h_n/h_(n-1),
    and reversing a word inverts q up to sign (h_(n-1) q = +-1 mod p), so the
    orbit is {q, h_(n-1), p - q, p - h_(n-1)} without a modular inverse.  A
    word is yielded when p is odd and q is the least of the four, which is
    q <= h_(n-1): as an >= 2, h_(n-1) <= p/2, so then q <= p - q and
    q <= p - h_(n-1) as well.  Hence q <= p/2, that is a1 >= 2, and words
    starting with 1 are never entered.  Each orbit member has its own word,
    and only the least one's word is yielded.
    """
    # a prefix [a1..ai] is (h_(i-1), h_i, k_(i-1), k_i, entry sum); the empty one first
    stack = [(0, 1, 1, 0, 0)]
    while stack:
        h_prev, h, k_prev, k, total = stack.pop()
        for a in range(2 if total == 0 else 1, max_crossing - total + 1):
            p, q = a * h + h_prev, a * k + k_prev
            if a >= 2 and p & 1 and q <= h:
                yield p, q, total + a
            if total + a + 2 <= max_crossing:  # room for a last entry >= 2
                stack.append((h, p, k, q, total + a))


def enumerate_classes(max_crossing: int) -> set[KnotClass]:
    """All 2-bridge knot classes with crossing number <= max_crossing.

    Mirror images count once and 2-bridge links (even p) are left out.  The
    classes come from :func:`_canonical_fractions`, a walk over the
    all-positive words [a1,...,an] (an >= 2) that carries the convergents
    h_i/k_i.  The word's fraction is p/q = h_n/k_n and the reversed word's
    is p/h_(n-1), with h_(n-1) = +-q^-1 (mod p), so the walk knows each
    orbit {+-q, +-q^-1} without a modular inverse and yields only the word
    of its least q: every class once.  Only those fractions are built, each
    validated by :class:`BridgeFraction`; a class yielded twice raises
    :class:`InternalError`.
    """
    if not 3 <= max_crossing <= 26:
        raise DomainError(f"crossing bound must be in 3..26, got {max_crossing}")
    classes: set[KnotClass] = set()
    yielded = 0
    for p, q, crossing in _canonical_fractions(max_crossing):
        frac = BridgeFraction(p, q)
        classes.add(KnotClass(frac, p, crossing, is_amphicheiral(frac)))
        yielded += 1
    if yielded != len(classes):
        raise InternalError(f"the class walk yielded {yielded - len(classes)} classes twice")
    return classes


@dataclass(frozen=True)
class TableRow:
    """Ribbon-knot counts at one crossing number.

    Classes in family 1 (including the family 1/2 overlap) are counted
    under family1; family2 holds the family-2-only classes.
    """

    crossing: int
    family0: int
    family1: int
    family2: int
    total: int

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def ribbon_table(max_crossing: int) -> list[TableRow]:
    """Counts of family knot classes per crossing number 3..max_crossing.

    Every class is cross-validated against the arithmetic membership
    conditions; a generator/conditions disagreement or an overlap between
    family 0 and families 1/2 raises a diagnostic InternalError rather
    than being silently absorbed.
    """
    if not 3 <= max_crossing <= 26:
        raise DomainError(f"crossing bound must be in 3..26, got {max_crossing}")
    index = build_family_index(max_crossing)
    for cls in index:
        p = isqrt(cls.determinant)
        if p * p != cls.determinant:
            raise InternalError(f"family class {cls.canonical} has non-square determinant")
        if not is_family_member(p, cls.canonical.q, family_lookup=False).member:
            raise InternalError(
                f"generated class {cls.canonical} fails the membership conditions: disagreement"
            )
    rows = []
    for c in range(3, max_crossing + 1):
        at_c = [(cls, fams) for cls, fams in index.items() if cls.crossing == c]
        f0 = sum(1 for _, fams in at_c if 0 in fams)
        f1 = sum(1 for _, fams in at_c if 1 in fams)
        f2 = sum(1 for _, fams in at_c if 2 in fams and 1 not in fams)
        total = len(at_c)
        if f0 + f1 + f2 != total:
            raise InternalError(
                f"family 0 overlaps families 1/2 at crossing {c}: "
                f"{[str(cls.canonical) for cls, fams in at_c if 0 in fams and len(fams) > 1]}"
            )
        rows.append(TableRow(c, f0, f1, f2, total))
    return rows


@dataclass(frozen=True)
class CrosscheckRow:
    crossing: int
    amphicheiral: int
    family0_at_next: int
    equal: bool

    def to_json_dict(self) -> dict:
        return {
            "crossing": self.crossing,
            "amphicheiral": self.amphicheiral,
            "family0_at_crossing_plus_2": self.family0_at_next,
            "equal": self.equal,
        }


def amphicheiral_crosscheck(max_crossing: int) -> list[CrosscheckRow]:
    """Amphicheiral class counts at even c versus family-0 counts at c+2.

    A class p/q is amphicheiral iff q^2 = -1 (mod p).  The counts are taken
    straight from :func:`_canonical_fractions`, without building a set of
    classes: the walk yields every class once, with the least q of its
    orbit, which it reads off the convergents (the reversed word's q is
    h_(n-1) = +-q^-1 mod p) instead of taking a modular inverse.  Family-0
    classes at c+2 come from :func:`families.build_family_index`.
    """
    if not 4 <= max_crossing <= 24:
        raise DomainError(f"crossing bound must be in 4..24, got {max_crossing}")
    amph: Counter[int] = Counter()
    for p, q, crossing in _canonical_fractions(max_crossing):
        if (q * q + 1) % p == 0:
            amph[crossing] += 1
    index = build_family_index(max_crossing + 2)
    rows = []
    for c in range(4, max_crossing + 1, 2):
        fam0 = sum(1 for cls, fams in index.items() if cls.crossing == c + 2 and 0 in fams)
        rows.append(CrosscheckRow(c, amph[c], fam0, amph[c] == fam0))
    return rows


@dataclass(frozen=True)
class ScanRecord:
    """Scan outcome for one determinant p^2.

    ``cg_passing`` lists the tested q surviving the obstruction and
    ``non_family`` the survivors outside the three families.  The families
    hold every 2-bridge ribbon knot (Lisca, see the module docstring), so a
    ``non_family`` q would be a non-ribbon knot the obstruction misses, and
    empty means that at p the obstruction alone rules out every knot that
    is not ribbon.
    """

    p: int
    q_tested: int
    cg_passing: tuple[int, ...]
    non_family: tuple[int, ...]

    @property
    def audit(self) -> bool:
        """Whether the record tests all p*phi(p) knots (the removed ``--audit`` mode);
        one q per orbit tests at most half as many, every orbit having >= 2 members."""
        return self.q_tested == self.p * int(coprime_mask(np.arange(self.p), self.p).sum())

    def to_json_line(self) -> str:
        return json.dumps(vars(self))

    @classmethod
    def from_json_line(cls, line: str) -> "ScanRecord":
        """The record a checkpoint line holds, read as outside input: nothing is coerced.

        p and q_tested must be ints, both lists lists of ints (bools are none) and p odd
        in 3..INT64_MAX_P; any other line raises ValueError, KeyError or TypeError."""
        obj = json.loads(line)
        p, tested = obj["p"], obj["q_tested"]
        passing, non_family = obj["cg_passing"], obj["non_family"]
        if not (
            type(p) is type(tested) is int
            and p % 2 == 1
            and 3 <= p <= INT64_MAX_P
            and type(passing) is type(non_family) is list
            and all(type(q) is int for q in passing + non_family)
        ):
            raise ValueError(f"not a scan record: {line.rstrip()}")
        return cls(p, tested, tuple(passing), tuple(non_family))


# consecutive q per block of the scan's orbit selection and kernel call,
# which bounds a worker's memory whatever p is
SCAN_BLOCK = 1 << 18


def _tested_blocks(p: int) -> Iterator[np.ndarray]:
    """The q the scan tests at p, ascending, from blocks of SCAN_BLOCK consecutive q:
    the least member of each orbit {q, q^-1, -q, -q^-1} mod p^2."""
    p2 = p * p
    table = np.array([pow(x, -1, p) if gcd(x, p) == 1 else 0 for x in range(p)], dtype=np.int64)
    # the least member of an orbit is below p^2/2 (q < p^2 - q, p^2 being odd)
    end = p2 // 2 + 1
    for lo in range(1, end, SCAN_BLOCK):
        q = np.arange(lo, min(lo + SCAN_BLOCK, end), dtype=np.int64)
        q = q[coprime_mask(q, p)]
        # Hensel: u = q^-1 mod p gives q u = 1 + k p, and q u (2 - q u) = 1 - k^2 p^2;
        # both products stay below p^3, far inside int64 for p <= INT64_MAX_P
        u = table[q % p]
        inv = u * ((2 - q * u) % p2) % p2
        q = q[(q <= inv) & (q <= p2 - inv)]
        del u, inv  # not held while the caller runs the kernel on q
        yield q


def _scan_single_p(p: int) -> ScanRecord:
    tested = 0
    passing: list[int] = []
    for qs in _tested_blocks(p):
        tested += len(qs)
        passing += cg_survivors(p, qs).tolist()
    fam = family_reps(p)
    # tie the batched kernel to the ribbon families and the Python-int kernel at
    # every p: family knots are ribbon, so each passes at every r, and the
    # least survivor must pass cg_condition
    missing = fam.difference(passing)
    if missing:
        raise InternalError(f"the batched kernel rejects the ribbon knot {p * p}/{min(missing)}")
    if not cg_condition(p, passing[0]).passes:
        raise InternalError(
            f"the batched kernel passes {p * p}/{passing[0]}, which cg_condition rejects"
        )
    non_family = [q for q in passing if q not in fam]
    return ScanRecord(p, tested, tuple(passing), tuple(non_family))


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a scan worker, as its text."""

    def __str__(self) -> str:
        return self.args[0]


def _worker(conn) -> None:
    """A scan worker: scans each p the parent sends until it sends None, and
    sends back the record, or the exception :func:`_scan_single_p` raised
    with the text of its traceback."""
    # ^C reaches the whole process group; the parent alone handles it and stops the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while (p := conn.recv()) is not None:
        try:
            reply = _scan_single_p(p)
        except Exception as exc:
            import traceback  # only here, on the error path

            reply = (exc, traceback.format_exc())
        conn.send(reply)


def _start_worker():
    """A started :func:`_worker` process and the parent's end of its duplex pipe."""
    ours, theirs = multiprocessing.Pipe()
    proc = multiprocessing.Process(target=_worker, args=(theirs,), daemon=True)
    proc.start()
    theirs.close()  # the worker holds the only other end, so its death is an EOF here
    return proc, ours


def _scan_in_workers(todo: Iterator[int], jobs: int, finish: Callable[[ScanRecord], None]) -> None:
    """Scan the p of ``todo`` on ``jobs`` worker processes, sending them in
    that order, and pass each record to ``finish`` as it comes back.

    A worker's exception is re-raised here, and a worker that dies raises
    :class:`InternalError` naming its p.  Every worker is stopped and
    reaped before this returns or raises.
    """
    # imported here, as it imports subprocess and locale, which import twobridge need not
    from multiprocessing.connection import wait

    # multiprocessing.Pool's handler thread spun while a result sat unread
    # (Pool._maintain_pool ran 797-2,549 times for the 75 records of p = 3..151
    # on a 2-core machine) and a dead worker hung it; here the parent wakes once per record
    workers = {}  # the pipe end of each worker -> its process
    held = {}  # the pipe end of each busy worker -> the p it scans
    try:
        for p in islice(todo, jobs):
            proc, conn = _start_worker()
            workers[conn] = proc
            conn.send(p)
            held[conn] = p
        while held:
            for conn in wait(list(held)):
                p = held.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    proc = workers[conn]
                    proc.join(1)  # its pipe closed as it exited: the code is there or soon will be
                    raise InternalError(
                        f"the scan worker for p = {p} died (exit code {proc.exitcode})"
                    ) from None
                if isinstance(reply, tuple):
                    exc, trace = reply
                    raise exc from _WorkerTraceback(trace)
                finish(reply)
                p = next(todo, None)
                try:
                    conn.send(p)
                except OSError:
                    pass  # the worker is gone: if it was sent a p, the next wait reports it
                if p is not None:
                    held[conn] = p
    finally:
        for conn, proc in workers.items():
            proc.terminate()
            proc.join()
            conn.close()


def _load_checkpoint(path: str) -> tuple[dict[int, ScanRecord], int]:
    """The records of a checkpoint's valid prefix by p, and the prefix's length in bytes.

    The prefix ends before the first line that is not a whole record with
    its newline: a torn tail from an interrupted write, or not a record.
    """
    records: dict[int, ScanRecord] = {}
    size = 0
    try:
        with open(path, "rb") as fh:
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break
                if raw.strip():
                    try:
                        rec = ScanRecord.from_json_line(raw.decode("utf-8"))
                    except (KeyError, TypeError, ValueError):
                        break
                    records.setdefault(rec.p, rec)
                size += len(raw)
    except FileNotFoundError:
        return {}, 0
    except OSError as exc:
        raise DomainError(f"cannot read checkpoint {path}: {exc}") from exc
    return records, size


def _write_checkpoint(path: str, records: dict[int, ScanRecord]) -> None:
    """Replace the checkpoint by ``records`` in ascending p, through a temp file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(records[p].to_json_line() + "\n" for p in sorted(records))
        os.replace(tmp, path)
    except OSError as exc:
        raise DomainError(f"cannot write checkpoint {path}: {exc}") from exc


def conjecture_scan(
    p_min: int,
    p_max: int,
    checkpoint: str | None = None,
    jobs: int | None = None,
    progress: Callable[[ScanRecord], None] | None = None,
) -> list[ScanRecord]:
    """Scan every knot p^2/q for odd p in [p_min, p_max].

    Even bounds are rounded inward.  ``jobs`` runs that many worker
    processes, and the parent sends each one p at a time over a pipe,
    largest p first, the next as its record comes back (None or 1 means
    serial, and a single pending p always runs in-process); the result is
    in ascending p order either way.  An exception raised in a worker
    reaches the caller with its type and message; a worker that dies
    raises :class:`InternalError` naming its p, which the CLI reports
    with exit status 2.  No worker outlives the call, whether it returns
    or raises (``progress`` included).  ``progress`` sees the records
    loaded from the checkpoint, then every new record as its p completes.

    With ``checkpoint``, the file's valid prefix is reused (records
    outside [p_min, p_max] included), anything after it is cut off, and
    each new record is appended and flushed as its p completes, so an
    interrupted scan loses no finished p.  When the scan ends the file
    is rewritten in ascending p through a temp file and ``os.replace``,
    so a resumed scan finishes with byte-identical content.  A p_max above
    :data:`casson_gordon.INT64_MAX_P`, and a checkpoint holding a record
    that tests every q (written by the removed ``--audit`` mode), are
    refused with :class:`DomainError` before the file is touched.
    """
    if p_min % 2 == 0:
        p_min += 1
    if p_max % 2 == 0:
        p_max -= 1
    if not 3 <= p_min <= p_max:
        raise DomainError(f"need 3 <= p_min <= p_max after rounding, got {p_min}..{p_max}")
    if p_max > INT64_MAX_P:
        raise DomainError(f"need p_max <= {INT64_MAX_P}, the kernel's int64 bound, got {p_max}")

    records, valid = _load_checkpoint(checkpoint) if checkpoint else ({}, 0)
    audited = sorted(p for p, rec in records.items() if rec.audit)
    if audited:
        raise DomainError(
            f"checkpoint {checkpoint} holds records that test every q (p={audited[0]}), "
            "so it cannot resume a scan of one q per orbit"
        )
    all_p = list(range(p_min, p_max + 1, 2))
    pending = [p for p in all_p if p not in records]

    out = None
    if checkpoint:
        try:
            out = open(checkpoint, "ab")
            out.truncate(valid)
        except OSError as exc:
            if out is not None:
                out.close()
            raise DomainError(f"cannot write checkpoint {checkpoint}: {exc}") from exc

    def finish(rec: ScanRecord) -> None:
        records[rec.p] = rec
        if out is not None:
            out.write(rec.to_json_line().encode("utf-8") + b"\n")
            out.flush()
        if progress is not None:
            progress(rec)

    try:
        if progress is not None:
            for p in all_p:
                if p in records:
                    progress(records[p])
        if jobs is not None and jobs > 1 and len(pending) > 1:
            # largest (costliest) p first, so the small ones fill the tail
            _scan_in_workers(iter(pending[::-1]), min(jobs, len(pending)), finish)
        else:
            for p in pending:
                finish(_scan_single_p(p))
    finally:
        if out is not None:
            out.close()
    if checkpoint:
        _write_checkpoint(checkpoint, records)
    return [records[p] for p in all_p]
