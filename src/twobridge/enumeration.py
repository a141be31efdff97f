"""Enumeration, the ribbon count table, and the conjecture scan.

Knot classes are mirror-insensitive throughout counting, matching the
convention that chiral pairs count once.  The unknot and even
determinants (2-bridge links) are excluded everywhere.

The scan walks every knot p^2/q in a determinant range, applies the
Casson-Gordon obstruction, and tests every survivor for family
membership.  A survivor outside the families is not an error: it is the
most interesting possible output and is reported with full sigma
evidence via ``cg-check``.  One representative per orbit of q modulo
p^2 is tested (pass/fail is a knot invariant), all of one p at once:
the least orbit members are picked in numpy, with inverses taken as
q^(phi(p^2) - 1) mod p^2, and checked together by
:func:`casson_gordon.cg_survivors`.  ``audit=True`` tests all q instead.
At every p the least survivor is re-derived by the Python-int
:func:`casson_gordon.cg_condition`, and the ribbon knot p^2/(p-1) must
survive; a disagreement raises :class:`InternalError`.

With several jobs the pending p go to the workers largest first, so the
costliest start early and the cheap ones fill the tail.  Records reach
the checkpoint (one JSON line per p) as each p completes, so an
interrupted scan loses no finished p; when the scan ends the file is
rewritten in ascending p, and the result is in ascending p whatever the
schedule, so resumed scans finish with byte-identical output.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import isqrt
from typing import Callable, Iterator

import numpy as np

from .casson_gordon import cg_condition, cg_survivors, coprime_mask, exact_dtype
from .conway import BridgeFraction, KnotClass, is_amphicheiral
# perfbench/spans.py traces cf_eval and canonical_class under this module's
# names as well as conway's, so they stay bound here though nothing calls them
from .conway import canonical_class, cf_eval  # noqa: F401
from .errors import DomainError, InternalError
from .families import build_family_index, is_family_member

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
    ``non_family`` the survivors outside the three families
    (counterexample candidates; empty means the conjecture holds at p).
    """

    p: int
    q_tested: int
    cg_passing: tuple[int, ...]
    non_family: tuple[int, ...]

    @property
    def audit(self) -> bool:
        """An audit tests all p*phi(p) knots; one q per orbit tests at most half
        as many, as every orbit {+-q, +-q^-1} mod p^2 has two members or more."""
        return self.q_tested == self.p * int(coprime_mask(np.arange(self.p), self.p).sum())

    def to_json_line(self) -> str:
        return json.dumps(vars(self))

    @classmethod
    def from_json_line(cls, line: str) -> "ScanRecord":
        obj = json.loads(line)
        return cls(
            int(obj["p"]),
            int(obj["q_tested"]),
            tuple(int(q) for q in obj["cg_passing"]),
            tuple(int(q) for q in obj["non_family"]),
        )


def _pow_mod(base: np.ndarray, exp: int, mod: int) -> np.ndarray:
    result = np.ones_like(base)
    while exp:
        if exp & 1:
            result = result * base % mod
        base = base * base % mod
        exp >>= 1
    return result


def _tested_qs(p: int, audit: bool) -> np.ndarray:
    """The q the scan tests at p, ascending: every coprime q with ``audit``,
    else the least member of each orbit {q, q^-1, -q, -q^-1} mod p^2."""
    p2 = p * p
    # the least member of an orbit is below p^2/2 (q < p^2 - q, p^2 being odd)
    q = np.arange(1, p2 if audit else p2 // 2 + 1).astype(exact_dtype(p))
    q = q[coprime_mask(q, p)]
    if audit:
        return q
    # q^-1 = q^(phi(p^2) - 1) mod p^2, and q -> p^2 - q pairs the coprime q
    # on both sides of p^2/2, so phi(p^2) = 2 * len(q)
    inv = _pow_mod(q, 2 * len(q) - 1, p2)
    return q[(q <= inv) & (q <= p2 - inv)]


def _scan_single_p(p: int, audit: bool = False) -> ScanRecord:
    qs = _tested_qs(p, audit)
    passing = cg_survivors(p, qs).tolist()
    # tie the batched kernel to the Python-int one at every p: its least
    # survivor must pass cg_condition, and it must keep q = p - 1, whose
    # knot (condition i with n = 1) is ribbon and so passes at every r
    if p - 1 not in passing:
        raise InternalError(f"the batched kernel rejects the ribbon knot {p * p}/{p - 1}")
    if not cg_condition(p, passing[0]).passes:
        raise InternalError(
            f"the batched kernel passes {p * p}/{passing[0]}, which cg_condition rejects"
        )
    non_family = [
        q for q in passing if not is_family_member(p, q, family_lookup=False).member
    ]
    return ScanRecord(p, len(qs), tuple(passing), tuple(non_family))


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
    audit: bool = False,
    progress: Callable[[ScanRecord], None] | None = None,
) -> list[ScanRecord]:
    """Scan every knot p^2/q for odd p in [p_min, p_max].

    Even bounds are rounded inward.  ``jobs`` distributes p values over
    that many worker processes, largest p first (None means serial, and
    a single pending p always runs in-process); the result is in
    ascending p order either way.  ``progress`` sees the records loaded
    from the checkpoint, then every new record as its p completes.

    With ``checkpoint``, the file's valid prefix is reused (records
    outside [p_min, p_max] included), anything after it is cut off, and
    each new record is appended and flushed as its p completes, so an
    interrupted scan loses no finished p.  When the scan ends the file
    is rewritten in ascending p through a temp file and ``os.replace``,
    so a resumed scan finishes with byte-identical content.  A checkpoint
    holding a record of the other mode (``audit`` or one q per orbit) is
    refused with :class:`DomainError` before the file is touched.
    """
    if p_min % 2 == 0:
        p_min += 1
    if p_max % 2 == 0:
        p_max -= 1
    if not 3 <= p_min <= p_max:
        raise DomainError(f"need 3 <= p_min <= p_max after rounding, got {p_min}..{p_max}")

    records, valid = _load_checkpoint(checkpoint) if checkpoint else ({}, 0)
    mixed = sorted(p for p, rec in records.items() if rec.audit != audit)
    if mixed:
        raise DomainError(
            f"checkpoint {checkpoint} holds {'per-orbit' if audit else 'audit'} records "
            f"(p={mixed[0]}), so it cannot resume a scan with audit={audit}"
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
        worker = partial(_scan_single_p, audit=audit)
        if jobs is not None and jobs > 1 and len(pending) > 1:
            with multiprocessing.Pool(min(jobs, len(pending))) as pool:
                # largest (costliest) p first, so the small ones fill the tail
                for rec in pool.imap_unordered(worker, pending[::-1]):
                    finish(rec)
        else:
            for p in pending:
                finish(worker(p))
    finally:
        if out is not None:
            out.close()
    if checkpoint:
        _write_checkpoint(checkpoint, records)
    return [records[p] for p in all_p]
