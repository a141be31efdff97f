"""Enumeration, the ribbon count table, and the conjecture scan.

Knot classes are mirror-insensitive throughout counting, matching the
convention that chiral pairs count once.  The unknot and even
determinants (2-bridge links) are excluded everywhere.

The scan walks every knot p^2/q in a determinant range, applies the
Casson-Gordon obstruction with early exit, and tests every survivor for
family membership.  A survivor outside the families is not an error:
it is the most interesting possible output and is reported with full
sigma evidence via ``cg-check``.  One representative per orbit of
q modulo p^2 is tested (pass/fail is a knot invariant); ``audit=True``
tests all q instead.  Records are emitted in ascending p order no
matter how workers are scheduled, and checkpoints hold one JSON line
per completed p, so interrupted scans resume to byte-identical output.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass
from functools import partial
from math import gcd, isqrt
from typing import Callable, Iterator

from .casson_gordon import cg_condition
from .conway import ConwayWord, KnotClass, canonical_class, cf_eval
from .errors import DomainError, InternalError
from .families import build_family_index, is_family_member, iter_compositions

__all__ = [
    "enumerate_classes",
    "ribbon_table",
    "amphicheiral_crosscheck",
    "conjecture_scan",
    "TableRow",
    "CrosscheckRow",
    "ScanRecord",
]


def _positive_words(max_sum: int) -> Iterator[tuple[int, ...]]:
    # all-positive words with entry sum <= max_sum and last entry >= 2
    for total in range(2, max_sum + 1):
        for last in range(2, total + 1):
            for prefix in iter_compositions(total - last):
                yield prefix + (last,)


def enumerate_classes(max_crossing: int) -> set[KnotClass]:
    """All 2-bridge knot classes with crossing number <= max_crossing.

    Enumerates canonical all-positive words, evaluates, keeps odd
    determinants, and deduplicates by canonical class.
    """
    if not 3 <= max_crossing <= 26:
        raise DomainError(f"crossing bound must be in 3..26, got {max_crossing}")
    classes: set[KnotClass] = set()
    for entries in _positive_words(max_crossing):
        frac = cf_eval(ConwayWord(entries))
        if frac.is_link:
            continue
        classes.add(canonical_class(frac))
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
        return {
            "crossing": self.crossing,
            "family0": self.family0,
            "family1": self.family1,
            "family2": self.family2,
            "total": self.total,
        }


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
    """Amphicheiral class counts at even c versus family-0 counts at c+2."""
    if not 4 <= max_crossing <= 24:
        raise DomainError(f"crossing bound must be in 4..24, got {max_crossing}")
    classes = enumerate_classes(max_crossing)
    index = build_family_index(max_crossing + 2)
    rows = []
    for c in range(4, max_crossing + 1, 2):
        amph = sum(1 for cls in classes if cls.crossing == c and cls.amphicheiral)
        fam0 = sum(1 for cls, fams in index.items() if cls.crossing == c + 2 and 0 in fams)
        rows.append(CrosscheckRow(c, amph, fam0, amph == fam0))
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

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "q_tested": self.q_tested,
                "cg_passing": list(self.cg_passing),
                "non_family": list(self.non_family),
            }
        )

    @classmethod
    def from_json_line(cls, line: str) -> "ScanRecord":
        obj = json.loads(line)
        return cls(
            int(obj["p"]),
            int(obj["q_tested"]),
            tuple(int(q) for q in obj["cg_passing"]),
            tuple(int(q) for q in obj["non_family"]),
        )


def _scan_single_p(p: int, audit: bool = False) -> ScanRecord:
    p2 = p * p
    tested = 0
    passing = []
    for q in range(1, p2):
        if gcd(q, p) != 1:
            continue
        if not audit:
            inv = pow(q, -1, p2)
            if q != min(q, inv, p2 - q, p2 - inv):
                continue
        tested += 1
        if cg_condition(p, q, early_exit=True).passes:
            passing.append(q)
    non_family = [
        q for q in passing if not is_family_member(p, q, family_lookup=False).member
    ]
    return ScanRecord(p, tested, tuple(passing), tuple(non_family))


def _load_checkpoint(path: str, p_min: int, p_max: int) -> dict[int, ScanRecord]:
    records: dict[int, ScanRecord] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = ScanRecord.from_json_line(line)
                except (KeyError, TypeError, ValueError):
                    break  # truncated tail from an interrupted write, or not a record
                if p_min <= rec.p <= p_max:
                    records.setdefault(rec.p, rec)
    except FileNotFoundError:
        return {}
    except OSError as exc:
        raise DomainError(f"cannot read checkpoint {path}: {exc}") from exc
    return records


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
    that many worker processes (None means serial); results are merged
    in ascending p order either way.  With ``checkpoint``, completed p
    records are persisted as JSON lines and reused on restart; the file
    is rewritten from its valid prefix, so a resumed scan finishes with
    byte-identical content.
    """
    if p_min % 2 == 0:
        p_min += 1
    if p_max % 2 == 0:
        p_max -= 1
    if not 3 <= p_min <= p_max:
        raise DomainError(f"need 3 <= p_min <= p_max after rounding, got {p_min}..{p_max}")

    done = _load_checkpoint(checkpoint, p_min, p_max) if checkpoint else {}
    all_p = list(range(p_min, p_max + 1, 2))
    pending = [p for p in all_p if p not in done]

    out = None
    if checkpoint:
        try:
            out = open(checkpoint, "w", encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"cannot write checkpoint {checkpoint}: {exc}") from exc

    results: dict[int, ScanRecord] = dict(done)
    emitted = 0

    def _flush_ready() -> None:
        # keep the file an ascending prefix of completed p values
        nonlocal emitted
        while emitted < len(all_p) and all_p[emitted] in results:
            rec = results[all_p[emitted]]
            if out is not None:
                out.write(rec.to_json_line() + "\n")
                out.flush()
            if progress is not None:
                progress(rec)
            emitted += 1

    try:
        _flush_ready()
        if pending:
            worker = partial(_scan_single_p, audit=audit)
            if jobs is not None and jobs > 1:
                with multiprocessing.Pool(min(jobs, len(pending))) as pool:
                    for rec in pool.imap(worker, pending):
                        results[rec.p] = rec
                        _flush_ready()
            else:
                for p in pending:
                    rec = worker(p)
                    results[rec.p] = rec
                    _flush_ready()
    finally:
        if out is not None:
            out.close()
    return [results[p] for p in all_p]


def default_jobs() -> int:
    return os.cpu_count() or 1
