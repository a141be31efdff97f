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
invariant), window by window of consecutive q, by
:func:`_kernel._scan_windows`, which cuts the windows, selects the
orbits and picks the C or the numpy route.  The batched kernel, with
numpy and the C library, and ``multiprocessing`` are imported inside the
scan code that uses them, so importing this module, and every CLI
command but ``scan``, loads none of them.  p is at most
:data:`casson_gordon.INT64_MAX_P`, which :func:`conjecture_scan`
checks by :func:`casson_gordon._validate_int64_p`.  At every p the
number of q tested must be the number of orbits, in closed form by
:func:`_orbit_count`, every family member must survive (the families
are ribbon) and the least survivor is re-derived at every r < p/2 by the
Python-int floor sum behind :func:`casson_gordon.sigma`, which shares
nothing with the kernel's tail; its :func:`casson_gordon.cg_condition`
report, which validates the knot once, not per r, must give the same
terms there.  A disagreement raises :class:`InternalError`.

One schedule runs every job count.  With J jobs the scan's own process
is one of them: it forks J - 1 workers, never more than one fewer than
the pending p, so one job or one pending p forks none.  The workers take
p from the large end over their own pipes, largest first, so the
costliest start early, and the scan's own process scans the smallest p
itself, reading the workers' records between its own.  Each worker holds
up to two p, so it has its next one while the parent is busy, but is
sent one only while another stays pending for the parent.  An exception
raised in a worker is re-raised in the parent, a worker that dies raises
:class:`InternalError` naming the first p it held (the CLI exits 2), and
an exception in the parent's own p propagates; in every case every worker
is stopped.  A worker holds no parent's end of any pipe, so when the
parent is killed outright its workers read EOF and end too.  One
function, :func:`_write_checkpoint`, writes every whole checkpoint (one
JSON line per p, ascending, through a temp file): a resume writes back
the records it takes from the file before it scans, so a checkpoint
that cannot be rewritten fails before the first p.
Records are then appended as each p completes, so an interrupted scan
loses no finished p; when the scan ends the file is rewritten in
ascending p, and the result is in ascending p whatever the schedule, so
resumed scans finish with byte-identical output.  A resume takes back
only the lines, up to the first other one, that are exactly what the
scan writes (:meth:`ScanRecord.from_json_line`), and refuses a file that
does not start with one rather than overwrite it.  The ``scan``
command's process and every scan worker keep the heap memory they free
(glibc only, :func:`_keep_freed_memory`), so what they allocate again is
not faulted in afresh: the numpy route's temporaries at every window, and
the per-p scratch on the C route, whose windows allocate nothing.  Every
other command, and a library caller's process, which scans p of its own
at any job count, keeps its allocator as it was.
"""

from __future__ import annotations

import json
import os
import signal
from collections import Counter, deque
from contextlib import suppress
from dataclasses import dataclass
from functools import cache
from math import isqrt
from typing import Callable, Iterator

from .casson_gordon import _floorsum_sigma, _prime_factors, _validate_int64_p, cg_condition
from .conway import BridgeFraction, KnotClass, is_amphicheiral, orbit_qs
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
    is not ribbon.  Its JSON line is the checkpoint's line for p, and
    :meth:`from_json_line` reads back no other.
    """

    p: int
    q_tested: int
    cg_passing: tuple[int, ...]
    non_family: tuple[int, ...]

    def to_json_line(self) -> str:
        return json.dumps(vars(self))

    @classmethod
    def from_json_line(cls, line: str) -> "ScanRecord":
        """The record a checkpoint line holds, read as outside input: nothing is coerced.

        The line must be, up to its newline, exactly the line of the record
        :func:`_scan_single_p` writes for its p and ``cg_passing`` (both build
        it by :func:`_record`): that record tests :func:`_orbit_count` q and
        lists as non-family q the passing q outside :func:`families.family_reps`.
        Each property is checked once.  p must be an int (a bool is none) in
        the kernel's range (:func:`casson_gordon._validate_int64_p`: odd,
        3..INT64_MAX_P), and ``cg_passing`` must pass the kernel's knot rule
        (:func:`_kernel._knot_array`: a flat list of integers within int64,
        0 < q < p^2, q prime to p) and strictly ascend in the int64 array
        that rule returns; the record is
        rebuilt from that array, so a bool among the q (``true`` comes back
        as ``1``) fails the byte comparison.  Every q of ``family_reps(p)``
        must pass, and every non-family q must be the least member of its
        orbit.  Any other line raises ValueError, KeyError or TypeError, or
        RecursionError if nested deeper than the recursion limit.  So a resume
        cannot drop a family knot or keep a survivor outside the families out
        of ``non_family``; a survivor left out of both lists, though, looks like
        a true record, and only a rescan finds it."""
        obj = json.loads(line)
        p = obj["p"]
        if type(p) is not int:
            raise ValueError(f"not a scan record: {line.rstrip()}")
        _validate_int64_p(p)
        from . import _kernel

        arr = _kernel._knot_array(p, obj["cg_passing"])
        fam = family_reps(p)
        rec = _record(p, arr.tolist(), fam)
        if (
            (arr[1:] <= arr[:-1]).any()
            or rec.to_json_line() != line.removesuffix("\n")
            or not fam.issubset(rec.cg_passing)
            or any(orbit_qs(p * p, q)[0] != q for q in rec.non_family)
        ):
            raise ValueError(f"not a scan record: {line.rstrip()}")
        return rec


def _phi(p: int) -> int:
    """Euler's phi(p): the residues mod p prime to p."""
    phi = p
    for prime in _prime_factors(p):
        phi = phi // prime * (prime - 1)
    return phi


def _orbit_count(p: int) -> int:
    """The number of q the scan tests at odd p: the orbits of {+-q, +-q^-1} on the
    p*phi(p) units mod p^2.

    Burnside: q -> -q fixes no unit (p is odd); q -> q^-1 fixes the 2^k roots of
    1, k the number of primes dividing p; q -> -q^-1 fixes the roots of -1, of
    which there are 2^k if each prime dividing p is 1 mod 4 and none otherwise.
    So the count is (p*phi(p) + 2^k + eps*2^k) / 4, eps = 1 in the first case."""
    primes = _prime_factors(p)
    fixed = 2 ** len(primes)
    eps = all(prime % 4 == 1 for prime in primes)
    return (p * _phi(p) + fixed + eps * fixed) // 4


def _record(p: int, passing: list[int], fam: set[int]) -> ScanRecord:
    """The record the scan writes at p for the survivors and family set given."""
    return ScanRecord(p, _orbit_count(p), tuple(passing), tuple(q for q in passing if q not in fam))


def _scan_single_p(p: int) -> ScanRecord:
    from . import _kernel

    tested = 0
    passing: list[int] = []
    for count, survivors in _kernel._scan_windows(p):
        tested += count
        passing += survivors.tolist()
    if tested != _orbit_count(p):
        raise InternalError(f"orbit selection at p={p} tested {tested} q, not {_orbit_count(p)}")
    fam = family_reps(p)
    # tie the batched kernel to the ribbon families and the Python-int kernels at
    # every p: family knots are ribbon, so each passes at every r; the least
    # survivor must pass the floor-sum sigma at every r < p/2, which shares
    # nothing with the tail's histogram, and its cg_condition report, counted
    # by the same histogram, must give the same terms there
    missing = fam.difference(passing)
    if missing:
        raise InternalError(f"the batched kernel rejects the ribbon knot {p * p}/{min(missing)}")
    least = passing[0]
    report = cg_condition(p, least)  # validates the knot once, not at every r
    counted = [_floorsum_sigma(p, least, r) for r in range(1, (p + 1) // 2)]
    if any(abs(s) != 1 for s in counted):
        raise InternalError(
            f"the batched kernel passes {p * p}/{least}, which the floor-sum sigma rejects"
        )
    if [t.sigma for t in report.terms[: len(counted)]] != counted:
        raise InternalError(
            f"the cg_condition report of {p * p}/{least} differs from the floor-sum sigma"
        )
    return _record(p, passing, fam)


# (parameter, value) for glibc's mallopt: M_MMAP_THRESHOLD and M_TRIM_THRESHOLD,
# numbered as in malloc.h
_MALLOPT_SETTINGS = ((-3, 64 << 20), (-1, 256 << 20))


@cache
def _mallopt():
    """glibc's ``mallopt``, typed, looked up on the first call in this process;
    None off glibc or where it is missing.  Looking it up leaves the allocator as it is."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None
    if not libc or not libc.startswith("glibc "):
        return None
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _keep_freed_memory() -> tuple[int, ...]:
    """Have glibc's malloc keep the heap memory this process frees, and
    return what ``mallopt`` returned for each setting (1 is success).

    By default glibc serves large allocations by mmap and hands freed heap
    top back to the kernel, so memory freed and allocated again faults its
    pages in afresh.  Where that pays, by the ``scan`` command with and
    without the settings, its output piped (2 runs each, shared 2-vCPU
    host):

    - the numpy route, which allocates temporaries of megabytes in every
      window: one p = 4001 on one job took 9k minor faults against 169k,
      and its :func:`_scan_single_p` alone 1.2 s against 1.4 s; one
      p = 6001 took 2.7 s of wall against 3.4-3.5 s;
    - not the C route's windows, which allocate nothing: one p = 4001
      took 6k faults either way;
    - the C route's workers, which allocate scratch per p: 3..571 on
      two jobs took 12k faults against 35k, at the same wall time.

    Arrays up to 64 MiB now come from the heap, which is trimmed only
    above 256 MiB of free top.  Setting either turns off glibc's dynamic
    mmap threshold, so the mmap threshold must be set with the trim
    threshold: the trim threshold alone faulted more than the default.  The
    heap's growth step (M_TOP_PAD) keeps glibc's default, as 64 MiB made no
    measured difference.  A no-op, returning (), off glibc or where
    ``mallopt`` is missing.  It changes the whole process, so only the
    ``scan`` command's process (:func:`cli.main`) and every scan worker
    call it, never code a library user calls.  The handle comes from
    :func:`_mallopt`, which a parallel scan makes before its workers fork,
    so they only call it.
    """
    mallopt = _mallopt()
    if mallopt is None:
        return ()
    return tuple(mallopt(param, value) for param, value in _MALLOPT_SETTINGS)


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a scan worker, as its text."""

    def __str__(self) -> str:
        return self.args[0]


def _worker(conn) -> None:
    """A scan worker: scans each p the parent sends until it sends None, and
    sends back the record, or the exception :func:`_scan_single_p` raised
    with the text of its traceback."""
    _keep_freed_memory()
    # ^C reaches the whole process group; the parent alone handles it and stops the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with suppress(EOFError, BrokenPipeError):  # the parent is gone: end quietly
        while (p := conn.recv()) is not None:
            try:
                reply = _scan_single_p(p)
            except Exception as exc:
                import traceback  # only here, on the error path

                reply = (exc, traceback.format_exc())
            conn.send(reply)


def _start_worker():
    """A started :func:`_worker` process and the parent's end of its duplex pipe."""
    import multiprocessing
    from multiprocessing.util import register_after_fork

    ours, theirs = multiprocessing.Pipe()
    # closed in every process multiprocessing forks from here on, this worker and
    # the later ones before they run, so a parent killed outright is an EOF to each
    register_after_fork(ours, type(ours).close)
    proc = multiprocessing.Process(target=_worker, args=(theirs,), daemon=True)
    proc.start()
    theirs.close()  # the worker holds the only other end, so its death is an EOF here
    return proc, ours


def _scan_in_workers(pending: list[int], jobs: int, finish: Callable[[ScanRecord], None]) -> None:
    """Scan the p of ``pending`` (ascending) on ``jobs`` processes, this one
    included, and pass each record to ``finish`` as it completes.

    ``jobs - 1`` workers, never more than one fewer than the pending p (so
    none for one job or one p), take p from the large end, largest first,
    so the costliest start early; each holds up to two p, so it has its
    next one while this process is busy with its own.  This process scans
    the smallest p itself and polls the workers between them, and waits on
    them only when no p is left for it: a p goes to a worker only while at
    least one more stays pending, so the smallest one is always this
    process's.  A worker's exception is re-raised here, and a worker that
    dies raises :class:`InternalError` naming the first p it held.  Every
    worker is stopped and reaped before this returns or raises.
    """
    # imported here, not at the top: multiprocessing imports subprocess and locale,
    # and the kernel numpy, which import twobridge and every command but scan need not
    from multiprocessing.connection import wait

    from . import _kernel

    # multiprocessing.Pool's handler thread spun while a result sat unread
    # (Pool._maintain_pool ran 797-2,549 times for the 75 records of p = 3..151
    # on a 2-core machine) and a dead worker hung it; here the parent wakes once per record
    todo = deque(pending)
    workers = {}  # the pipe end of each worker -> its process
    held = {}  # the pipe end of each worker -> the p sent to it, in the order sent

    def send(conn, depth: int = 2) -> None:
        """Top the worker up to ``depth`` p, leaving at least one for this
        process; stop it once it holds none and will get none."""
        while len(held[conn]) < depth and len(todo) > 1:
            p = todo.pop()
            held[conn].append(p)
            try:
                conn.send(p)
            except OSError:
                return  # the worker is gone: the next wait reports it with the p it held
        if not held[conn]:
            with suppress(OSError):
                conn.send(None)
            del held[conn]

    def receive(conn) -> None:
        p = held[conn].popleft()
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
        send(conn)

    # built, loaded and looked up once here, so forked workers inherit them
    _kernel._compiled_lanes()
    _mallopt()
    try:
        for _ in range(min(jobs, len(todo)) - 1):
            proc, conn = _start_worker()
            workers[conn] = proc
            held[conn] = deque()
            send(conn, 1)  # every worker its first p before any its second
        for conn in list(held):
            send(conn)
        while todo:
            finish(_scan_single_p(todo.popleft()))
            for conn in wait(list(held), timeout=0):
                receive(conn)
        while held:
            for conn in wait(list(held)):
                receive(conn)
    finally:
        for conn, proc in workers.items():
            proc.terminate()
            proc.join()
            conn.close()


def _load_checkpoint(path: str) -> dict[int, ScanRecord]:
    """The records of a checkpoint's valid prefix by p.

    The prefix ends before the first line that is not a whole record with
    its newline (:meth:`ScanRecord.from_json_line`): a torn tail from an
    interrupted write, a blank line, or any other line the scan does not
    write.  A non-empty file whose first line is not a record holds no
    finished p and may not be the scan's (an old ``--audit`` checkpoint,
    say), so it raises :class:`DomainError`; a missing or empty file holds
    no records.
    """
    records: dict[int, ScanRecord] = {}
    try:
        with open(path, "rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break
                try:
                    rec = ScanRecord.from_json_line(line.decode("utf-8"))
                except (KeyError, TypeError, ValueError, RecursionError):
                    break
                records.setdefault(rec.p, rec)
            else:
                return records
    except FileNotFoundError:
        return records
    except OSError as exc:
        raise DomainError(f"cannot read checkpoint {path}: {exc}") from exc
    if not records:
        raise DomainError(
            f"checkpoint {path} does not start with a whole scan record, so it cannot resume "
            "a scan; delete it to start afresh"
        )
    return records


def _write_checkpoint(path: str, records: dict[int, ScanRecord]) -> None:
    """Replace the checkpoint by ``records`` in ascending p, through a temp
    file (``path`` + ".tmp") and ``os.replace``.

    The one writer of a whole checkpoint: :func:`conjecture_scan` calls it
    on the loaded records before it scans and on all records when it ends,
    so new records are appended right after the valid prefix, and a
    checkpoint that cannot be rewritten raises :class:`DomainError` before
    any p is scanned.
    """
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

    Even bounds are rounded inward.  ``jobs`` is the number of processes
    that scan, this one included (None means 1): :func:`_scan_in_workers`
    forks ``jobs - 1`` workers, never more than one fewer than the pending
    p, for the largest p, largest first, and scans the smallest itself; the
    result is in ascending p order whatever ``jobs`` is.  An
    exception raised in a worker, or in this process's own p, reaches the
    caller with its type and message; a worker that dies raises
    :class:`InternalError` naming the first p it held, which the CLI
    reports with exit status 2.  No worker outlives the call, whether it
    returns or raises (``progress`` included).  ``progress`` sees the
    records loaded from the checkpoint, then every new record as its p
    completes.

    With ``checkpoint``, the records of the file's valid prefix are
    reused (those outside [p_min, p_max] included) and written back in
    ascending p by :func:`_write_checkpoint` before any p is scanned, so
    whatever followed the prefix is gone and a checkpoint that cannot be
    rewritten raises :class:`DomainError` at once.  Each new record is
    then appended and flushed as its p completes, so an interrupted scan
    loses no finished p; an append that fails raises :class:`DomainError`
    and keeps every record appended before it.  When the scan ends the
    file is rewritten in ascending p by :func:`_write_checkpoint` again,
    so a resumed scan finishes with byte-identical content.  A p_max
    above :data:`casson_gordon.INT64_MAX_P`, an empty checkpoint path
    (which would otherwise mean no checkpoint), and a non-empty checkpoint
    whose first line is not a whole record the scan writes (a record of
    the removed ``--audit`` mode, a lone torn line, or any file the scan
    did not write), are refused with :class:`DomainError` before the file
    is touched.
    """
    if p_min % 2 == 0:
        p_min += 1
    if p_max % 2 == 0:
        p_max -= 1
    if not 3 <= p_min <= p_max:
        raise DomainError(f"need 3 <= p_min <= p_max after rounding, got {p_min}..{p_max}")
    _validate_int64_p(p_max)
    if checkpoint == "":
        raise DomainError("the checkpoint path is empty")

    records = _load_checkpoint(checkpoint) if checkpoint else {}
    all_p = list(range(p_min, p_max + 1, 2))
    pending = [p for p in all_p if p not in records]

    out = None
    if checkpoint:
        _write_checkpoint(checkpoint, records)
        try:
            out = open(checkpoint, "ab")
        except OSError as exc:
            raise DomainError(f"cannot write checkpoint {checkpoint}: {exc}") from exc

    def finish(rec: ScanRecord) -> None:
        records[rec.p] = rec
        if out is not None:
            try:
                out.write(rec.to_json_line().encode("utf-8") + b"\n")
                out.flush()
            except OSError as exc:
                raise DomainError(f"cannot write checkpoint {checkpoint}: {exc}") from exc
        if progress is not None:
            progress(rec)

    try:
        if progress is not None:
            for p in all_p:
                if p in records:
                    progress(records[p])
        _scan_in_workers(pending, jobs or 1, finish)
    finally:
        if out is not None:
            # after a failed append the close flushes the unwritten bytes again
            # and fails again; every flushed record is in the file either way
            with suppress(OSError):
                out.close()
    if checkpoint:
        _write_checkpoint(checkpoint, records)
    return [records[p] for p in all_p]
