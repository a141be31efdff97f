"""The Casson-Gordon obstruction for 2-bridge ribbon knots.

For a ribbon knot with bridge number 2 and double branched cover
L(p^2, q), the quantity

    sigma(p, q, r) = 4 * (area T - int T),   T = triangle ((0,0), (pr, 0), (pr, qr/p))

must equal +-1 for every r = 1, ..., p-1.  Here int T is a weighted
lattice-point count in the style of Pick's formula: interior points
count 1, boundary points 1/2, and vertices other than the origin 1/4.

All counts are carried as exact integers in quarter units (Python ints,
so overflow is impossible).  Three routes compute the count:

* :func:`weighted_count_oracle` - brute-force point classification over
  the bounding box (vectorized with numpy); ground truth only.
* column sums - one floor term per lattice column; a test reference.
* a Euclidean floor-sum recursion with logarithmic cost per call, used
  by :func:`weighted_count` - this is what makes exhaustive scans over
  thousands of determinants tractable.

Under the validated preconditions gcd(q, p) = 1 and 1 <= r < p the
triangle has no lattice point on its hypotenuse.  The apex (pr, qr/p)
is one iff p | qr, impossible as p is prime to q and does not divide r;
a point (x, qx/p^2) with 0 < x < pr is one iff p^2 | qx, that is
p^2 | x, and x < pr < p^2 rules that out.  So the public functions
validate once and the kernels count no hypotenuse point.  Only the
oracle classifies hypotenuse and apex points (weights 1/2 and 1/4);
the tests pin those weights by Pick's theorem on relaxed inputs, p | qr,
where the triangle is a lattice triangle.

This module holds the exact obstruction on Python ints and loads no
numpy.  The batched routes (the numpy rounds and the package's C
library) live in the private module :mod:`twobridge._kernel`, whose
docstring describes them, proves their int64 bounds and gives the C
front end of the scan.  :func:`cg_survivors`, :func:`coprime_mask` and
:func:`weighted_count_oracle` validate their input here and import it
when called, and the scan imports it when it runs, so ``import
twobridge`` and every CLI command but ``scan`` load neither numpy nor
the library.  The public limit of the batched routes is
INT64_MAX_P = 46,340: :func:`cg_survivors`, the scan and its checkpoint
records refuse larger p, all by :func:`_validate_int64_p`.
:func:`cg_condition` and :func:`sigma` run on Python ints and stay exact
for any p.  The report of :func:`cg_condition`, like the all-r output of
the ``sigma`` command, counts every term at r = 1..p-1 in one O(p) pass
over the blocks of the histogram, on Python ints.  :func:`weighted_count`,
:func:`sigma` and ``sigma --r`` stay per-r floor sums: they count every
r they are given, so they are the independent reference for the block
pass, and the scan re-derives its least survivor with the floor sum
behind :func:`sigma`.

The batched routes, and the scan's check of its least survivor, stop at
r = (p-1)/2 because sigma(p, q, r) = sigma(p, q, p-r).  With N = p^2 and
the sawtooth ((t)) = t - floor(t) - 1/2, the count above gives

    sigma(p, q, r) = 4 * sum_{x=1}^{pr-1} ((q x / N)) + 2 ((q r / p)),

no argument being an integer.  Since ((-t)) = -((t)) and the sum over
x = 1..N-1 vanishes, substituting x -> N - x turns the sum for p - r
into the sum for r plus ((q r / p)), while ((q (p-r) / p)) = -((q r / p));
the two changes cancel.  This is the conjugate-character symmetry of the
Casson-Gordon signatures (chi^(p-r) is the conjugate of chi^r); for
sawtooth sums see Rademacher and Grosswald, *Dedekind Sums* (1972).
The argument holds at even p too.  The tests check it exhaustively for
every q at p <= 50, even p included, against the count at every r.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import accumulate
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "validate_pq",
    "validate_knot",
    "floor_sum",
    "weighted_count_oracle",
    "weighted_count",
    "sigma",
    "cg_condition",
    "cg_survivors",
    "INT64_MAX_P",
    "coprime_mask",
    "SigmaTerm",
    "SigmaReport",
]


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) for i = 0, ..., n-1.

    Euclidean recursion, O(log) iterations.  Requires n >= 0, m >= 1,
    a >= 0, b >= 0.
    """
    if n < 0 or m < 1 or a < 0 or b < 0:
        raise DomainError(f"floor_sum requires n>=0, m>=1, a>=0, b>=0, got {(n, m, a, b)}")
    total = 0
    while True:
        if a >= m:
            total += (n - 1) * n // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y = a * n + b
        if y < m:
            return total
        n, b, m, a = y // m, y % m, a, m


def validate_pq(p: int, q: int) -> None:
    """Require the p, q of a weighted count: p >= 2, 0 < q < p^2 and gcd(q, p) = 1."""
    if p < 2:
        raise DomainError(f"need p >= 2, got {p}")
    if not 0 < q < p * p:
        raise DomainError(f"need 0 < q < p^2, got q={q}, p={p}")
    if gcd(q, p) != 1:
        raise DomainError(f"need gcd(q, p) = 1, got q={q}, p={p}")


def _validate(p: int, q: int, r: int) -> None:
    validate_pq(p, q)
    if not 1 <= r <= p - 1:
        raise DomainError(f"need 1 <= r <= p-1, got r={r}, p={p}")


def validate_knot(p: int, q: int) -> None:
    """Require the knot p^2/q: odd p >= 3, 0 < q < p^2 and gcd(q, p) = 1."""
    if p < 3 or p % 2 == 0:
        raise DomainError(f"need odd p >= 3, got {p}")
    validate_pq(p, q)


def _quarters(p, q, r, below):
    """The weighted count in quarters from its columns 0 < x < pr, on ints or numpy arrays.

    ``below`` counts the lattice points with y > 0 under the hypotenuse
    (weight 1).  The rest is closed form: bottom edge 1/2, corner (pr, 0)
    1/4 and right edge 1/2, with no point on the hypotenuse and no lattice
    apex, as validated input has none (module docstring).
    """
    return 4 * below + 2 * p * r - 1 + 2 * (q * r // p)


def _column_quarters(p: int, q: int, r: int) -> int:
    """Column decomposition: one floor term per column."""
    p2 = p * p
    return _quarters(p, q, r, sum(q * x // p2 for x in range(1, p * r)))


def _floorsum_quarters(p: int, q: int, r: int) -> int:
    """Same count via the Euclidean floor-sum recursion (logarithmic)."""
    return _quarters(p, q, r, floor_sum(p * r, p * p, q, 0))


def weighted_count_oracle(p: int, q: int, r: int) -> int:
    """Ground-truth weighted count, in quarter units.

    Enumerates every lattice point of the triangle's bounding box and
    tests membership against the closed triangle; cost proportional to
    the box, so intended for verification only.  It runs in numpy, in
    :func:`twobridge._kernel._oracle_quarters`, which this call loads
    after it validates p, q and r.
    """
    _validate(p, q, r)
    from ._kernel import _oracle_quarters

    return _oracle_quarters(p, q, r)


def weighted_count(p: int, q: int, r: int) -> int:
    """Weighted lattice-point count of the triangle, in quarter units.

    Uses the floor-sum recursion; the column loop and
    :func:`weighted_count_oracle` agree with it exactly.
    """
    _validate(p, q, r)
    return _floorsum_quarters(p, q, r)


def _floorsum_sigma(p: int, q: int, r: int) -> int:
    """:func:`sigma` by the floor-sum recursion, with no checks: its kernel."""
    return 2 * q * r * r - _floorsum_quarters(p, q, r)


def sigma(p: int, q: int, r: int) -> int:
    """4 * (area - weighted count).  Exact: 2*q*r^2 - quarters, an integer."""
    _validate(p, q, r)
    return _floorsum_sigma(p, q, r)


class SigmaTerm(NamedTuple):
    """Per-r data: doubled area (q*r^2), count in quarters, and sigma.

    A named tuple, not a frozen dataclass, for its constructor, as a report
    builds one term per r: 0.33 us a call against the dataclass's 0.68 us
    (best of 7 ``timeit`` runs, shared 2-vCPU host).  So ``_replace`` and
    ``_asdict`` stand in for ``dataclasses.replace`` and ``asdict``.
    """

    r: int
    area_halves: int
    quarters: int
    sigma: int

    @classmethod
    def of(cls, q: int, r: int, quarters: int) -> "SigmaTerm":
        """The term at r from the weighted count of the triangle, in quarters."""
        area_halves = q * r * r
        return cls(r, area_halves, quarters, 2 * area_halves - quarters)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "area": f"{self.area_halves}/2",
            "int": f"{self.quarters}/4",
            "sigma": self.sigma,
        }


@dataclass(frozen=True)
class SigmaReport:
    """Outcome of the obstruction over r = 1..p-1 for the knot p^2/q."""

    p: int
    q: int
    terms: tuple[SigmaTerm, ...]
    passes: bool
    first_failure: int | None

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "passes": self.passes,
            "first_failure": self.first_failure,
            "terms": [t.to_json_dict() for t in self.terms],
        }


# One term of a term document, laid out as json.dumps(..., indent=2) lays out
# SigmaTerm.to_json_dict() inside the "terms" list, its fields in the tuple's order.
_TERM_JSON = '    {\n      "r": %d,\n      "area": "%d/2",\n      "int": "%d/4",\n      "sigma": %d\n    }'


def _terms_json(head: dict, terms) -> str:
    """``json.dumps({**head, "terms": [t.to_json_dict() for t in terms]}, indent=2)``.

    The same bytes for a non-empty ``terms``, by one hand layout.  Python's
    C encoder has no indent, so ``json.dumps(..., indent=2)`` runs the
    pure-Python one, which takes longer than computing the terms it writes.
    """
    lines = [f"  {json.dumps(key)}: {json.dumps(value)},\n" for key, value in head.items()]
    body = ",\n".join([_TERM_JSON % t for t in terms])
    return "{\n" + "".join(lines) + '  "terms": [\n' + body + "\n  ]\n}"


def _sigma_terms(p: int, q: int) -> tuple[SigmaTerm, ...]:
    """The terms at r = 1..p-1 for a validated p >= 2 and q.

    Every r is counted in one O(p) pass over the blocks of
    :func:`twobridge._kernel._histogram_sums`' docstring: with
    e_j = q j mod p^2 for j = 1..p-1, counts[b] = #{j : floor(e_j / p) >= p - b} and
    T(0) = (q p (p-1) / 2 - sum_j e_j) / p^2, the block of columns
    p (r-1) <= x < p r gives S_r = S_{r-1} + p a + T(0) + counts[b], where
    (a, b) = divmod(q (r-1), p).  One divmod of q r per r gives the next
    block's a and b, and a is also the floor(q r / p) of :func:`_quarters`.
    That proof uses neither gcd(q, p) = 1 nor odd p, and on Python ints it
    holds at any p, even p included.  The histogram and the terms are lists
    of about p items, which CPython caps below sys.maxsize // 8 items (8-byte
    pointers), so larger p raise :class:`DomainError`.
    """
    if p >= sys.maxsize // 8:
        raise DomainError(f"need p < {sys.maxsize // 8} for the terms at every r, got p={p}")
    p2 = p * p
    counts = [0] * (p + 1)
    e = total = 0
    for _ in range(p - 1):
        e += q
        if e >= p2:
            e -= p2
        total += e
        counts[p - e // p] += 1
    counts = list(accumulate(counts))
    t0 = (q * (p * (p - 1) // 2) - total) // p2
    terms = []
    s = a = b = 0  # S_r, and q (r - 1) = a p + b
    for r in range(1, p):
        s += p * a + t0 + counts[b]
        a, b = divmod(q * r, p)
        area = q * r * r
        quarters = 4 * s + 2 * (p * r + a) - 1  # _quarters(p, q, r, s), a = floor(q r / p)
        terms.append(SigmaTerm(r, area, quarters, 2 * area - quarters))
    return tuple(terms)


def cg_condition(p: int, q: int) -> SigmaReport:
    """Evaluate sigma(p, q, r) for r = 1..p-1; passes iff every value is +-1.

    The knot under test is p^2/q (double branched cover L(p^2, q)), so p
    must be odd and >= 3.  Every term is counted in one O(p) pass by the
    block identity of the batched kernel's tail, on Python ints, so the
    report shows counted evidence at each r, beyond the r <= (p-1)/2 the
    kernel stops at by the symmetry of the module docstring.  :func:`sigma`
    counts each r by the floor sum instead, as an independent reference.
    """
    validate_knot(p, q)
    terms = _sigma_terms(p, q)
    first_failure = next((t.r for t in terms if t.sigma not in (-1, 1)), None)
    return SigmaReport(p, q, terms, first_failure is None, first_failure)


# The largest p that cg_survivors, the scan and its checkpoint records accept,
# the largest with p^4 < 2^62: a public limit, far below p <= 2,097,151, to
# which both routes' kernels are exact (the docstring of twobridge._kernel).
INT64_MAX_P = 46340


def _prime_factors(p: int) -> list[int]:
    """The distinct primes dividing p >= 1, by trial division."""
    primes = []
    d = 2
    while d * d <= p:
        if p % d == 0:
            primes.append(d)
            while p % d == 0:
                p //= d
        d += 1
    return primes + [p] if p > 1 else primes


def coprime_mask(q: np.ndarray, p: int) -> np.ndarray:
    """gcd(q[k], p) == 1 for every k, by the prime factors of p (np.gcd is far
    slower).  It runs in :mod:`twobridge._kernel`, which this call loads."""
    from ._kernel import _coprime_mask

    return _coprime_mask(q, p)


def _validate_int64_p(p: int) -> None:
    """Require the p of the batched routes: odd, 3 <= p <= INT64_MAX_P.

    The one refusal of their public limit, for :func:`cg_survivors`, the
    scan's ``p_max`` and its checkpoint records alike."""
    validate_knot(p, 1)
    if p > INT64_MAX_P:
        raise DomainError(
            f"need p <= INT64_MAX_P = {INT64_MAX_P}, the public limit of the scan "
            f"and cg_survivors, got {p}"
        )


def cg_survivors(p: int, qs) -> np.ndarray:
    """The q of ``qs`` whose knot p^2/q passes :func:`cg_condition`, in input order.

    Equal to ``[q for q in qs if cg_condition(p, q).passes]``: r = 1 by one
    sawtooth sweep per window of q, then the C loop's steps in numpy,
    floor-sum rounds over r = 2, 3..4, 5..8, ... up to
    r = p // _kernel._TAIL_SWITCH and from there one histogram per q for
    every r up to (p-1)/2 (see the docstring of :mod:`twobridge._kernel`
    for the int64 bound, and this module's for the public limit and the
    symmetry that ends at (p-1)/2).  This is numpy on every machine; the C
    library serves the scan alone.  p above INT64_MAX_P raises
    :class:`DomainError` before the kernel module loads; q that are not of
    an integer dtype raise it once the kernel has loaded to check them.
    """
    _validate_int64_p(p)
    from . import _kernel

    return _kernel._window_survivors(p, _kernel._knot_array(p, qs))
