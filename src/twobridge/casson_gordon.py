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

The apex (pr, qr/p) is never a lattice point when gcd(q, p) = 1 and
r < p, and the open hypotenuse carries no lattice points either; both
branches are still implemented (weights 1/4 and 1/2) and their
occurrence under validated preconditions raises :class:`InternalError`,
so the kernel stays correct if the preconditions are ever relaxed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DomainError, InternalError

__all__ = [
    "validate_knot",
    "floor_sum",
    "weighted_count_oracle",
    "weighted_count",
    "sigma",
    "cg_condition",
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


def _validate(p: int, q: int, r: int) -> None:
    if p < 2:
        raise DomainError(f"need p >= 2, got {p}")
    if not 0 < q < p * p:
        raise DomainError(f"need 0 < q < p^2, got q={q}, p={p}")
    if gcd(q, p) != 1:
        raise DomainError(f"need gcd(q, p) = 1, got q={q}, p={p}")
    if not 1 <= r <= p - 1:
        raise DomainError(f"need 1 <= r <= p-1, got r={r}, p={p}")


def validate_knot(p: int, q: int) -> None:
    """Require the knot p^2/q: odd p >= 3, 0 < q < p^2 and gcd(q, p) = 1."""
    if p < 3 or p % 2 == 0:
        raise DomainError(f"need odd p >= 3, got {p}")
    _validate(p, q, 1)


def _oracle_quarters(p: int, q: int, r: int) -> int:
    """Classify every lattice point of the bounding box against the closed triangle.

    No precondition checks; handles lattice apex and hypotenuse points.
    """
    n = p * r
    p2 = p * p
    top = (q * r) // p
    xs = np.arange(n + 1, dtype=np.int64)[:, None]
    ys = np.arange(top + 1, dtype=np.int64)[None, :]
    lhs = ys * p2
    rhs = q * xs
    in_tri = lhs <= rhs
    weights = np.where(in_tri, 4, 0)
    weights[in_tri & (lhs == rhs)] = 2  # hypotenuse
    weights[:, 0] = 2                   # bottom edge
    weights[n, in_tri[n, :]] = 2        # right edge
    weights[0, 0] = 0                   # origin carries no weight
    weights[n, 0] = 1
    if (q * r) % p == 0:
        weights[n, top] = 1             # lattice apex
    return int(weights.sum())


def _column_quarters(p: int, q: int, r: int) -> tuple[int, int, bool]:
    """Column decomposition.  Returns (quarters, hypotenuse points, lattice apex)."""
    p2 = p * p
    n = p * r
    interior = 0
    hyp = 0
    for x in range(1, n):
        f, rem = divmod(q * x, p2)
        if rem == 0:
            interior += f - 1  # the top point sits on the hypotenuse
            hyp += 1
        else:
            interior += f
    quarters = 4 * interior + 2 * hyp + 2 * (n - 1) + 1 + 2 * ((q * r - 1) // p)
    apex = (q * r) % p == 0
    if apex:
        quarters += 1
    return quarters, hyp, apex


def _floorsum_quarters(p: int, q: int, r: int) -> tuple[int, int, bool]:
    """Same count via the Euclidean floor-sum recursion (logarithmic)."""
    p2 = p * p
    n = p * r
    s = floor_sum(n, p2, q, 0)
    step = p2 // gcd(q, p2)
    hyp = (n - 1) // step
    quarters = 4 * (s - hyp) + 2 * hyp + 2 * (n - 1) + 1 + 2 * ((q * r - 1) // p)
    apex = (q * r) % p == 0
    if apex:
        quarters += 1
    return quarters, hyp, apex


def weighted_count_oracle(p: int, q: int, r: int) -> int:
    """Ground-truth weighted count, in quarter units.

    Enumerates every lattice point of the triangle's bounding box and
    tests membership against the closed triangle; cost proportional to
    the box, so intended for verification only.
    """
    _validate(p, q, r)
    return _oracle_quarters(p, q, r)


def weighted_count(p: int, q: int, r: int) -> int:
    """Weighted lattice-point count of the triangle, in quarter units.

    Uses the floor-sum recursion; the column loop and
    :func:`weighted_count_oracle` agree with it exactly.
    """
    _validate(p, q, r)
    quarters, hyp, apex = _floorsum_quarters(p, q, r)
    if hyp or apex:
        raise InternalError(
            f"lattice point on hypotenuse/apex for p={p}, q={q}, r={r}: "
            "impossible under gcd(q,p)=1, r<p -- counting bug"
        )
    return quarters


def sigma(p: int, q: int, r: int) -> int:
    """4 * (area - weighted count).  Exact: 2*q*r^2 - quarters, an integer."""
    return SigmaTerm.of(q, r, weighted_count(p, q, r)).sigma


@dataclass(frozen=True)
class SigmaTerm:
    """Per-r data: doubled area (q*r^2), count in quarters, and sigma."""

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


def cg_condition(p: int, q: int, early_exit: bool = False) -> SigmaReport:
    """Evaluate sigma(p, q, r) for r = 1..p-1; passes iff every value is +-1.

    The knot under test is p^2/q (double branched cover L(p^2, q)), so p
    must be odd and >= 3.  With ``early_exit`` the loop stops at the
    first failing r (the scan default); reports use the full range.
    """
    validate_knot(p, q)
    terms = []
    first_failure = None
    for r in range(1, p):
        term = SigmaTerm.of(q, r, weighted_count(p, q, r))
        terms.append(term)
        if term.sigma not in (-1, 1) and first_failure is None:
            first_failure = r
            if early_exit:
                break
    return SigmaReport(p, q, tuple(terms), first_failure is None, first_failure)
