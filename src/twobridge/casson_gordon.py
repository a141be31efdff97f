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

The scan uses a batched route, :func:`cg_survivors`: it validates p and
every q once, then runs the same floor-sum recursion elementwise in
numpy over all q still alive, in rounds over r (blocks of width 1, 1, 2,
4, ...), dropping the q that fail after each round and capping each
kernel call at about 2^18 elements.  Every intermediate of the recursion
and of the sigma formula stays below 2 p^4, so int64 is exact while
p^4 < 2^62, that is p <= INT64_MAX_P = 46340; above that the same code
runs on ``dtype=object`` arrays of Python ints.

The rounds stop at r = (p-1)/2 because sigma(p, q, r) = sigma(p, q, p-r).
With N = p^2 and the sawtooth ((t)) = t - floor(t) - 1/2, the count
above gives

    sigma(p, q, r) = 4 * sum_{x=1}^{pr-1} ((q x / N)) + 2 ((q r / p)),

no argument being an integer.  Since ((-t)) = -((t)) and the sum over
x = 1..N-1 vanishes, substituting x -> N - x turns the sum for p - r
into the sum for r plus ((q r / p)), while ((q (p-r) / p)) = -((q r / p));
the two changes cancel.  This is the conjugate-character symmetry of the
Casson-Gordon signatures (chi^(p-r) is the conjugate of chi^r); for
sawtooth sums see Rademacher and Grosswald, *Dedekind Sums* (1972).
The tests check it exhaustively for p <= 41.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DomainError, InternalError

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
    "exact_dtype",
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


def cg_condition(p: int, q: int) -> SigmaReport:
    """Evaluate sigma(p, q, r) for r = 1..p-1; passes iff every value is +-1.

    The knot under test is p^2/q (double branched cover L(p^2, q)), so p
    must be odd and >= 3.
    """
    validate_knot(p, q)
    terms = tuple(SigmaTerm.of(q, r, weighted_count(p, q, r)) for r in range(1, p))
    first_failure = next((t.r for t in terms if t.sigma not in (-1, 1)), None)
    return SigmaReport(p, q, terms, first_failure is None, first_failure)


# p^4 < 2^62 bounds every kernel intermediate (at most 2 p^4) inside int64.
INT64_MAX_P = 46340
# Elements per batched kernel call: bounds the memory of one round.
_BATCH = 1 << 18


def exact_dtype(p: int):
    """The numpy dtype in which the batched kernel is exact for modulus p^2."""
    return np.int64 if p <= INT64_MAX_P else object


def _floor_sum_batch(n: np.ndarray, m: int, a: np.ndarray) -> np.ndarray:
    """floor_sum(n[k], m, a[k], 0) for every k, given 0 <= a[k] < m.

    The recursion of :func:`floor_sum`, elementwise; each step reduces a
    and b at its end, which the first step, with a < m and b = 0, skips.
    """
    total = np.zeros_like(n)
    acc = np.zeros_like(n)
    b = np.zeros_like(n)
    m = np.full_like(n, m)
    idx = np.arange(len(n))
    while True:
        y = a * n + b
        live = y >= m
        total[idx[~live]] = acc[~live]
        if not live.any():
            return total
        idx, y, a, m, acc = idx[live], y[live], a[live], m[live], acc[live]
        n = y // m
        b = y - n * m
        a, m = m, a
        k = a // m
        acc += (n - 1) * n // 2 * k
        a = a - k * m
        k = b // m
        acc += n * k
        b = b - k * m


def _sigma_grid(p: int, q: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """sigma(p, q[i], rs[j]) at [i, j], by the count of :func:`_floorsum_quarters`.

    No precondition checks beyond the lattice-point invariant.
    """
    p2 = p * p
    qc, r = q[:, None], rs[None, :]
    n = p * r
    # q is prime to p^2 unless it shares a prime with p: np.gcd only there
    step = np.full_like(q, p2)
    shared = ~coprime_mask(q, p)
    step[shared] = p2 // np.gcd(q[shared], p2)
    hyp = (n - 1) // step[:, None]
    qr = qc * r
    apex = qr % p == 0
    if hyp.any() or apex.any():
        i, j = np.argwhere((hyp != 0) | apex)[0]
        raise InternalError(
            f"lattice point on hypotenuse/apex for p={p}, q={q[i]}, r={rs[j]}: "
            "impossible under gcd(q,p)=1, r<p -- counting bug"
        )
    s = _floor_sum_batch(np.tile(n[0], len(q)), p2, np.repeat(q, len(rs)))
    quarters = 4 * s.reshape(qr.shape) + 2 * (n - 1) + 1 + 2 * ((qr - 1) // p)
    return 2 * qr * r - quarters


def coprime_mask(q: np.ndarray, p: int) -> np.ndarray:
    """gcd(q[k], p) == 1 for every k, by the prime factors of p (np.gcd is far slower)."""
    mask = np.ones(len(q), dtype=bool)
    rest, f = p, 2
    while f * f <= rest:
        if rest % f == 0:
            mask &= q % f != 0
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        mask &= q % rest != 0
    return mask


def _knot_array(p: int, qs) -> np.ndarray:
    """``qs`` as a 1-D array of :func:`exact_dtype`, every p^2/q a valid knot."""
    validate_knot(p, 1)
    arr = np.asarray(qs)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iuO"):
        raise DomainError(f"need a 1-D integer array of q, got {arr.dtype} of shape {arr.shape}")
    bad = np.flatnonzero((arr <= 0) | (arr >= p * p))
    if bad.size:
        raise DomainError(f"need 0 < q < p^2, got q={arr[bad[0]]}, p={p}")
    q = arr.astype(exact_dtype(p))
    bad = np.flatnonzero(~coprime_mask(q, p))
    if bad.size:
        raise DomainError(f"need gcd(q, p) = 1, got q={q[bad[0]]}, p={p}")
    return q


def cg_survivors(p: int, qs) -> np.ndarray:
    """The q of ``qs`` whose knot p^2/q passes :func:`cg_condition`, in input order.

    Equal to ``[q for q in qs if cg_condition(p, q).passes]``, computed in
    numpy rounds over r = 1..(p-1)/2 (see the module docstring for the
    batching, the int64 guard and the symmetry that ends the rounds).
    """
    q = _knot_array(p, qs)
    r_stop = (p - 1) // 2
    r0 = 1
    while len(q) and r0 <= r_stop:
        r1 = min(r0 + max(1, r0 - 1), r_stop + 1)
        rs = np.arange(r0, r1).astype(q.dtype)
        rows = max(1, _BATCH // len(rs))
        kept = []
        for i in range(0, len(q), rows):
            part = q[i : i + rows]
            kept.append(part[(np.abs(_sigma_grid(p, part, rs)) == 1).all(axis=1)])
        q = np.concatenate(kept)
        r0 = r1
    return q
