"""Exact arithmetic for 2-bridge fractions and Conway notation.

A 2-bridge knot is classified (Schubert) by a reduced fraction p/q where
p is the knot determinant (odd for knots, even for 2-component links) and
0 < q < p.  Unoriented equivalence is q' = q or q*q' = 1 (mod p); taking
the mirror image sends q to p - q.  The pair (1, 0) encodes the unknot.

Conway notation C(a1,...,an) is the plait normal form; the entries are
signed half-twist counts related to p/q by the continued fraction

    [a1,...,an] = a1 + 1/(a2 + 1/(... + 1/an)) = p/q.

Everything here is exact integer arithmetic; no floats anywhere.  All
values are immutable, so every function is safe for concurrent use.

Convention notes: the continued fraction is evaluated left-to-right as
written above, by an exact right-to-left fold over extended rationals
(a zero intermediate value inverts to the point at infinity, which
absorbs the next addition).  Mirror-insensitive comparisons are stable
under any sign convention; strict-chirality results (include_mirror=False)
depend on this convention and are flagged as such where exposed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

from .errors import DomainError

__all__ = [
    "BridgeFraction",
    "ConwayWord",
    "KnotClass",
    "UNKNOT",
    "normalize",
    "parse_fraction",
    "parse_word",
    "cf_eval",
    "cf_expand",
    "same_knot",
    "mirror",
    "is_amphicheiral",
    "orbit_qs",
    "fraction_orbit",
    "canonical_class",
]


@dataclass(frozen=True)
class BridgeFraction:
    """A reduced 2-bridge fraction p/q.

    Invariants: gcd(p, q) = 1 and 0 < q < p for p > 1; (1, 0) is the
    unique unknot representation.  Even p denotes a 2-bridge link, not a
    knot; the parity gate lives in :func:`normalize` (the validating
    constructor), so that intermediate algebra may carry link-grade
    values tagged via :attr:`is_link`.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise DomainError("fraction parts must be integers")
        if self.p < 1:
            raise DomainError(f"determinant must be positive, got {self.p}")
        if self.p == 1:
            if self.q != 0:
                raise DomainError("the unknot is represented as 1/0")
        elif not 0 < self.q < self.p:
            raise DomainError(f"need 0 < q < p, got {self.p}/{self.q}")
        elif gcd(self.p, self.q) != 1:
            raise DomainError(f"{self.p}/{self.q} is not reduced")

    @property
    def is_unknot(self) -> bool:
        return self.p == 1

    @property
    def is_link(self) -> bool:
        """True for even determinant (a 2-bridge link, not a knot)."""
        return self.p % 2 == 0

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


UNKNOT = BridgeFraction(1, 0)


@dataclass(frozen=True)
class ConwayWord:
    """A sequence of nonzero signed twist counts C(a1,...,an)."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise DomainError("Conway word must be nonempty")
        if any(not isinstance(a, int) or a == 0 for a in self.entries):
            raise DomainError(f"Conway word entries must be nonzero integers: {self.entries}")

    def reversed(self) -> "ConwayWord":
        return ConwayWord(tuple(reversed(self.entries)))

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "C(" + ",".join(str(a) for a in self.entries) + ")"


def normalize(numerator: int, denominator: int, allow_even: bool = False) -> BridgeFraction:
    """Reduce an integer ratio to the standard 2-bridge fraction p/q.

    The denominator is reduced modulo p into (0, p).  A negative overall
    value -p/q maps to p/(p - (q mod p)), i.e. the sign is absorbed as a
    mirror.  p = 1 yields the unknot.  Even p is rejected as a 2-bridge
    link unless ``allow_even`` is set.
    """
    if numerator == 0:
        raise DomainError("zero numerator does not describe a 2-bridge fraction")
    g = gcd(abs(numerator), abs(denominator))
    num = numerator // g
    den = denominator // g
    if num < 0:
        num, den = -num, -den
    if num == 1:
        return UNKNOT
    if num % 2 == 0 and not allow_even:
        raise DomainError(f"even determinant {num}: two-bridge link, not a knot")
    return BridgeFraction(num, den % num)


_FRACTION_RE = re.compile(r"^\s*(-?\d+)\s*/\s*(-?\d+)\s*$")


def parse_fraction(text: str, allow_even: bool = False) -> BridgeFraction:
    """Parse the textual form "p/q" (normalizing, so "121/205" is accepted)."""
    m = _FRACTION_RE.match(text)
    if not m:
        raise DomainError(f"cannot parse fraction {text!r}, expected 'p/q'")
    return normalize(int(m.group(1)), int(m.group(2)), allow_even=allow_even)


_WORD_RE = re.compile(r"^\s*C\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)\s*$")


def parse_word(text: str) -> ConwayWord:
    """Parse the textual form "C(a1,a2,...)" with optional minus signs."""
    m = _WORD_RE.match(text)
    if not m:
        raise DomainError(f"cannot parse Conway word {text!r}, expected 'C(a1,a2,...)'")
    return ConwayWord(tuple(int(tok) for tok in m.group(1).split(",")))


def cf_eval(word: ConwayWord, allow_even: bool = True) -> BridgeFraction:
    """Evaluate [a1,...,an] = a1 + 1/(a2 + ... + 1/an) exactly.

    The fold runs right to left over pairs (num, den); an intermediate 0
    becomes 1/0 (the point at infinity) and absorbs the next addition.
    A final value of 0 or infinity is not a knot or link fraction.
    """
    num, den = word.entries[-1], 1
    for a in reversed(word.entries[:-1]):
        num, den = a * num + den, num
    if den == 0:
        raise DomainError(f"degenerate word {word}: value is infinite")
    if num == 0:
        raise DomainError(f"degenerate word {word}: value is zero")
    return normalize(num, den, allow_even=allow_even)


def _quotients(p: int, q: int) -> list[int]:
    """The Euclidean quotients of p/q, for 0 < q < p coprime: the all-positive
    expansion with last entry >= 2 (the last step divides a remainder
    r > gcd(p, q) = 1 by 1, so no trailing 1 needs merging)."""
    entries: list[int] = []
    while q:
        quot, p, q = p // q, q, p % q
        entries.append(quot)
    return entries


def cf_expand(f: BridgeFraction) -> ConwayWord:
    """The unique all-positive expansion with last entry >= 2.

    Greedy Euclidean expansion (:func:`_quotients`).  Round-trips exactly:
    cf_eval(cf_expand(f)) == f.
    """
    if f.is_unknot:
        raise DomainError("the unknot has an empty expansion (crossing 0)")
    return ConwayWord(tuple(_quotients(f.p, f.q)))


def same_knot(f1: BridgeFraction, f2: BridgeFraction, include_mirror: bool = True) -> bool:
    """Schubert equivalence: q2 in {q1, q1^-1 mod p}, plus the mirror pair when asked."""
    return f2 in fraction_orbit(f1, include_mirror=include_mirror)


def mirror(f: BridgeFraction) -> BridgeFraction:
    """The mirror image p/(p-q); the unknot is its own mirror."""
    if f.is_unknot:
        return f
    return BridgeFraction(f.p, f.p - f.q)


def is_amphicheiral(f: BridgeFraction) -> bool:
    """True iff q^2 = -1 (mod p); the unknot counts as amphicheiral."""
    if f.is_unknot:
        return True
    return (f.q * f.q + 1) % f.p == 0


def orbit_qs(p: int, q: int, include_mirror: bool = True) -> tuple[int, ...]:
    """The q' of every fraction p/q' equivalent to p/q, ascending: {q, q^-1 mod p},
    and with ``include_mirror`` their mirrors p - q'.  Needs gcd(q, p) = 1 and p >= 2."""
    qs = {q, pow(q, -1, p)}
    if include_mirror:
        qs |= {p - x for x in qs}
    return tuple(sorted(qs))


def fraction_orbit(f: BridgeFraction, include_mirror: bool = True) -> tuple[BridgeFraction, ...]:
    """All equivalent fractions {q, q^-1} (and their mirrors), sorted by q."""
    if f.is_unknot:
        return (f,)
    return tuple(BridgeFraction(f.p, q) for q in orbit_qs(f.p, f.q, include_mirror))


@dataclass(frozen=True)
class KnotClass:
    """Canonical representative of a knot-equivalence orbit.

    ``canonical`` is the minimal-q member of the orbit, ``determinant``
    its p, ``crossing`` the entry sum of the canonical all-positive
    expansion (0 for the unknot; identical across the orbit).
    """

    canonical: BridgeFraction
    determinant: int
    crossing: int
    amphicheiral: bool

    def __str__(self) -> str:
        return str(self.canonical)


def canonical_class(f: BridgeFraction) -> KnotClass:
    """The class of f, named by the least q in its orbit with mirrors (for the
    strict representative use ``fraction_orbit(f, include_mirror=False)[0]``).

    The crossing number is the sum of the Euclidean quotients of p/q, the
    same for every member of the orbit, so it is taken from the least q.
    """
    if f.is_unknot:
        return KnotClass(UNKNOT, 1, 0, True)
    p = f.p
    q = orbit_qs(p, f.q)[0]
    can = f if q == f.q else BridgeFraction(p, q)
    return KnotClass(can, p, sum(_quotients(p, q)), is_amphicheiral(can))
