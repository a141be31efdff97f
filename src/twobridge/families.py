"""The three known families of 2-bridge ribbon knots.

Generators (parameters are twist counts; mirror images are obtained by
negating q, so membership is always tested on the whole orbit):

* family 0: C(a,b,...,w,x,x+2,w,...,b,a) with all parameters > 0,
* family 1: C(2a,2,2b,-2,-2a,2b) with a, b != 0,
* family 2: C(2a,2,2b,2a,2,2b) with a, b != 0.

A knot p^2/q lies in one of the families iff q (or an orbit mate of q
modulo p^2) satisfies one of four arithmetic conditions, labelled
i..iv, each singling out an integer n:

    i)   q = n*p +- 1        with gcd(n, p) = 1,
    ii)  q = n*(p +- 1)      with n | 2p -+ 1,
    iii) q = n*(p +- 1)      with n | p +- 1, n odd,
    iv)  q = n*(2p +- 1)     with d*n = p -+ 1, d odd.

(The -+ sign is opposite to the +- chosen on the same line.)  The
partial knot of such a symmetric union is p/n; distinct matching
conditions always produce the same knot class up to mirror, which
:func:`is_family_member` and :func:`partial_knot` verify.

:func:`family_reps` builds the whole family set of one p from conditions
i..iii, O(p) values from n and the divisors each condition names,
without testing any q (iv adds no orbit: see there); the scan compares
its survivors with that set.

The generator side enumerates the family words by crossing number:
family-0 words have crossing exactly 2*s + 2 for parameter sum s, and
the family 1/2 pairs (a, b) that can reach a crossing come from
:func:`_ring`.  :func:`build_family_index` takes every crossing up to its
bound.  The family lookup of :func:`is_family_member` enumerates nothing
by crossing: it reads family 0 off the knot's own two all-positive
expansions and tries only the pairs of the ring of its crossing, with no
index and no cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .casson_gordon import _prime_factors, validate_knot
from .conway import (
    BridgeFraction,
    ConwayWord,
    KnotClass,
    canonical_class,
    cf_eval,
    cf_expand,
    normalize,
    orbit_qs,
    same_knot,
)
from .errors import DomainError, InternalError

__all__ = [
    "generate",
    "family_conditions",
    "family_reps",
    "is_family_member",
    "partial_knot",
    "partial_fractions",
    "family0_identity_holds",
    "build_family_index",
    "iter_compositions",
    "ConditionMatch",
    "FamilyMembership",
]

# Generator-family lookup costs O(crossing^2) (the family 1/2 ring) and
# could run at any crossing; it stays at or below 32 because a higher limit
# would fill ``families`` for larger knots and so change ``member`` output.
AUTO_LOOKUP_LIMIT = 32


def generate(family: int, params: Sequence[int]) -> tuple[ConwayWord, BridgeFraction]:
    """Build the family word for the given parameters and evaluate it.

    Family 0 takes any number of positive parameters (a,...,w,x) and
    yields C(a,...,w,x,x+2,w,...,a); families 1 and 2 take exactly
    (a, b), both nonzero.  Even-determinant outputs are 2-bridge links
    (possible for family 0) and are tagged via ``fraction.is_link``.
    """
    params = tuple(int(x) for x in params)
    if family == 0:
        if not params:
            raise DomainError("family 0 needs at least one parameter")
        if any(x < 1 for x in params):
            raise DomainError(f"family 0 parameters must be positive, got {params}")
        entries = params + (params[-1] + 2,) + tuple(reversed(params[:-1]))
    elif family in (1, 2):
        if len(params) != 2:
            raise DomainError(f"family {family} takes exactly two parameters (a, b)")
        a, b = params
        if a == 0 or b == 0:
            raise DomainError("family parameters must satisfy a, b != 0")
        if family == 1:
            entries = (2 * a, 2, 2 * b, -2, -2 * a, 2 * b)
        else:
            entries = (2 * a, 2, 2 * b, 2 * a, 2, 2 * b)
    else:
        raise DomainError(f"unknown family {family!r}, expected 0, 1 or 2")
    word = ConwayWord(entries)
    return word, cf_eval(word)


@dataclass(frozen=True)
class ConditionMatch:
    """One satisfied membership condition: label, sign, n (and d for iv).

    ``q_rep`` records which orbit representative of q produced the match.
    """

    condition: str
    sign: int
    n: int
    d: int | None = None
    q_rep: int | None = None

    def to_json_dict(self) -> dict:
        out = {"id": self.condition, "sign": "+" if self.sign > 0 else "-", "n": self.n}
        if self.d is not None:
            out["d"] = self.d
        return out

    def __str__(self) -> str:
        tail = f",d={self.d}" if self.d is not None else ""
        return f"{self.condition}({'+' if self.sign > 0 else '-'},n={self.n}{tail})"


def family_conditions(p: int, q: int) -> list[ConditionMatch]:
    """All conditions i..iv satisfied by q itself (no orbit closure)."""
    validate_knot(p, q)
    matches = []
    for sign in (1, -1):  # i) q = n*p +- 1 with gcd(n, p) = 1
        n, rem = divmod(q - sign, p)
        if n > 0 and rem == 0 and gcd(n, p) == 1:
            matches.append(ConditionMatch("i", sign, n, q_rep=q))
    for sign in (1, -1):  # ii) q = n*(p +- 1) with n | 2p -+ 1
        n, rem = divmod(q, p + sign)
        if rem == 0 and (2 * p - sign) % n == 0:
            matches.append(ConditionMatch("ii", sign, n, q_rep=q))
    for sign in (1, -1):  # iii) q = n*(p +- 1) with n | p +- 1, n odd
        n, rem = divmod(q, p + sign)
        if rem == 0 and (p + sign) % n == 0 and n % 2 == 1:
            matches.append(ConditionMatch("iii", sign, n, q_rep=q))
    for sign in (1, -1):  # iv) q = n*(2p +- 1) with d*n = p -+ 1, d odd
        n, rem = divmod(q, 2 * p + sign)
        if rem == 0 and (p - sign) % n == 0 and (p - sign) // n % 2 == 1:
            matches.append(ConditionMatch("iv", sign, n, d=(p - sign) // n, q_rep=q))
    return matches


def _divisors(m: int) -> list[int]:
    """The positive divisors of m >= 1, by trial division."""
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def family_reps(p: int) -> set[int]:
    """The least orbit member (mod p^2, mirrors included) of every family knot p^2/q.

    The q with 0 < q < p^2 that meet a condition i..iii are built, not
    searched for.  Condition i takes n*p +- 1 for n prime to p, and its
    orbits are in closed form: (n*p + 1)((p - n)*p + 1) = 1 (mod p^2), so the
    orbit of n*p + 1 is {n*p +- 1, (p - n)*p +- 1}, mirrors being
    p^2 - q.  Both signs and both of n, p - n give that one orbit, and its
    least member is n*p - 1 for the n < p/2.  The n*(p +- 1) for the
    divisors n that conditions ii and iii name take their least orbit member
    from :func:`conway.orbit_qs`.  Each is prime to p, as p +- 1 and their
    divisors are.

    Condition iv adds no orbit.  Let q = n*(2p + s) with d*n = p - s, d odd,
    s = +-1.  Then q' = d*(p - s) = d^2 n meets iii with the sign -s and
    n = d, and q' < p^2 as d <= (p + 1)/2.  Now q*q' = (p - s)^2 (2p + s),
    and (p - s)^2 = 1 - 2ps (mod p^2), so q*q' = 2p + s - 2p = s (mod p^2):
    q = +-q'^-1 lies in the orbit of q'.  So the result equals the least
    orbit members of the q that :func:`is_family_member` accepts by i..iv.
    """
    validate_knot(p, 1)
    p2 = p * p
    end = p * (p // 2)  # i: n*p - 1 for n < p/2, less the n that a prime f of p divides
    reps = set(range(p - 1, end, p))
    reps.difference_update(*(range(f * p - 1, end, f * p) for f in _prime_factors(p)))
    qs = [n * (p + s) for s in (1, -1) for n in _divisors(2 * p - s)]  # ii
    qs += [n * (p + s) for s in (1, -1) for n in _divisors(p + s) if n % 2]  # iii
    return reps | {orbit_qs(p2, q)[0] for q in qs if q < p2}


def _orbit_matches(p: int, q: int) -> tuple[ConditionMatch, ...]:
    return tuple(
        m for rep in orbit_qs(p * p, q) for m in family_conditions(p, rep)
    )


@dataclass(frozen=True)
class FamilyMembership:
    """Membership verdict for the knot p^2/q.

    ``matches`` collects the satisfied conditions over all four orbit
    representatives of q modulo p^2; membership means at least one.
    ``families`` names the generator families producing the class when a
    generator index was consulted (it stays empty otherwise).
    """

    p: int
    q: int
    member: bool
    families: frozenset[int]
    matches: tuple[ConditionMatch, ...]
    partial: KnotClass | None

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "member": self.member,
            "families": [str(f) for f in sorted(self.families)],
            "conditions": [m.to_json_dict() for m in self.matches],
            "partial": str(self.partial.canonical) if self.partial else None,
        }


def _partial_from_matches(p: int, matches: Sequence[ConditionMatch]) -> KnotClass:
    classes: dict[BridgeFraction, KnotClass] = {}
    for m in matches:
        n = m.n % p
        if n == 0 or gcd(n, p) != 1:
            raise InternalError(f"partial parameter n={m.n} is not invertible modulo p={p}")
        cls = canonical_class(normalize(p, n))
        classes[cls.canonical] = cls
    if len(classes) != 1:
        raise InternalError(
            f"matches for p={p} yield distinct partial-knot classes "
            f"{sorted(str(c) for c in classes)}: convention bug"
        )
    return next(iter(classes.values()))


def _member_families(p2: int, q: int, crossing: int) -> set[int]:
    """The generator families producing the knot p2/q, whose crossing number is given.

    Family 0: p2/q' has exactly two all-positive expansions, cf_expand's and
    the same with its last entry e split as (e - 1, 1), and a family-0 word is
    one of them for some q' of the orbit; so the knot is in family 0 iff one of
    these has the shape (a,...,w,x,x+2,w,...,a).  Families 1 and 2: every pair
    of ``_ring(crossing)`` is kept when its fraction lies in the orbit; a pair
    on the outermost ring that produces the knot raises InternalError.  Agrees
    with :func:`build_family_index` on every class of crossing <= 28 (tested).
    """
    orbit = orbit_qs(p2, q)
    families: set[int] = set()
    for q_rep in orbit:
        entries = cf_expand(BridgeFraction(p2, q_rep)).entries
        for word in (entries, entries[:-1] + (entries[-1] - 1, 1)):
            m = len(word) // 2
            if len(word) % 2 == 0 and word[m] == word[m - 1] + 2 and word[: m - 1] == word[:m:-1]:
                families.add(0)
    for family, a, b, frac, outer in _ring(crossing):
        if frac.p == p2 and frac.q in orbit:
            if outer:
                raise InternalError(
                    f"family-{family} parameters ({a}, {b}) beyond the bound produce "
                    f"{p2}/{q} of crossing {crossing}: bound too small"
                )
            families.add(family)
    return families


def is_family_member(p: int, q: int, family_lookup: bool = True) -> FamilyMembership:
    """Orbit-closed membership test for the knot p^2/q.

    Conditions are evaluated on all four orbit representatives of q
    modulo p^2 (the family list includes mirror images).  When
    ``family_lookup`` is set and the knot's crossing number c is at most
    AUTO_LOOKUP_LIMIT, the generator families containing the class are
    found by :func:`_member_families` from the knot's own words (not
    through :func:`build_family_index`); a member no generator produces
    raises InternalError.
    """
    validate_knot(p, q)
    matches = _orbit_matches(p, q)
    member = bool(matches)
    partial = _partial_from_matches(p, matches) if member else None
    families: frozenset[int] = frozenset()
    if member and family_lookup:
        cls = canonical_class(normalize(p * p, q))
        if cls.crossing <= AUTO_LOOKUP_LIMIT:
            families = frozenset(_member_families(p * p, cls.canonical.q, cls.crossing))
            if not families:
                raise InternalError(
                    f"{p * p}/{q} satisfies {[str(m) for m in matches]} but no generator "
                    f"produces its class within crossing {cls.crossing}: disagreement"
                )
    return FamilyMembership(p, q, member, families, matches, partial)


def partial_knot(p: int, q: int) -> KnotClass:
    """The partial-knot class p/n of a family member p^2/q.

    Every matched condition contributes its n; all of them must give one
    knot class up to mirror (checked; violation raises InternalError).
    Non-members are a domain error.
    """
    validate_knot(p, q)
    matches = _orbit_matches(p, q)
    if not matches:
        raise DomainError(f"{p * p}/{q} is not in the known ribbon families")
    return _partial_from_matches(p, matches)


def partial_fractions(p: int, q: int) -> list[BridgeFraction]:
    """The raw partial fractions p/(n mod p), one per matched condition."""
    validate_knot(p, q)
    return [normalize(p, m.n % p) for m in _orbit_matches(p, q)]


def family0_identity_holds(params: Sequence[int]) -> bool:
    """Check the symmetric-union rewriting of a family-0 word.

    For parameters (a,...,w,x) with x >= 2 the words
    C(a,...,w,x+1,x-1,w,...,a) and C(a,...,w,x,1,-x,-w,...,-a) must
    describe the same knot (or link) up to mirror.  Both words are built
    verbatim and compared through their fractions.
    """
    params = tuple(int(x) for x in params)
    if not params or any(x < 1 for x in params):
        raise DomainError(f"parameters must be positive, got {params}")
    x = params[-1]
    if x < 2:
        raise DomainError("last parameter must be >= 2 (the entry x-1 must be nonzero)")
    prefix = params[:-1]
    doubled = ConwayWord(prefix + (x + 1, x - 1) + tuple(reversed(prefix)))
    union = ConwayWord(prefix + (x, 1, -x) + tuple(-e for e in reversed(prefix)))
    return same_knot(cf_eval(doubled), cf_eval(union))


def iter_compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in iter_compositions(total - first):
            yield (first,) + rest


def _ring(hi: int) -> Iterator[tuple[int, int, int, BridgeFraction, bool]]:
    """(family, a, b, fraction, outer) for every family 1/2 pair with |a|, |b| <= (hi - 4)//4 + 1.

    Families 1 and 2 give crossing at least 4*max(|a|, |b|) + 4 (tested
    exhaustively for |a|, |b| <= 41 in tests/test_families.py, beyond every
    ring a crossing <= 40 needs, and met with equality by many pairs), so
    these are all the pairs whose knot can have crossing <= hi.  ``outer``
    marks the outermost ring, on which the bound gives crossing > hi: a caller
    that finds it producing a knot of crossing <= hi raises InternalError.
    """
    bound = (hi - 4) // 4 + 1
    for family in (1, 2):
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                if a and b:
                    yield family, a, b, generate(family, (a, b))[1], max(abs(a), abs(b)) == bound


@lru_cache(maxsize=None)
def build_family_index(max_crossing: int) -> Mapping[KnotClass, frozenset[int]]:
    """Map every family knot class with crossing <= max_crossing to its families.

    Family 0 is enumerated by parameter sum s; its all-positive word has
    crossing exactly 2*s + 2 (asserted), so only the compositions of the s
    with 2*s + 2 <= max_crossing are built.  Families 1 and 2 run over
    ``_ring(max_crossing)`` with a crossing post-filter; the outermost ring
    must contribute nothing (raises InternalError otherwise).  Cached per
    bound for the table and the crosscheck, so every call shares one index:
    it is frozen, a read-only ``MappingProxyType`` over the dict (equal to
    that dict) whose values are frozensets, and an assignment raises
    TypeError.  Membership lookups do not use it.
    """
    if not 3 <= max_crossing <= 40:
        raise DomainError(f"crossing bound must be in 3..40, got {max_crossing}")
    classes: dict[KnotClass, set[int]] = {}
    for s in range(1, (max_crossing - 2) // 2 + 1):
        for params in iter_compositions(s):
            _, frac = generate(0, params)
            if frac.is_link:
                continue
            cls = canonical_class(frac)
            if cls.crossing != 2 * s + 2:
                raise InternalError(
                    f"family-0 word for {params} has crossing {cls.crossing}, expected {2 * s + 2}"
                )
            classes.setdefault(cls, set()).add(0)
    for family, a, b, frac, outer in _ring(max_crossing):
        if frac.is_link:
            continue
        cls = canonical_class(frac)
        if cls.crossing > max_crossing:
            continue
        if outer:
            raise InternalError(
                f"family-{family} parameters ({a}, {b}) beyond the bound produce "
                f"crossing {cls.crossing} <= {max_crossing}: bound too small"
            )
        classes.setdefault(cls, set()).add(family)
    return MappingProxyType({cls: frozenset(fams) for cls, fams in classes.items()})
