from math import gcd, isqrt

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from twobridge import families
from twobridge.casson_gordon import cg_condition
from twobridge.conway import canonical_class, cf_expand, orbit_qs, parse_fraction, same_knot
from twobridge.errors import DomainError, InternalError
from twobridge.families import (
    ConditionMatch,
    _member_families,
    _partial_from_matches,
    build_family_index,
    family0_identity_holds,
    family_conditions,
    family_reps,
    generate,
    is_family_member,
    iter_compositions,
    partial_fractions,
    partial_knot,
)

nonzero_small = st.integers(-6, 6).filter(lambda x: x != 0)


# --------------------------------------------------------------- generators

def test_generate_family0_simplest():
    word, frac = generate(0, [2])
    assert str(word) == "C(2,4)" and str(frac) == "9/4"  # the ribbon knot 6_1


def test_generate_family2_unit():
    word, frac = generate(2, (1, 1))
    assert str(word) == "C(2,2,2,2,2,2)" and str(frac) == "169/70"


def test_generate_family1_unit():
    word, frac = generate(1, (1, -1))
    assert str(word) == "C(2,2,-2,-2,-2,-2)" and str(frac) == "121/46"


def test_generate_family0_link_output_tagged():
    _, frac = generate(0, [3])
    assert str(frac) == "16/5" and frac.is_link


def test_generate_parameter_validation():
    with pytest.raises(DomainError):
        generate(1, (0, 1))
    with pytest.raises(DomainError):
        generate(2, (1,))
    with pytest.raises(DomainError):
        generate(0, (1, 0))
    with pytest.raises(DomainError):
        generate(0, ())
    with pytest.raises(DomainError):
        generate(3, (1, 1))


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_family0_word_is_palindromic_double(params):
    word, _ = generate(0, params)
    e = word.entries
    assert len(e) == 2 * len(params)
    assert e[: len(params)] == tuple(params)
    assert e[len(params)] == params[-1] + 2
    assert e[len(params) + 1:] == tuple(reversed(params[:-1]))


# --------------------------------------------------------------- conditions

def test_conditions_121_84_worked_example():
    ms = family_conditions(11, 84)
    assert [(m.condition, m.sign, m.n, m.d) for m in ms] == [
        ("ii", 1, 7, None),
        ("iv", -1, 4, 3),
    ]


def test_conditions_121_46():
    ms = family_conditions(11, 46)
    assert [(m.condition, m.sign, m.n, m.d) for m in ms] == [("iv", 1, 2, 5)]


def test_conditions_9_4():
    # n = 1 satisfies i, ii and iii simultaneously (1 divides everything
    # and is odd), so all three labels are reported
    ms = family_conditions(3, 4)
    assert [(m.condition, m.sign, m.n, m.d) for m in ms] == [
        ("i", 1, 1, None),
        ("ii", 1, 1, None),
        ("iii", 1, 1, None),
    ]


def test_conditions_validate_inputs():
    with pytest.raises(DomainError):
        family_conditions(4, 3)
    with pytest.raises(DomainError):
        family_conditions(5, 25)
    with pytest.raises(DomainError):
        family_conditions(5, 10)


# --------------------------------------------------------------- membership

def test_member_via_condition_iv():
    mem = is_family_member(11, 46)
    assert mem.member
    assert any(m.condition == "iv" for m in mem.matches)


def test_member_with_generator_families():
    mem = is_family_member(5, 18)
    assert mem.member and mem.families == frozenset({1, 2})
    # crossing 32 = AUTO_LOOKUP_LIMIT, the largest crossing the lookup labels
    assert canonical_class(parse_fraction(f"{1597 * 1597}/1576240")).crossing == 32
    assert is_family_member(1597, 1576240).families == {0}


def test_member_lookup_guards_its_ring():
    # 25/7 = 25/18 comes from (a, b) = (-1, -1) in families 1 and 2; told
    # crossing 4, the lookup searches only the ring |a|, |b| <= 1, its outermost
    with pytest.raises(InternalError, match="bound too small"):
        _member_families(25, 7, 4)


def test_a_member_no_generator_produces_raises(monkeypatch):
    monkeypatch.setattr(families, "_member_families", lambda p2, q, crossing: set())
    with pytest.raises(InternalError, match="no generator produces"):
        is_family_member(5, 18)


def test_non_member():
    mem = is_family_member(5, 2, family_lookup=False)
    assert not mem.member and mem.partial is None and mem.matches == ()


def test_membership_is_orbit_closed():
    # 84 itself matches conditions, its orbit mate 36 matches others;
    # membership and partial agree whichever representative is given
    for q in (84, 85, 36, 37):
        mem = is_family_member(11, q, family_lookup=False)
        assert mem.member
        assert same_knot(mem.partial.canonical, parse_fraction("11/4"))


def test_family_reps_are_the_least_members_the_conditions_accept():
    # the scan sets its survivors against family_reps; here every coprime q is
    # tested for membership, and each member's partial knot must be one class
    for p in range(3, 152, 2):
        p2 = p * p
        accepted = {
            orbit_qs(p2, q)[0]
            for q in range(1, p2)
            if gcd(q, p) == 1 and is_family_member(p, q, family_lookup=False).member
        }
        assert family_reps(p) == accepted, p
        for q in accepted:
            partial_knot(p, q)  # raises InternalError on distinct partial classes


def lisca_reps(m):
    """The least orbit members of Lisca's 2-bridge ribbon knots with determinant m^2.

    P. Lisca, Lens spaces, rational balls and the ribbon conjecture, Geom.
    Topol. 11 (2007) 429-472: K(m^2, q) is ribbon iff q is, up to orbit,
    (1) m k +- 1 with m > k > 0 and gcd(m, k) = 1, (2) d (m +- 1) with d > 1
    dividing 2m -+ 1, or (3) d (m +- 1) with d > 1 odd dividing m +- 1.
    """
    p = m * m
    qs = [m * k + s for k in range(1, m) if gcd(m, k) == 1 for s in (1, -1)]
    for s in (1, -1):
        qs += [d * (m + s) for d in range(2, 2 * m + 2) if (2 * m - s) % d == 0]
        qs += [d * (m + s) for d in range(3, m + 2, 2) if (m + s) % d == 0]
    reps = set()
    for q in qs:
        if q < p:
            inv = pow(q, -1, p)
            reps.add(min(q, p - q, inv, p - inv))
    return reps


def test_family_reps_are_lisca_ribbon_knots():
    # an independent statement of the set the scan compares its survivors with
    for p in range(3, 402, 2):
        assert family_reps(p) == lisca_reps(p), p


def orbit_family_reps(p):
    """family_reps by orbit_qs on every q it builds, condition i included:
    the set of condition-i least members, and the whole set."""
    p2 = p * p
    divisors = range(1, 2 * p + 2)  # every divisor of 2p +- 1 and p +- 1
    cond_i = {
        orbit_qs(p2, n * p + sign)[0]
        for n in range(1, p // 2 + 1)
        if gcd(n, p) == 1
        for sign in (1, -1)
    }
    qs = []
    for sign in (1, -1):
        qs += [n * (p + sign) for n in divisors if (2 * p - sign) % n == 0]  # ii
        qs += [n * (p + sign) for n in divisors if (p + sign) % n == 0 and n % 2]  # iii
    return cond_i, cond_i | {orbit_qs(p2, q)[0] for q in qs if q < p2}


def test_family_reps_closed_form_matches_the_orbits():
    # condition i's orbits are {n p +- 1, (p - n) p +- 1}, least member n p - 1
    for p in range(3, 1002, 2):
        cond_i, reps = orbit_family_reps(p)
        assert cond_i == {n * p - 1 for n in range(1, p // 2 + 1) if gcd(n, p) == 1}, p
        assert family_reps(p) == reps, p


def test_family_reps_validates_p():
    for p in (1, 2, 8, -3):
        with pytest.raises(DomainError):
            family_reps(p)


def test_membership_serialization():
    d = is_family_member(5, 18).to_json_dict()
    assert d["member"] is True
    assert d["families"] == ["1", "2"]
    assert {"id": "iv", "sign": "-", "n": 2, "d": 3} in d["conditions"]
    assert d["partial"] == "5/2"


# ------------------------------------------------------------ partial knots

def test_partial_121_84():
    cls = partial_knot(11, 84)
    assert same_knot(cls.canonical, parse_fraction("11/4"))
    assert str(cf_expand(parse_fraction("11/4"))) == "C(2,1,3)"


def test_partial_9_4_is_trefoil():
    assert str(partial_knot(3, 4).canonical) == "3/1"


def test_partial_169_70():
    assert same_knot(partial_knot(13, 70).canonical, parse_fraction("13/5"))


def test_partial_rejects_non_member():
    with pytest.raises(DomainError):
        partial_knot(5, 2)


def test_partial_strict_comparison_can_need_mirror():
    # the n values for 121/84 give 11/7 and 11/4, equal only up to mirror
    fracs = partial_fractions(11, 84)
    strs = {str(f) for f in fracs}
    assert {"11/7", "11/4"} <= strs
    assert any(
        not same_knot(a, b, include_mirror=False) for a in fracs for b in fracs
    )
    assert all(same_knot(a, b, include_mirror=True) for a in fracs for b in fracs)


def test_partial_mismatch_raises_internal_error():
    with pytest.raises(InternalError):
        _partial_from_matches(
            5, [ConditionMatch("i", 1, 1), ConditionMatch("i", 1, 2)]
        )


# ----------------------------------------------------------- family-0 words

def test_family0_identity_examples():
    assert family0_identity_holds([2])       # C(3,1) and C(2,1,-2) are both 4/1
    assert family0_identity_holds([1, 2])    # both 9/7
    assert family0_identity_holds([2, 3])    # both 49/22


def test_family0_identity_rejects_x_below_2():
    with pytest.raises(DomainError):
        family0_identity_holds([1])
    with pytest.raises(DomainError):
        family0_identity_holds([2, 1])


@settings(deadline=None)
@given(st.lists(st.integers(1, 6), min_size=0, max_size=4), st.integers(2, 7))
def test_family0_identity_property(prefix, x):
    assert family0_identity_holds(tuple(prefix) + (x,))


# -------------------------------------------------------------- overlap law

def test_family1_equals_family2_at_a_minus_one():
    for b in range(-6, 7):
        if b == 0:
            continue
        w1, f1 = generate(1, (-1, b))
        w2, f2 = generate(2, (-1, b))
        assert w1.entries == w2.entries  # syntactically identical words
        assert canonical_class(f1) == canonical_class(f2)


# ------------------------------------------------- generators vs conditions

@settings(deadline=None, max_examples=60)
@given(st.sampled_from([0, 1, 2]), st.data())
def test_generated_knots_satisfy_conditions(family, data):
    if family == 0:
        params = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    else:
        params = [data.draw(nonzero_small), data.draw(nonzero_small)]
    _, frac = generate(family, params)
    if frac.is_link:
        return
    p = isqrt(frac.p)
    assert p * p == frac.p  # family knots have square determinant
    assert is_family_member(p, frac.q, family_lookup=False).member


def test_conditions_imply_generator_for_small_determinants():
    # every fraction with square determinant <= 19^2 passing the
    # membership conditions appears among generator-produced classes
    generated = set()
    for s in range(1, 19):
        for params in iter_compositions(s):
            _, frac = generate(0, params)
            if not frac.is_link:
                generated.add(canonical_class(frac))
    for family in (1, 2):
        for a in range(-12, 13):
            for b in range(-12, 13):
                if a == 0 or b == 0:
                    continue
                _, frac = generate(family, (a, b))
                if frac.p <= 361:
                    generated.add(canonical_class(frac))
    for p in range(3, 20, 2):
        p2 = p * p
        for q in range(1, p2):
            if gcd(q, p) != 1:
                continue
            if family_conditions(p, q):
                assert canonical_class(parse_fraction(f"{p2}/{q}")) in generated, (p, q)


def test_every_family_index_class_passes_cg():
    for cls in build_family_index(12):
        p = isqrt(cls.determinant)
        assert cg_condition(p, cls.canonical.q).passes


# ------------------------------------------------------------ family index

def test_family12_crossing_is_at_least_four_per_ring_plus_four():
    # the ring bound of _ring, over the old sweep's whole domain
    # (|a|, |b| <= bound + 1 for every bound up to 40)
    for family in (1, 2):
        for a in range(-41, 42):
            for b in range(-41, 42):
                if a == 0 or b == 0:
                    continue
                _, frac = generate(family, (a, b))
                if not frac.is_link:
                    assert canonical_class(frac).crossing >= 4 * max(abs(a), abs(b)) + 4, (family, a, b)


def test_member_lookup_agrees_with_the_index():
    # the member lookup reads each family class's families off its own words
    index = build_family_index(28)
    for cls, fams in index.items():
        assert _member_families(cls.determinant, cls.canonical.q, cls.crossing) == fams, cls
    # every knot class of crossing <= 24 at odd p < 60, family or not
    for p in range(3, 60, 2):
        p2 = p * p
        for q in range(1, p2 // 2 + 1):
            if gcd(q, p) == 1 and orbit_qs(p2, q)[0] == q:
                cls = canonical_class(parse_fraction(f"{p2}/{q}"))
                if cls.crossing <= 24:
                    assert _member_families(p2, q, cls.crossing) == index.get(cls, set()), cls


def _full_sweep_index(max_crossing):
    """The family index as built before the ring bound: |a|, |b| <= max_crossing + 1."""
    index = {}
    for s in range(1, (max_crossing - 2) // 2 + 1):
        for params in iter_compositions(s):
            _, frac = generate(0, params)
            if not frac.is_link:
                index.setdefault(canonical_class(frac), set()).add(0)
    bound = max_crossing + 1
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
                    index.setdefault(cls, set()).add(family)
    return {cls: frozenset(fams) for cls, fams in index.items()}


def test_family_index_equals_the_full_sweep():
    for c in range(3, 21):
        assert build_family_index(c) == _full_sweep_index(c), c


def test_member_lookup_builds_no_index():
    build_family_index.cache_clear()
    mem = is_family_member(377, 87840)
    assert canonical_class(parse_fraction(f"{377 * 377}/87840")).crossing == 26
    assert mem.member and mem.families
    assert build_family_index.cache_info().currsize == 0


def test_family_index_is_read_only():
    index = build_family_index(8)
    cls = next(iter(index))
    with pytest.raises(TypeError):
        index[cls] = frozenset({0})
    with pytest.raises(TypeError):
        del index[cls]
    assert build_family_index(8) == _full_sweep_index(8)
