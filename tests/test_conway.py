from math import gcd

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from twobridge.conway import (
    UNKNOT,
    BridgeFraction,
    ConwayWord,
    KnotClass,
    canonical_class,
    cf_eval,
    cf_expand,
    fraction_orbit,
    is_amphicheiral,
    mirror,
    normalize,
    orbit_qs,
    parse_fraction,
    parse_word,
    same_knot,
)
from twobridge.errors import DomainError


@st.composite
def knot_fractions(draw, max_p=999):
    p = draw(st.sampled_from(range(3, max_p + 1, 2)))
    q = draw(st.integers(1, p - 1).filter(lambda q: gcd(p, q) == 1))
    return BridgeFraction(p, q)


positive_words = st.lists(st.integers(1, 9), min_size=1, max_size=8).map(tuple)
signed_words = st.lists(
    st.integers(-6, 6).filter(lambda a: a != 0), min_size=1, max_size=7
).map(tuple)


# ---------------------------------------------------------------- normalize

def test_normalize_reduces_modulo_p():
    assert str(normalize(121, 205)) == "121/84"


def test_normalize_already_reduced():
    assert str(normalize(9, 4)) == "9/4"


def test_normalize_rejects_even_determinant():
    with pytest.raises(DomainError, match="link"):
        normalize(16, 11)
    assert str(normalize(16, 11, allow_even=True)) == "16/11"


def test_normalize_absorbs_sign_as_mirror():
    # -p/q maps to p/(p - (q mod p))
    assert normalize(-121, 205) == BridgeFraction(121, 121 - 84)
    assert normalize(121, -205) == BridgeFraction(121, 121 - 84)
    assert normalize(-121, -205) == BridgeFraction(121, 84)


def test_normalize_unknot_and_errors():
    assert normalize(1, 0) == UNKNOT
    assert normalize(5, 0) == UNKNOT  # reduces by gcd to 1/0
    with pytest.raises(DomainError):
        normalize(0, 3)


def test_fraction_invariants_enforced():
    with pytest.raises(DomainError):
        BridgeFraction(9, 3)
    with pytest.raises(DomainError):
        BridgeFraction(9, 9)
    with pytest.raises(DomainError):
        BridgeFraction(1, 1)


# ------------------------------------------------------------------ cf_eval

def test_cf_eval_known_word():
    assert str(cf_eval(parse_word("C(2,1,3)"))) == "11/4"


def test_cf_eval_squared_determinant():
    f = cf_eval(parse_word("C(2,2,2,2,2,2)"))
    assert str(f) == "169/70" and f.p == 13 * 13


def test_cf_eval_link_grade_output():
    f = cf_eval(parse_word("C(2,1,-2)"))
    assert str(f) == "4/1" and f.is_link
    assert str(cf_eval(parse_word("C(1,2,4,1)"))) == "16/11"


def test_cf_eval_degenerate_words():
    with pytest.raises(DomainError, match="zero"):
        cf_eval(ConwayWord((1, -1)))
    with pytest.raises(DomainError, match="infinite"):
        cf_eval(ConwayWord((2, 1, -1)))


def test_word_validation():
    with pytest.raises(DomainError):
        ConwayWord(())
    with pytest.raises(DomainError):
        ConwayWord((2, 0, 1))


# ---------------------------------------------------------------- cf_expand

@pytest.mark.parametrize(
    "fraction, word",
    [("11/4", "C(2,1,3)"), ("9/5", "C(1,1,4)"), ("121/84", "C(1,2,3,1,2,3)")],
)
def test_cf_expand_known_words(fraction, word):
    assert str(cf_expand(parse_fraction(fraction))) == word


def test_cf_expand_unknot_is_an_error():
    with pytest.raises(DomainError):
        cf_expand(UNKNOT)


def test_cf_expand_link_grade():
    assert str(cf_expand(parse_fraction("16/11", allow_even=True))) == "C(1,2,5)"


def test_round_trip_exhaustive_small():
    # every valid knot fraction with p <= 1000 survives expand/eval exactly
    for p in range(3, 1001, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            f = BridgeFraction(p, q)
            word = cf_expand(f)
            assert all(a >= 1 for a in word.entries) and word.entries[-1] >= 2
            assert cf_eval(word) == f


# ---------------------------------------------------------------- same_knot

def test_same_knot_mirror_pair():
    assert same_knot(parse_fraction("11/7"), parse_fraction("11/4"), include_mirror=True)
    assert not same_knot(parse_fraction("11/7"), parse_fraction("11/4"), include_mirror=False)


def test_same_knot_inverse_pair():
    assert same_knot(parse_fraction("13/5"), parse_fraction("13/8"), include_mirror=False)


def test_same_knot_unknot():
    assert same_knot(UNKNOT, UNKNOT)
    assert not same_knot(UNKNOT, parse_fraction("3/1"))


# ----------------------------------------------------- classes and mirrors

def test_canonical_class_example():
    cls = canonical_class(parse_fraction("9/5"))
    assert str(cls.canonical) == "9/2" and cls.crossing == 6 and cls.determinant == 9


def test_canonical_class_unknot():
    cls = canonical_class(UNKNOT)
    assert cls.canonical == UNKNOT and cls.crossing == 0


def test_canonical_class_121_46():
    # all four orbit expansions of 121/46 sum to 11 (the c=10 family-1
    # knot is 81/34; 121/46 is the c=11 one)
    cls = canonical_class(parse_fraction("121/46"))
    assert str(cls.canonical) == "121/46" and cls.crossing == 11


def test_mirror_values():
    assert str(mirror(parse_fraction("9/4"))) == "9/5"
    m = mirror(parse_fraction("13/5"))
    assert str(m) == "13/8" and same_knot(parse_fraction("13/5"), m, include_mirror=False)
    assert mirror(UNKNOT) == UNKNOT


def test_is_amphicheiral_values():
    assert is_amphicheiral(parse_fraction("13/5"))
    assert is_amphicheiral(parse_fraction("5/2"))
    assert not is_amphicheiral(parse_fraction("9/4"))


def test_orbit_invariance_exhaustive():
    # crossing number and determinant agree on all orbit representatives
    for p in range(3, 501, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            reps = fraction_orbit(BridgeFraction(p, q))
            classes = {canonical_class(rep) for rep in reps}
            assert len(classes) == 1
            sums = {sum(cf_expand(rep).entries) for rep in reps}
            assert len(sums) == 1


def test_canonical_class_equals_the_orbit_and_expansion_derivation():
    # every reduced p/q with 2 <= p <= 150, knots and link-grade even p alike
    for p in range(2, 151):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            f = BridgeFraction(p, q)
            can = fraction_orbit(f)[0]
            expected = KnotClass(can, p, sum(cf_expand(can).entries), is_amphicheiral(can))
            assert canonical_class(f) == expected, f


def test_orbit_qs_is_the_inverse_and_mirror_closure():
    for p in range(2, 60):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            inv = next(x for x in range(1, p) if x * q % p == 1)
            assert orbit_qs(p, q, include_mirror=False) == tuple(sorted({q, inv}))
            assert orbit_qs(p, q) == tuple(sorted({q, inv, p - q, p - inv}))


# ------------------------------------------------------------- properties

@given(knot_fractions())
def test_round_trip_property(f):
    assert cf_eval(cf_expand(f)) == f


@given(knot_fractions(max_p=499))
def test_mirror_is_involutive_and_equivalent(f):
    assert mirror(mirror(f)) == f
    assert same_knot(f, mirror(f), include_mirror=True)


@given(positive_words)
def test_word_reversal_gives_same_knot(entries):
    w = ConwayWord(entries)
    assert same_knot(cf_eval(w), cf_eval(w.reversed()), include_mirror=True)


@given(signed_words)
def test_determinant_parity_gate(entries):
    w = ConwayWord(entries)
    try:
        f = cf_eval(w)
    except DomainError:
        return  # degenerate word
    if f.p % 2 == 1:
        assert cf_eval(w, allow_even=False) == f
    else:
        with pytest.raises(DomainError):
            cf_eval(w, allow_even=False)


@given(knot_fractions(max_p=499))
def test_canonical_is_orbit_minimal(f):
    cls = canonical_class(f)
    orbit = fraction_orbit(f)
    assert cls.canonical.q == min(rep.q for rep in orbit)
    assert cls.determinant == f.p


@settings(deadline=None)
@given(st.sampled_from(range(3, 2000, 2)))
def test_parse_emit_bit_exact(p):
    q = next(q for q in range(1, p) if gcd(p, q) == 1)
    text = f"{p}/{q}"
    assert str(parse_fraction(text)) == text


def test_parse_word_round_trip():
    assert str(parse_word("C(2,1,-3)")) == "C(2,1,-3)"
    assert str(parse_word("C( 2 , 1 , -3 )")) == "C(2,1,-3)"
    with pytest.raises(DomainError):
        parse_word("C()")
    with pytest.raises(DomainError):
        parse_fraction("11:4")
