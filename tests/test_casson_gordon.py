from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from twobridge.casson_gordon import (
    _column_quarters,
    _floorsum_quarters,
    _oracle_quarters,
    cg_condition,
    floor_sum,
    sigma,
    weighted_count,
    weighted_count_oracle,
)
from twobridge.errors import DomainError


@st.composite
def kernel_inputs(draw, max_p=41):
    p = draw(st.integers(2, max_p))
    q = draw(st.integers(1, p * p - 1).filter(lambda q: gcd(q, p) == 1))
    r = draw(st.integers(1, p - 1))
    return p, q, r


# ---------------------------------------------------------------- floor_sum

@given(st.integers(0, 60), st.integers(1, 60), st.integers(0, 60), st.integers(0, 60))
def test_floor_sum_matches_naive(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_rejects_bad_input():
    with pytest.raises(DomainError):
        floor_sum(3, 0, 1, 1)


# ------------------------------------------------------------- fixed values

def test_weighted_count_figure_values():
    assert weighted_count_oracle(11, 46, 1) == 93   # 23 1/4
    assert weighted_count_oracle(11, 46, 2) == 367  # 91 3/4
    assert weighted_count(11, 46, 1) == 93
    assert weighted_count(11, 46, 2) == 367


def test_weighted_count_hand_enumerations():
    assert weighted_count_oracle(3, 4, 1) == 7   # 1 3/4
    assert weighted_count(5, 2, 1) == 9          # 2 1/4
    assert weighted_count(3, 4, 2) == 31         # 7 3/4


def test_sigma_values():
    assert sigma(11, 46, 1) == -1
    assert sigma(11, 46, 2) == 1
    assert sigma(5, 2, 1) == -5  # witnesses that 25/2 is obstructed


def test_kernel_preconditions():
    for bad in [(1, 1, 1), (5, 5, 1), (5, 26, 1), (5, 2, 5), (5, 2, 0), (5, 0, 1)]:
        with pytest.raises(DomainError):
            weighted_count(*bad)


# ------------------------------------------------------------- cg_condition

def test_cg_passes_for_ribbon_6_1():
    report = cg_condition(3, 4)
    assert report.passes and report.first_failure is None
    assert [t.sigma for t in report.terms] == [1, 1]


def test_cg_fails_for_5_2():
    report = cg_condition(5, 2)
    assert not report.passes and report.first_failure == 1
    assert report.terms[0].sigma == -5
    assert len(report.terms) == 4  # no early exit in report mode
    short = cg_condition(5, 2, early_exit=True)
    assert len(short.terms) == 1


def test_cg_passes_for_121_46():
    report = cg_condition(11, 46)
    assert report.passes and len(report.terms) == 10
    assert all(t.sigma in (-1, 1) for t in report.terms)


def test_cg_rejects_even_or_small_p():
    with pytest.raises(DomainError):
        cg_condition(4, 3)
    with pytest.raises(DomainError):
        cg_condition(1, 1)


def test_report_serialization_schema():
    d = cg_condition(3, 4).to_json_dict()
    assert d["p"] == 3 and d["q"] == 4 and d["passes"] is True
    assert d["terms"][0] == {"r": 1, "area": "4/2", "int": "7/4", "sigma": 1}


# --------------------------------------------------------- path equivalence

def test_three_paths_agree_small_exhaustive():
    for p in range(3, 12, 2):
        p2 = p * p
        for q in range(1, p2):
            if gcd(q, p) != 1:
                continue
            for r in range(1, p):
                a = _oracle_quarters(p, q, r)
                b = _column_quarters(p, q, r)[0]
                c = weighted_count(p, q, r)
                assert a == b == c, (p, q, r)


@settings(deadline=None, max_examples=150)
@given(kernel_inputs())
def test_three_paths_agree_property(pqr):
    p, q, r = pqr
    assert (
        weighted_count_oracle(p, q, r)
        == _column_quarters(p, q, r)[0]
        == weighted_count(p, q, r)
    )


def test_relaxed_inputs_exercise_lattice_branches():
    # with r >= p the apex and hypotenuse can be lattice points; the
    # private paths still agree with the brute-force classification
    saw_apex = saw_hyp = False
    for p in (2, 3, 4, 5):
        p2 = p * p
        for q in range(1, p2):
            for r in range(1, 2 * p + 1):
                a = _oracle_quarters(p, q, r)
                b, hyp_b, apex_b = _column_quarters(p, q, r)
                c, hyp_c, apex_c = _floorsum_quarters(p, q, r)
                assert a == b == c, (p, q, r)
                assert (hyp_b, apex_b) == (hyp_c, apex_c)
                saw_apex |= apex_b
                saw_hyp |= hyp_b > 0
    assert saw_apex and saw_hyp


# ----------------------------------------------------------------- algebra

@settings(deadline=None, max_examples=100)
@given(kernel_inputs(max_p=31))
def test_sigma_identity_and_area(pqr):
    p, q, r = pqr
    quarters = weighted_count(p, q, r)
    area = Fraction(q * r * r, 2)
    count = Fraction(quarters, 4)
    s = sigma(p, q, r)
    assert Fraction(s) == 4 * (area - count)  # integrality is structural


def test_area_halves_exact_in_terms():
    for term in cg_condition(11, 46).terms:
        assert term.area_halves == 46 * term.r * term.r
        assert term.sigma == 2 * term.area_halves - term.quarters
