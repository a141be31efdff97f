import dataclasses
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import numpy as np

from twobridge import _kernel, casson_gordon
from twobridge._kernel import (
    _compiled_lanes,
    _floor_sum_batch,
    _first_round_sums,
    _histogram_sums,
    _lane_sums,
    _oracle_quarters,
    _sigma_first_round,
    _sigma_steps,
    _tested_blocks,
    _window_survivors,
)
from twobridge.casson_gordon import (
    INT64_MAX_P,
    SigmaReport,
    SigmaTerm,
    _column_quarters,
    _prime_factors,
    _sigma_terms,
    cg_condition,
    cg_survivors,
    coprime_mask,
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
    assert len(report.terms) == 4  # the report covers every r


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
    # even p too: weighted_count and the sigma command accept them
    for p in range(2, 14):
        p2 = p * p
        for q in range(1, p2):
            if gcd(q, p) != 1:
                continue
            for r in range(1, p):
                a = _oracle_quarters(p, q, r)
                b = _column_quarters(p, q, r)
                c = weighted_count(p, q, r)
                assert a == b == c, (p, q, r)


@settings(deadline=None, max_examples=150)
@given(kernel_inputs())
def test_three_paths_agree_property(pqr):
    p, q, r = pqr
    assert (
        weighted_count_oracle(p, q, r)
        == _column_quarters(p, q, r)
        == weighted_count(p, q, r)
    )


def test_oracle_weights_lattice_triangles_by_pick():
    # validated input has no hypotenuse or apex point, so only the oracle
    # weighs them.  With p | qr (relaxed input) the triangle is a lattice
    # triangle, and Pick's area = I + B/2 - 1 is exactly the weighted count:
    # interior 1, edge 1/2, the two vertices other than the origin 1/4.
    cases = with_hyp = 0
    for p in range(2, 9):
        p2 = p * p
        for q in range(1, p2):
            for r in range(1, 2 * p + 1):
                if q * r % p:
                    continue
                assert _oracle_quarters(p, q, r) == 2 * q * r * r, (p, q, r)
                cases += 1
                # points (x, q x / p^2) with 0 < x < pr
                with_hyp += (p * r - 1) // (p2 // gcd(q, p2)) > 0
    assert (cases, with_hyp) == (808, 627)


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


# ------------------------------------------------------------ report terms

def test_terms_equal_the_count_and_are_symmetric_in_r_exhaustive():
    # every q at p <= 50, even p included (the sigma command takes them):
    # the block pass equals the floor sum at every r, and its sigmas meet
    # sigma(p, q, r) = sigma(p, q, p - r), the identity the batched kernel
    # stops at.  About 10 s; p <= 60 (44,230 cases) takes twice that
    cases = 0
    for p in range(2, 51):
        for q in range(1, p * p):
            if gcd(q, p) == 1:
                counted = tuple(SigmaTerm.of(q, r, weighted_count(p, q, r)) for r in range(1, p))
                terms = _sigma_terms(p, q)
                assert terms == counted, (p, q)
                sigmas = [t.sigma for t in terms]
                assert sigmas == sigmas[::-1], (p, q)
                cases += 1
    assert cases == 26020


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 3001), st.data())
def test_terms_equal_the_count_at_every_r_up_to_p_3001(p, data):
    # the block pass at every r up to r = p - 1
    q = data.draw(st.integers(1, p * p - 1).filter(lambda q: gcd(q, p) == 1))
    terms = _sigma_terms(p, q)
    assert len(terms) == p - 1
    rs = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=6)) + [1, p // 2, p - 1]
    for r in rs:
        assert terms[r - 1] == SigmaTerm.of(q, r, weighted_count(p, q, r)), (p, q, r)


@pytest.mark.parametrize("q", [46348, 123456789, 46349**2 - 2])
def test_terms_equal_the_count_above_the_int64_guard(q):
    # the report route runs on Python ints, where the batched kernel cannot go
    p = 46349
    assert p > INT64_MAX_P and _prime_factors(p) == [p]
    terms = _sigma_terms(p, q)
    assert len(terms) == p - 1
    rng = np.random.default_rng(q)
    rs = [1, 2, 3, p // 2 - 1, p // 2, p - 1] + rng.integers(1, p, size=4).tolist()
    for r in rs:
        assert terms[r - 1] == SigmaTerm.of(q, r, weighted_count(p, q, r)), (q, r)


@pytest.mark.parametrize("p, q", [(2, 3), (25, 7), (571, 1000)])
def test_report_terms_are_the_sigma_terms_their_counts_give(p, q):
    # every term the package builds, at an even p too, is the SigmaTerm of its
    # count: immutable, and the same value, type and hash after a pickle
    terms = _sigma_terms(p, q)
    report = cg_condition(p, q) if p % 2 else SigmaReport(p, q, terms, False, 1)
    assert report.terms == terms
    for t in terms + report.terms:
        assert type(t) is SigmaTerm
        assert t == SigmaTerm.of(q, t.r, t.quarters)
        with pytest.raises(AttributeError):
            t.sigma = 0
        back = pickle.loads(pickle.dumps(t))
        assert type(back) is SigmaTerm and back == t and hash(back) == hash(t)
    counted = tuple(SigmaTerm.of(q, t.r, t.quarters) for t in terms)
    by_of = dataclasses.replace(report, terms=counted)
    assert report.to_json_dict() == by_of.to_json_dict()
    assert report == by_of and hash(report) == hash(by_of)


# ------------------------------------------------------------ batched kernel

def coprime_qs(p):
    return [q for q in range(1, p * p) if gcd(q, p) == 1]


def passes(p, q):
    """The Python-int reference for cg_survivors, stopping at the first failing r."""
    return all(sigma(p, q, r) in (-1, 1) for r in range(1, p))


def test_cg_survivors_match_cg_condition_exhaustive():
    # the fail path the scan's claim rests on, for every knot with odd p <= 99
    for p in range(3, 100, 2):
        qs = coprime_qs(p)
        expected = [q for q in qs if passes(p, q)]
        assert cg_survivors(p, qs).tolist() == expected, p


def test_cg_survivors_run_numpy_without_the_c_library(monkeypatch):
    # one route on every machine: cg_survivors never asks for the C library,
    # whether or not it would load; every q at p = 151, then a sample at 2001 of
    # a dense run of q, random q and the ribbon knots p^2/(p +- 1) and p^2/(p^2 - p - 1)
    def refuse():
        raise AssertionError("cg_survivors asked for the C library")

    monkeypatch.setattr(_kernel, "_compiled_lanes", refuse)
    p = 151
    qs = coprime_qs(p)
    assert cg_survivors(p, qs).tolist() == [q for q in qs if passes(p, q)]
    p = 2001
    rng = np.random.default_rng(p)
    ribbon = [p - 1, p + 1, p * p - p - 1]
    qs = np.concatenate([np.arange(1, 4000), rng.integers(1, p * p, 2000), ribbon])
    qs = qs[coprime_mask(qs, p)]
    expected = [q for q in qs.tolist() if passes(p, q)]
    assert cg_survivors(p, qs).tolist() == expected
    assert set(ribbon) <= set(expected)


def test_batched_sigma_matches_and_is_symmetric_in_r(monkeypatch):
    # every r, not only the r <= (p-1)/2 the kernel stops at, from sigma_0 = 1:
    # a switch constant of 1 takes every T(b) from the floor-sum lanes, and one
    # above p every T(b) from the histogram
    for p in range(3, 42, 2):
        qs = np.array(coprime_qs(p))
        expected = [[sigma(p, qq, rr) for rr in range(1, p)] for qq in qs.tolist()]
        for constant in [1, p + 1]:
            monkeypatch.setattr(_kernel, "_TAIL_SWITCH", constant)
            got = _sigma_steps(p, qs, 1, 1, p)
            assert got.tolist() == expected, (p, constant)
            assert (got == got[:, ::-1]).all(), p  # sigma(p, q, r) = sigma(p, q, p - r)


def test_first_round_sweep_matches_sigma_exhaustive():
    # every knot with odd p <= 99 in one window (p^2 < _BATCH), shuffled
    rng = np.random.default_rng(0)
    for p in range(3, 100, 2):
        qs = rng.permutation(coprime_qs(p))
        expected = [sigma(p, q, 1) for q in qs.tolist()]
        assert _sigma_first_round(p, qs).tolist() == expected, p


@settings(deadline=None, max_examples=60)
@given(st.integers(1, (INT64_MAX_P - 1) // 2).map(lambda k: 2 * k + 1), st.data())
def test_first_round_sweep_matches_sigma_on_windows_up_to_the_int64_guard(p, data):
    lo = data.draw(st.integers(1, p * p - 1))
    hi = data.draw(st.integers(lo, min(lo + 5000, p * p - 1)))
    qs = data.draw(st.lists(st.integers(lo, hi), max_size=40)) + [lo, hi]
    qs = np.array([q for q in qs if gcd(q, p) == 1], dtype=np.int64)
    expected = [sigma(p, q, 1) for q in qs.tolist()]
    assert _sigma_first_round(p, qs).tolist() == expected


@pytest.mark.parametrize("batch", [1, 2, 7, 64])
def test_first_round_windows_keep_input_order(monkeypatch, batch):
    # unsorted q with repeats, spread over many windows of span < batch
    monkeypatch.setattr(_kernel, "_BATCH", batch)
    real = _kernel._first_round_sums
    spans = []

    def first_round_sums(p, q):
        assert (np.diff(q) >= 0).all()
        spans.append(int(q[-1] - q[0]))
        return real(p, q)

    monkeypatch.setattr(_kernel, "_first_round_sums", first_round_sums)
    p = 15
    rng = np.random.default_rng(batch)
    qs = rng.choice(coprime_qs(p), size=300)
    assert len(set(qs.tolist())) < len(qs) and (np.diff(qs) < 0).any()
    assert _sigma_first_round(p, qs).tolist() == [sigma(p, int(q), 1) for q in qs]
    assert max(spans) < batch and len(spans) > 1
    assert cg_survivors(p, qs).tolist() == [q for q in qs.tolist() if passes(p, q)]


@settings(deadline=None, max_examples=60)
@given(st.integers(1, (INT64_MAX_P - 1) // 2).map(lambda k: 2 * k + 1), st.data())
def test_first_round_sums_match_the_floor_sum_up_to_the_int64_guard(p, data):
    # the sweep itself, on windows sparse enough that cg_survivors would not use it
    lo = data.draw(st.integers(1, p * p - 1))
    hi = data.draw(st.integers(lo, min(lo + (1 << 17), p * p - 1)))
    qs = np.array(sorted(data.draw(st.lists(st.integers(lo, hi), max_size=40)) + [lo, hi]))
    expected = _floor_sum_batch(np.full_like(qs, p), p * p, qs, 0)
    assert _first_round_sums(p, qs).tolist() == expected.tolist()


def test_sparse_and_dense_input_give_the_same_survivors(monkeypatch):
    # consecutive q make one dense window, which the sweep takes; a sample of
    # them, or of q spread over the whole range, goes to the floor sum
    real = _kernel._first_round_sums
    swept = []
    monkeypatch.setattr(
        _kernel, "_first_round_sums", lambda p, q: swept.append(len(q)) or real(p, q)
    )
    p = 1001
    dense = np.array([q for q in range(300_000, 320_000) if gcd(q, p) == 1])
    survivors = set(cg_survivors(p, dense).tolist())
    assert swept == [len(dense)]
    rng = np.random.default_rng(p)
    spread = rng.choice(coprime_qs(p), size=200, replace=False)
    for qs in (dense[::500], spread, rng.permutation(np.concatenate([spread, dense[::500]]))):
        swept.clear()
        expected = [q for q in qs.tolist() if passes(p, q)]
        assert cg_survivors(p, qs).tolist() == expected
        assert swept == []
    assert set(cg_survivors(p, dense[::500]).tolist()) == survivors.intersection(dense[::500])


def test_histogram_rows_match_the_lane_rows_exhaustive(monkeypatch):
    # every knot with odd p <= 99, composite p (9, 15, 45, 75, ...) included,
    # through every r <= (p-1)/2: the lanes' rows from r = 1 (a switch constant
    # of 1), which the test above ties to sigma, against the histogram's rows
    # (a constant above p) from r0 on, carried from the lanes' sigma at r0 - 1,
    # every r0 up to p = 45 and r0 = 1, 2, (p-1)/2 above (each call is O(p) per
    # q); up to p = 45 the two give the same T(b) at every b < p as well
    for p in range(3, 100, 2):
        qs = np.array(coprime_qs(p))
        end = (p + 1) // 2
        monkeypatch.setattr(_kernel, "_TAIL_SWITCH", 1)
        lanes = _sigma_steps(p, qs, 1, 1, end)
        monkeypatch.setattr(_kernel, "_TAIL_SWITCH", p + 1)
        for r0 in range(1, end) if p <= 45 else [1, 2, end - 1]:
            start = lanes[:, r0 - 2] if r0 > 1 else 1
            assert np.array_equal(_sigma_steps(p, qs, start, r0, end), lanes[:, r0 - 1 :]), (p, r0)
        if p <= 45:
            b = np.tile(np.arange(p, dtype=np.int64), (len(qs), 1))
            assert np.array_equal(_histogram_sums(p, qs, b), _lane_sums(p, qs, b)), p


@settings(deadline=None, max_examples=60)
@given(st.integers(1, (INT64_MAX_P - 1) // 2).map(lambda k: 2 * k + 1), st.data())
def test_sigma_steps_match_sigma_up_to_the_int64_guard(p, data):
    # r0 on either side of the hand-over r = p // _TAIL_SWITCH, so that the lanes
    # or the histogram take every r from r0 on.  q = p^2 - 1 at r = 2 starts its
    # lane at y = q p + (p - 1) p, the largest start of any lane at p
    coprime = st.integers(1, p * p - 1).filter(lambda q: gcd(q, p) == 1)
    qs = data.draw(st.lists(coprime, min_size=1, max_size=4)) + [p * p - 1]
    r_stop = (p - 1) // 2
    r0 = data.draw(st.integers(1, min(2, r_stop)) | st.integers(1, r_stop))
    rs = sorted(set(data.draw(st.lists(st.integers(r0, r_stop), max_size=6)) + [r0, r_stop]))
    start = np.array([sigma(p, q, r0 - 1) if r0 > 1 else 1 for q in qs])
    got = _sigma_steps(p, np.array(qs), start, r0, r_stop + 1)[:, np.array(rs) - r0]
    assert got.tolist() == [[sigma(p, q, r) for r in rs] for q in qs]


def dedekind12k(h, k):
    """12 k s(h, k) for gcd(h, k) = 1 and k >= 2, in O(log k) by the continued fraction.

    With h mod k = [0; a_1, ..., a_n] by Euclid and hbar = h^-1 mod k,
    12 k s(h, k) = h + hbar + k (sum_i (-1)^(i+1) a_i - (3 if n is odd, else 1));
    Rademacher and Grosswald, Dedekind Sums (1972), and Knuth, TAOCP vol. 2,
    3.3.3.  This shares nothing with the kernels' histogram or floor sums.
    """
    h %= k
    x, y, alternating, n = k, h, 0, 0
    while y:
        n += 1
        alternating += (x // y) * (-1) ** (n + 1)
        x, y = y, x % y
    return h + pow(h, -1, k) + k * (alternating - (3 if n % 2 else 1))


def test_dedekind_continued_fraction_matches_the_definition():
    # s(h, k) = sum_{i<k} ((i/k)) ((h i/k)); 12 k s(h, k) as an exact Fraction
    def saw(t):
        return t - (t.numerator // t.denominator) - Fraction(1, 2) if t.denominator > 1 else 0

    for k in range(2, 60):
        for h in range(1, 2 * k):
            if gcd(h, k) == 1:
                s = sum(saw(Fraction(i, k)) * saw(Fraction(h * i, k)) for i in range(1, k))
                assert dedekind12k(h, k) == 12 * k * s, (h, k)


def half_row_checksum(p, q):
    """6 p times sum_{r=1}^{(p-1)/2} sigma(p, q, r), by the Dedekind sums:
    the sum is 2 (s(q, p) - p s(q, p^2)), so 6 p times it is
    12 p s(q, p) - 12 p^2 s(q, p^2)."""
    return dedekind12k(q, p) - dedekind12k(q, p * p)


def test_half_row_checksum_against_the_floor_sum_sigma_exhaustive():
    # every q at odd p <= 25, the per-r floor sums as the reference
    for p in range(3, 26, 2):
        for q in coprime_qs(p):
            half = sum(sigma(p, q, r) for r in range(1, (p + 1) // 2))
            assert 6 * p * half == half_row_checksum(p, q), (p, q)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 1500).map(lambda k: 2 * k + 1), st.data())
def test_sigma_terms_half_rows_meet_the_dedekind_checksum(p, data):
    q = data.draw(st.integers(1, p * p - 1).filter(lambda q: gcd(q, p) == 1))
    terms = _sigma_terms(p, q)[: (p - 1) // 2]
    assert 6 * p * sum(t.sigma for t in terms) == half_row_checksum(p, q)


def assert_rows_meet_the_checksum(p, qs):
    # sigma_1 from the first round, then the lanes up to the hand-over and the
    # histogram past it, each carried from the last sigma before it, as the kernel does
    qs = np.array(qs, dtype=np.int64)
    rows = [_sigma_first_round(p, qs)[:, None]]
    end = (p + 1) // 2
    cut = min(max(2, p // _kernel._TAIL_SWITCH + 1), end)
    for r0, r1 in [(2, cut), (cut, end)]:
        if r0 < r1:
            rows.append(_sigma_steps(p, qs, rows[-1][:, -1], r0, r1))
    halves = np.concatenate(rows, axis=1).sum(axis=1)
    expected = [half_row_checksum(p, q) for q in qs.tolist()]
    assert (6 * p * halves).tolist() == expected, p


def test_tail_rows_meet_the_dedekind_checksum_exhaustive():
    # every q at odd p <= 51, composite p included, rejections and survivors alike
    for p in range(3, 52, 2):
        assert_rows_meet_the_checksum(p, coprime_qs(p))


@pytest.mark.parametrize("p", [151, 2001, INT64_MAX_P - 1])
def test_tail_rows_meet_the_dedekind_checksum_up_to_the_int64_guard(p):
    # random q, the extremes and a few survivors, through the lanes and the histogram
    rng = np.random.default_rng(p)
    qs = [q for q in rng.integers(1, p * p, 40).tolist() if gcd(q, p) == 1][:8 if p > 5000 else 30]
    qs += [1, p + 1, p - 1, p * p - 1, p * p - p - 1, p * p - 2]
    assert_rows_meet_the_checksum(p, qs)


def spy_steps(monkeypatch):
    """Record (r0, r1, len(q), whether the histogram gave T(b)) for every call
    of the numpy steps."""
    steps, histogram = _kernel._sigma_steps, _kernel._histogram_sums
    calls, histograms = [], []

    def sigma_steps(p, q, sigma, r0, r1):
        before = len(histograms)
        out = steps(p, q, sigma, r0, r1)
        calls.append((r0, r1, len(q), len(histograms) > before))
        return out

    monkeypatch.setattr(_kernel, "_sigma_steps", sigma_steps)
    monkeypatch.setattr(_kernel, "_histogram_sums",
                        lambda *args: histograms.append(1) or histogram(*args))
    return calls


@pytest.mark.parametrize("rows", [1, 3, 50])
def test_tail_chunks_keep_input_order(monkeypatch, rows):
    # unsorted q with repeats, every survivor among them, in chunks of `rows`;
    # at p = 45 the histogram takes every r from 2
    p = 45
    monkeypatch.setattr(_kernel, "_BATCH", rows * (p + 1))
    calls = spy_steps(monkeypatch)
    rng = np.random.default_rng(rows)
    qs = coprime_qs(p)
    survivors = [q for q in qs if passes(p, q)]
    qs = rng.permutation(np.concatenate([rng.choice(qs, size=300), survivors, survivors]))
    assert cg_survivors(p, qs).tolist() == [q for q in qs.tolist() if passes(p, q)]
    assert all(histogram for *_, histogram in calls)
    assert len(calls) > 1 and max(n for _, _, n, _ in calls) == rows


def test_lanes_hand_over_to_the_histogram_at_every_r(monkeypatch):
    # as the C loop's test below, on the q the scan tests: p // _TAIL_SWITCH = h - 1
    # puts the hand-over at r = h, for h = 2 (at once) to (p-1)/2, and
    # _TAIL_SWITCH = 1 never hands over.  The lane rounds end at r = h - 1 and
    # the histogram takes r = h to (p-1)/2 in one round
    calls = spy_steps(monkeypatch)
    for p in range(3, 62, 2):
        qs = np.concatenate(list(_tested_blocks(p))).tolist()
        expected = [q for q in qs if passes(p, q)]
        end = (p + 1) // 2
        for constant in [1] + [Fraction(p, h - 1) for h in range(2, end)]:
            monkeypatch.setattr(_kernel, "_TAIL_SWITCH", constant)
            calls.clear()
            assert cg_survivors(p, qs).tolist() == expected, (p, constant)
            h = p // constant + 1
            histogram = {(r0, r1) for r0, r1, _, histogram in calls if histogram}
            assert histogram == ({(h, end)} if h < end else set()), (p, constant)
            lanes = {(r0, r1) for r0, r1, _, histogram in calls if not histogram}
            covered = sorted(r for r0, r1 in lanes for r in range(r0, r1))
            assert covered == list(range(2, min(h, end))), (p, constant)


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


WINDOWS = _kernel._windows  # the real windows, while a test patches them


def assert_windows_equal_the_numpy_front_end(monkeypatch, p, picks=None):
    """Each window of p (those at the indices ``picks`` only, in that order, one
    scratch for all) tests as many q and keeps the same survivors through the C
    library's scan_window as through _tested_blocks and _window_survivors; returns
    the C survivors of each window."""
    lib = _compiled_lanes()
    assert lib is not None
    windows = list(WINDOWS(p))
    if picks is not None:
        windows = [windows[i] for i in picks]
    monkeypatch.setattr(_kernel, "_windows", lambda p: iter(windows))
    scratch = _kernel._window_scratch(p)
    found = []
    for (lo, hi), qs in zip(windows, _tested_blocks(p), strict=True):
        tested, survivors = _kernel._scan_window(lib, p, lo, hi, scratch)
        expected = _kernel._window_survivors(p, qs)
        assert (tested, survivors.tolist()) == (len(qs), expected.tolist()), (p, lo, hi)
        found.append(survivors.tolist())
    return found


@needs_cc
def test_compiled_windows_equal_the_numpy_front_end_at_every_odd_p_to_401(monkeypatch):
    for p in range(3, 402, 2):
        assert_windows_equal_the_numpy_front_end(monkeypatch, p)


@needs_cc
def test_compiled_windows_equal_the_numpy_front_end_on_small_windows(monkeypatch):
    # windows of 64 q put their edges everywhere: inside a residue class's
    # first p q, and shorter than p, where no q takes a lift from the one p before
    monkeypatch.setattr(_kernel, "_BATCH", 64)
    for p in range(3, 100, 2):
        assert_windows_equal_the_numpy_front_end(monkeypatch, p)


@needs_cc
@pytest.mark.parametrize("p", [2001, 4001, INT64_MAX_P - 1])
def test_compiled_windows_equal_the_numpy_front_end_up_to_the_int64_guard(monkeypatch, p):
    # the first, a middle and the last window, the last ending past p^2 / 2.  The
    # ribbon knot p^2/(p-1) passes every r, so the C loop takes it through the
    # histogram, next to the int64 guard at p = INT64_MAX_P - 1
    count = len(list(WINDOWS(p)))
    found = assert_windows_equal_the_numpy_front_end(monkeypatch, p, [0, count // 2, count - 1])
    assert p - 1 in found[0]


@needs_cc
def test_the_compiled_library_exports_scan_window_alone():
    # the scan is the library's one caller: the retired lanes and per-q entry
    # points are gone, and the loops scan_window shares stay static
    lib = _compiled_lanes()
    assert lib is not None and lib.scan_window.restype is not None
    for name in ["floor_sum_lanes", "first_failures", "euclid", "first_failure"]:
        with pytest.raises(AttributeError):
            getattr(lib, name)


@needs_cc
def test_compiled_window_refuses_a_window_its_scratch_cannot_hold():
    lib = _compiled_lanes()
    assert lib is not None
    p = 101
    scratch = _kernel._window_scratch(p)
    for lo, hi in [(0, 10), (10, 9), (1, _kernel._BATCH + 2), (p * p - 5, p * p + 1)]:
        with pytest.raises(ValueError):
            _kernel._scan_window(lib, p, lo, hi, scratch)
    with pytest.raises(ValueError):
        _kernel._scan_window(lib, p + 2, 1, 10, scratch)
    assert _kernel._scan_window(lib, p, 7, 7, scratch)[0] == 0


@pytest.mark.parametrize("p", [3, 723, 725])
def test_window_scratch_holds_the_widest_window_of_p_and_no_more(p):
    # min(_BATCH, p^2 // 2) q: 723 has one window, below _BATCH, and 725 is the
    # first p with two
    units, steps, counts, out = _kernel._window_scratch(p)
    spans = [hi - lo for lo, hi in _kernel._windows(p)]
    assert len(spans) == (2 if p == 725 else 1)
    assert len(steps) == len(out) == max(spans) == min(_kernel._BATCH, p * p // 2)
    assert (len(units), len(counts)) == (3 * p, p + 1)


@needs_cc
def test_compiled_kernel_hands_over_to_the_histogram_at_every_r(monkeypatch):
    # p // _TAIL_SWITCH = h - 1 puts the hand-over at r = h, for h = 2 (at once)
    # to (p-1)/2, and _TAIL_SWITCH = 1 never hands over; a Fraction reaches every
    # h.  p^2 < _BATCH, so the scan's one window of p is 1 <= q <= p^2 // 2
    lib = _compiled_lanes()
    assert lib is not None
    for p in range(3, 62, 2):
        qs = np.concatenate(list(_tested_blocks(p))).tolist()
        expected = [q for q in qs if passes(p, q)]
        scratch = _kernel._window_scratch(p)
        for constant in [1] + [Fraction(p, h - 1) for h in range(2, (p + 1) // 2)]:
            monkeypatch.setattr(_kernel, "_TAIL_SWITCH", constant)
            tested, survivors = _kernel._scan_window(lib, p, 1, p * p // 2 + 1, scratch)
            assert (tested, survivors.tolist()) == (len(qs), expected), (p, constant)


def floor_sum_lanes(n, m, a, b=None):
    n, a = np.array(n, dtype=np.int64), np.array(a, dtype=np.int64)
    b = np.zeros_like(a) if b is None else np.array(b, dtype=np.int64)
    with np.errstate(all="raise"):  # no lane may divide by zero
        got = _floor_sum_batch(n, m, a, b)
    expected = [floor_sum(nn, m, aa, bb) for nn, aa, bb in zip(n.tolist(), a.tolist(), b.tolist())]
    return got.tolist(), expected


def test_floor_sum_batch_on_lanes_that_finish_many_steps_apart():
    # a Fibonacci pair is the longest recursion, a = 0 or 1 the shortest; the
    # counts make the batch compact a few lanes out of many and many out of few
    fib = [1, 1]
    while fib[-1] < 10**9:
        fib.append(fib[-1] + fib[-2])
    m = fib[-1]
    for slow in (1, 3, 10):
        for fast in (0, slow - 1, slow, slow + 1, 3 * slow):
            a = [fib[-2 - i] for i in range(slow)] + [i % 2 for i in range(fast)]
            n = [m - 1 - i for i in range(slow)] + [5 + i for i in range(fast)]
            got, expected = floor_sum_lanes(n, m, a)
            assert got == expected, (slow, fast)


def test_floor_sum_batch_on_lanes_that_reach_a_zero():
    # a | m makes a = 0 after one step, and a = 0 lanes finish at once;
    # kept past their finish, their swapped-in divisor would be 0
    p = 21
    m = p * p
    a = [0, p, 3 * p, 7, 49, 63, 1, m - 1, m - p, 2 * p]
    n = [p * r for r in range(1, len(a) + 1)]
    got, expected = floor_sum_lanes(n, m, a)
    assert got == expected
    got, expected = floor_sum_lanes(n[::-1], m, a)
    assert got == expected


def test_floor_sum_batch_on_an_empty_batch_and_lanes_done_at_once():
    # the loop ends when no lane is left: at once on an empty batch, and after
    # one step when every lane has y = a n < m there
    assert floor_sum_lanes([], 7, []) == ([], [])
    m = 21 * 21
    for n, a in [([5], [0]), ([1, 2, 3, 20], [1, 7, 100, 22]), ([7] * 5, [0, 1, 2, 3, 62])]:
        assert all(nn * aa < m for nn, aa in zip(n, a))
        got, expected = floor_sum_lanes(n, m, a)
        assert got == expected, (n, a)


@pytest.mark.parametrize("p", [INT64_MAX_P - 1, INT64_MAX_P - 3])
def test_floor_sum_batch_next_to_the_int64_guard(p):
    # lanes of n = p r up to p (p - 1) and a < p^2, whose y = a n nears p^4
    m = p * p
    rng = np.random.default_rng(p)
    a = [m - 1, m - p - 1, p + 1, 1] + rng.integers(1, m, 60).tolist()
    n = [p * (p - 1), p * (p - 1) // 2, p, p * (p - 1)] + (p * rng.integers(1, p, 60)).tolist()
    got, expected = floor_sum_lanes(n, m, a)
    assert got == expected


@pytest.mark.parametrize("p", [2_097_151, 2_097_149, 4001])
def test_floor_sum_batch_on_t_b_lanes_up_to_the_int64_bound(p):
    # the kernels' lanes T(b) = floor_sum(p, p^2, a, b p) with a < p^2 and b < p:
    # at a = p^2 - 1 and b = p - 1 the first y = a p + b p is p^3 + p^2 - 2 p,
    # within 2^63 at p = 2,097,151, the largest p the module docstring's bound
    # allows.  Lanes with a + b < p finish at the first step, with b > 0
    assert 2_097_151**3 + 2_097_151**2 < 2**63 <= 2_097_152**3 + 2_097_152**2
    m = p * p
    rng = np.random.default_rng(p)
    a = [m - 1, m - 1, m - p - 1, p + 1, 1, 1, p - 2] + rng.integers(1, m, 60).tolist()
    b = [p - 1, 1, p - 1, p - 2, p - 2, 1, 1] + rng.integers(0, p, 60).tolist()
    assert all(aa + bb < p for aa, bb in zip(a[4:7], b[4:7]))
    got, expected = floor_sum_lanes([p] * len(a), m, a, [p * bb for bb in b])
    assert got == expected


# ------------------------------------------------------------ compiled lanes

PACKAGE = Path(casson_gordon.__file__).resolve().parent


def package_copy(tmp_path):
    """A copy of the package's sources with an empty cache, and the environment that imports it."""
    shutil.copytree(PACKAGE, tmp_path / "twobridge", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "twobridge" / "__pycache__", dict(os.environ, PYTHONPATH=str(tmp_path))


SCAN_DIGEST = """
import hashlib
from twobridge import _kernel, enumeration
records = enumeration.conjecture_scan(3, 151, jobs=2)
lines = "".join(r.to_json_line() + "\\n" for r in records)
print(_kernel._compiled_lanes() is not None, hashlib.sha256(lines.encode()).hexdigest())
"""


@pytest.mark.parametrize("failure", ["no-compiler", "cache-is-a-file", "file-size-limit"])
def test_a_failed_build_falls_back_to_numpy_silently(tmp_path, failure):
    cache, env = package_copy(tmp_path)
    limit_file_size = None
    if failure == "no-compiler":
        env["PATH"] = str(tmp_path / "empty")
    elif failure == "cache-is-a-file":
        cache.write_text("")
    else:
        resource = pytest.importorskip("resource")

        def limit_file_size():  # far below the library's size: a write past it fails with EFBIG
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (2048, 2048))

    # -B: no .pyc is written, so the cache holds only what the lanes' loader leaves
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCAN_DIGEST], env=env, capture_output=True, text=True,
        timeout=300, preexec_fn=limit_file_size,
    )
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    digest = json.loads(reference.read_text())["scan_sha256"]["3..151"]
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"False {digest}\n", "")
    if cache.is_dir():
        assert os.listdir(cache) == []  # no library and no temp file left


@needs_cc
def test_processes_building_into_an_empty_cache_at_once_all_load_the_library(tmp_path):
    cache, env = package_copy(tmp_path)
    code = (
        "import sys\n"
        "from twobridge import _kernel\n"
        "print('ready', flush=True)\n"
        "sys.stdin.readline()\n"
        "print(_kernel._compiled_lanes() is not None)\n"
    )
    procs = [
        subprocess.Popen([sys.executable, "-B", "-c", code], env=env, text=True,
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(3)
    ]
    try:
        for proc in procs:  # every process has imported the package before any builds
            assert proc.stdout.readline() == "ready\n"
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        outs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert outs == [("True\n", "")] * 3
    built = os.listdir(cache)
    assert len(built) == 1 and built[0].endswith(".so")


def test_int64_guard_is_the_largest_p_with_p4_below_2_62():
    assert INT64_MAX_P**4 < 2**62 <= (INT64_MAX_P + 1) ** 4
    with pytest.raises(DomainError, match="INT64_MAX_P"):
        cg_survivors(INT64_MAX_P + 1, [1])  # the least odd p above the guard


def test_coprime_mask_and_prime_factors_up_to_1000():
    q = np.arange(-1000, 3001, dtype=np.int64)
    for p in range(1, 1001):
        assert np.array_equal(coprime_mask(q, p), np.gcd(q, p) == 1), p
        primes = _prime_factors(p)
        assert len(set(primes)) == len(primes), p
        assert all(f > 1 and all(f % d for d in range(2, isqrt(f) + 1)) for f in primes), p
        rebuilt = 1
        for f in primes:
            power = f
            while p % (power * f) == 0:
                power *= f
            rebuilt *= power
        assert rebuilt == p, p


def test_cg_survivors_validates_its_input():
    assert cg_survivors(11, []).tolist() == []
    assert cg_survivors(11, np.array([46, 12, 2])).tolist() == [46, 12]
    assert cg_survivors(11, np.array([46, 12], dtype=np.uint16)).tolist() == [46, 12]
    bad = [(4, [3]), (1, [1]), (5, [5]), (5, [0]), (5, [25]), (9, [3]), (5, [1.5]), (5, [[2]]),
           (5, np.array([2], dtype=object))]
    # q sharing a prime with p, amid valid q: each triangle holds a lattice point on
    # its hypotenuse at some r < p, at r = 1 when gcd(q, p^2) >= p (45/135, 15/30);
    # the kernels count none, so this check is their only guard
    bad += [(45, [2, 135, 4]), (9, [1, 3, 2]), (9, [1, 2, 6, 4]), (21, [2, 7, 4]),
            (25, [1, 5, 2]), (15, np.array([1, 2, 30, 4], dtype=np.uint16))]
    for p, qs in bad:
        with pytest.raises(DomainError):
            cg_survivors(p, qs)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, (INT64_MAX_P - 1) // 2).map(lambda k: 2 * k + 1), st.data())
def test_cg_survivors_single_q_around_the_int64_guard(p, data):
    q = data.draw(st.integers(1, p * p - 1).filter(lambda q: gcd(q, p) == 1))
    expected = [q] if passes(p, q) else []
    assert cg_survivors(p, [q]).tolist() == expected


def test_cg_survivors_next_to_the_int64_guard_keep_what_every_row_passes(monkeypatch):
    # the numpy kernel at p = INT64_MAX_P - 1 against sigma at every r, read from
    # histogram rows from r = 2 (a switch constant above p): random q, q next to
    # p^2, the condition i) knots p + 1 and p^2 - p - 1, which pass every r, and
    # q = k p +- 2, 3, 5, some of which pass every lane round and fail past it
    p = INT64_MAX_P - 1
    rng = np.random.default_rng(p)
    near = (np.arange(1, 300)[:, None] * p + [-5, -3, -2, 2, 3, 5]).ravel()
    qs = np.concatenate([[p + 1, p * p - p - 1], near, rng.integers(1, p * p, 1000),
                         p * p - rng.integers(1, 3 * p, 300)])
    qs = qs[coprime_mask(qs, p)]
    sigma1 = _sigma_first_round(p, qs)
    alive, sigma1 = qs[np.abs(sigma1) == 1], sigma1[np.abs(sigma1) == 1]
    hand_over = p // _kernel._TAIL_SWITCH
    with monkeypatch.context() as patch:
        patch.setattr(_kernel, "_TAIL_SWITCH", p + 1)
        rows = [_sigma_steps(p, alive[k : k + 5], sigma1[k : k + 5], 2, (p + 1) // 2)
                for k in range(0, len(alive), 5)]
    bad = np.abs(np.concatenate(rows)) != 1
    first = np.where(bad.any(axis=1), bad.argmax(axis=1) + 2, 0)
    assert cg_survivors(p, qs).tolist() == alive[first == 0].tolist()
    assert {p + 1, p * p - p - 1} <= set(alive[first == 0].tolist())
    # some q fail only past the hand-over, where the kernel reads the histogram
    assert (first > hand_over).any() and len(set(first.tolist())) > 20


@pytest.mark.parametrize("p", [46349, 65537])
def test_window_survivors_past_the_int64_guard(p):
    # the unchecked numpy kernel above INT64_MAX_P, which cg_survivors and the
    # scan refuse, is exact there too (module docstring): random q, q = k p +- 2,
    # 3, 5 and the condition i) knots p + 1 and p^2 - p - 1 against the Python-int
    # reference, which also finds the first failing r; some q fail only past the
    # hand-over, at r > p // _TAIL_SWITCH (1448 and 2048)
    assert p > INT64_MAX_P
    rng = np.random.default_rng(p)
    near = (np.arange(1, 41)[:, None] * p + [-5, -3, -2, 2, 3, 5]).ravel()
    qs = np.concatenate([[p + 1, p * p - p - 1], near, rng.integers(1, p * p, 100)])
    qs = qs[coprime_mask(qs, p)]
    first = [next((r for r in range(1, p) if sigma(p, q, r) not in (-1, 1)), 0) for q in qs.tolist()]
    survivors = _window_survivors(p, qs).tolist()
    assert survivors == [q for q, r in zip(qs.tolist(), first) if r == 0]
    assert {p + 1, p * p - p - 1} <= set(survivors)
    assert max(first) > p // _kernel._TAIL_SWITCH


@needs_cc
def test_compiled_window_equals_the_numpy_front_end_past_the_int64_guard(monkeypatch):
    # the first window of p = 46,349, which the scan refuses, on both routes
    found = assert_windows_equal_the_numpy_front_end(monkeypatch, 46349, [0])
    assert 46348 in found[0]


@pytest.mark.parametrize("p", [INT64_MAX_P - 1])
def test_survivor_next_to_the_int64_guard(p):
    # q = p + 1 is condition i) with n = 1, so it and its orbit mate
    # p^2 - p - 1 pass at every r; the latter has q mod p = p - 1, so b = p - 1
    # at r = 2 and its lane starts at y = q p + (p - 1) p, near p^3
    qs = [p + 1, p + 2, p * p - p - 1]
    expected = [q for q in qs if passes(p, q)]
    assert expected == [p + 1, p * p - p - 1]
    assert cg_survivors(p, qs).tolist() == expected
