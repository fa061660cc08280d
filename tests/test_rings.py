"""Group ring, cyclotomic field, and embedding sanity checks."""

import cmath
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from field_oracle import cyclotomic_field
from series_oracle import coeff_json, unit_inverse
from mellinsys.rings import (COMPLEX, RATIONAL, CyclotomicRing,
                             cyclotomic_polynomial, get_cyclotomic_ring)
from mellinsys.series import TruncatedSeries

SRC = Path(__file__).resolve().parents[1] / "src" / "mellinsys"


def _poly(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == _poly(-1, 1)
    assert cyclotomic_polynomial(2) == _poly(1, 1)
    assert cyclotomic_polynomial(3) == _poly(1, 1, 1)
    assert cyclotomic_polynomial(4) == _poly(1, 0, 1)
    assert cyclotomic_polynomial(6) == _poly(1, -1, 1)
    assert cyclotomic_polynomial(12) == _poly(1, 0, -1, 0, 1)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
def test_root_embeds_as_root_of_unity(m):
    ring = get_cyclotomic_ring(m)
    for k in range(m):
        got = ring.to_complex(ring.root(k))
        want = cmath.exp(2j * cmath.pi * k / m)
        assert abs(got - want) < 1e-12


def test_group_ring_multiplication_wraps():
    ring = get_cyclotomic_ring(3)
    e = ring.root
    assert ring.mul(e(2), e(2)) == e(4)  # == e(1)
    assert ring.mul_root(e(1), 2) == e(0)
    a = ring.add(e(0), ring.scale_rational(e(1), Fraction(2, 3)))
    z = ring.to_complex(a)
    assert abs(z - (1 + Fraction(2, 3) * cmath.exp(2j * cmath.pi / 3))) < 1e-12


def test_group_ring_zero_divisor_detected_in_field():
    # 1 + e is nonzero in Q[Z/2] but embeds to 1 + (-1) = 0
    ring = get_cyclotomic_ring(2)
    a = ring.add(ring.root(0), ring.root(1))
    assert not ring.is_zero(a)
    assert ring.is_zero_complex(a)
    # the full sum of all m-th roots vanishes for every m
    for m in (3, 4, 6):
        ring = get_cyclotomic_ring(m)
        total = ring.zero
        for k in range(m):
            total = ring.add(total, ring.root(k))
        assert ring.is_zero_complex(total)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_field_inverse(m):
    fld = cyclotomic_field(m)
    ring = get_cyclotomic_ring(m)
    samples = [
        ring.add(ring.root(0), ring.scale_rational(ring.root(1), Fraction(1, 2))),
        ring.add(ring.root(m - 1), ring.root(0)),
        ring.scale_rational(ring.root(1), Fraction(-3, 7)),
    ]
    for a in samples:
        fa = fld.from_group_ring(a)
        if fld.is_zero(fa):
            continue
        assert fld.mul(fa, fld.inv(fa)) == fld.one


def test_field_embedding_consistent():
    for m in (3, 4, 6):
        fld = cyclotomic_field(m)
        ring = get_cyclotomic_ring(m)
        a = ring.add(ring.root(1), ring.scale_rational(ring.root(2), Fraction(5, 3)))
        assert abs(fld.to_complex(fld.from_group_ring(a))
                   - ring.to_complex(a)) < 1e-12


@st.composite
def group_ring_elements(draw, m=None):
    """Q[Z/m] elements, m = 1..12 unless given, many of them vanishing in
    Q(zeta_m): rational combinations of coset sums sum_{j<d} e^(k + j m/d),
    d | m, d > 1, sometimes perturbed by one more term and scaled by 10^30."""
    if m is None:
        m = draw(st.integers(1, 12))
    ring = get_cyclotomic_ring(m)
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    total = ring.zero
    for _ in range(draw(st.integers(0, 3)) if divisors else 0):
        d, k = draw(st.sampled_from(divisors)), draw(st.integers(0, m - 1))
        coset = ring.zero
        for j in range(d):
            coset = ring.add(coset, ring.root(k + j * (m // d)))
        total = ring.add(total, ring.scale_rational(coset, draw(rational)))
    if draw(st.booleans()):
        total = ring.add(total, ring.scale_rational(
            ring.root(draw(st.integers(0, m - 1))), draw(rational)))
    if draw(st.booleans()):
        total = ring.scale_rational(total, 10**30)
    return m, total


@settings(deadline=None)
@given(group_ring_elements())
@example((1, (Fraction(10**30),)))
@example((12, tuple([Fraction(10**30)] * 12)))
@example((2, (Fraction(1), Fraction(1))))
def test_exact_vanishing_matches_field_oracle(case):
    m, a = case
    fld = cyclotomic_field(m)
    assert (get_cyclotomic_ring(m).is_zero_complex(a)
            == fld.is_zero(fld.from_group_ring(a)))


def test_exact_vanishing_far_from_zero_and_beyond_double_range():
    ring = get_cyclotomic_ring(12)
    big = Fraction(10**30)
    assert not ring.is_zero_complex(ring.root(5))
    assert not ring.is_zero_complex(tuple([big] * 11 + [Fraction(0)]))
    # 10^30 (1 + e + ... + e^11) embeds to rounding noise, and is zero
    assert ring.is_zero_complex(tuple([big] * 12))
    huge = Fraction(10**400)
    assert get_cyclotomic_ring(2).is_zero_complex((huge, huge))
    assert not get_cyclotomic_ring(2).is_zero_complex((huge, -huge))


@st.composite
def group_ring_series(draw):
    m = draw(st.integers(1, 12))
    coeffs = draw(st.lists(group_ring_elements(m), max_size=6))
    return TruncatedSeries(get_cyclotomic_ring(m), 1, len(coeffs),
                           {(k,): a for k, (_, a) in enumerate(coeffs)})


@settings(deadline=None)
@given(group_ring_series())
def test_max_abs_matches_exact_test_on_every_coefficient(series):
    ring, fld = series.ring, cyclotomic_field(series.ring.m)
    want = max((abs(ring.to_complex(c)) for c in series.terms.values()
                if not fld.is_zero(fld.from_group_ring(c))), default=0.0)
    assert series.max_abs() == want


def test_ring_equality():
    assert CyclotomicRing(3) == get_cyclotomic_ring(3)
    assert hash(CyclotomicRing(3)) == hash(get_cyclotomic_ring(3))
    assert CyclotomicRing(3) != CyclotomicRing(4)
    assert RATIONAL != COMPLEX
    assert RATIONAL != get_cyclotomic_ring(1)
    assert type(RATIONAL)() == RATIONAL


def test_unit_inverses():
    assert unit_inverse(RATIONAL, Fraction(-2, 3)) == Fraction(-3, 2)
    assert unit_inverse(COMPLEX, 2j) == -0.5j
    ring = get_cyclotomic_ring(5)
    a = ring.scale_rational(ring.root(2), Fraction(3, 4))
    assert ring.mul(a, unit_inverse(ring, a)) == ring.one
    with pytest.raises(ZeroDivisionError):
        unit_inverse(ring, ring.zero)
    with pytest.raises(ValueError):
        unit_inverse(ring, ring.add(ring.one, ring.root(1)))


def test_coefficient_text_and_json_forms():
    q = Fraction(-3, 4)
    assert RATIONAL.coeff_text(q) == "-3/4"
    assert json.dumps(coeff_json(RATIONAL, q)) == '"-3/4"'
    ring = get_cyclotomic_ring(3)
    a = (Fraction(1), Fraction(0), Fraction(-2, 5))
    assert ring.coeff_text(a) == "[1, 0, -2/5]"
    assert json.dumps(coeff_json(ring, a)) == '["1", "0", "-2/5"]'
    z = 1.5 - 0.25j
    assert COMPLEX.coeff_text(z) == "[1.500000000000e+00, -2.500000000000e-01]"
    assert json.dumps(coeff_json(COMPLEX, z)) == "[1.5, -0.25]"


def test_per_ring_decisions_stay_in_rings():
    """Series code asks the ring, never which ring it holds."""
    name_test = re.compile(r"ring\.name\s*[!=]=|[!=]=\s*[\w.]*ring\.name")
    class_test = re.compile(
        r"isinstance\([^)]*(Rational|Cyclotomic|Complex)Ring")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert not name_test.search(text), path.name
        if path.name != "rings.py":
            assert not class_test.search(text), path.name
