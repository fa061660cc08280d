"""Group ring, cyclotomic field, and embedding sanity checks, and the
public API.

``mellinsys.rings`` keeps the Q[Z/m] product, the exact vanishing test and
the roots of unity; the rings of the oracles (``ring_oracle``) build the
elements they are checked on.
"""

import cmath
import contextlib
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mellinsys
from field_oracle import cyclotomic_field
from ring_oracle import COMPLEX, RATIONAL, CyclotomicRing, get_cyclotomic_ring
from series_oracle import coeff_json, unit_inverse
from mellinsys.cli import _max_embedded
from mellinsys.rings import (cyclotomic_polynomial, mul, roots_of_unity,
                             vanishes)

README = Path(__file__).resolve().parents[1] / "README.md"


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
        want = cmath.exp(2j * cmath.pi * k / m)
        assert abs(roots_of_unity(m)[k] - want) < 1e-12
        assert ring.to_complex(ring.root(k)) == roots_of_unity(m)[k]


def test_group_ring_multiplication_wraps():
    ring = get_cyclotomic_ring(3)
    e = ring.root
    assert mul(e(2), e(2)) == ring.mul(e(2), e(2)) == e(4)  # == e(1)
    a, b = (Fraction(1), Fraction(-2), Fraction(1, 3)), (0, 5, 1)
    want = (Fraction(-1, 3), Fraction(16, 3), -9)
    assert mul(a, b) == ring.mul(a, b) == want
    assert ring.mul_root(e(1), 2) == e(0)
    a = ring.add(e(0), ring.scale_rational(e(1), Fraction(2, 3)))
    z = ring.to_complex(a)
    assert abs(z - (1 + Fraction(2, 3) * cmath.exp(2j * cmath.pi / 3))) < 1e-12


def test_group_ring_zero_divisor_detected_in_field():
    # 1 + e is nonzero in Q[Z/2] but embeds to 1 + (-1) = 0
    ring = get_cyclotomic_ring(2)
    a = ring.add(ring.root(0), ring.root(1))
    assert not ring.is_zero(a)
    assert vanishes(a)
    # the full sum of all m-th roots vanishes for every m
    for m in (3, 4, 6):
        ring = get_cyclotomic_ring(m)
        total = ring.zero
        for k in range(m):
            total = ring.add(total, ring.root(k))
        assert vanishes(total)


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


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# numerators up to 10^40 and denominators up to 10^30, which the exact test
# must clear to integers without losing a digit
LARGE = st.builds(Fraction, st.integers(-10**40, 10**40),
                  st.integers(1, 10**30))


@st.composite
def group_ring_elements(draw, m=None, rational=SMALL):
    """Q[Z/m] elements, m = 1..12 unless given, many of them vanishing in
    Q(zeta_m): combinations of coset sums sum_{j<d} e^(k + j m/d), d | m,
    d > 1, with coefficients drawn from ``rational``, sometimes perturbed
    by one more term and scaled by 10^30."""
    if m is None:
        m = draw(st.integers(1, 12))
    ring = get_cyclotomic_ring(m)
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


@st.composite
def large_fraction_tuples(draw):
    """Random Q[Z/m] elements, m = 1..12, with LARGE coordinates."""
    m = draw(st.integers(1, 12))
    return m, tuple(draw(st.lists(LARGE, min_size=m, max_size=m)))


@settings(deadline=None)
@given(st.one_of(group_ring_elements(), group_ring_elements(rational=LARGE),
                 large_fraction_tuples()))
@example((1, (Fraction(10**30),)))
@example((12, tuple([Fraction(10**30)] * 12)))
@example((2, (Fraction(1), Fraction(1))))
def test_exact_vanishing_matches_field_oracle(case):
    m, a = case
    fld = cyclotomic_field(m)
    assert vanishes(a) == fld.is_zero(fld.from_group_ring(a))


def test_exact_vanishing_far_from_zero_and_beyond_double_range():
    ring = get_cyclotomic_ring(12)
    big = Fraction(10**30)
    assert not vanishes(ring.root(5))
    assert not vanishes(tuple([big] * 11 + [Fraction(0)]))
    # 10^30 (1 + e + ... + e^11) embeds to rounding noise, and is zero
    assert vanishes(tuple([big] * 12))
    huge = Fraction(10**400)
    assert vanishes((huge, huge))
    assert not vanishes((huge, -huge))


@st.composite
def group_ring_lists(draw):
    m = draw(st.integers(1, 12))
    return m, [a for _, a in draw(st.lists(group_ring_elements(m),
                                           max_size=6))]


@settings(deadline=None)
@given(group_ring_lists())
def test_max_abs_matches_exact_test_on_every_coefficient(case):
    """The ``jet-root-sum`` gap: the largest embedding of the elements
    that do not vanish in the field oracle, bit for bit."""
    m, values = case
    ring, fld = get_cyclotomic_ring(m), cyclotomic_field(m)
    want = max((abs(ring.to_complex(c)) for c in values
                if not fld.is_zero(fld.from_group_ring(c))), default=0.0)
    assert _max_embedded(values, m) == want


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


def test_public_api_and_readme_example():
    """Every name in ``mellinsys.__all__`` resolves, and the README's
    "Library example" block runs as written, down to its last output."""
    for name in mellinsys.__all__:
        assert getattr(mellinsys, name) is not None, name
    block = re.search(r"## Library example\n\n```python\n(.*?)```",
                      README.read_text(), re.S)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block.group(1), str(README), "exec"), {})
    assert out.getvalue().splitlines()[-1] == "0.0"
