"""Accuracy tests for the internal K1/I1 implementation against mpmath."""

import cmath
import math

import pytest

from ccr_lab._bessel import i1, k1
from ccr_lab.errors import ValidationError

from oracles import bessel_envelope, i1_envelope, mp_i1, mp_k1

K1_MODULI = [1e-3, 0.05, 0.4, 1.0, 2.5, 3.9, 4.1, 6.0, 9.0, 12.0,
             15.9, 16.1, 22.0, 40.0, 120.0]
I1_MODULI = [1e-3, 0.3, 1.0, 4.0, 7.9, 8.1, 12.0, 20.0, 29.5, 30.5,
             45.0, 150.0]
ARGS = [0.0, 0.2, math.pi / 4, 1.2, math.pi / 2 - 1e-3, math.pi / 2]


def _points(moduli):
    for r in moduli:
        for a in ARGS:
            for sgn in (1.0, -1.0):
                yield cmath.rect(r, sgn * a)


@pytest.mark.parametrize("z", list(_points(K1_MODULI)))
def test_k1_against_reference(z):
    ref = mp_k1(z)
    assert abs(k1(z) - ref) <= 1e-12 * bessel_envelope(z, ref)


@pytest.mark.parametrize("z", list(_points(I1_MODULI)))
def test_i1_against_reference(z):
    ref = mp_i1(z)
    assert abs(i1(z) - ref) <= 1e-12 * i1_envelope(z, ref)


def test_conjugate_symmetry():
    for z in (0.3 + 2.1j, 5.0 + 5.0j, 11.0 + 0.5j, 0.01 + 9.0j):
        assert k1(z.conjugate()) == k1(z).conjugate()
        assert i1(z.conjugate()) == i1(z).conjugate()


def test_real_axis_values_are_real_and_positive():
    for x in (0.1, 1.0, 5.0, 20.0, 100.0):
        v = k1(x)
        assert v.imag == 0.0
        assert v.real > 0.0
        w = i1(x)
        assert w.imag == 0.0
        assert w.real > 0.0


def test_small_argument_limits():
    # z K1(z) = 1 + O(z^2 log z) and I1(z)/z -> 1/2
    for z in (1e-6, 1e-6j + 1e-9, 1e-5 * cmath.exp(0.7j)):
        assert z * k1(z) == pytest.approx(1.0, abs=1e-8)
        assert i1(z) / z == pytest.approx(0.5, abs=1e-10)


def test_large_argument_decay():
    # K1(x) ~ sqrt(pi/2x) e^-x on the positive axis
    for x in (20.0, 60.0):
        lead = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert k1(x).real == pytest.approx(lead, rel=0.05)


def test_domain_guards():
    with pytest.raises(ValidationError):
        k1(0.0)
    with pytest.raises(ValidationError):
        k1(-2.0)
    with pytest.raises(ValidationError):
        i1(-1.0 + 0.5j)
    with pytest.raises(ValidationError):
        k1(-1.0 + 0.5j)
