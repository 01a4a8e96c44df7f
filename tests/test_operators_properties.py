"""Properties of the QQ(t);shift window scans on generated polynomials.

Integer polynomials of degree <= 4 are drawn with a factor planted in both
at a shift of -5..5, so most pairs have a nonempty dispersion set and a
first shift of either sign.  Runs are derandomized: every run draws the
same examples.
"""

import pytest

from dcoh import polys
from dcoh.operators import _first_shift, dispersion_set, dispersion_set_resultant

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _int_poly(draw, lo, hi):
    """An integer polynomial of degree lo..hi with coefficients in -6..6."""
    n = draw(st.integers(lo, hi))
    cs = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    return polys.poly(cs + [draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))])


@st.composite
def planted_pairs(draw):
    """(A, B): A = f g and B = f(t - h) g2, each of degree <= 4."""
    f = _int_poly(draw, 1, 2)
    h = draw(st.integers(-5, 5))
    g, g2 = (_int_poly(draw, 0, 4 - polys.deg(f)) for _ in range(2))
    return polys.pmul(f, g), polys.pmul(polys.shift(f, -h), g2)


def _first_shift_over_QQ(p, q, d, top):
    """The first j != 0 in -top..top with a nonconstant gcd(p, q(t + j d)),
    by one gcd over QQ per j."""
    for j in range(-top, top + 1):
        if j:
            g = polys.pgcd(p, polys.shift(q, j * d))
            if polys.deg(g) > 0:
                return j, g
    return None, None


_settings = hypothesis.settings(derandomize=True, database=None, deadline=None,
                                max_examples=150)


@_settings
@hypothesis.given(planted_pairs())
def test_dispersion_set_is_the_resultant_oracle(pair):
    A, B = pair
    assert dispersion_set(A, B) == dispersion_set_resultant(A, B)


@_settings
@hypothesis.given(planted_pairs(), st.integers(1, 3))
def test_first_shift_is_the_scan_over_QQ(pair, d):
    A, B = pair
    top = int((polys.cauchy_root_bound(A) + polys.cauchy_root_bound(B)) / d) + 1
    assert _first_shift(A, B, d, top) == _first_shift_over_QQ(A, B, d, top)
