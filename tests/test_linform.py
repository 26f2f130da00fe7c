from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bachain.cli import parse_expr
from bachain.errors import DependenceSuspected
from bachain.linform import (
    LinearForm,
    abs_bounds,
    best_m0,
    canonicalize_sign,
    scaled_constants,
    scaled_dot,
    zeta,
)
from bachain.realnum import (
    PRECISION_CAP,
    Dyadic,
    DyadicInterval,
    eval_interval,
    rational,
    root,
)
from conftest import sqrt_digits


@pytest.fixture(scope="module")
def sqrt2():
    return LinearForm((root(2),))


@pytest.fixture(scope="module")
def cbrt_pair():
    return LinearForm((root(2, 3), root(4, 3)))


class TestConstruction:
    def test_provably_rational_rejected(self):
        with pytest.raises(DependenceSuspected):
            LinearForm((rational(1, 2),))
        with pytest.raises(DependenceSuspected):
            LinearForm((rational(1, 3) + rational(1, 6),))

    def test_root_carrying_rational_slips_through(self):
        # exactly 1, but not provably rational without evaluating the root
        LinearForm((root(4) / 2,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LinearForm(())


class TestZeta:
    def test_constant_vector_exact(self, sqrt2):
        iv = zeta((7, 0), sqrt2, 32)
        assert iv.lo == iv.hi == Dyadic(7)

    def test_sqrt2_value(self, sqrt2):
        iv = zeta((-1, 1), sqrt2, 30)
        oracle = sqrt_digits(2, 30) - 1
        slack = Fraction(1, 10 ** 28)
        assert iv.lo.as_fraction() - slack <= oracle <= iv.hi.as_fraction()
        assert Fraction("0.41421") < iv.lo.as_fraction()
        assert iv.hi.as_fraction() < Fraction("0.41422")

    def test_cbrt_pair_value(self, cbrt_pair):
        iv = zeta((-2, 1, 1), cbrt_pair, 30)
        assert Fraction("0.84732") < iv.lo.as_fraction()
        assert iv.hi.as_fraction() < Fraction("0.84733")

    def test_wrong_length(self, sqrt2):
        with pytest.raises(ValueError):
            zeta((1, 2, 3), sqrt2, 16)

    def test_width_scales_with_coefficients(self, sqrt2):
        iv = zeta((0, 1000), sqrt2, 40)
        assert (iv.hi - iv.lo).as_fraction() <= Fraction(1001, 2 ** 40)


class TestScaledKernel:
    @pytest.mark.parametrize("tail", [(1, 0), (0, -3), (2, -5), (-7, 7)])
    def test_dot_encloses_form_value(self, cbrt_pair, tail):
        w, grid = 40, 42
        los, his = scaled_constants(cbrt_pair.alphas, w, grid)
        s_lo, s_hi = scaled_dot(tail, los, his)
        iv = zeta((0,) + tail, cbrt_pair, w)
        scale = Fraction(1, 2 ** grid)
        assert s_lo * scale <= iv.lo.as_fraction()
        assert iv.hi.as_fraction() <= s_hi * scale
        # width 2**-w per unit coefficient, plus one grid step per rounded
        # endpoint
        slack = sum(map(abs, tail)) * Fraction(2 ** (grid - w) + 2)
        assert s_hi - s_lo <= slack

    @pytest.mark.parametrize("lo,hi,expected", [
        (2, 5, (2, 5)), (-5, -2, (2, 5)), (-3, 5, (0, 5)), (-6, 1, (0, 6)),
        (0, 0, (0, 0))])
    def test_abs_bounds(self, lo, hi, expected):
        assert abs_bounds(lo, hi) == expected


class TestBestM0:
    @pytest.mark.parametrize("tail,m0,res_lo,res_hi", [
        ((1,), -1, "0.4142", "0.4143"),
        ((2,), -3, "-0.1716", "-0.1715"),
        ((5,), -7, "0.0710", "0.0711"),
    ])
    def test_sqrt2_examples(self, sqrt2, tail, m0, res_lo, res_hi):
        got_m0, residual = best_m0(tail, sqrt2)
        assert got_m0 == m0
        assert Fraction(res_lo) <= residual.lo.as_fraction()
        assert residual.hi.as_fraction() <= Fraction(res_hi)

    def test_zero_tail_rejected(self, sqrt2):
        with pytest.raises(ValueError):
            best_m0((0,), sqrt2)

    def test_dependence_on_exact_integer_combination(self):
        form = LinearForm((root(4) / 2,))  # value exactly 1
        with pytest.raises(DependenceSuspected):
            best_m0((1,), form, cap=2048)


class TestCanonicalizeSign:
    def test_positive_kept(self, sqrt2):
        assert canonicalize_sign((-1, 1), sqrt2) == (-1, 1)

    def test_negative_flipped(self, sqrt2):
        assert canonicalize_sign((3, -2), sqrt2) == (-3, 2) or \
            canonicalize_sign((3, -2), sqrt2) == (3, -2)
        # zeta(3, -2) = 3 - 2*sqrt(2) > 0: kept as-is
        assert canonicalize_sign((3, -2), sqrt2) == (3, -2)
        # zeta(-3, 2) < 0: flipped
        assert canonicalize_sign((-3, 2), sqrt2) == (3, -2)

    def test_exact_constant(self, sqrt2):
        assert canonicalize_sign((1, 0), sqrt2) == (1, 0)
        assert canonicalize_sign((-1, 0), sqrt2) == (1, 0)

    def test_zero_vector_rejected(self, sqrt2):
        with pytest.raises(DependenceSuspected):
            canonicalize_sign((0, 0), sqrt2)


# --- properties ---------------------------------------------------------------

_tails = st.lists(st.integers(min_value=-50, max_value=50),
                  min_size=1, max_size=1).map(tuple).filter(any)
_pair_tails = st.lists(st.integers(min_value=-20, max_value=20),
                       min_size=2, max_size=2).map(tuple).filter(any)


@given(_tails)
@settings(max_examples=50, deadline=None)
def test_residual_strictly_inside_half_unit(tail):
    form = LinearForm((root(2),))
    _, residual = best_m0(tail, form)
    assert residual.lo.as_fraction() > Fraction(-1, 2)
    assert residual.hi.as_fraction() < Fraction(1, 2)


@given(_pair_tails)
@settings(max_examples=50, deadline=None)
def test_canonicalize_is_involution_on_pair(tail):
    form = LinearForm((root(2, 3), root(4, 3)))
    m0, _ = best_m0(tail, form)
    m = (m0,) + tail
    neg = tuple(-c for c in m)
    try:
        a = canonicalize_sign(m, form)
        b = canonicalize_sign(neg, form)
    except DependenceSuspected:
        # zeta(m) exactly zero never happens for these constants
        raise AssertionError("unexpected dependence")
    assert a == b
    assert a in (m, neg)


@given(_pair_tails, _pair_tails)
@settings(max_examples=50, deadline=None)
def test_zeta_subadditive_enclosures(t1, t2):
    form = LinearForm((root(2, 3), root(4, 3)))
    m1 = (0,) + t1
    m2 = (1,) + t2
    total = tuple(a + b for a, b in zip(m1, m2))
    p = 48
    iv_sum = zeta(m1, form, p) + zeta(m2, form, p)
    iv_total = zeta(total, form, p)
    assert iv_sum.lo <= iv_total.lo
    assert iv_total.hi <= iv_sum.hi


# --- the DyadicInterval chain that the exact-sum zeta replaced --------------


def _zeta_reference(m, form, precision, cap=PRECISION_CAP):
    total = DyadicInterval.point(m[0])
    for coeff, alpha in zip(m[1:], form.alphas):
        if coeff:
            total = total + eval_interval(alpha, precision, cap).mul_int(coeff)
    return total


# enclosure endpoints of mixed exponents: roots rounded to the 2**-w grid,
# a quotient, and roots that are exactly an integer (2) or a dyadic (3/4)
_ALPHA_TEXTS = ("root(2,2)", "root(3,3)/5", "(1+root(5,2))/2", "root(4,2)",
                "root(9/16,2)")


@given(st.lists(st.sampled_from(_ALPHA_TEXTS), min_size=1, max_size=3),
       st.integers(min_value=-(1 << 40), max_value=1 << 40),
       st.lists(st.integers(min_value=-300, max_value=300),
                min_size=3, max_size=3),
       st.integers(min_value=1, max_value=140),
       st.sampled_from([200, PRECISION_CAP]))
@settings(max_examples=150, deadline=None)
def test_zeta_matches_interval_chain(texts, m0, coeffs, precision, cap):
    form = LinearForm(tuple(parse_expr(t) for t in texts))
    m = (m0,) + tuple(coeffs[:form.r])
    got = zeta(m, form, precision, cap)
    want = _zeta_reference(m, form, precision, cap)
    assert (got.lo.man, got.lo.exp) == (want.lo.man, want.lo.exp)
    assert (got.hi.man, got.hi.exp) == (want.hi.man, want.hi.exp)
