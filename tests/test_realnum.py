from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from bachain.errors import (
    AmbiguousRounding,
    DomainError,
    PrecisionExhausted,
)
from bachain.realnum import (
    PRECISION_CAP,
    Dyadic,
    DyadicInterval,
    dyadic_from_ratio,
    enclosures,
    eval_interval,
    expr_to_text,
    iroot_ceil,
    iroot_floor,
    ln_interval,
    nearest_integer,
    parse_expr,
    pow_rational,
    rational,
    root,
    widths,
    working_limit,
)
from bachain import realnum
from bachain.enumerator import _convergents
from conftest import (
    as_fraction,
    cbrt_digits,
    dyadic_from_hex,
    quotient,
    sqrt_digits,
)


def mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    f = Fraction(man) * Fraction(2) ** exp
    return -f if sign else f


def mp_eval(expr):
    """Independent high-precision evaluation of an expression tree."""
    if expr.kind == "rat":
        return mpmath.mpf(expr.value.numerator) / expr.value.denominator
    if expr.kind == "root":
        return mpmath.root(mp_eval(expr.children[0]), expr.index)
    a, b = (mp_eval(c) for c in expr.children)
    if expr.kind == "add":
        return a + b
    if expr.kind == "sub":
        return a - b
    if expr.kind == "mul":
        return a * b
    return a / b


class TestDyadic:
    def test_normalization(self):
        d = Dyadic(12, -3)
        assert (d.man, d.exp) == (3, -1)
        assert Dyadic(0, 5).exp == 0

    def test_arithmetic_exact(self):
        a, b = Dyadic(3, -2), Dyadic(5, -4)
        assert as_fraction(a + b) == Fraction(3, 4) + Fraction(5, 16)
        assert as_fraction(a - b) == Fraction(3, 4) - Fraction(5, 16)
        assert as_fraction(a * b) == Fraction(15, 64)
        assert as_fraction(-a) == -Fraction(3, 4)

    def test_comparisons(self):
        assert Dyadic(1, -1) < Dyadic(3, -2)
        assert Dyadic(1, 10) > Dyadic(1023, 0)
        assert Dyadic(-1, -1) < Dyadic(0)

    def test_grid_rounding(self):
        d = dyadic_from_ratio(1, 3, 8, round_up=False)
        u = dyadic_from_ratio(1, 3, 8, round_up=True)
        assert as_fraction(d) <= Fraction(1, 3) <= as_fraction(u)
        assert as_fraction(u - d) == Fraction(1, 256)
        exact = dyadic_from_ratio(5, 8, 2, round_up=True)
        assert as_fraction(exact) == Fraction(5, 8)

    def test_hex_round_trip(self):
        for man, exp in [(3, -1), (-7, 12), (0, 0), (12345, -200)]:
            d = Dyadic(man, exp)
            assert dyadic_from_hex(d.to_hex()) == d
        with pytest.raises(ValueError):
            dyadic_from_hex("1.5")

    def test_floor_ceil_int(self):
        assert Dyadic(7, -2).floor_int() == 1
        assert Dyadic(7, -2).ceil_scaled(0) == 2
        assert Dyadic(-7, -2).floor_int() == -2
        assert Dyadic(-7, -2).ceil_scaled(0) == -1

    def test_floor_ceil_scaled(self):
        # 7/4 on the 2**-1 grid: 3.5 steps
        assert Dyadic(7, -2).floor_scaled(1) == 3
        assert Dyadic(7, -2).ceil_scaled(1) == 4
        assert Dyadic(-7, -2).floor_scaled(1) == -4
        assert Dyadic(-7, -2).ceil_scaled(1) == -3
        # on or finer than the value's own grid the scaling is exact
        for d in (Dyadic(7, -2), Dyadic(-7, -2), Dyadic(5, 3), Dyadic(0)):
            for p in (2, 5):
                exact = as_fraction(d) * 2 ** p
                assert d.floor_scaled(p) == d.ceil_scaled(p) == exact


@pytest.mark.parametrize("man,exp", [
    ((1 << 2100) + 1, -2100),  # a mantissa no float holds, a value near 1
    ((1 << 3000) - 1, -3100),
    (3, -1075),  # below the least subnormal: rounds to it or to zero
    (1, -1074),
    (-5, 1020),
], ids=["wide-near-1", "wide-small", "below-subnormal", "least-subnormal",
        "large"])
def test_float_is_the_value_rounded_once(man, exp):
    d = Dyadic(man, exp)
    assert float(d) == float(as_fraction(d))


@settings(max_examples=300, deadline=None)
@given(st.integers(-(1 << 4000), 1 << 4000), st.integers(-8000, 40))
def test_float_matches_fraction(man, exp):
    d = Dyadic(man, exp)
    try:
        want = float(as_fraction(d))
    except OverflowError:
        with pytest.raises(OverflowError):
            float(d)
    else:
        assert float(d) == want


@pytest.mark.parametrize("start,top,rungs", [
    (64, 32768, [64 << i for i in range(10)]),
    (70, 300, [70, 140, 280, 300]),
    # start at or above the top: the top rung only
    (100, 64, [64]),
    (96, 1, [1]),
    # eval_interval's rungs, min(64, cap) up to cap, for caps 32, 64, 100
    (32, 32, [32]),
    (64, 64, [64]),
    (64, 100, [64, 100]),
])
def test_precision_ladder(start, top, rungs):
    assert list(realnum._ladder(start, top)) == rungs


@pytest.mark.parametrize("start,cap,rungs", [
    (64, PRECISION_CAP, [64 << i for i in range(10)]),
    # the psi check's rungs
    (96, PRECISION_CAP, [96 << i for i in range(9)] + [32768]),
    (70, 600, [70, 140, 280, 300]),
    (64, 300, [64, 128, 150]),
    # the limit is never below 64: caps 64 and 100 both stop there
    (64, 64, [64]),
    (64, 100, [64]),
    # start above the limit: the limit only
    (69, 128, [64]),
    (100, 64, [64]),
    (40000, PRECISION_CAP, [32768]),
])
def test_widths(start, cap, rungs):
    assert list(widths(start, cap)) == rungs


def reference_ladder(start, limit):
    """The ladder as it stood before the width ladder clipped its start:
    start, 2*start, ..., clipped to and ending at limit; only start
    itself when start >= limit."""
    w = start
    while w < limit:
        yield w
        w *= 2
    yield max(start, limit)


@settings(max_examples=300, deadline=None)
@given(st.integers(64, PRECISION_CAP), st.integers(1, PRECISION_CAP // 2))
def test_widths_keep_every_start_below_the_limit(cap, start):
    # every rung sequence a caller could see before stays as it was
    limit = working_limit(cap)
    if start > limit:
        assert list(widths(start, cap)) == [limit]
    else:
        assert list(widths(start, cap)) == \
            list(reference_ladder(start, limit))


class TestEnclosures:
    def test_skips_an_inconclusive_rung(self):
        # a sqrt(2) convergent so close that root(2) - p/q straddles zero
        # at 64 bits: the quotient cannot be evaluated on that rung
        p, q = next((p, q) for p, q in _convergents(root(2), PRECISION_CAP)
                    if q > 1 << 34)
        den = root(2) - rational(p, q)
        w, iv = next(enclosures(den, 64, 64, "probe"))
        assert w == 64 and iv.sign() is None
        e = quotient(1, den)
        got = list(islice(enclosures(e, 64, 1024, "probe"), 4))
        assert [w for w, _ in got] == [128, 256, 512, 1024]
        with mpmath.workprec(2048):
            value = 1 / (mpmath.sqrt(2) - mpmath.mpf(p) / q)
            for _, iv in got:
                assert as_fraction(iv.lo) <= mpf_to_fraction(value) \
                    <= as_fraction(iv.hi)

    def test_rungs_follow_the_ladder(self):
        assert [w for w, _ in islice(enclosures(root(3), 70, 300, "x"), 4)] \
            == [70, 140, 280, 300]

    def test_start_is_clipped_to_the_cap(self):
        walk = enclosures(root(3), 64, 48, "x")
        assert next(walk)[0] == 48
        with pytest.raises(PrecisionExhausted):
            next(walk)

    def test_exhausting_the_ladder_raises(self):
        # root(4) - 2 is exactly zero: no rung decides its sign
        walk = enclosures(root(4) - 2, 64, 256, "its sign")
        assert [w for w, _ in islice(walk, 3)] == [64, 128, 256]
        with pytest.raises(PrecisionExhausted) as info:
            next(walk)
        assert info.value.precision == 256
        assert str(info.value) == ("cannot certify its sign for "
                                   "(root(4, 2) - 2) (precision cap 256 "
                                   "bits reached)")

    def test_an_early_stop_does_not_raise(self):
        for w, _ in enclosures(root(2), 64, 256, "probe"):
            break
        assert w == 64
        walk = enclosures(root(2), 64, 256, "probe")
        next(walk)
        walk.close()


class TestCertifiedFloor:
    @pytest.mark.parametrize("lo,hi,expected", [
        # integer endpoints: only a lower one certifies
        (Fraction(3), Fraction(7, 2), 3),
        (Fraction(5, 2), Fraction(3), None),
        (Fraction(3), Fraction(3), None),
        (Fraction(-2), Fraction(-2), None),
        # near-integer intervals on either side
        (3 - Fraction(1, 2 ** 80), 3 - Fraction(1, 2 ** 81), 2),
        (3 + Fraction(1, 2 ** 81), 3 + Fraction(1, 2 ** 80), 3),
        (3 - Fraction(1, 2 ** 80), 3 + Fraction(1, 2 ** 80), None),
        (Fraction(-3, 2), Fraction(-5, 4), -2),
    ])
    def test_cases(self, lo, hi, expected):
        iv = DyadicInterval.from_fractions(lo, hi, 100)
        assert iv.certified_floor() == expected


class TestIroot:
    @pytest.mark.parametrize("n,k", [(0, 2), (1, 5), (26, 3), (27, 3),
                                     (28, 3), (10 ** 30, 7)])
    def test_floor_ceil(self, n, k):
        f = iroot_floor(n, k)
        assert f ** k <= n < (f + 1) ** k
        c = iroot_ceil(n, k)
        assert (c - 1) ** k < n <= c ** k or (n == 0 and c == 0)


def _iroot_floor_reference(n, k):
    """floor(n ** (1/k)) by Newton iteration from 1 << ceil(bits / k),
    which can start almost twice above the root and then shrinks by only
    about (k - 1)/k a step: slow for large k, exact all the same."""
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << (n.bit_length() + k - 1) // k
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _check_iroot(n, k):
    f = iroot_floor(n, k)
    assert f == _iroot_floor_reference(n, k)
    assert f ** k <= n < (f + 1) ** k
    assert iroot_ceil(n, k) == f + (f ** k != n)


_root_indices = st.one_of(st.integers(min_value=1, max_value=12),
                          st.integers(min_value=13, max_value=3000))


@given(st.integers(min_value=1, max_value=6000).flatmap(
           lambda bits: st.integers(min_value=0, max_value=(1 << bits) - 1)),
       _root_indices)
@settings(max_examples=100, deadline=None)
# the radicand and index a loglog eps=1/1000 psi value takes at 96 bits
@example((1 << 96_000) // 3, 1000)
@example((1 << 5000) - 1, 3)
def test_iroot_floor_matches_reference(n, k):
    _check_iroot(n, k)


@given(st.integers(min_value=2, max_value=3000).flatmap(
           lambda k: st.tuples(
               st.integers(min_value=1, max_value=1 << max(1, 6000 // k)),
               st.just(k))),
       st.sampled_from([-1, 0, 1]))
@settings(max_examples=100, deadline=None)
def test_iroot_floor_of_perfect_powers(base_k, offset):
    # m**k and its neighbours, where a start below the root or an
    # off-by-one in the floor shows first
    m, k = base_k
    n = m ** k + offset
    _check_iroot(n, k)
    assert iroot_floor(n, k) == m - (offset < 0)


def _pow_int_reference(x, n):
    """x**n for a nonnegative interval by one multiplication per unit of
    n: slow for large n, exact all the same."""
    rlo = rhi = Dyadic(1)
    for _ in range(n):
        rlo, rhi = rlo * x.lo, rhi * x.hi
    return DyadicInterval(rlo, rhi)


_nonnegative_dyadics = st.builds(
    Dyadic, st.integers(min_value=0, max_value=1 << 64),
    st.integers(min_value=-300, max_value=300))


@given(_nonnegative_dyadics, _nonnegative_dyadics,
       st.integers(min_value=0, max_value=400))
# points, which PsiSpec.value raises
@example(Dyadic(0), Dyadic(0), 3)
@example(Dyadic(1), Dyadic(1), 64)
@example(Dyadic(3, -5), Dyadic(3, -5), 7)
@example(Dyadic((1 << 96) + 1, -96), Dyadic((1 << 96) + 1, -96), 2)
@example(Dyadic(5, 10), Dyadic(5, 10), 400)
@settings(max_examples=100, deadline=None)
def test_pow_int_matches_reference(a, b, n):
    x = DyadicInterval(min(a, b), max(a, b))
    assert x.pow_int(n) == _pow_int_reference(x, n)


def test_pow_int_rejects_a_negative_interval():
    with pytest.raises(ValueError, match="nonnegative"):
        DyadicInterval(Dyadic(-1), Dyadic(1)).pow_int(3)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("d", [Dyadic(2), Dyadic(49), Dyadic(243),
                               Dyadic(9, -6), Dyadic(1, -7)])
def test_nth_root_of_a_point(d, k):
    # a one-point radicand takes its upper root from the lower one
    p = 40
    iv = DyadicInterval.point(d).nth_root(k, p)
    assert iv.lo == Dyadic(iroot_floor(d.floor_scaled(k * p), k), -p)
    assert iv.hi == Dyadic(iroot_ceil(d.ceil_scaled(k * p), k), -p)


class TestEval:
    def test_integer_exact(self):
        iv = eval_interval(rational(2), 10)
        assert iv.lo == iv.hi == Dyadic(2)

    def test_sqrt2_digits(self):
        iv = eval_interval(root(2), 20)
        assert iv.width_le(20)
        oracle = sqrt_digits(2, 30)  # floor value: true sqrt(2) is above it
        slack = Fraction(1, 10 ** 28)
        assert as_fraction(iv.lo) - slack <= oracle <= as_fraction(iv.hi)
        assert Fraction("1.41421") < as_fraction(iv.lo)
        assert as_fraction(iv.hi) < Fraction("1.41422")

    def test_cbrt_sum_digits(self):
        iv = eval_interval(root(2, 3) + root(4, 3), 16)
        oracle = cbrt_digits(2, 30) + cbrt_digits(4, 30)
        slack = Fraction(1, 10 ** 28)
        assert as_fraction(iv.lo) - slack <= oracle <= as_fraction(iv.hi)
        assert Fraction("2.84732") < as_fraction(iv.lo)
        assert as_fraction(iv.hi) < Fraction("2.84733")

    def test_nonneg_radicand_enforced(self):
        with pytest.raises(DomainError):
            root(rational(-1))
        with pytest.raises(DomainError):
            root(root(2) - 2)  # certifiably negative
        root(root(4) - 2)  # exactly zero radicand is allowed

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            quotient(1, 0)
        with pytest.raises(DomainError):
            quotient(1, rational(1, 3) + rational(2, 3) - 1)

    def test_undecidable_denominator_hits_cap(self):
        with pytest.raises(PrecisionExhausted):
            from bachain.realnum import _make_quotient
            _make_quotient(rational(1), root(4) - 2, cap=1024)

    def test_deterministic(self):
        e = quotient(root(2) + 1, root(3))
        assert eval_interval(e, 40) == eval_interval(e, 40)


class TestNearestInteger:
    def _iv(self, lo, hi, p=24):
        return DyadicInterval.from_fractions(Fraction(lo), Fraction(hi), p)

    def test_forced_rounding(self):
        n, res = nearest_integer(self._iv("0.617", "0.619"))
        assert n == 1
        assert Fraction("-0.384") < as_fraction(res.lo)
        assert as_fraction(res.hi) < Fraction("-0.380")

    def test_near_integer(self):
        n, res = nearest_integer(self._iv("2.999", "3.001"))
        assert n == 3
        assert as_fraction(res.lo) >= Fraction("-0.0011")
        assert as_fraction(res.hi) <= Fraction("0.0011")

    def test_straddles_half(self):
        with pytest.raises(AmbiguousRounding):
            nearest_integer(self._iv("0.4999", "0.5001"))
        with pytest.raises(AmbiguousRounding):
            nearest_integer(DyadicInterval.point(Dyadic(1, -1)))

    def test_too_wide(self):
        # width 1: its endpoints are integers that round apart
        with pytest.raises(AmbiguousRounding):
            nearest_integer(self._iv(0, 1))


class TestEnclosureMemo:
    """eval_interval answers per (precision, cap), the same every call."""

    TEXT = "root(2,2) + root(3,3)"

    @pytest.mark.parametrize("capped_first", [True, False])
    def test_key_includes_cap(self, capped_first):
        # cap 100 climbs 64, 100 and cap 2^16 climbs 64, 128: rung 64 is
        # too coarse for width 2^-72, so the two answers differ
        want = {cap: eval_interval(parse_expr(self.TEXT), 72, cap=cap)
                for cap in (100, PRECISION_CAP)}
        assert want[100] != want[PRECISION_CAP]
        e = parse_expr(self.TEXT)
        caps = [100, PRECISION_CAP]
        if not capped_first:
            caps.reverse()
        for cap in caps + caps:
            if cap == PRECISION_CAP:
                assert eval_interval(e, 72) == want[cap]
            else:
                assert eval_interval(e, 72, cap=cap) == want[cap]


# --- the Dyadic-object formulations the integer fast paths replaced ---------


def _lt_aligned(a: Dyadic, b: Dyadic) -> bool:
    x, y, _ = a._aligned(b)
    return x < y


def _le_aligned(a: Dyadic, b: Dyadic) -> bool:
    x, y, _ = a._aligned(b)
    return x <= y


def _nearest_integer_reference(x: DyadicInterval):
    half = Dyadic(1, -1)
    t_lo = x.lo + half
    t_hi = x.hi + half
    n_lo = t_lo.floor_int()
    # touching the half-integer next to lo's integer is an endpoint on
    # it; reaching past it, a straddle, however far x reaches
    if t_lo.is_integer() or t_hi == Dyadic(n_lo + 1):
        raise AmbiguousRounding("endpoint lies exactly on a half-integer")
    if t_hi.floor_int() != n_lo:
        raise AmbiguousRounding("interval straddles a half-integer")
    d = Dyadic(n_lo)
    return n_lo, DyadicInterval(x.lo - d, x.hi - d)


def _outcome(fn, x):
    """Result with exact endpoints, or the exception's type and text."""
    try:
        n, res = fn(x)
    except AmbiguousRounding as exc:
        return type(exc), str(exc)
    return n, (res.lo.man, res.lo.exp), (res.hi.man, res.hi.exp)


_dyadics = st.builds(Dyadic, st.integers(min_value=-(1 << 70),
                                         max_value=1 << 70),
                     st.integers(min_value=-90, max_value=8))
_anchors = st.one_of(
    _dyadics,
    st.builds(Dyadic, st.integers(min_value=-40, max_value=40)),  # integers
    st.integers(min_value=-40, max_value=40).map(            # half-integers
        lambda k: Dyadic(2 * k + 1, -1)),
    st.integers(min_value=-160, max_value=160).map(          # quarter grid
        lambda k: Dyadic(k, -2)),
)
_widths = st.one_of(
    st.just(Dyadic(1, -2)),                                  # exactly 1/4
    st.just(Dyadic(0)),
    st.builds(Dyadic, st.integers(min_value=1, max_value=1 << 40),
              st.integers(min_value=-90, max_value=-1)),
    st.integers(min_value=1, max_value=1 << 20).map(         # just below 1/4
        lambda k: Dyadic((1 << 40) - k, -42)),
    st.builds(Dyadic, st.integers(min_value=1, max_value=1 << 12),
              st.just(-8)),                                  # up to 16
)


@st.composite
def _intervals(draw):
    anchor, width = draw(_anchors), draw(_widths)
    if draw(st.booleans()):
        return DyadicInterval(anchor, anchor + width)
    return DyadicInterval(anchor - width, anchor)


@given(_intervals())
@settings(max_examples=400, deadline=None)
def test_nearest_integer_matches_dyadic_formulation(x):
    assert _outcome(nearest_integer, x) == \
        _outcome(_nearest_integer_reference, x)


@pytest.mark.parametrize("lo,hi,expected", [
    (Dyadic(3, -1), Dyadic(13, -3), AmbiguousRounding),      # on 3/2
    (Dyadic(0), Dyadic(1, -2), None),                         # width 1/4
    (Dyadic(1, -1), Dyadic(3, -2), AmbiguousRounding),        # on 1/2
    (Dyadic(5), Dyadic(5), None),                             # integer point
    (Dyadic(7, -4), Dyadic(9, -4), AmbiguousRounding),        # across 1/2
    (Dyadic(-1, -3), Dyadic(1, -4), None),                    # across 0
    (Dyadic(-3, -3), Dyadic(3, -3), None),                    # width 3/4
])
def test_nearest_integer_edge_cases(lo, hi, expected):
    x = DyadicInterval(lo, hi)
    got = _outcome(nearest_integer, x)
    assert got == _outcome(_nearest_integer_reference, x)
    if expected is None:
        assert isinstance(got[0], int)
    else:
        assert got[0] is expected


@given(_anchors, _anchors)
@settings(max_examples=300, deadline=None)
def test_comparisons_match_aligned(a, b):
    assert (a < b) == _lt_aligned(a, b)
    assert (a <= b) == _le_aligned(a, b)
    assert (a > b) == _lt_aligned(b, a)
    assert (a >= b) == _le_aligned(b, a)


class TestLn:
    def test_ln_one_exact(self):
        iv = ln_interval(1, 64)
        assert iv.lo == iv.hi == Dyadic(0)

    @pytest.mark.parametrize("n", [2, 3, 10, 97, 5741])
    def test_contains_oracle(self, n):
        iv = ln_interval(n, 96)
        with mpmath.workprec(200):
            oracle = mpf_to_fraction(mpmath.log(n))
        slack = Fraction(1, 2 ** 150)
        assert as_fraction(iv.lo) - slack <= oracle <= as_fraction(iv.hi) + slack
        assert iv.width_le(90)

    def test_interval_argument(self):
        x = DyadicInterval(Dyadic(2), Dyadic(3))
        iv = ln_interval(x, 64)
        with mpmath.workprec(120):
            assert as_fraction(iv.lo) <= mpf_to_fraction(mpmath.log(2))
            assert as_fraction(iv.hi) >= mpf_to_fraction(mpmath.log(3))

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            ln_interval(Dyadic(0), 32)


# --- Fraction references for the integer logarithm and reciprocal -----------


def _atanh_series_reference(z: Fraction, p: int) -> tuple[Fraction, Fraction]:
    """The former Fraction series: 2*atanh(z) for 0 <= z <= 1/3, summed
    term by term up to the first term <= 2**-(p+8), plus 9/8 of it."""
    if z == 0:
        return Fraction(0), Fraction(0)
    tol = Fraction(1, 1 << (p + 8))
    total = Fraction(0)
    zz = z * z
    power = z
    j = 0
    while True:
        term = 2 * power / (2 * j + 1)
        if term <= tol:
            return total, total + term * Fraction(9, 8)
        total += term
        power *= zz
        j += 1


def _round_fraction_reference(value: Fraction, p: int,
                              round_up: bool) -> Dyadic:
    """The former Fraction rounding onto the 2**-p grid, exact when the
    denominator is a power of two."""
    num, den = value.numerator, value.denominator
    if den & (den - 1) == 0:
        return Dyadic(num, -(den.bit_length() - 1))
    scaled = num << p
    return Dyadic(-((-scaled) // den) if round_up else scaled // den, -p)


def _ln_dyadic_bounds_reference(d: Dyadic, p: int) -> tuple[Fraction, Fraction]:
    f = as_fraction(d)
    e = d.man.bit_length() - 1 + d.exp
    x = f / (Fraction(2) ** e)
    s_lo, s_hi = _atanh_series_reference((x - 1) / (x + 1), p)
    l2_lo, l2_hi = _atanh_series_reference(Fraction(1, 3),
                                           p + abs(e).bit_length())
    if e >= 0:
        return e * l2_lo + s_lo, e * l2_hi + s_hi
    return e * l2_hi + s_lo, e * l2_lo + s_hi


def _ln_interval_reference(x, p: int) -> DyadicInterval:
    if isinstance(x, int):
        x = Dyadic(x)
    if isinstance(x, Dyadic):
        x = DyadicInterval.point(x)
    lo, _ = _ln_dyadic_bounds_reference(x.lo, p)
    _, hi = _ln_dyadic_bounds_reference(x.hi, p)
    return DyadicInterval(_round_fraction_reference(lo, p, round_up=False),
                          _round_fraction_reference(hi, p, round_up=True))


def _endpoints(iv: DyadicInterval) -> tuple[int, int, int, int]:
    return iv.lo.man, iv.lo.exp, iv.hi.man, iv.hi.exp


_ln_precisions = st.sampled_from([64, 96, 192])
_positive_dyadics = st.builds(
    Dyadic, st.integers(min_value=1, max_value=1 << 90),
    st.integers(min_value=-200, max_value=-1))
_ln_arguments = st.one_of(
    st.just(1),
    st.integers(min_value=0, max_value=80).map(lambda k: 1 << k),
    st.integers(min_value=1, max_value=1 << 64),
    _positive_dyadics,
    st.tuples(_positive_dyadics, _positive_dyadics).map(
        lambda ds: DyadicInterval(min(ds), max(ds))),
)


@given(st.integers(min_value=0, max_value=1 << 80),
       st.integers(min_value=0, max_value=1 << 80), _ln_precisions)
@settings(max_examples=200, deadline=None)
def test_atanh_series_equals_fraction_reference(a, extra, p):
    b = 3 * a + extra + (a == 0)  # 0 <= a/b <= 1/3
    lo, hi, den = realnum._atanh_series(a, b, p)
    assert (Fraction(lo, den), Fraction(hi, den)) == \
        _atanh_series_reference(Fraction(a, b), p)


@given(st.one_of(_positive_dyadics,
                 st.integers(min_value=1, max_value=1 << 64).map(Dyadic)),
       _ln_precisions)
@settings(max_examples=200, deadline=None)
def test_ln_bounds_equal_fraction_reference(d, p):
    # the same rationals, not only the same rounded endpoints
    lo, hi, den = realnum._ln_dyadic_bounds(d, p)
    assert (Fraction(lo, den), Fraction(hi, den)) == \
        _ln_dyadic_bounds_reference(d, p)


@given(st.integers(min_value=-(1 << 90), max_value=1 << 90),
       st.integers(min_value=1, max_value=1 << 40),
       st.integers(min_value=0, max_value=90),
       st.integers(min_value=1, max_value=1 << 20),
       st.integers(min_value=1, max_value=200), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_ratio_rounding_matches_fraction_reference(num, odd, twos, c, p,
                                                  round_up, dyadic):
    # num/den with a common factor c left in, so the exact case (a
    # dyadic value, possibly finer than the grid) must be found without
    # reducing first
    den = odd << twos
    if dyadic:
        num *= odd
    assert dyadic_from_ratio(num * c, den * c, p, round_up) == \
        _round_fraction_reference(Fraction(num, den), p, round_up)


@given(_ln_arguments, _ln_precisions)
@settings(max_examples=300, deadline=None)
def test_ln_matches_fraction_reference(x, p):
    assert _endpoints(ln_interval(x, p)) == \
        _endpoints(_ln_interval_reference(x, p))


@pytest.mark.parametrize("x", [1, 2, 1 << 40, Dyadic(1, -7),
                               DyadicInterval(Dyadic(1), Dyadic(1)),
                               DyadicInterval(Dyadic(1, -3), Dyadic(1, 5))])
@pytest.mark.parametrize("p", [64, 96, 192])
def test_ln_matches_fraction_reference_at_edges(x, p):
    # ln 1 = 0 and the powers of two, where the atanh series is empty
    assert _endpoints(ln_interval(x, p)) == \
        _endpoints(_ln_interval_reference(x, p))


def _reciprocal_reference(x: DyadicInterval, p: int) -> DyadicInterval:
    return DyadicInterval(
        _round_fraction_reference(1 / as_fraction(x.hi), p, round_up=False),
        _round_fraction_reference(1 / as_fraction(x.lo), p, round_up=True))


_magnitudes = st.builds(
    Dyadic, st.one_of(st.just(1), st.integers(min_value=1, max_value=1 << 90)),
    st.integers(min_value=-120, max_value=90))


@given(_magnitudes, _magnitudes, st.sampled_from([1, -1]), _ln_precisions)
@settings(max_examples=300, deadline=None)
def test_reciprocal_matches_fraction_reference(a, b, sign, p):
    # mantissa +-1 is the case the exact-dyadic rule keeps unrounded
    x = DyadicInterval(*sorted((a.mul_int(sign), b.mul_int(sign))))
    assert _endpoints(x.reciprocal(p)) == \
        _endpoints(_reciprocal_reference(x, p))


class TestPowRational:
    def test_half_power(self):
        iv = pow_rational(DyadicInterval.point(2), Fraction(3, 2), 64)
        oracle = sqrt_digits(8, 30)
        assert as_fraction(iv.lo) <= oracle + Fraction(1, 10 ** 28)
        assert as_fraction(iv.hi) >= oracle

    def test_negative_exponent(self):
        iv = pow_rational(DyadicInterval.point(4), Fraction(-1, 2), 64)
        assert as_fraction(iv.lo) <= Fraction(1, 2) <= as_fraction(iv.hi)


# --- property-based coverage -------------------------------------------------

_small_rationals = st.fractions(min_value=Fraction(-6), max_value=Fraction(6),
                                max_denominator=48)
_root_leaves = st.tuples(st.integers(min_value=2, max_value=30),
                         st.integers(min_value=2, max_value=3)).map(
    lambda t: root(t[0], t[1]))
_leaves = st.one_of(_small_rationals.map(rational), _root_leaves)


def _combine(children):
    a, b = children
    return st.sampled_from(["add", "sub", "mul"]).map(
        lambda op: a + b if op == "add" else (a - b if op == "sub" else a * b))


_exprs = st.recursive(
    _leaves,
    lambda inner: st.tuples(inner, inner).flatmap(_combine),
    max_leaves=6,
)


@given(_exprs, st.integers(min_value=8, max_value=64),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_monotone_refinement(expr, p, extra):
    coarse = eval_interval(expr, p)
    fine = eval_interval(expr, p + extra)
    assert coarse.lo <= fine.lo
    assert fine.hi <= coarse.hi
    assert fine.width_le(p + extra)


@given(_exprs, st.integers(min_value=10, max_value=80))
@settings(max_examples=60, deadline=None)
def test_enclosure_soundness(expr, p):
    iv = eval_interval(expr, p)
    with mpmath.workprec(300):
        oracle = mpf_to_fraction(mp_eval(expr))
    slack = Fraction(1, 2 ** 250)
    assert as_fraction(iv.lo) - slack <= oracle <= as_fraction(iv.hi) + slack


@given(st.fractions(max_denominator=1000), st.integers(min_value=2, max_value=400))
@settings(max_examples=80)
def test_grid_rounding_brackets(value, p):
    num, den = value.numerator, value.denominator
    lo = dyadic_from_ratio(num, den, p, round_up=False)
    hi = dyadic_from_ratio(num, den, p, round_up=True)
    assert as_fraction(lo) <= value <= as_fraction(hi)
    assert as_fraction(hi - lo) <= Fraction(1, 2 ** p)


@given(_exprs)
@settings(max_examples=40, deadline=None)
def test_grammar_round_trip(expr):
    assert parse_expr(expr_to_text(expr)) == expr
