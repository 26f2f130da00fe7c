from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from bachain.errors import (
    AmbiguousRounding,
    DomainError,
    PrecisionExhausted,
    WidthTooLarge,
)
from bachain.realnum import (
    GREATER,
    LESS,
    PRECISION_CAP,
    Dyadic,
    DyadicInterval,
    Undecided,
    compare,
    dyadic_from_fraction,
    eval_interval,
    expr_to_text,
    iroot_ceil,
    iroot_floor,
    ln_interval,
    nearest_integer,
    pow_rational,
    precision_ladder,
    rational,
    root,
)
from bachain import realnum
from bachain.cli import parse_expr
from conftest import cbrt_digits, sqrt_digits


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
        assert (a + b).as_fraction() == Fraction(3, 4) + Fraction(5, 16)
        assert (a - b).as_fraction() == Fraction(3, 4) - Fraction(5, 16)
        assert (a * b).as_fraction() == Fraction(15, 64)
        assert (-a).as_fraction() == -Fraction(3, 4)

    def test_comparisons(self):
        assert Dyadic(1, -1) < Dyadic(3, -2)
        assert Dyadic(1, 10) > Dyadic(1023, 0)
        assert Dyadic(-1, -1) < Dyadic(0)

    def test_grid_rounding(self):
        d = dyadic_from_fraction(Fraction(1, 3), 8, round_up=False)
        u = dyadic_from_fraction(Fraction(1, 3), 8, round_up=True)
        assert d.as_fraction() <= Fraction(1, 3) <= u.as_fraction()
        assert (u - d).as_fraction() == Fraction(1, 256)
        exact = dyadic_from_fraction(Fraction(5, 8), 2, round_up=True)
        assert exact.as_fraction() == Fraction(5, 8)

    def test_hex_round_trip(self):
        for man, exp in [(3, -1), (-7, 12), (0, 0), (12345, -200)]:
            d = Dyadic(man, exp)
            assert Dyadic.from_hex(d.to_hex()) == d
        with pytest.raises(ValueError):
            Dyadic.from_hex("1.5")

    def test_floor_ceil_int(self):
        assert Dyadic(7, -2).floor_int() == 1
        assert Dyadic(7, -2).ceil_int() == 2
        assert Dyadic(-7, -2).floor_int() == -2
        assert Dyadic(-7, -2).ceil_int() == -1

    def test_floor_ceil_scaled(self):
        # 7/4 on the 2**-1 grid: 3.5 steps
        assert Dyadic(7, -2).floor_scaled(1) == 3
        assert Dyadic(7, -2).ceil_scaled(1) == 4
        assert Dyadic(-7, -2).floor_scaled(1) == -4
        assert Dyadic(-7, -2).ceil_scaled(1) == -3
        # on or finer than the value's own grid the scaling is exact
        for d in (Dyadic(7, -2), Dyadic(-7, -2), Dyadic(5, 3), Dyadic(0)):
            for p in (2, 5):
                exact = d.as_fraction() * 2 ** p
                assert d.floor_scaled(p) == d.ceil_scaled(p) == exact


@pytest.mark.parametrize("start,limit,rungs", [
    (64, 32768, [64 << i for i in range(10)]),
    (70, 300, [70, 140, 280, 300]),
    # start at or above the limit: that one rung only
    (100, 64, [100]),
    (96, 1, [96]),
    # eval_interval's rungs, min(64, cap) up to cap, for caps 32, 64, 100
    (32, 32, [32]),
    (64, 64, [64]),
    (64, 100, [64, 100]),
])
def test_precision_ladder(start, limit, rungs):
    assert list(precision_ladder(start, limit)) == rungs


class TestIroot:
    @pytest.mark.parametrize("n,k", [(0, 2), (1, 5), (26, 3), (27, 3),
                                     (28, 3), (10 ** 30, 7)])
    def test_floor_ceil(self, n, k):
        f = iroot_floor(n, k)
        assert f ** k <= n < (f + 1) ** k
        c = iroot_ceil(n, k)
        assert (c - 1) ** k < n <= c ** k or (n == 0 and c == 0)


class TestEval:
    def test_integer_exact(self):
        iv = eval_interval(rational(2), 10)
        assert iv.lo == iv.hi == Dyadic(2)

    def test_sqrt2_digits(self):
        iv = eval_interval(root(2), 20)
        assert iv.width_le(20)
        oracle = sqrt_digits(2, 30)  # floor value: true sqrt(2) is above it
        slack = Fraction(1, 10 ** 28)
        assert iv.lo.as_fraction() - slack <= oracle <= iv.hi.as_fraction()
        assert Fraction("1.41421") < iv.lo.as_fraction()
        assert iv.hi.as_fraction() < Fraction("1.41422")

    def test_cbrt_sum_digits(self):
        iv = eval_interval(root(2, 3) + root(4, 3), 16)
        oracle = cbrt_digits(2, 30) + cbrt_digits(4, 30)
        slack = Fraction(1, 10 ** 28)
        assert iv.lo.as_fraction() - slack <= oracle <= iv.hi.as_fraction()
        assert Fraction("2.84732") < iv.lo.as_fraction()
        assert iv.hi.as_fraction() < Fraction("2.84733")

    def test_nonneg_radicand_enforced(self):
        with pytest.raises(DomainError):
            root(rational(-1))
        with pytest.raises(DomainError):
            root(root(2) - 2)  # certifiably negative
        root(root(4) - 2)  # exactly zero radicand is allowed

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            rational(1) / rational(0)
        with pytest.raises(DomainError):
            rational(1) / (rational(1, 3) + rational(2, 3) - 1)

    def test_undecidable_denominator_hits_cap(self):
        with pytest.raises(PrecisionExhausted):
            from bachain.realnum import _make_quotient
            _make_quotient(rational(1), root(4) - 2, cap=1024)

    def test_deterministic(self):
        e = (root(2) + 1) / root(3)
        assert eval_interval(e, 40) == eval_interval(e, 40)


class TestCompare:
    def test_rationals_small_budget(self):
        assert compare(rational(1, 2), rational(1, 3), 8) == GREATER

    def test_sqrt2_vs_decimal(self):
        assert compare(root(2), rational(141421, 100000), 64) == GREATER
        assert compare(rational(141421, 100000), root(2), 64) == LESS

    def test_equal_values_undecided(self):
        out = compare(root(4), rational(2), 64)
        assert isinstance(out, Undecided)
        assert out.precision == 64

    def test_antisymmetry_examples(self):
        pool = [root(2), root(3), rational(3, 2), root(2, 3) + 1,
                (1 + root(5)) / 2]
        for a in pool:
            for b in pool:
                ab, ba = compare(a, b, 256), compare(b, a, 256)
                if ab == LESS:
                    assert ba == GREATER
                elif ab == GREATER:
                    assert ba == LESS
                else:
                    assert isinstance(ba, Undecided)


class TestNearestInteger:
    def _iv(self, lo, hi, p=24):
        return DyadicInterval.from_fractions(Fraction(lo), Fraction(hi), p)

    def test_forced_rounding(self):
        n, res = nearest_integer(self._iv("0.617", "0.619"))
        assert n == 1
        assert Fraction("-0.384") < res.lo.as_fraction()
        assert res.hi.as_fraction() < Fraction("-0.380")

    def test_near_integer(self):
        n, res = nearest_integer(self._iv("2.999", "3.001"))
        assert n == 3
        assert res.lo.as_fraction() >= Fraction("-0.0011")
        assert res.hi.as_fraction() <= Fraction("0.0011")

    def test_straddles_half(self):
        with pytest.raises(AmbiguousRounding):
            nearest_integer(self._iv("0.4999", "0.5001"))
        with pytest.raises(AmbiguousRounding):
            nearest_integer(DyadicInterval.point(Dyadic(1, -1)))

    def test_too_wide(self):
        with pytest.raises(WidthTooLarge):
            nearest_integer(self._iv(0, 1))


class TestEnclosureMemo:
    """eval_interval memoises per node under (precision, cap)."""

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
        assert set(e._enclosures) == {(72, 100), (72, PRECISION_CAP)}

    def test_repeat_call_skips_the_ladder(self, monkeypatch):
        e = parse_expr(self.TEXT)
        first = eval_interval(e, 90)

        def no_climb(expr, w):
            raise AssertionError("memoised enclosure re-evaluated")

        monkeypatch.setattr(realnum, "_eval_at", no_climb)
        assert eval_interval(e, 90) is first

    def test_fresh_tree_starts_empty(self):
        eval_interval(parse_expr(self.TEXT), 40)
        e = parse_expr(self.TEXT)
        stack = [e]
        while stack:
            node = stack.pop()
            assert node._enclosures == {}
            stack.extend(node.children)
        eval_interval(e, 40)
        assert set(e._enclosures) == {(40, PRECISION_CAP)}


# --- the Dyadic-object formulations the integer fast paths replaced ---------


def _lt_aligned(a: Dyadic, b: Dyadic) -> bool:
    x, y, _ = a._aligned(b)
    return x < y


def _le_aligned(a: Dyadic, b: Dyadic) -> bool:
    x, y, _ = a._aligned(b)
    return x <= y


def _nearest_integer_reference(x: DyadicInterval):
    if not _lt_aligned(x.hi - x.lo, Dyadic(1, -2)):
        raise WidthTooLarge("interval wider than 1/4")
    half = Dyadic(1, -1)
    t_lo = x.lo + half
    t_hi = x.hi + half
    if t_lo.is_integer() or t_hi.is_integer():
        raise AmbiguousRounding("endpoint lies exactly on a half-integer")
    n_lo = t_lo.floor_int()
    n_hi = t_hi.floor_int()
    if n_lo != n_hi:
        raise AmbiguousRounding("interval straddles a half-integer")
    d = Dyadic(n_lo)
    return n_lo, DyadicInterval(x.lo - d, x.hi - d)


def _outcome(fn, x):
    """Result with exact endpoints, or the exception's type and text."""
    try:
        n, res = fn(x)
    except (WidthTooLarge, AmbiguousRounding) as exc:
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
    (Dyadic(0), Dyadic(1, -2), WidthTooLarge),                # width 1/4
    (Dyadic(1, -1), Dyadic(3, -2), WidthTooLarge),            # both at once
    (Dyadic(5), Dyadic(5), None),                             # integer point
    (Dyadic(7, -4), Dyadic(9, -4), AmbiguousRounding),        # across 1/2
    (Dyadic(-1, -3), Dyadic(1, -4), None),                    # across 0
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
        assert iv.lo.as_fraction() - slack <= oracle <= iv.hi.as_fraction() + slack
        assert iv.width_le(90)

    def test_interval_argument(self):
        x = DyadicInterval(Dyadic(2), Dyadic(3))
        iv = ln_interval(x, 64)
        with mpmath.workprec(120):
            assert iv.lo.as_fraction() <= mpf_to_fraction(mpmath.log(2))
            assert iv.hi.as_fraction() >= mpf_to_fraction(mpmath.log(3))

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            ln_interval(Dyadic(0), 32)


class TestPowRational:
    def test_half_power(self):
        iv = pow_rational(DyadicInterval.point(2), Fraction(3, 2), 64)
        oracle = sqrt_digits(8, 30)
        assert iv.lo.as_fraction() <= oracle + Fraction(1, 10 ** 28)
        assert iv.hi.as_fraction() >= oracle

    def test_negative_exponent(self):
        iv = pow_rational(DyadicInterval.point(4), Fraction(-1, 2), 64)
        assert iv.lo.as_fraction() <= Fraction(1, 2) <= iv.hi.as_fraction()


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
    assert iv.lo.as_fraction() - slack <= oracle <= iv.hi.as_fraction() + slack


@given(st.fractions(max_denominator=1000), st.integers(min_value=2, max_value=400))
@settings(max_examples=80)
def test_grid_rounding_brackets(value, p):
    lo = dyadic_from_fraction(value, p, round_up=False)
    hi = dyadic_from_fraction(value, p, round_up=True)
    assert lo.as_fraction() <= value <= hi.as_fraction()
    assert (hi - lo).as_fraction() <= Fraction(1, 2 ** p)


@given(_exprs)
@settings(max_examples=40, deadline=None)
def test_grammar_round_trip(expr):
    from bachain.cli import parse_expr
    assert parse_expr(expr_to_text(expr)) == expr
