from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from bachain import enumerate_chain, parse_expr
from bachain.enumerator import canonical_shell_tails
from bachain.errors import (
    AmbiguousRounding,
    BachainError,
    DependenceSuspected,
    PrecisionExhausted,
)
from bachain.linform import (
    Binding,
    LinearForm,
    abs_bounds,
    best_m0,
    dot_bounds,
    endpoint_table,
    form_values,
    record_enclosure,
    residue_tables,
    scaled_constants,
    scaled_residual,
    screen,
    zeta,
)
from bachain.realnum import (
    PRECISION_CAP,
    START_PRECISION,
    Dyadic,
    DyadicInterval,
    eval_interval,
    nearest_integer,
    rational,
    root,
    working_limit,
)
from conftest import as_fraction, quotient, sqrt_digits


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
        LinearForm((quotient(root(4), 2),))

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
        assert as_fraction(iv.lo) - slack <= oracle <= as_fraction(iv.hi)
        assert Fraction("0.41421") < as_fraction(iv.lo)
        assert as_fraction(iv.hi) < Fraction("0.41422")

    def test_cbrt_pair_value(self, cbrt_pair):
        iv = zeta((-2, 1, 1), cbrt_pair, 30)
        assert Fraction("0.84732") < as_fraction(iv.lo)
        assert as_fraction(iv.hi) < Fraction("0.84733")

    def test_wrong_length(self, sqrt2):
        with pytest.raises(ValueError):
            zeta((1, 2, 3), sqrt2, 16)

    def test_width_scales_with_coefficients(self, sqrt2):
        iv = zeta((0, 1000), sqrt2, 40)
        assert as_fraction(iv.hi - iv.lo) <= Fraction(1001, 2 ** 40)


class TestScaledKernel:
    @pytest.mark.parametrize("tail", [(1, 0), (0, -3), (2, -5), (-7, 7)])
    def test_dot_encloses_form_value(self, cbrt_pair, tail):
        w = 40
        binding = scaled_constants(cbrt_pair.alphas, w)
        grid, half = binding.grid, binding.half
        assert grid == w + 2
        n, o_lo, o_hi = scaled_residual(tail, binding)
        r_lo, r_hi = o_lo - half, o_hi - half
        iv = zeta((0,) + tail, cbrt_pair, w)
        scale = Fraction(1, 2 ** grid)
        assert n + r_lo * scale <= as_fraction(iv.lo)
        assert as_fraction(iv.hi) <= n + r_hi * scale
        # n is the nearest integer: the residual stays inside (-1/2, 1/2)
        assert -(1 << (grid - 1)) < r_lo <= r_hi < 1 << (grid - 1)
        # width 2**-w per unit coefficient, plus one grid step per rounded
        # endpoint
        slack = sum(map(abs, tail)) * Fraction(2 ** (grid - w) + 2)
        assert r_hi - r_lo <= slack

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
        got_m0, residual, _ = best_m0(tail, sqrt2)
        assert got_m0 == m0
        assert Fraction(res_lo) <= as_fraction(residual.lo)
        assert as_fraction(residual.hi) <= Fraction(res_hi)

    def test_zero_tail_rejected(self, sqrt2):
        with pytest.raises(ValueError):
            best_m0((0,), sqrt2)

    def test_dependence_on_exact_integer_combination(self):
        form = LinearForm((quotient(root(4), 2),))  # value exactly 1
        with pytest.raises(DependenceSuspected):
            best_m0((1,), form, cap=2048)


def canonicalize_sign(m, form, cap=PRECISION_CAP):
    """m or -m, whichever has a certified positive form value: the sign
    normalization that the scan and the oracle each apply themselves,
    kept as a reference over ``form_values``."""
    m = tuple(m)
    for _, lo, hi, _ in form_values(m, form, START_PRECISION, cap):
        if lo > 0:
            return m
        if hi < 0:
            return tuple(-c for c in m)
        if lo == hi == 0:
            break
    raise DependenceSuspected(
        f"form value of {m} has no certifiable sign", witness=m)


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
    _, residual, _ = best_m0(tail, form)
    assert as_fraction(residual.lo) > Fraction(-1, 2)
    assert as_fraction(residual.hi) < Fraction(1, 2)


@given(_pair_tails)
@settings(max_examples=50, deadline=None)
def test_canonicalize_is_involution_on_pair(tail):
    form = LinearForm((root(2, 3), root(4, 3)))
    m0, _, _ = best_m0(tail, form)
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


# --- the scaled residual kernel against exact rationals --------------------


def _residual_reference(tail, los, his, grid):
    """(n, r_lo, r_hi) by Fraction arithmetic, or None when an endpoint is
    a half-integer or the endpoints have different nearest integers."""
    scale = Fraction(1, 1 << grid)
    lo = sum(min(c * a, c * b) for c, a, b in zip(tail, los, his)) * scale
    hi = sum(max(c * a, c * b) for c, a, b in zip(tail, los, his)) * scale
    if lo.denominator == 2 or hi.denominator == 2 or round(lo) != round(hi):
        return None
    n = round(lo)
    return n, (lo - n) / scale, (hi - n) / scale


@st.composite
def _kernel_cases(draw):
    """Random tails, endpoint lists and grids; in the pinned modes the
    first coefficient is 1 and its endpoints are moved so that the lower
    or upper endpoint of the dot product lies exactly on a half-integer,
    or the dot product's interval spans one."""
    grid = draw(st.integers(min_value=1, max_value=80))
    size = draw(st.integers(min_value=1, max_value=4))
    unit = 1 << grid
    tail = draw(st.lists(st.integers(min_value=-60, max_value=60),
                         min_size=size, max_size=size))
    los = draw(st.lists(st.integers(min_value=-8 * unit, max_value=8 * unit),
                        min_size=size, max_size=size))
    widths = draw(st.lists(st.one_of(st.integers(min_value=0, max_value=3),
                                     st.integers(min_value=0,
                                                 max_value=unit)),
                           min_size=size, max_size=size))
    his = [lo + wd for lo, wd in zip(los, widths)]
    mode = draw(st.sampled_from(["free", "lo", "hi", "across"]))
    if mode != "free":
        tail[0] = 1
        rest = list(zip(tail[1:], los[1:], his[1:]))
        rest_lo = sum(min(c * a, c * b) for c, a, b in rest)
        rest_hi = sum(max(c * a, c * b) for c, a, b in rest)
        target = draw(st.integers(min_value=-50, max_value=50)) * unit \
            + unit // 2
        if mode == "lo":
            los[0] = target - rest_lo
            his[0] = los[0] + widths[0]
        elif mode == "hi":
            his[0] = target - rest_hi
            los[0] = his[0] - widths[0]
        else:
            below = draw(st.integers(min_value=1, max_value=unit))
            above = draw(st.integers(min_value=1, max_value=unit))
            los[0] = target - rest_lo - below
            his[0] = max(los[0], target - rest_hi + above)
    return tuple(tail), los, his, grid


def _every_one_coordinate_mode(test):
    """An example per coefficient c in {1, -1, 3, -3, 0} of a tail (c,)
    and per pinned mode of ``_kernel_cases``, so that the kernel's
    unpacked one-coordinate branch meets each sign with its lower
    endpoint on a half-integer, its upper one, or an enclosure that
    spans one: c * e * 2**-grid = 7|c|/2.  For c = 0 the endpoints are
    those of c = 1."""
    grid = 5
    half = 1 << (grid - 1)
    for c in (1, -1, 3, -3, 0):
        rising = c >= 0  # c * a rises with a
        e = 7 * half if rising else -7 * half
        below, above = e - 3, e + 5
        for los, his in (([e], [above]) if rising else ([below], [e]),
                         ([below], [e]) if rising else ([e], [above]),
                         ([below], [above])):
            test = example(((c,), los, his, grid))(test)
    return test


@given(_kernel_cases())
@example(((1,), [2], [2], 2))      # exactly 1/2
@example(((-1,), [2], [2], 2))     # exactly -1/2
@example(((1,), [0], [2], 2))      # upper endpoint on 1/2
@example(((1,), [1], [3], 2))      # [1/4, 3/4] spans 1/2
@example(((2, -1), [3, 1], [3, 2], 2))  # [1, 5/4]
@example(((0, 0), [5, 1], [9, 2], 3))   # the zero tail
@_every_one_coordinate_mode
@settings(max_examples=400, deadline=None)
def test_scaled_residual_matches_fraction_reference(case):
    # the residual comes back offset by half
    tail, los, his, grid = case
    binding = Binding(grid, los, his)
    want = _residual_reference(tail, los, his, grid)
    if want is None:
        with pytest.raises(AmbiguousRounding):
            scaled_residual(tail, binding)
    else:
        n, r_lo, r_hi = want
        half = 1 << (grid - 1)
        assert scaled_residual(tail, binding) == (n, r_lo + half, r_hi + half)


def _unskippable(tails, binding):
    """Indices of the tails that ``_shell_scan``'s loop, rounding each
    through ``scaled_residual``, would not pass over as beaten: each it
    cannot round, and each whose residual the least |residual| upper
    bound before it does not certifiably beat.  Where the scan raises (a
    tie, an exact zero), this walk goes on with the least bound."""
    half = binding.half
    up, down, need = binding.mask, 0, []
    for i, tail in enumerate(tails):
        try:
            _, o_lo, o_hi = scaled_residual(tail, binding)
        except AmbiguousRounding:
            need.append(i)
            continue
        if o_lo > up or o_hi < down:
            continue
        need.append(i)
        _, abs_hi = abs_bounds(o_lo - half, o_hi - half)
        up, down = min(up, half + abs_hi), max(down, half - abs_hi)
    return need


@st.composite
def _screen_cases(draw):
    """Distinct tails of r = 2..4 coordinates within a bound B >= 1, the
    shell scan's bounds, and endpoints on the 2**-grid lattice.  Grids of
    a few bits make exact zeros (at zero widths), half-integers and tails
    at equal distances common."""
    r = draw(st.integers(min_value=2, max_value=4))
    bound = draw(st.integers(min_value=1, max_value=12))
    grid = draw(st.one_of(st.integers(min_value=1, max_value=6),
                          st.integers(min_value=7, max_value=80)))
    unit = 1 << grid
    los = draw(st.lists(st.integers(min_value=-8 * unit, max_value=8 * unit),
                        min_size=r, max_size=r))
    widths = draw(st.lists(st.one_of(st.integers(min_value=0, max_value=3),
                                     st.integers(min_value=0,
                                                 max_value=unit)),
                           min_size=r, max_size=r))
    coordinate = st.integers(min_value=-bound, max_value=bound)
    tails = draw(st.lists(st.tuples(*[coordinate] * r), min_size=1,
                          max_size=40, unique=True))
    return tails, los, [lo + wd for lo, wd in zip(los, widths)], grid, bound


@given(_screen_cases())
# slack 2: the second tail's distance is the first's plus 2 * slack, and
# its |residual| lower bound equals the first's upper bound: a tie
@example(([(2, 0), (-2, 2)], [3, 8], [4, 8], 5, 2))
# the second tail's upper endpoint lies on 1/2, at distance half - slack
@example(([(0, 1), (2, 0)], [7, 1], [8, 1], 5, 2))
@example(([(0, 1), (1, 0)], [8, 1], [8, 1], 4, 2))   # exactly 1/2
# shell 1 of r = 2 at B = 1
@example(([(1, -1), (1, 0), (1, 1), (0, 1)], [3, 8], [4, 8], 5, 1))
@example(([(1, 1), (1, -1)], [5, 5], [5, 5], 4, 2))  # an exact zero
@example(([(1, -1, 1, 0), (1, 1, 1, 1), (0, 0, 1, -1)],
          [3, 5, 7, 9], [3, 5, 7, 9], 4, 1))          # length 4
@settings(max_examples=400, deadline=None)
def test_screen_keeps_every_tail_the_loop_cannot_pass_over(case):
    tails, los, his, grid, bound = case
    binding = Binding(grid, los, his)
    tables = residue_tables(binding, bound)
    position = {tail: i for i, tail in enumerate(tails)}
    kept = [position[tail] for tail in screen(tails, binding, *tables)]
    assert kept == sorted(kept)
    assert set(_unskippable(tails, binding)) <= set(kept)


def test_screen_passes_few_of_a_shell_to_the_kernel(cbrt_pair):
    binding = scaled_constants(cbrt_pair.alphas, 64, PRECISION_CAP)
    tails = list(canonical_shell_tails(2, 40))
    kept = screen(tails, binding, *residue_tables(binding, 40))
    assert len(kept) < len(tails) // 10


@pytest.mark.parametrize("r,bound", [(1, 1), (2, 1), (2, 2), (3, 1), (4, 1)])
def test_residue_tables_shape_and_slack(r, bound):
    # one table of 2B + 1 entries per constant, c * lo mod 2**grid at
    # index c (negative c from the end), plus half in table 0
    los, his = [-3, 5, 7, 90][:r], [-1, 6, 10, 94][:r]
    binding = Binding(5, los, his)
    residues, slack = residue_tables(binding, bound)
    assert [len(t) for t in residues] == [2 * bound + 1] * r
    assert slack == bound * sum(hi - lo for lo, hi in zip(los, his))
    for j, (table, lo) in enumerate(zip(residues, los)):
        base = binding.half if j == 0 else 0
        assert [table[c] for c in range(-bound, bound + 1)] == \
            [(c * lo + base) % 32 for c in range(-bound, bound + 1)]


# --- the record rule --------------------------------------------------------


@given(_kernel_cases())
@example(((1,), [2], [2], 2))      # exactly 1/2
@example(((1,), [1], [1], 2))      # 1/4
@example(((3, -2), [5, 7], [6, 7], 3))
@settings(max_examples=300, deadline=None)
def test_record_enclosure_is_the_kernel_residual(case):
    # with m0 minus the nearest integer, the enclosure is the kernel's
    # residual on the 2^-grid scale; another m0 is refused, and negating
    # the vector negates the enclosure exactly (the scan's sign
    # normalisation rests on it)
    tail, los, his, grid = case
    binding = Binding(grid, los, his)
    want = _residual_reference(tail, los, his, grid)
    if want is None:
        with pytest.raises(AmbiguousRounding):
            record_enclosure((0,) + tail, binding)
        return
    n, r_lo, r_hi = want
    iv = record_enclosure((-n,) + tail, binding)
    assert (as_fraction(iv.lo), as_fraction(iv.hi)) == \
        (r_lo / (1 << grid), r_hi / (1 << grid))
    assert record_enclosure((n,) + tuple(-c for c in tail), binding) == -iv
    for m0 in (-n - 1, -n + 1):
        with pytest.raises(ValueError, match=f"m0 is {m0}, but minus the "
                           f"nearest integer to the tail's value is {-n}"):
            record_enclosure((m0,) + tail, binding)


#: Chains of r = 1..3 at the default cap, built once per session.
DEFAULT_CAP_CHAINS = ("sqrt2_chain", "cbrt_pair_chain_200",
                      "sqrt23_chain_200", "sqrt235_chain_60")


def _assert_records_follow_the_rule(chain, cap):
    binding = scaled_constants(chain.form.alphas, chain.precision_used, cap)
    assert chain.records
    for rec in chain.records:
        assert rec.zeta == record_enclosure(rec.m, binding)


@pytest.mark.parametrize("fixture", DEFAULT_CAP_CHAINS)
def test_fixture_records_follow_the_record_rule(request, fixture):
    _assert_records_follow_the_rule(request.getfixturevalue(fixture),
                                    PRECISION_CAP)


def test_r1_fixture_records_follow_the_record_rule(r1_chains_10k):
    for chain in r1_chains_10k.values():
        _assert_records_follow_the_rule(chain, PRECISION_CAP)


@pytest.mark.parametrize("texts,M_max", [
    (("root(2,2)",), 1000),
    (("root(2,3)", "root(4,3)"), 40),
    (("root(2,2)", "root(3,2)", "root(5,2)"), 12),
], ids=["r1", "r2", "r3"])
@pytest.mark.parametrize("cap", [64, 4096])
def test_low_cap_records_follow_the_record_rule(texts, M_max, cap):
    form = LinearForm(tuple(parse_expr(t, cap) for t in texts))
    _assert_records_follow_the_rule(enumerate_chain(form, M_max, cap), cap)


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


# --- the Dyadic path that the endpoint table replaced ----------------------


def _zeta_dyadic_reference(m, form, precision, cap=PRECISION_CAP):
    """zeta as a per-call sum: one eval_interval per nonzero coefficient,
    the terms aligned on their finest exponent, and a Dyadic build."""
    if len(m) != form.r + 1:
        raise ValueError(f"expected {form.r + 1} coordinates, got {len(m)}")
    terms = []  # (coeff, lower endpoint, upper endpoint) of coeff * a_j
    e = 0
    for coeff, alpha in zip(m[1:], form.alphas):
        if coeff:
            iv = eval_interval(alpha, precision, cap)
            lo, hi = (iv.lo, iv.hi) if coeff > 0 else (iv.hi, iv.lo)
            terms.append((coeff, lo, hi))
            e = min(e, lo.exp, hi.exp)
    s_lo = s_hi = m[0] << -e
    for coeff, lo, hi in terms:
        s_lo += (coeff * lo.man) << (lo.exp - e)
        s_hi += (coeff * hi.man) << (hi.exp - e)
    return DyadicInterval(Dyadic(s_lo, e), Dyadic(s_hi, e))


def _best_m0_reference(tail, form, cap=PRECISION_CAP):
    """best_m0 over the Dyadic path: the same rungs, each enclosure built
    by ``_zeta_dyadic_reference`` and rounded by ``nearest_integer``."""
    if len(tail) != form.r:
        raise ValueError(f"expected {form.r} tail coordinates, got {len(tail)}")
    if not any(tail):
        raise ValueError("tail must not be all zero")
    limit = working_limit(cap)
    w = min(START_PRECISION + sum(map(abs, tail)).bit_length(), limit)
    rungs = []
    while w < limit:
        rungs.append(w)
        w *= 2
    for w in rungs + [limit]:
        value = _zeta_dyadic_reference((0,) + tuple(tail), form, w, cap)
        try:
            n, residual = nearest_integer(value)
        except AmbiguousRounding:
            continue
        if residual.sign() == 0:
            raise DependenceSuspected(
                f"tail {tuple(tail)} combines to an exact integer",
                witness=tuple(tail))
        return -n, residual, w
    raise DependenceSuspected(
        f"residual of tail {tuple(tail)} cannot be rounded at "
        f"cap {cap}; exact 0 or 1/2 suspected",
        witness=tuple(tail))


def _bits(x):
    """A result as plain data: intervals by mantissa and exponent, errors
    by type, message and witness."""
    if isinstance(x, DyadicInterval):
        return (x.lo.man, x.lo.exp, x.hi.man, x.hi.exp)
    if isinstance(x, tuple):
        return tuple(map(_bits, x))
    return x


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except (BachainError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


# root(4,2) is exactly 2 (an exact-integer tail (1,)), root(9/16,2) is
# exactly 3/4 (tail (2,) sits on 3/2 at every rung: cap exhaustion)
_REFERENCE_TEXTS = _ALPHA_TEXTS + ("root(7,3)", "root(43,2)")


@given(st.lists(st.sampled_from(_REFERENCE_TEXTS), min_size=1, max_size=3),
       st.integers(min_value=-(1 << 20), max_value=1 << 20),
       st.lists(st.one_of(st.just(0),
                          st.integers(min_value=-300, max_value=300)),
                min_size=3, max_size=3),
       st.integers(min_value=1, max_value=140),
       st.sampled_from([2048, PRECISION_CAP]))
@example(["root(4,2)"], 0, [1, 0, 0], 64, 2048)
@example(["root(9/16,2)"], 0, [2, 0, 0], 64, 2048)
@example(["root(2,2)", "root(4,2)"], 5, [0, 3, 0], 64, PRECISION_CAP)
@example(["root(2,2)", "root(3,3)/5", "(1+root(5,2))/2"], -7, [0, 0, 0], 9,
         PRECISION_CAP)
@settings(max_examples=200, deadline=None)
def test_integer_path_matches_dyadic_path(texts, m0, coeffs, precision, cap):
    form = LinearForm(tuple(parse_expr(t) for t in texts))
    tail = tuple(coeffs[:form.r])
    m = (m0,) + tail
    assert _outcome(zeta, m, form, precision, cap) == \
        _outcome(_zeta_dyadic_reference, m, form, precision, cap)
    assert _outcome(best_m0, tail, form, cap) == \
        _outcome(_best_m0_reference, tail, form, cap)


def _every_sign_pattern(test):
    """An example per sign pattern (+, -, 0) of a tail of length 2 or 3,
    as (c, lo, width) terms with endpoints near 2**200, so that each
    unpacked branch of ``dot_bounds`` meets each sign."""
    for n in (2, 3):
        for signs in product((1, -1, 0), repeat=n):
            test = example([(s * (10 ** 6 - j), -(3 << 199) // (j + 2),
                             (1 << 200) - j) for j, s in enumerate(signs)]
                           )(test)
    return test


class TestIntegerPath:
    def test_reference_errors(self):
        # the exact-integer and cap-exhaustion dependences, on both paths
        for text, tail, match in (("root(4,2)", (1,), "exact integer"),
                                  ("root(9/16,2)", (2,), "cannot be rounded")):
            form = LinearForm((parse_expr(text),))
            got = _outcome(best_m0, tail, form, 2048)
            assert got == _outcome(_best_m0_reference, tail, form, 2048)
            assert got[0] is DependenceSuspected and match in got[1]

    def test_table_is_exact(self, cbrt_pair):
        e, los, his = endpoint_table(cbrt_pair, 90)
        assert e <= -1
        for alpha, lo, hi in zip(cbrt_pair.alphas, los, his):
            iv = eval_interval(alpha, 90)
            assert (Dyadic(lo, e), Dyadic(hi, e)) == (iv.lo, iv.hi)

    def test_unevaluable_constant_raises_for_every_vector(self):
        # 2**1500 * sqrt(2) is 2**-548 wide at the 2048-bit rung, so it has
        # no enclosure of width 2**-600 under that cap; the table needs
        # every constant, so a vector that does not use it raises too,
        # as the scan's binding does
        form = LinearForm((root(3), root(2) * (1 << 1500)))
        want = _outcome(eval_interval, form.alphas[1], 600, 2048)
        assert want[0] is PrecisionExhausted
        assert _outcome(scaled_constants, form.alphas, 600, 2048) == want
        for m in ((3, 1, 0), (3, 0, 0), (3, 0, 1), (0, 2, -1)):
            assert _outcome(zeta, m, form, 600, 2048) == want

    def test_form_values_wrap_to_zeta(self, cbrt_pair):
        m = (4, -3, 11)
        for w, lo, hi, e in form_values(m, cbrt_pair, 64, 1024):
            assert DyadicInterval(Dyadic(lo, e), Dyadic(hi, e)) == \
                zeta(m, cbrt_pair, w, 1024)

    @given(st.lists(st.tuples(st.integers(-50, 50),
                              st.integers(-10 ** 6, 10 ** 6),
                              st.integers(0, 10 ** 6)),
                    min_size=1, max_size=5))
    @_every_sign_pattern
    def test_dot_bounds_are_the_extreme_corners(self, terms):
        # the tightest bounds on sum c_j * a_j over a_j in [lo_j, hi_j]
        tail = [c for c, _, _ in terms]
        los = [lo for _, lo, _ in terms]
        his = [lo + width for _, lo, width in terms]
        corners = [sum(c * a for c, a in zip(tail, pick))
                   for pick in product(*zip(los, his))]
        assert dot_bounds(tail, los, his) == (min(corners), max(corners))

    def test_form_values_wrong_length(self, cbrt_pair):
        with pytest.raises(ValueError):
            next(form_values((1, 2), cbrt_pair, 64))
