"""Shared fixtures: expensive chains are built once per session, and the
digit oracles used to pin expected values are deliberately independent of
the package's own evaluation code."""

from fractions import Fraction

import pytest

from bachain import Dyadic, LinearForm, brute_force_oracle, enumerate_chain
from bachain import enumerator, parse_expr
from bachain.enumerator import BAChain, BestApprox, canonical_shell_tails
from bachain.errors import AmbiguousRounding, DependenceSuspected, \
    DomainError
from bachain.linform import abs_bounds, best_m0, form_values, tail_norm
from bachain.realnum import PRECISION_CAP, DyadicInterval, RealExpr, \
    _make_quotient, eval_interval, ln_interval, pow_rational

R1_ALPHA_TEXTS = {
    "sqrt2": "root(2,2)",
    "golden_minus_1": "(1+root(5,2))/2 - 1",
    "sqrt5_minus_2": "root(5,2)-2",
    "sqrt3_minus_1": "root(3,2)-1",
}


def as_fraction(d) -> Fraction:
    """The exact value of a ``Dyadic`` man * 2**exp as a Fraction."""
    if d.exp >= 0:
        return Fraction(d.man << d.exp)
    return Fraction(d.man, 1 << -d.exp)


def quotient(num, den) -> RealExpr:
    """The expression num / den, built as ``parse_expr`` builds its
    quotients; an int or Fraction operand coerces."""
    return _make_quotient(RealExpr.coerce(num), RealExpr.coerce(den))


def interval_abs(iv: DyadicInterval) -> DyadicInterval:
    """The enclosure {|x| : x in iv}."""
    if iv.lo.man >= 0:
        return iv
    if iv.hi.man <= 0:
        return -iv
    return DyadicInterval(Dyadic(0), max(-iv.lo, iv.hi))


def dyadic_from_hex(text: str):
    """Inverse of ``Dyadic.to_hex``; other spellings of the value may
    parse too."""
    try:
        man_hex, exp_dec = text.replace("0x", "", 1).split("p")
        return Dyadic(int(man_hex, 16), int(exp_dec))
    except ValueError:
        raise ValueError(f"malformed dyadic literal: {text!r}") from None


def replace(record, **changes):
    """A copy of a slotted record with ``changes`` applied, built through
    its constructor so that its checks run again.  Every slot must name a
    constructor parameter, as in ``BAChain``."""
    kept = {name: getattr(record, name) for name in type(record).__slots__}
    return type(record)(**(kept | changes))


class _ReferenceCandidate:
    """One tail's full vector (m_0, tail), its signed form-value enclosure
    with the enclosure's absolute value, and the rung of the form-value
    ladder that enclosure came from."""

    __slots__ = ("m", "value", "size", "rung")

    def __init__(self, tail, form, cap, first):
        m0, self.value, self.rung = first(tail, form, cap)
        self.size = interval_abs(self.value)
        self.m = (m0,) + tail

    def refine(self, form, cap) -> bool:
        """Climb to the next rung above the candidate's own; the enclosure
        only narrows.  False when the candidate already holds the top."""
        w, lo, hi, e = next(form_values(self.m, form, 2 * self.rung, cap))
        if w <= self.rung:
            return False
        value = DyadicInterval(Dyadic(lo, e), Dyadic(hi, e))
        self.rung, self.value, self.size = w, value, interval_abs(value)
        return True


def reference_oracle(form, M_max, cap=PRECISION_CAP, first=best_m0):
    """``brute_force_oracle`` as one ``best_m0`` call per tail (or
    ``first``, which takes best_m0's arguments and returns what it
    returns), a candidate object per tail and the global minimum at
    every level recomputed over all shell minima below it.  Slow; the
    package's oracle must match its bytes and its errors."""
    if M_max < 1:
        raise ValueError("M_max must be >= 1")
    top = 0
    shell_minima = []
    for M in range(1, M_max + 1):
        best = None
        for tail in canonical_shell_tails(form.r, M):
            cand = _ReferenceCandidate(tail, form, cap, first)
            if best is None:
                best = cand
                continue
            winner = _reference_smaller(best, cand, form, cap)
            top = max(top, best.rung, cand.rung)
            best = winner
        shell_minima.append(best)

    found = []
    for level in range(1, M_max + 1):
        best = shell_minima[0]
        for cand in shell_minima[1:level]:
            best = _reference_smaller(best, cand, form, cap)
        if found and found[-1][1] is best:
            continue
        if tail_norm(best.m[1:]) != level:
            raise AssertionError("oracle: new global minimum off its shell")
        while best.value.sign() not in (1, -1):
            if not best.refine(form, cap):
                raise DependenceSuspected(
                    f"oracle: sign of tail {best.m[1:]} undecidable",
                    witness=best.m[1:])
        found.append((level, best))

    records = []
    for index, (level, cand) in enumerate(found, start=1):
        s = cand.value.sign()
        records.append(BestApprox(
            index=index, m=tuple(s * c for c in cand.m), M=level,
            zeta=cand.value if s == 1 else -cand.value))
    for prev, rec in zip(records, records[1:]):
        if not rec.zeta.hi < prev.zeta.lo:
            raise AssertionError("oracle: consecutive records do not separate")
    top = max([top] + [cand.rung for cand in shell_minima])
    return BAChain(form=form, records=tuple(records), search_bound=M_max,
                   precision_used=top, precision_cap=cap)


def _reference_smaller(a, b, form, cap):
    while True:
        if a.size.hi < b.size.lo:
            return a
        if b.size.hi < a.size.lo:
            return b
        climbed_a = a.refine(form, cap)
        climbed_b = b.refine(form, cap)
        if not (climbed_a or climbed_b):
            raise DependenceSuspected(
                f"oracle: residual tie between {a.m[1:]} and {b.m[1:]}",
                witness=(a.m[1:], b.m[1:]))


def _reference_residual(tail, los, his, grid):
    """Nearest integer n to sum tail_j * a_j and bounds r_lo <= x - n <=
    r_hi on the 2**-grid scale, from endpoint lists; AmbiguousRounding
    when an endpoint lies on a half-integer or the endpoints round
    apart.  The residual kernel as the shell scan once called it."""
    s_lo = s_hi = 0
    for c, al, ah in zip(tail, los, his):
        if c > 0:
            s_lo += c * al
            s_hi += c * ah
        elif c < 0:
            s_lo += c * ah
            s_hi += c * al
    half = 1 << (grid - 1)
    n = (s_lo + half) >> grid
    step = n << grid
    r_lo, r_hi = s_lo - step, s_hi - step
    if r_lo == -half or r_hi >= half:
        raise AmbiguousRounding("endpoint on or across a half-integer")
    return n, r_lo, r_hi


def reference_shell_scan(form, M_max, w, cap):
    """``enumerator._shell_scan`` with the nearest integer and both
    residual bounds per tail, the shell's best as a tuple and |residual|
    bounds for every tail.  Slow; with it patched in, ``enumerate_chain``
    must give the package scan's bytes, errors and rescans."""
    r = form.r
    grid = w + 2
    los, his = [], []
    for alpha in form.alphas:
        iv = eval_interval(alpha, w, cap)
        los.append(iv.lo.floor_scaled(grid))
        his.append(iv.hi.ceil_scaled(grid))

    running_lo = running_hi = running_tail = None
    records = []
    for M in range(1, M_max + 1):
        best = None  # (abs_lo, abs_hi, tail, n, r_lo, r_hi)
        for tail in canonical_shell_tails(r, M):
            try:
                n, r_lo, r_hi = _reference_residual(tail, los, his, grid)
            except AmbiguousRounding:
                raise enumerator._Rescan("rounding", tail) from None
            abs_lo, abs_hi = abs_bounds(r_lo, r_hi)
            if abs_lo == 0 and abs_hi == 0:
                raise DependenceSuspected(
                    f"form value of tail {tail} is exactly zero",
                    witness=tail)
            if best is None or abs_hi < best[0]:
                best = (abs_lo, abs_hi, tail, n, r_lo, r_hi)
            elif abs_lo <= best[1]:
                raise enumerator._Rescan("tie", (best[2], tail))

        abs_lo, abs_hi, tail, n, r_lo, r_hi = best
        if running_lo is not None:
            if abs_lo > running_hi:
                continue
            if abs_hi >= running_lo:
                raise enumerator._Rescan("tie", (running_tail, tail))
        if r_lo <= 0 <= r_hi:
            raise enumerator._Rescan("sign", tail)
        m = (-n,) + tail if r_lo > 0 else (n,) + tuple(-c for c in tail)
        n, r_lo, r_hi = _reference_residual(m[1:], los, his, grid)
        assert m[0] == -n
        records.append(BestApprox(
            index=len(records) + 1, m=m, M=M,
            zeta=DyadicInterval(Dyadic(r_lo, -grid), Dyadic(r_hi, -grid))))
        running_lo, running_hi, running_tail = abs_lo, abs_hi, tail
    return records


#: The smallest argument of each psi family, as ``PsiSpec.y_min`` once
#: listed it: log y > 0 needs y >= 2, and log log y > 0 needs y >= 3.
PSI_Y_MIN = {"power": 1, "log": 2, "loglog": 3}


def reference_psi_value(spec, y, p):
    """``PsiSpec.value`` as it once read, one branch per family, each with
    its own exponent: E of y for power, delta_k + 1 + eps of log y for
    log, 1 + eps of log log y (times log y when delta_k is 1) for loglog,
    and y**(r+k) as an exact integer.  The one-formula path must give its
    bytes."""
    if y < PSI_Y_MIN[spec.family]:
        raise DomainError(f"psi undefined below y = {PSI_Y_MIN[spec.family]}")
    delta_k = 1 if spec.k == 1 else 0
    if spec.family == "power":
        base = DyadicInterval.point(y)
        powered = pow_rational(base, spec.power_exp, p)
        inv = powered.reciprocal(p)
        c = DyadicInterval.from_fractions(spec.coeff, spec.coeff, p)
        return c * inv
    ypow = y ** (spec.r + spec.k)
    log_y = ln_interval(y, p)
    if spec.family == "log":
        denom = pow_rational(log_y, delta_k + 1 + spec.eps, p).mul_int(ypow)
        return denom.reciprocal(p)
    loglog_y = ln_interval(log_y, p)
    if loglog_y.lo.man <= 0:
        raise DomainError("log log y not certifiably positive")
    denom = pow_rational(loglog_y, 1 + spec.eps, p)
    if delta_k:
        denom = denom * log_y
    denom = denom.mul_int(ypow)
    return denom.reciprocal(p)


def sqrt_digits(n: int, digits: int) -> Fraction:
    """floor(sqrt(n) * 10**digits) / 10**digits via integer arithmetic."""
    import math
    scale = 10 ** digits
    return Fraction(math.isqrt(n * scale * scale), scale)


def cbrt_digits(n: int, digits: int) -> Fraction:
    """floor(cbrt(n) * 10**digits) / 10**digits, by bisection on integers
    (kept distinct from the package's Newton iteration on purpose)."""
    scale = 10 ** digits
    target = n * scale ** 3
    lo, hi = 0, 1
    while hi ** 3 <= target:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** 3 <= target:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, scale)


@pytest.fixture(scope="session")
def sqrt2_form():
    return LinearForm((parse_expr(R1_ALPHA_TEXTS["sqrt2"]),))


@pytest.fixture(scope="session")
def sqrt2_chain(sqrt2_form):
    return enumerate_chain(sqrt2_form, 30)


@pytest.fixture(scope="session")
def r1_forms():
    return {name: LinearForm((parse_expr(text),))
            for name, text in R1_ALPHA_TEXTS.items()}


@pytest.fixture(scope="session")
def r1_chains_10k(r1_forms):
    return {name: enumerate_chain(form, 10 ** 4)
            for name, form in r1_forms.items()}


@pytest.fixture(scope="session")
def cbrt_pair_form():
    return LinearForm((parse_expr("root(2,3)"), parse_expr("root(4,3)")))


@pytest.fixture(scope="session")
def cbrt_pair_chain_200(cbrt_pair_form):
    return enumerate_chain(cbrt_pair_form, 200)


@pytest.fixture(scope="session")
def sqrt23_form():
    return LinearForm((parse_expr("root(2,2)"), parse_expr("root(3,2)")))


@pytest.fixture(scope="session")
def sqrt23_chain_200(sqrt23_form):
    return enumerate_chain(sqrt23_form, 200)


@pytest.fixture(scope="session")
def sqrt235_form():
    return LinearForm((parse_expr("root(2,2)"), parse_expr("root(3,2)"),
                       parse_expr("root(5,2)")))


@pytest.fixture(scope="session")
def sqrt235_chain_60(sqrt235_form):
    return enumerate_chain(sqrt235_form, 60)


@pytest.fixture(scope="session")
def cbrt_pair_oracle_200(cbrt_pair_form):
    return brute_force_oracle(cbrt_pair_form, 200)


@pytest.fixture(scope="session")
def sqrt23_oracle_200(sqrt23_form):
    return brute_force_oracle(sqrt23_form, 200)


@pytest.fixture(scope="session")
def sqrt235_oracle_60(sqrt235_form):
    return brute_force_oracle(sqrt235_form, 60)
