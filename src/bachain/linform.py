"""Linear forms over exact real constants.

A form of dimension r carries constants (a_1, ..., a_r); an integer vector
m = (m_0, m_1, ..., m_r) has form value m_0 + m_1*a_1 + ... + m_r*a_r.
This module evaluates form values, picks the optimal free coefficient m_0
for a given tail, applies the positive-value sign normalization, and holds
the scaled-integer residual kernel that both exhaustive scans (the chain
enumerator and the degeneracy criterion) run per tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    AmbiguousRounding,
    DependenceSuspected,
    WidthTooLarge,
)
from .realnum import (
    PRECISION_CAP,
    START_PRECISION,
    Dyadic,
    DyadicInterval,
    RealExpr,
    eval_interval,
    nearest_integer,
    precision_ladder,
    working_limit,
)

IntVector = tuple[int, ...]


@dataclass(frozen=True)
class LinearForm:
    """Dimension r plus the r constants being approximated.

    Provably rational constants (root-free trees) are rejected outright,
    since the whole setup assumes 1 and the constants are rationally
    independent.  Rational values hiding behind root nodes, and deeper
    dependences between several constants, are only caught downstream by
    the enumerator's tie detection.
    """

    alphas: tuple[RealExpr, ...]

    def __post_init__(self):
        if len(self.alphas) < 1:
            raise ValueError("a linear form needs at least one constant")
        for j, a in enumerate(self.alphas):
            if not isinstance(a, RealExpr):
                raise TypeError(f"alpha[{j}] is not a RealExpr")
            if a.exact_fraction() is not None:
                raise DependenceSuspected(
                    f"alpha[{j}] = {a!r} is provably rational", witness=(j,))

    @property
    def r(self) -> int:
        return len(self.alphas)


def zeta(m: Sequence[int], form: LinearForm, precision: int,
         cap: int = PRECISION_CAP) -> DyadicInterval:
    """Enclosure of m_0 + sum m_j*a_j; each constant is evaluated to width
    <= 2**-precision, so the result has width <= 2**-precision * sum|m_j|.

    The endpoints are exact integer sums on the finest grid among the
    terms: m_0 and, per constant, coeff times the endpoint that bounds the
    product from below (above)."""
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


def tail_norm(tail: Sequence[int]) -> int:
    return max(abs(c) for c in tail)


def best_m0(tail: Sequence[int], form: LinearForm,
            cap: int = PRECISION_CAP) -> tuple[int, DyadicInterval]:
    """Free coefficient minimizing |m_0 + sum tail_j*a_j|, with the signed
    residual enclosure.

    Refines until the nearest integer is unambiguous; an ambiguity that
    survives the cap means the fractional part sits exactly on 0 or 1/2,
    which is a rational dependence.
    """
    if len(tail) != form.r:
        raise ValueError(f"expected {form.r} tail coordinates, got {len(tail)}")
    if not any(tail):
        raise ValueError("tail must not be all zero")
    limit = working_limit(cap)
    start = min(START_PRECISION + sum(map(abs, tail)).bit_length(), limit)
    m = (0,) + tuple(tail)
    for w in precision_ladder(start, limit):
        try:
            n, residual = nearest_integer(zeta(m, form, w, cap))
        except (AmbiguousRounding, WidthTooLarge):
            continue
        if residual.sign() == 0:
            # an exact integer combination is a certified rational dependence
            raise DependenceSuspected(
                f"tail {tuple(tail)} combines to an exact integer",
                witness=tuple(tail))
        return -n, residual
    raise DependenceSuspected(
        f"residual of tail {tuple(tail)} cannot be rounded at "
        f"cap {cap}; exact 0 or 1/2 suspected",
        witness=tuple(tail))


def canonicalize_sign(m: Sequence[int], form: LinearForm,
                      cap: int = PRECISION_CAP) -> IntVector:
    """Return m or -m, whichever has a certified positive form value."""
    m = tuple(m)
    for w in precision_ladder(START_PRECISION, working_limit(cap)):
        s = zeta(m, form, w, cap).sign()
        if s == 1:
            return m
        if s == -1:
            return tuple(-c for c in m)
        if s == 0:
            break
    raise DependenceSuspected(
        f"form value of {m} has no certifiable sign", witness=m)


# ---------------------------------------------------------------------------
# Scaled-integer residual kernel
# ---------------------------------------------------------------------------


def scaled_constants(exprs: Sequence[RealExpr], w: int, grid: int,
                     cap: int = PRECISION_CAP) -> tuple[list[int], list[int]]:
    """Integer endpoints lo[j], hi[j] on the 2**-grid lattice enclosing
    each constant, from enclosures of width <= 2**-w; exact whenever the
    grid is at least as fine as the enclosure endpoints."""
    los, his = [], []
    for e in exprs:
        iv = eval_interval(e, w, cap)
        los.append(iv.lo.floor_scaled(grid))
        his.append(iv.hi.ceil_scaled(grid))
    return los, his


def scaled_dot(tail: Sequence[int], los: Sequence[int],
               his: Sequence[int]) -> tuple[int, int]:
    """Bounds s_lo <= sum tail_j * a_j <= s_hi on the scale of the
    endpoints from ``scaled_constants``."""
    s_lo = s_hi = 0
    for c, al, ah in zip(tail, los, his):
        if c > 0:
            s_lo += c * al
            s_hi += c * ah
        elif c < 0:
            s_lo += c * ah
            s_hi += c * al
    return s_lo, s_hi


def abs_bounds(lo: int, hi: int) -> tuple[int, int]:
    """Bounds on |x| for every lo <= x <= hi."""
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)
