"""Linear forms over exact real constants.

A form of dimension r carries constants (a_1, ..., a_r); an integer vector
m = (m_0, m_1, ..., m_r) has form value m_0 + m_1*a_1 + ... + m_r*a_r.
This module evaluates form values as integer dot products over a table
of constant endpoints at one precision, climbs the one ladder over them,
and picks the optimal free coefficient m_0 for a given tail.
It also holds the scaled-integer residual kernel that both exhaustive
scans (the chain enumerator and the degeneracy criterion) run per tail
over a ``Binding`` of one rung's constants, the shell scan's screen with
the residue tables it reads (built from a binding and the scan's
coordinate bound), and the chain-record rule built on the kernel; the
form-value path above never calls them, so the brute-force oracle built
on that path stays an independent check of the scans.
"""

from __future__ import annotations

from operator import getitem
from typing import Iterable, Iterator, Sequence

from .errors import AmbiguousRounding, DependenceSuspected
from .realnum import (
    PRECISION_CAP,
    START_PRECISION,
    Dyadic,
    DyadicInterval,
    RealExpr,
    eval_interval,
    round_scaled,
    widths,
)


class LinearForm:
    """Dimension r plus the r constants being approximated.

    Provably rational constants (root-free trees) are rejected outright,
    since the whole setup assumes 1 and the constants are rationally
    independent.  Rational values hiding behind root nodes, and deeper
    dependences between several constants, are only caught downstream by
    the enumerator's tie detection.
    """

    __slots__ = ("alphas",)

    def __init__(self, alphas: tuple[RealExpr, ...]):
        if len(alphas) < 1:
            raise ValueError("a linear form needs at least one constant")
        for j, a in enumerate(alphas):
            if not isinstance(a, RealExpr):
                raise TypeError(f"alpha[{j}] is not a RealExpr")
            if a.exact_fraction() is not None:
                raise DependenceSuspected(
                    f"alpha[{j}] = {a!r} is provably rational", witness=(j,))
        self.alphas = alphas

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.alphas == other.alphas

    def __hash__(self) -> int:
        return hash(self.alphas)

    @property
    def r(self) -> int:
        return len(self.alphas)


def endpoint_table(form: LinearForm, precision: int,
                   cap: int = PRECISION_CAP) -> tuple[int, list[int], list[int]]:
    """Exponent e <= -1 and integer endpoints lo[j], hi[j] with
    eval_interval(a_j, precision, cap) = [lo[j], hi[j]] * 2**e exactly."""
    ivs = [eval_interval(alpha, precision, cap) for alpha in form.alphas]
    e = min([-1] + [d.exp for iv in ivs for d in (iv.lo, iv.hi)])
    return (e, [iv.lo.man << (iv.lo.exp - e) for iv in ivs],
            [iv.hi.man << (iv.hi.exp - e) for iv in ivs])


def _dot(m: Sequence[int], form: LinearForm, precision: int,
         cap: int) -> tuple[int, int, int]:
    """Endpoints lo, hi and exponent e of m_0 + sum m_j*a_j enclosed as
    [lo, hi] * 2**e: one integer dot product over ``endpoint_table``."""
    if len(m) != form.r + 1:
        raise ValueError(f"expected {form.r + 1} coordinates, got {len(m)}")
    e, los, his = endpoint_table(form, precision, cap)
    s_lo, s_hi = dot_bounds(m[1:], los, his)
    base = m[0] << -e
    return base + s_lo, base + s_hi, e


def dot_bounds(tail: Sequence[int], los: Sequence[int],
               his: Sequence[int]) -> tuple[int, int]:
    """Bounds s_lo <= sum tail_j * a_j <= s_hi for every a_j in
    [los[j], his[j]]: per constant, the endpoint that bounds
    tail_j * a_j from below (above).  The three sequences share a length."""
    if len(tail) == 2:  # the common lengths unpacked: one sign test each
        (a, b), (la, lb), (ha, hb) = tail, los, his
        if a < 0:
            la, ha = ha, la
        if b < 0:
            lb, hb = hb, lb
        return a * la + b * lb, a * ha + b * hb
    if len(tail) == 3:
        (a, b, c), (la, lb, lc), (ha, hb, hc) = tail, los, his
        if a < 0:
            la, ha = ha, la
        if b < 0:
            lb, hb = hb, lb
        if c < 0:
            lc, hc = hc, lc
        return a * la + b * lb + c * lc, a * ha + b * hb + c * hc
    s_lo = s_hi = 0
    for c, al, ah in zip(tail, los, his):
        if c < 0:
            al, ah = ah, al
        s_lo += c * al
        s_hi += c * ah
    return s_lo, s_hi


def zeta(m: Sequence[int], form: LinearForm, precision: int,
         cap: int = PRECISION_CAP) -> DyadicInterval:
    """Enclosure of m_0 + sum m_j*a_j; each constant is evaluated to width
    <= 2**-precision, so the result has width <= 2**-precision * sum|m_j|.
    """
    lo, hi, e = _dot(m, form, precision, cap)
    return DyadicInterval(Dyadic(lo, e), Dyadic(hi, e))


def tail_norm(tail: Sequence[int]) -> int:
    return max(abs(c) for c in tail)


def form_values(m: Sequence[int], form: LinearForm, start: int,
                cap: int = PRECISION_CAP
                ) -> Iterator[tuple[int, int, int, int]]:
    """(w, lo, hi, e) for each rung w of ``widths(start, cap)``, where
    [lo, hi] * 2**e is zeta(m, form, w, cap).

    Successive enclosures nest, so a caller that resumes from a rung it
    already holds only ever narrows its enclosure.  This is the one ladder
    over form values.
    """
    for w in widths(start, cap):
        yield (w,) + _dot(m, form, w, cap)


def best_m0(tail: Sequence[int], form: LinearForm,
            cap: int = PRECISION_CAP) -> tuple[int, DyadicInterval, int]:
    """Free coefficient minimizing |m_0 + sum tail_j*a_j|, with the signed
    residual enclosure and the rung it was certified at.

    Refines until the nearest integer is unambiguous; an ambiguity that
    survives the cap means the fractional part sits exactly on 0 or 1/2,
    which is a rational dependence.
    """
    if len(tail) != form.r:
        raise ValueError(f"expected {form.r} tail coordinates, got {len(tail)}")
    if not any(tail):
        raise ValueError("tail must not be all zero")
    start = START_PRECISION + sum(map(abs, tail)).bit_length()
    for w, lo, hi, e in form_values((0,) + tuple(tail), form, start, cap):
        try:
            n, r_lo, r_hi = round_scaled(lo, hi, -e)
        except AmbiguousRounding:
            continue
        if r_lo == r_hi == 0:
            # an exact integer combination is a certified rational dependence
            raise DependenceSuspected(
                f"tail {tuple(tail)} combines to an exact integer",
                witness=tuple(tail))
        return -n, DyadicInterval(Dyadic(r_lo, e), Dyadic(r_hi, e)), w
    raise DependenceSuspected(
        f"residual of tail {tuple(tail)} cannot be rounded at "
        f"cap {cap}; exact 0 or 1/2 suspected",
        witness=tuple(tail))


# ---------------------------------------------------------------------------
# Scaled-integer residual kernel
# ---------------------------------------------------------------------------


class Binding:
    """One rung's constants for ``scaled_residual``, constant j in
    [los[j], his[j]] * 2**-grid: half = 2**(grid - 1), mask = 2**grid - 1
    and terms[j] = (lo, hi, hi - lo).  Slots, as a tuple subclass unpacks
    more slowly in the kernel, which reads it per tail."""

    __slots__ = ("grid", "half", "mask", "terms")

    def __init__(self, grid: int, los: Sequence[int], his: Sequence[int]):
        self.grid, self.half = grid, 1 << (grid - 1)
        self.mask = 2 * self.half - 1
        self.terms = tuple((lo, hi, hi - lo) for lo, hi in zip(los, his))


def scaled_constants(exprs: Sequence[RealExpr], w: int,
                     cap: int = PRECISION_CAP) -> Binding:
    """The binding for ``exprs`` at precision w: on the grid g = w + 2,
    integer endpoints on the 2**-g lattice enclosing each constant, from
    enclosures of width <= 2**-w (exact when the grid is as fine as their
    endpoints)."""
    ivs = [eval_interval(e, w, cap) for e in exprs]
    return Binding(w + 2, [iv.lo.floor_scaled(w + 2) for iv in ivs],
                   [iv.hi.ceil_scaled(w + 2) for iv in ivs])


def residue_tables(binding: Binding,
                   bound: int) -> tuple[tuple[list[int], ...], int]:
    """(residues, slack) for ``screen`` over tails whose coordinates are
    bounded by B: residues[j][c], for -B <= c <= B (a negative c indexes
    from the end), is c * lo mod 2**grid for constant j, plus half in
    table 0; slack = B * sum(hi - lo).  A coordinate beyond B reads a
    wrong entry or none, so only a scan that visits no such tail may
    build them."""
    coords = list(range(bound + 1)) + list(range(-bound, 0))
    bases = [binding.half] + [0] * (len(binding.terms) - 1)
    residues = tuple([(c * lo + base) & binding.mask for c in coords]
                     for base, (lo, _, _) in zip(bases, binding.terms))
    return residues, bound * sum(d for _, _, d in binding.terms)


def scaled_residual(tail: Sequence[int],
                    binding: Binding) -> tuple[int, int, int]:
    """(n, o_lo, o_hi): the nearest integer n to x = sum tail_j * a_j and
    bounds o_lo <= x - n + half <= o_hi on the binding's 2**-grid scale.
    So 0 < o_lo <= o_hi <= mask, and x - n is certified positive when
    o_lo > half, negative when o_hi < half.
    Raises AmbiguousRounding when an endpoint of x's enclosure lies on a
    half-integer or the two endpoints round to different integers."""
    mask = binding.mask
    if len(tail) == 1:  # one coordinate unpacked: no iterator per tail
        (c,), ((lo, hi, d),) = tail, binding.terms
        if c > 0:
            s, width = binding.half + c * lo, c * d
        else:
            s, width = binding.half + c * hi, -c * d
    else:
        s, width = binding.half, 0  # s: lower end + half
        for c, (lo, hi, d) in zip(tail, binding.terms):
            if c > 0:
                s += c * lo
                width += c * d
            elif c < 0:
                s += c * hi
                width -= c * d
    o_lo = s & mask
    o_hi = o_lo + width
    n = s >> binding.grid
    # the lower endpoint is n - 1/2, or the upper one rounds to n + 1 or up
    if not o_lo or o_hi > mask:
        raise AmbiguousRounding("endpoint on or across a half-integer")
    return n, o_lo, o_hi


def screen(tails: Iterable[Sequence[int]], binding: Binding,
           residues: tuple[list[int], ...],
           slack: int) -> list[Sequence[int]]:
    """The tails, in order, that a scan rounding each through
    ``scaled_residual`` cannot pass over unseen: each it might not find
    certifiably beaten by an earlier tail, and each it might fail to
    round.  ``residues`` and ``slack`` are the binding's
    ``residue_tables`` for a bound on every coordinate.

    A tail's residue sum puts S = sum tail_j * lo_j at distance d from its
    nearest integer, and slack bounds |x - S| for every x in the tail's
    enclosure: so a tail with d more than 2 * slack above an earlier
    tail's lies wholly farther from the integers, and one with
    d < half - slack encloses no half-integer."""
    half, mask = binding.half, binding.mask
    tails = list(tails)
    if len(residues) == 2:  # the common lengths unpacked: no map per tail
        first, second = residues
        sums = [first[a] + second[b] for a, b in tails]
    elif len(residues) == 3:
        first, second, third = residues
        sums = [first[a] + second[b] + third[c] for a, b, c in tails]
    else:
        sums = [sum(map(getitem, residues, tail)) for tail in tails]
    edge = mask - slack  # u off (slack, edge]: S within slack of 1/2
    near, far = 0, mask  # u in [near, far]: d within 2 * slack of the least
    kept = []
    for tail, u in zip(tails, sums):
        u &= mask  # S - its nearest integer + half
        if near <= u <= far or not slack < u <= edge:
            kept.append(tail)
            d = abs(u - half) + 2 * slack
            if d < far - half:
                near, far = half - d, half + d
    return kept


def record_enclosure(m: Sequence[int], binding: Binding) -> DyadicInterval:
    """[r_lo, r_hi] * 2**-grid, the residual ``scaled_residual`` gives
    for the tail of m = (m_0, tail); m_0 must be minus the tail's nearest
    integer.  The one rule for a chain record's enclosure, for the scan
    that writes it and the reader that recomputes it."""
    n, o_lo, o_hi = scaled_residual(m[1:], binding)
    if m[0] != -n:
        raise ValueError(f"m0 is {m[0]}, but minus the nearest integer to "
                         f"the tail's value is {-n}")
    grid, half = binding.grid, binding.half
    return DyadicInterval(Dyadic(o_lo - half, -grid),
                          Dyadic(o_hi - half, -grid))


def abs_bounds(lo: int, hi: int) -> tuple[int, int]:
    """Bounds on |x| for every lo <= x <= hi."""
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)
