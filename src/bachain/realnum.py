"""Exact real constants and certified interval arithmetic.

Values are expression trees over arbitrary-precision rationals closed under
+, -, *, / and n-th roots of nonnegative subexpressions.  Evaluation
produces dyadic intervals (endpoints = integer mantissa * 2**exponent) that
are guaranteed to contain the exact value; all rounding is outward, so a
decided sign or comparison is a certificate, never a float artifact.

Refinement climbs one doubling ladder of working precisions (64, 128,
256, ... bits) by two generators: ``enclosures`` walks it for one expression
up to the caller's cap and raises PrecisionExhausted when it runs out;
``widths`` gives the rungs of every width refinement, up to half the cap.
Because dyadic grids nest, the interval computed at a higher working
precision is always contained in the one computed at a lower precision,
which makes every certificate monotone under refinement.

The textual grammar for constants lives here too: ``parse_expr`` reads
it and ``expr_to_text`` writes it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import AmbiguousRounding, DomainError, PrecisionExhausted

#: Hard cap on working precision, in bits.  Hitting it raises
#: PrecisionExhausted rather than returning an undecided answer silently.
PRECISION_CAP = 1 << 16

#: First rung of the precision ladder.
START_PRECISION = 64


def _ladder(start: int, top: int) -> Iterator[int]:
    """Working precisions min(start, top), then doubling, clipped to and
    ending at top."""
    w = min(start, top)
    while w < top:
        yield w
        w *= 2
    yield top


def checked_cap(cap: int) -> int:
    """cap, when a run may take it and a chain file may state it."""
    if not START_PRECISION <= cap <= PRECISION_CAP:
        raise ValueError(f"precision cap {cap} outside "
                         f"[{START_PRECISION}, {PRECISION_CAP}]")
    return cap


def working_limit(cap: int) -> int:
    """Top rung for callers that request enclosure widths: half the cap,
    so evaluation keeps headroom for its own outward rounding."""
    return max(START_PRECISION, cap // 2)


def widths(start: int, cap: int) -> Iterator[int]:
    """Rungs for a refinement that requests enclosure widths 2**-w:
    from min(start, working_limit(cap)) up to working_limit(cap)."""
    return _ladder(start, working_limit(cap))


# ---------------------------------------------------------------------------
# Dyadic rationals
# ---------------------------------------------------------------------------


class Dyadic:
    """Exact dyadic rational ``man * 2**exp`` with odd (or zero) mantissa.

    Addition, subtraction and multiplication are exact; rounding happens
    only in the explicit ``floor_*``/``ceil_*`` operations.
    """

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0):
        if man == 0:
            exp = 0
        else:
            # normalize to an odd mantissa so representations are canonical
            shift = (man & -man).bit_length() - 1
            if shift:
                man >>= shift
                exp += shift
        self.man = man
        self.exp = exp

    def sign(self) -> int:
        return (self.man > 0) - (self.man < 0)

    # -- exact arithmetic ---------------------------------------------------

    def _aligned(self, other: "Dyadic") -> tuple[int, int, int]:
        e = min(self.exp, other.exp)
        return (self.man << (self.exp - e), other.man << (other.exp - e), e)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._aligned(other)
        return Dyadic(a + b, e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._aligned(other)
        return Dyadic(a - b, e)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.man * other.man, self.exp + other.exp)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.man, self.exp)

    def mul_int(self, n: int) -> "Dyadic":
        return Dyadic(self.man * n, self.exp)

    # -- exact comparisons ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.man == other.man and self.exp == other.exp

    def __hash__(self) -> int:
        return hash((self.man, self.exp))

    def __lt__(self, other: "Dyadic") -> bool:
        # shift only the mantissa with the larger exponent onto the other's
        s = self.exp - other.exp
        if s >= 0:
            return (self.man << s) < other.man
        return self.man < (other.man << -s)

    def __le__(self, other: "Dyadic") -> bool:
        s = self.exp - other.exp
        if s >= 0:
            return (self.man << s) <= other.man
        return self.man <= (other.man << -s)

    def __gt__(self, other: "Dyadic") -> bool:
        return other < self

    def cmp_int(self, n: int) -> int:
        """Sign of self - n, computed exactly."""
        d = self - Dyadic(n)
        return d.sign()

    # -- directed rounding ----------------------------------------------------

    def floor_scaled(self, p: int) -> int:
        """floor(self * 2**p): self rounded down onto the 2**-p grid, as an
        integer count of grid steps."""
        s = self.exp + p
        return self.man << s if s >= 0 else self.man >> -s

    def ceil_scaled(self, p: int) -> int:
        """ceil(self * 2**p): self rounded up onto the 2**-p grid."""
        s = self.exp + p
        return self.man << s if s >= 0 else -((-self.man) >> -s)

    def floor_int(self) -> int:
        return self.floor_scaled(0)

    def is_integer(self) -> bool:
        return self.exp >= 0

    # -- serialization ----------------------------------------------------------

    def to_hex(self) -> str:
        """Canonical text form ``[-]0x<man-hex>p<exp>``; exact round trip."""
        sign = "-" if self.man < 0 else ""
        return f"{sign}0x{abs(self.man):x}p{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.man}, {self.exp})"

    def __float__(self) -> float:
        # int true division rounds once, correctly, whatever the sizes
        if self.exp < 0:
            return self.man / (1 << -self.exp)
        return float(self.man << self.exp)


def dyadic_from_ratio(num: int, den: int, p: int, round_up: bool) -> Dyadic:
    """Round num/den (den > 0) to the 2**-p grid in the requested direction.

    Exact (no rounding) whenever num/den in lowest terms has a power-of-two
    denominator, that is when the odd part of den divides num.
    """
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    if num % odd == 0:
        return Dyadic(num // odd, -twos)
    scaled = num << p
    q = -((-scaled) // den) if round_up else scaled // den
    return Dyadic(q, -p)


def _inverse_ratio(d: Dyadic) -> tuple[int, int]:
    """1/d as (num, den) with den > 0, for a nonzero dyadic d."""
    num, den = (1 << -d.exp, d.man) if d.exp < 0 else (1, d.man << d.exp)
    return (num, den) if den > 0 else (-num, -den)


# ---------------------------------------------------------------------------
# Integer n-th roots (exact floor/ceil)
# ---------------------------------------------------------------------------


def iroot_floor(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by Newton iteration from
    above, started at a float estimate of the root's top 48 bits padded
    upward (Brent and Zimmermann, Modern Computer Arithmetic, section 1.5)."""
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    s = max(0, n.bit_length() // k - 48)  # low root bits the float drops
    x = int(2 ** (math.log2(n >> k * s) / k) * (1 + 2 ** -40) + 2) << s
    while x ** k < n:  # a guard: Newton must start at or above the root
        x *= 2
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def iroot_ceil(n: int, k: int) -> int:
    r = iroot_floor(n, k)
    return r if r ** k == n else r + 1


# ---------------------------------------------------------------------------
# Dyadic intervals
# ---------------------------------------------------------------------------


class DyadicInterval:
    """Closed interval [lo, hi] with exact dyadic endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if hi < lo:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, d: Union[Dyadic, int]) -> "DyadicInterval":
        if isinstance(d, int):
            d = Dyadic(d)
        return cls(d, d)

    @classmethod
    def from_fractions(cls, lo: Fraction, hi: Fraction, p: int) -> "DyadicInterval":
        return cls(
            dyadic_from_ratio(lo.numerator, lo.denominator, p, round_up=False),
            dyadic_from_ratio(hi.numerator, hi.denominator, p, round_up=True),
        )

    def width_le(self, p: int) -> bool:
        """True iff width <= 2**-p, decided exactly."""
        w = self.hi - self.lo
        if w.man == 0:
            return True
        # w = man * 2**exp, man odd > 0: w <= 2**-p iff man <= 2**-(exp+p),
        # and an odd mantissa equals a power of two only when it is 1.
        s = -(w.exp + p)
        if w.man == 1:
            return s >= 0
        return w.man.bit_length() <= s

    def certified_floor(self) -> Optional[int]:
        """floor of every point, or None when the interval reaches an
        integer above its lower floor; an exact-integer upper endpoint
        counts as reaching it, so a possibly rational value never
        certifies."""
        n = self.lo.floor_int()
        if n == self.hi.floor_int() and not self.hi.is_integer():
            return n
        return None

    def sign(self) -> Optional[int]:
        """+1 or -1 when the interval is sign-definite, 0 for the exact
        zero point, None when undecided."""
        if self.lo.man > 0:
            return 1
        if self.hi.man < 0:
            return -1
        if self.lo.man == 0 and self.hi.man == 0:
            return 0
        return None

    # -- exact interval arithmetic ----------------------------------------------

    def __add__(self, other: "DyadicInterval") -> "DyadicInterval":
        return DyadicInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "DyadicInterval") -> "DyadicInterval":
        return DyadicInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "DyadicInterval":
        return DyadicInterval(-self.hi, -self.lo)

    def __mul__(self, other: "DyadicInterval") -> "DyadicInterval":
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return DyadicInterval(min(products), max(products))

    def mul_int(self, n: int) -> "DyadicInterval":
        if n >= 0:
            return DyadicInterval(self.lo.mul_int(n), self.hi.mul_int(n))
        return DyadicInterval(self.hi.mul_int(n), self.lo.mul_int(n))

    def add_int(self, n: int) -> "DyadicInterval":
        d = Dyadic(n)
        return DyadicInterval(self.lo + d, self.hi + d)

    def pow_int(self, n: int) -> "DyadicInterval":
        """self**n, exactly, for n >= 0 and a nonnegative interval."""
        if n == 0:
            return DyadicInterval.point(1)
        if self.lo.man < 0:
            raise ValueError("pow_int requires a nonnegative interval")
        # int ** squares repeatedly: about log2(n) multiplications
        lo, hi = self.lo, self.hi
        return DyadicInterval(Dyadic(lo.man ** n, lo.exp * n),
                              Dyadic(hi.man ** n, hi.exp * n))

    # -- outward-rounded operations ------------------------------------------------

    def reciprocal(self, p: int) -> "DyadicInterval":
        """1/self rounded outward to the 2**-p grid.

        Requires a sign-definite interval.
        """
        s = self.sign()
        if s == 0:
            raise DomainError("reciprocal of exact zero")
        if s is None:
            raise _Inconclusive("reciprocal of interval straddling zero")
        inv_lo = dyadic_from_ratio(*_inverse_ratio(self.hi), p, round_up=False)
        inv_hi = dyadic_from_ratio(*_inverse_ratio(self.lo), p, round_up=True)
        return DyadicInterval(inv_lo, inv_hi)

    def divide(self, other: "DyadicInterval", p: int) -> "DyadicInterval":
        return self * other.reciprocal(p)

    def nth_root(self, n: int, p: int) -> "DyadicInterval":
        """n-th root rounded outward to the 2**-p grid.

        The true value is known nonnegative; a lower endpoint below zero
        (rounding slack) is clamped to zero, and a certainly-negative
        interval is a domain error.
        """
        if n < 2:
            raise ValueError("root index must be >= 2")
        if self.hi.man < 0:
            raise DomainError("negative radicand")
        # radicand endpoints on the 2**-(n*p) grid, whose n-th roots land
        # on the 2**-p grid; the integer roots round down and up
        lo = self.lo.floor_scaled(n * p) if self.lo.man > 0 else 0
        hi = self.hi.ceil_scaled(n * p) if self.hi.man > 0 else 0
        r_lo = iroot_floor(lo, n)
        # a radicand that is one grid point needs only one integer root
        r_hi = iroot_ceil(hi, n) if hi != lo else r_lo + (r_lo ** n != lo)
        return DyadicInterval(Dyadic(r_lo, -p), Dyadic(r_hi, -p))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyadicInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"DyadicInterval({float(self.lo):.6g}, {float(self.hi):.6g})"


class _Inconclusive(Exception):
    """Internal: evaluation at the current working precision could not
    certify a needed fact (e.g. a denominator's sign); refine and retry."""


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

_RAT = "rat"
_ROOT = "root"
_ADD = "add"
_SUB = "sub"
_MUL = "mul"
_DIV = "div"


class RealExpr:
    """Immutable expression tree for an exact real constant.

    Construct through the module helpers (:func:`rational`, :func:`root`)
    or the arithmetic operators; an int or Fraction right operand coerces.
    """

    __slots__ = ("kind", "value", "index", "children", "_cache")

    def __init__(self, kind: str, value: Optional[Fraction] = None,
                 index: Optional[int] = None,
                 children: tuple["RealExpr", ...] = ()):
        self.kind = kind
        self.value = value
        self.index = index
        self.children = children
        self._cache: dict[int, DyadicInterval] = {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def coerce(x: Union["RealExpr", int, Fraction]) -> "RealExpr":
        if isinstance(x, RealExpr):
            return x
        if isinstance(x, (int, Fraction)):
            return rational(x)
        raise TypeError(f"cannot interpret {x!r} as a real expression")

    def __add__(self, other) -> "RealExpr":
        return RealExpr(_ADD, children=(self, RealExpr.coerce(other)))

    def __sub__(self, other) -> "RealExpr":
        return RealExpr(_SUB, children=(self, RealExpr.coerce(other)))

    def __mul__(self, other) -> "RealExpr":
        return RealExpr(_MUL, children=(self, RealExpr.coerce(other)))

    def __neg__(self) -> "RealExpr":
        return RealExpr(_SUB, children=(rational(0), self))

    # -- structural identity --------------------------------------------------

    def _key(self):
        return (self.kind, self.value, self.index,
                tuple(c._key() for c in self.children))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RealExpr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- queries ---------------------------------------------------------------

    def is_rational_literal(self) -> bool:
        return self.kind == _RAT

    def exact_fraction(self) -> Optional[Fraction]:
        """Exact rational value when the tree is root-free; None otherwise."""
        if self.kind == _RAT:
            return self.value
        if self.kind == _ROOT:
            return None
        parts = [c.exact_fraction() for c in self.children]
        if any(p is None for p in parts):
            return None
        a, b = parts
        if self.kind == _ADD:
            return a + b
        if self.kind == _SUB:
            return a - b
        if self.kind == _MUL:
            return a * b
        if b == 0:
            raise DomainError("division by exact zero")
        return a / b

    def square_root_radicands(self) -> set[int]:
        """p * q for each even-index root of a rational p/q anywhere in
        the tree: that root's power sqrt(p/q) is sqrt(p * q) / q."""
        found: set[int] = set()
        if self.kind == _ROOT and self.index % 2 == 0:
            child = self.children[0]
            if child.kind == _RAT:
                found.add(child.value.numerator * child.value.denominator)
        for c in self.children:
            found |= c.square_root_radicands()
        return found

    def __repr__(self) -> str:
        return f"RealExpr<{expr_to_text(self)}>"


def rational(num: Union[int, Fraction], den: int = 1) -> RealExpr:
    """Rational literal; stored in lowest terms with positive denominator."""
    return RealExpr(_RAT, value=Fraction(num, den))


def root(radicand: Union[RealExpr, int, Fraction], index: int = 2,
         cap: int = PRECISION_CAP) -> RealExpr:
    """index-th root of a nonnegative expression.

    Nonnegativity is certified at construction: by interval refinement,
    falling back to exact rational evaluation for root-free radicands.
    """
    if index < 2:
        raise ValueError("root index must be >= 2")
    radicand = RealExpr.coerce(radicand)
    exact = radicand.exact_fraction()
    if exact is None:
        for _, iv in enclosures(radicand, START_PRECISION, cap,
                                "radicand >= 0"):
            if iv.lo.man >= 0:
                break
            if iv.hi.man < 0:
                raise DomainError("radicand is certifiably negative")
    elif exact < 0:
        raise DomainError("radicand is negative")
    return RealExpr(_ROOT, index=index, children=(radicand,))


def _make_quotient(num: RealExpr, den: RealExpr, cap: int = PRECISION_CAP) -> RealExpr:
    exact = den.exact_fraction()
    if exact is None:
        for _, iv in enclosures(den, START_PRECISION, cap,
                                "denominator != 0"):
            if iv.sign() in (1, -1):
                break
    elif exact == 0:
        raise DomainError("denominator is exactly zero")
    return RealExpr(_DIV, children=(num, den))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval_at(expr: RealExpr, w: int) -> DyadicInterval:
    """Evaluate at working precision w: +,-,* exact, /, root rounded
    outward to the 2**-w grid.  Results are cached per (node, w)."""
    cached = expr._cache.get(w)
    if cached is not None:
        return cached

    kind = expr.kind
    if kind == _RAT:
        iv = DyadicInterval.from_fractions(expr.value, expr.value, w)
    elif kind == _ROOT:
        iv = _eval_at(expr.children[0], w).nth_root(expr.index, w)
    else:
        a = _eval_at(expr.children[0], w)
        b = _eval_at(expr.children[1], w)
        if kind == _ADD:
            iv = a + b
        elif kind == _SUB:
            iv = a - b
        elif kind == _MUL:
            iv = a * b
        elif kind == _DIV:
            iv = a.divide(b, w)
        else:  # pragma: no cover - constructors forbid unknown kinds
            raise ValueError(f"unknown node kind {kind!r}")

    expr._cache[w] = iv
    return iv


def enclosures(expr: RealExpr, start: int, cap: int,
               what: str) -> Iterator[tuple[int, DyadicInterval]]:
    """(w, enclosure at working precision w) for each rung from
    min(start, cap) up to cap whose evaluation is conclusive, skipping a
    rung that cannot certify a fact the evaluation needs (a divisor's
    sign).  A caller that takes the top rung without deciding ``what`` it
    certifies gets PrecisionExhausted; one that stops early closes the
    generator.  The one refinement loop for a constant.
    """
    for w in _ladder(start, cap):
        try:
            iv = _eval_at(expr, w)
        except _Inconclusive:
            continue
        yield w, iv
    raise PrecisionExhausted(
        f"cannot certify {what} for {expr_to_text(expr)}", cap)


def eval_interval(expr: RealExpr, precision: int,
                  cap: int = PRECISION_CAP) -> DyadicInterval:
    """Certified enclosure of the exact value with width <= 2**-precision.

    Deterministic for fixed (expr, precision, cap): the precision ladder
    is fixed, so repeated calls return identical intervals, and a repeat
    call climbs rungs whose evaluations the node already caches.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    for _, iv in enclosures(expr, START_PRECISION, cap,
                            f"width <= 2^-{precision}"):
        if iv.width_le(precision):
            return iv


def nearest_integer(x: DyadicInterval) -> tuple[int, DyadicInterval]:
    """Nearest integer to every point of x, plus the residual x - n.

    Raises AmbiguousRounding as ``round_scaled`` does; the caller refines
    and retries."""
    lo, hi = x.lo, x.hi
    # endpoints as integer multiples of 2**e; e <= -1 puts 1/2 on the grid
    e = min(lo.exp, hi.exp, -1)
    n, r_lo, r_hi = round_scaled(lo.man << (lo.exp - e),
                                 hi.man << (hi.exp - e), -e)
    return n, DyadicInterval(Dyadic(r_lo, e), Dyadic(r_hi, e))


def round_scaled(lo: int, hi: int, q: int) -> tuple[int, int, int]:
    """Nearest integer n to every point of [lo, hi] * 2**-q (q >= 1), and
    the residual endpoints lo - n * 2**q and hi - n * 2**q on that scale.

    The one rounding rule: raises AmbiguousRounding when an endpoint lies
    on a half-integer or the endpoints round to different integers.
    """
    half = 1 << (q - 1)
    n = (lo + half) >> q
    step = n << q
    r_lo, r_hi = lo - step, hi - step
    # -half <= r_lo <= r_hi: hi rounds to n iff r_hi < half
    if r_lo == -half or r_hi == half:
        raise AmbiguousRounding("endpoint lies exactly on a half-integer")
    if r_hi > half:
        raise AmbiguousRounding("interval straddles a half-integer")
    return n, r_lo, r_hi


# ---------------------------------------------------------------------------
# Natural logarithm (certified, for integer and dyadic arguments)
# ---------------------------------------------------------------------------


def _atanh_series(a: int, b: int, p: int) -> tuple[int, int, int]:
    """Enclosure [lo/den, hi/den] of 2*atanh(a/b) for 0 <= a/b <= 1/3.

    The odd power series sum of t_j = 2 z**(2j+1) / (2j+1) stops at the
    first term t_J <= 2**-(p+8), and (9/8) t_J bounds the rest: each term
    is at most z**2 <= 1/9 times the one before.  The J terms are summed
    exactly by binary splitting, in integers only.
    """
    if a == 0:
        return 0, 0, 1
    # a floating-point guess at J; the exact comparisons below decide it
    slope = 2 * (math.log2(b) - math.log2(a))
    j = int((p + 9) / slope)
    j = max(0, int((p + 9 - math.log2(2 * j + 1)) / slope))
    aa, bb = a * a, b * b
    # t_j <= 2**-(p+8) iff a_pow * 2**(p+9) <= (2j+1) * b_pow
    a_pow, b_pow = a ** (2 * j + 1), b ** (2 * j + 1)
    while a_pow << (p + 9) > (2 * j + 1) * b_pow:
        j, a_pow, b_pow = j + 1, a_pow * aa, b_pow * bb
    while j and (a_pow // aa) << (p + 9) <= (2 * j - 1) * (b_pow // bb):
        j, a_pow, b_pow = j - 1, a_pow // aa, b_pow // bb
    # with B the product of 2j+1 over j < J and T from _split,
    # sum_{j<J} t_j = 2a T / (B b**(2J-1)) and (9/8) t_J = 9 a_pow /
    # (4 (2J+1) b_pow), over the common denominator 4 (2J+1) B b_pow
    _, _, odd, t = _split(aa, bb, 0, j)
    lo = 8 * (2 * j + 1) * a * bb * t
    return lo, lo + 9 * a_pow * odd, 4 * (2 * j + 1) * odd * b_pow


#: Longest range ``_split`` sums term by term; above it the recursion's
#: calls cost more than the short products they save.
_SPLIT_LEAF = 8


def _split(x: int, y: int, lo: int, hi: int) -> tuple[int, int, int, int]:
    """(x**n, y**n, B, T) for n = hi - lo >= 0, with B the product of the
    odd numbers 2j+1 and T/B the sum of x**(j-lo) y**(hi-1-j) / (2j+1),
    both over lo <= j < hi."""
    if hi - lo <= _SPLIT_LEAF:
        x_n, y_n, odd, t = 1, 1, 1, 0
        for j in range(lo, hi):  # append term j on the right
            t, odd = t * y * (2 * j + 1) + x_n * odd, odd * (2 * j + 1)
            x_n, y_n = x_n * x, y_n * y
        return x_n, y_n, odd, t
    mid = (lo + hi) // 2
    x_lo, y_lo, b_lo, t_lo = _split(x, y, lo, mid)
    x_hi, y_hi, b_hi, t_hi = _split(x, y, mid, hi)
    return (x_lo * x_hi, y_lo * y_hi, b_lo * b_hi,
            y_hi * t_lo * b_hi + x_lo * t_hi * b_lo)


_LN2_CACHE: dict[int, tuple[int, int, int]] = {}


def _ln2_bounds(p: int) -> tuple[int, int, int]:
    cached = _LN2_CACHE.get(p)
    if cached is None:
        cached = _atanh_series(1, 3, p)
        _LN2_CACHE[p] = cached
    return cached


def _ln_dyadic_bounds(d: Dyadic, p: int) -> tuple[int, int, int]:
    """Enclosure [lo/den, hi/den] of ln(d) for an exact dyadic d > 0."""
    if d.man <= 0:
        raise DomainError("logarithm of a nonpositive value")
    # d = x * 2**e with x = man / 2**k in [1, 2): ln(d) = e*ln2 + ln(x),
    # and ln(x) = 2*atanh(z) for z = (x-1)/(x+1) = (man-2**k)/(man+2**k)
    k = d.man.bit_length() - 1
    e = k + d.exp
    s_lo, s_hi, s_den = _atanh_series(d.man - (1 << k), d.man + (1 << k), p)
    l2_lo, l2_hi, l2_den = _ln2_bounds(p + abs(e).bit_length())
    if e < 0:
        l2_lo, l2_hi = l2_hi, l2_lo
    return (e * l2_lo * s_den + s_lo * l2_den,
            e * l2_hi * s_den + s_hi * l2_den, l2_den * s_den)


def ln_interval(x: Union[int, Dyadic, DyadicInterval], p: int) -> DyadicInterval:
    """Certified enclosure of the natural logarithm, outward-rounded to
    the 2**-p grid.  Accepts a positive int, dyadic, or interval."""
    if isinstance(x, int):
        x = Dyadic(x)
    if isinstance(x, Dyadic):
        lo, hi, den = _ln_dyadic_bounds(x, p)
        lo_den = hi_den = den
    else:
        lo, _, lo_den = _ln_dyadic_bounds(x.lo, p)
        _, hi, hi_den = _ln_dyadic_bounds(x.hi, p)
    return DyadicInterval(dyadic_from_ratio(lo, lo_den, p, round_up=False),
                          dyadic_from_ratio(hi, hi_den, p, round_up=True))


def pow_rational(x: DyadicInterval, a: Fraction, p: int) -> DyadicInterval:
    """x**a for a positive interval x and rational exponent a,
    outward-rounded where roots or reciprocals are involved."""
    if x.lo.man <= 0:
        raise DomainError("rational power requires a positive interval")
    if a < 0:
        return pow_rational(x, -a, p).reciprocal(p)
    n = a.numerator
    d = a.denominator
    powered = x.pow_int(n)
    if d == 1:
        return powered
    return powered.nth_root(d, p)


# ---------------------------------------------------------------------------
# Expression grammar: parse_expr and its inverse expr_to_text
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|root|[()+\-*/,])")

#: Most levels of the tree one constant expression may build; deeper
#: input is a usage error, never a recursion overflow.
MAX_EXPR_DEPTH = 100

#: Largest root index the grammar reads.  An n-th root at p bits takes
#: the integer root of an n * p bit number: 0.34 s for n = 16 at 32768
#: bits, 0.81 s for n = 32 (Python 3.11, one 2 vCPU x86_64 core), so a
#: larger index is a usage error.
MAX_ROOT_INDEX = 16


class ExprSyntaxError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ExprSyntaxError(
                    f"unexpected character {text[pos:].strip()[0]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_expr(text: str, cap: int = PRECISION_CAP) -> RealExpr:
    """Parse the constant grammar: integers, + - * /, parentheses, and
    root(x, n) for the n-th root of x, 2 <= n <= MAX_ROOT_INDEX;
    radicands and divisors certify up to cap.

    The tree built may be at most MAX_EXPR_DEPTH nodes high, and brackets,
    roots and minus signs may nest at most MAX_EXPR_DEPTH + 1 deep, so
    nothing recurses past the bound.  The extra level is the bracket that
    ``expr_to_text`` puts around a negative fraction, so every accepted
    tree reads back from its own text.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: Optional[str] = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ExprSyntaxError("unexpected end of expression")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ExprSyntaxError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def check(levels: int, bound: int = MAX_EXPR_DEPTH) -> int:
        if levels > bound:
            raise ExprSyntaxError(
                f"expression nests deeper than {MAX_EXPR_DEPTH} levels")
        return levels

    def opened(nest: int) -> int:
        return check(nest + 1, MAX_EXPR_DEPTH + 1)

    # Each parser takes the number of brackets, roots and minus signs open
    # around it and returns its node with the node's height.
    def parse_sum(nest: int) -> tuple[RealExpr, int]:
        node, height = parse_product(nest)
        while peek() in ("+", "-"):
            op = take()
            rhs, rhs_height = parse_product(nest)
            height = check(1 + max(height, rhs_height))
            node = node + rhs if op == "+" else node - rhs
        return node, height

    def parse_product(nest: int) -> tuple[RealExpr, int]:
        node, height = parse_unary(nest)
        while peek() in ("*", "/"):
            op = take()
            rhs, rhs_height = parse_unary(nest)
            if op == "/" and node.is_rational_literal() \
                    and rhs.is_rational_literal():
                # fold so that literals like 1/2 or -3/7 round-trip as
                # single rational nodes
                if rhs.value == 0:
                    raise ExprSyntaxError("division by zero")
                node, height = rational(node.value / rhs.value), 1
                continue
            height = check(1 + max(height, rhs_height))
            node = node * rhs if op == "*" else _make_quotient(node, rhs, cap)
        return node, height

    def parse_unary(nest: int) -> tuple[RealExpr, int]:
        if peek() == "-":
            take()
            inner, height = parse_unary(opened(nest))
            if inner.is_rational_literal():
                return rational(-inner.value), 1
            return -inner, check(height + 1)
        return parse_atom(nest)

    def parse_atom(nest: int) -> tuple[RealExpr, int]:
        tok = peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression")
        if tok == "(":
            take()
            node, height = parse_sum(opened(nest))
            take(")")
            return node, height
        if tok == "root":
            take()
            take("(")
            radicand, height = parse_sum(opened(nest))
            take(",")
            index = take()
            if not index.isdigit():
                raise ExprSyntaxError("root index must be an integer")
            if int(index) > MAX_ROOT_INDEX:
                raise ExprSyntaxError(
                    f"root index {index} is above {MAX_ROOT_INDEX}")
            take(")")
            return root(radicand, int(index), cap), check(height + 1)
        if tok.isdigit():
            take()
            return rational(int(tok)), 1
        raise ExprSyntaxError(f"unexpected token {tok!r}")

    node, _ = parse_sum(0)
    if pos != len(tokens):
        raise ExprSyntaxError(f"trailing input from token {tokens[pos]!r}")
    return node


def expr_to_text(expr: RealExpr) -> str:
    """Render a tree in the textual grammar; reparsing yields an equal tree."""
    if expr.kind == _RAT:
        v = expr.value
        # non-integer literals keep their own parentheses so they re-parse
        # as single nodes in any operator context
        return str(v.numerator) if v.denominator == 1 \
            else f"({v.numerator}/{v.denominator})"
    if expr.kind == _ROOT:
        return f"root({expr_to_text(expr.children[0])}, {expr.index})"
    a, b = expr.children
    op = {_ADD: "+", _SUB: "-", _MUL: "*", _DIV: "/"}[expr.kind]
    return f"({expr_to_text(a)} {op} {expr_to_text(b)})"
