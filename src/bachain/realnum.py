"""Exact real constants and certified interval arithmetic.

Values are expression trees over arbitrary-precision rationals closed under
+, -, *, / and n-th roots of nonnegative subexpressions.  Evaluation
produces dyadic intervals (endpoints = integer mantissa * 2**exponent) that
are guaranteed to contain the exact value; all rounding is outward, so a
decided sign or comparison is a certificate, never a float artifact.

Refinement climbs a fixed doubling ladder of working precisions
64, 128, 256, ... bits (``precision_ladder``).  Because dyadic grids nest,
the interval computed at a higher working precision is always contained in
the one computed at a lower precision, which makes every certificate
monotone under refinement.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import (
    AmbiguousRounding,
    DomainError,
    PrecisionExhausted,
    WidthTooLarge,
)

#: Hard cap on working precision, in bits.  Hitting it raises
#: PrecisionExhausted rather than returning an undecided answer silently.
PRECISION_CAP = 1 << 16

#: First rung of the precision ladder.
START_PRECISION = 64


def precision_ladder(start: int, limit: int) -> Iterator[int]:
    """Working precisions start, 2*start, 4*start, ..., clipped to and
    ending at limit; only start itself when start >= limit."""
    w = start
    while w < limit:
        yield w
        w *= 2
    yield max(start, limit)


def working_limit(cap: int) -> int:
    """Top rung for callers that request enclosure widths: half the cap,
    so evaluation keeps headroom for its own outward rounding."""
    return max(START_PRECISION, cap // 2)


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

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

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

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.man), self.exp)

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

    def __ge__(self, other: "Dyadic") -> bool:
        return other <= self

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

    def ceil_int(self) -> int:
        return self.ceil_scaled(0)

    def is_integer(self) -> bool:
        return self.exp >= 0

    # -- serialization ----------------------------------------------------------

    def to_hex(self) -> str:
        """Canonical text form ``[-]0x<man-hex>p<exp>``; exact round trip."""
        sign = "-" if self.man < 0 else ""
        return f"{sign}0x{abs(self.man):x}p{self.exp}"

    @classmethod
    def from_hex(cls, text: str) -> "Dyadic":
        s = text.strip()
        neg = s.startswith("-")
        if neg:
            s = s[1:]
        if not s.startswith("0x") or "p" not in s:
            raise ValueError(f"malformed dyadic literal: {text!r}")
        man_hex, exp_dec = s[2:].split("p", 1)
        man = int(man_hex, 16)
        return cls(-man if neg else man, int(exp_dec))

    def __repr__(self) -> str:
        return f"Dyadic({self.man}, {self.exp})"

    def __float__(self) -> float:
        return self.man * 2.0 ** self.exp


ZERO = Dyadic(0)
ONE = Dyadic(1)


def dyadic_from_fraction(value: Fraction, p: int, round_up: bool) -> Dyadic:
    """Round a rational to the 2**-p grid in the requested direction.

    Exact (no rounding) whenever the denominator is a power of two.
    """
    num, den = value.numerator, value.denominator
    if den & (den - 1) == 0:
        return Dyadic(num, -(den.bit_length() - 1))
    scaled = num << p
    q = -((-scaled) // den) if round_up else scaled // den
    return Dyadic(q, -p)


# ---------------------------------------------------------------------------
# Integer n-th roots (exact floor/ceil)
# ---------------------------------------------------------------------------


def iroot_floor(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by Newton iteration."""
    if n < 0:
        raise ValueError("negative radicand")
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
            dyadic_from_fraction(lo, p, round_up=False),
            dyadic_from_fraction(hi, p, round_up=True),
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

    def abs(self) -> "DyadicInterval":
        if self.lo.man >= 0:
            return self
        if self.hi.man <= 0:
            return -self
        return DyadicInterval(ZERO, max(-self.lo, self.hi))

    def pow_int(self, n: int) -> "DyadicInterval":
        """self**n for n >= 0; requires lo >= 0 when n has even/odd mix
        concerns, which is all we need (nonnegative bases)."""
        if n == 0:
            return DyadicInterval.point(1)
        if self.lo.man < 0:
            raise ValueError("pow_int requires a nonnegative interval")
        lo, hi = self.lo, self.hi
        rlo, rhi = ONE, ONE
        for _ in range(n):
            rlo = rlo * lo
            rhi = rhi * hi
        return DyadicInterval(rlo, rhi)

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
        inv_lo = dyadic_from_fraction(1 / self.hi.as_fraction(), p, round_up=False)
        inv_hi = dyadic_from_fraction(1 / self.lo.as_fraction(), p, round_up=True)
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
        lo = self.lo if self.lo.man > 0 else ZERO
        return DyadicInterval(
            _root_down(lo, n, p),
            _root_up(self.hi if self.hi.man > 0 else ZERO, n, p),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyadicInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"DyadicInterval({float(self.lo):.6g}, {float(self.hi):.6g})"


def _root_down(d: Dyadic, n: int, p: int) -> Dyadic:
    """Largest multiple of 2**-p that is <= d**(1/n), for d >= 0."""
    if d.man == 0:
        return ZERO
    return Dyadic(iroot_floor(d.floor_scaled(n * p), n), -p)


def _root_up(d: Dyadic, n: int, p: int) -> Dyadic:
    """Smallest multiple of 2**-p that is >= d**(1/n), for d >= 0."""
    if d.man == 0:
        return ZERO
    return Dyadic(iroot_ceil(d.ceil_scaled(n * p), n), -p)


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
    or the arithmetic operators; int and Fraction operands coerce.
    """

    __slots__ = ("kind", "value", "index", "children", "_cache",
                 "_enclosures")

    def __init__(self, kind: str, value: Optional[Fraction] = None,
                 index: Optional[int] = None,
                 children: tuple["RealExpr", ...] = ()):
        self.kind = kind
        self.value = value
        self.index = index
        self.children = children
        self._cache: dict[int, DyadicInterval] = {}
        # eval_interval results, keyed by (precision, cap)
        self._enclosures: dict[tuple[int, int], DyadicInterval] = {}

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

    def __radd__(self, other) -> "RealExpr":
        return RealExpr(_ADD, children=(RealExpr.coerce(other), self))

    def __sub__(self, other) -> "RealExpr":
        return RealExpr(_SUB, children=(self, RealExpr.coerce(other)))

    def __rsub__(self, other) -> "RealExpr":
        return RealExpr(_SUB, children=(RealExpr.coerce(other), self))

    def __mul__(self, other) -> "RealExpr":
        return RealExpr(_MUL, children=(self, RealExpr.coerce(other)))

    def __rmul__(self, other) -> "RealExpr":
        return RealExpr(_MUL, children=(RealExpr.coerce(other), self))

    def __truediv__(self, other) -> "RealExpr":
        return _make_quotient(self, RealExpr.coerce(other))

    def __rtruediv__(self, other) -> "RealExpr":
        return _make_quotient(RealExpr.coerce(other), self)

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
        """Integer radicands of square-root leaves anywhere in the tree."""
        found: set[int] = set()
        if self.kind == _ROOT and self.index == 2:
            child = self.children[0]
            if child.kind == _RAT and child.value.denominator == 1:
                found.add(child.value.numerator)
        for c in self.children:
            found |= c.square_root_radicands()
        return found

    def eval(self, precision: int, cap: int = PRECISION_CAP) -> DyadicInterval:
        return eval_interval(self, precision, cap)

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
    _certify_nonnegative(radicand, cap)
    return RealExpr(_ROOT, index=index, children=(radicand,))


def _make_quotient(num: RealExpr, den: RealExpr, cap: int = PRECISION_CAP) -> RealExpr:
    _certify_nonzero(den, cap)
    return RealExpr(_DIV, children=(num, den))


def _certify_nonnegative(expr: RealExpr, cap: int) -> None:
    exact = expr.exact_fraction()
    if exact is not None:
        if exact < 0:
            raise DomainError("radicand is negative")
        return
    for w in precision_ladder(min(START_PRECISION, cap), cap):
        try:
            iv = _eval_at(expr, w)
        except _Inconclusive:
            continue
        if iv.lo.man >= 0:
            return
        if iv.hi.man < 0:
            raise DomainError("radicand is certifiably negative")
    raise PrecisionExhausted("cannot certify radicand >= 0", cap)


def _certify_nonzero(expr: RealExpr, cap: int) -> None:
    exact = expr.exact_fraction()
    if exact is not None:
        if exact == 0:
            raise DomainError("denominator is exactly zero")
        return
    for w in precision_ladder(min(START_PRECISION, cap), cap):
        try:
            iv = _eval_at(expr, w)
        except _Inconclusive:
            continue
        if iv.sign() in (1, -1):
            return
    raise PrecisionExhausted("cannot certify denominator != 0", cap)


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


def eval_interval(expr: RealExpr, precision: int,
                  cap: int = PRECISION_CAP) -> DyadicInterval:
    """Certified enclosure of the exact value with width <= 2**-precision.

    Deterministic for fixed (expr, precision, cap): the precision ladder
    is fixed, so repeated calls return identical intervals.  The result is
    memoised on the node under (precision, cap); the cap is part of the
    key because it clips the ladder, so it can change which rung is the
    first narrow enough.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    key = (precision, cap)
    iv = expr._enclosures.get(key)
    if iv is not None:
        return iv
    for w in precision_ladder(min(START_PRECISION, cap), cap):
        try:
            iv = _eval_at(expr, w)
        except _Inconclusive:
            continue
        if iv.width_le(precision):
            expr._enclosures[key] = iv
            return iv
    raise PrecisionExhausted(
        f"width <= 2^-{precision} not reached for {expr!r}", cap)


LESS = -1
GREATER = 1


class Undecided:
    """Comparison outcome when intervals never separated; records the
    working precision at which refinement stopped."""

    __slots__ = ("precision",)

    def __init__(self, precision: int):
        self.precision = precision

    def __repr__(self) -> str:
        return f"Undecided(precision={self.precision})"


def compare(a: RealExpr, b: RealExpr,
            max_precision: int = PRECISION_CAP) -> Union[int, Undecided]:
    """Certified order of two constants: LESS (-1) or GREATER (+1) once
    enclosures are disjoint, Undecided if they never separate within the
    precision budget (equal values can never separate)."""
    if max_precision < 1:
        raise ValueError("max_precision must be positive")
    for w in precision_ladder(min(START_PRECISION, max_precision),
                              max_precision):
        try:
            ia = _eval_at(a, w)
            ib = _eval_at(b, w)
        except _Inconclusive:
            continue
        if ia.hi < ib.lo:
            return LESS
        if ib.hi < ia.lo:
            return GREATER
    return Undecided(w)


def nearest_integer(x: DyadicInterval) -> tuple[int, DyadicInterval]:
    """Nearest integer to every point of x, plus the residual x - n.

    Requires width < 1/4; raises AmbiguousRounding when x straddles (or
    touches) a half-integer, in which case the caller refines and retries.
    """
    lo, hi = x.lo, x.hi
    # endpoints as integer multiples of 2**e; e <= -2 puts 1/4 on the grid
    e = min(lo.exp, hi.exp, -2)
    a = lo.man << (lo.exp - e)
    b = hi.man << (hi.exp - e)
    q = -e  # 1 == 2**q grid steps
    if b - a >= 1 << (q - 2):
        raise WidthTooLarge("interval wider than 1/4")
    half = 1 << (q - 1)
    mask = (1 << q) - 1
    if not (a + half) & mask or not (b + half) & mask:
        raise AmbiguousRounding("endpoint lies exactly on a half-integer")
    n = (a + half) >> q
    if n != (b + half) >> q:
        raise AmbiguousRounding("interval straddles a half-integer")
    step = n << q
    return n, DyadicInterval(Dyadic(a - step, e), Dyadic(b - step, e))


# ---------------------------------------------------------------------------
# Natural logarithm (certified, for integer and dyadic arguments)
# ---------------------------------------------------------------------------


def _atanh_series(z: Fraction, p: int) -> tuple[Fraction, Fraction]:
    """Enclosure of 2*atanh(z) for 0 <= z <= 1/3 by the odd power series
    with an explicit geometric tail bound."""
    if z == 0:
        return Fraction(0), Fraction(0)
    assert 0 < z <= Fraction(1, 3)
    tol = Fraction(1, 1 << (p + 8))
    total = Fraction(0)
    zz = z * z
    power = z
    j = 0
    while True:
        term = 2 * power / (2 * j + 1)
        if term <= tol:
            # remaining tail <= term / (1 - z^2) <= (9/8) * term
            tail = term * Fraction(9, 8)
            return total, total + tail
        total += term
        power *= zz
        j += 1


_LN2_CACHE: dict[int, tuple[Fraction, Fraction]] = {}


def _ln2_bounds(p: int) -> tuple[Fraction, Fraction]:
    cached = _LN2_CACHE.get(p)
    if cached is None:
        cached = _atanh_series(Fraction(1, 3), p)
        _LN2_CACHE[p] = cached
    return cached


def _ln_dyadic_bounds(d: Dyadic, p: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of ln(d) for an exact dyadic d > 0."""
    if d.man <= 0:
        raise DomainError("logarithm of a nonpositive value")
    f = d.as_fraction()
    # reduce to x in [1, 2): ln(d) = e*ln2 + ln(x)
    e = d.man.bit_length() - 1 + d.exp
    x = f / (Fraction(2) ** e)
    z = (x - 1) / (x + 1)
    s_lo, s_hi = _atanh_series(z, p)
    l2_lo, l2_hi = _ln2_bounds(p + max(0, abs(e).bit_length()))
    if e >= 0:
        return e * l2_lo + s_lo, e * l2_hi + s_hi
    return e * l2_hi + s_lo, e * l2_lo + s_hi


def ln_interval(x: Union[int, Dyadic, DyadicInterval], p: int) -> DyadicInterval:
    """Certified enclosure of the natural logarithm, outward-rounded to
    the 2**-p grid.  Accepts a positive int, dyadic, or interval."""
    if isinstance(x, int):
        x = Dyadic(x)
    if isinstance(x, Dyadic):
        lo_f, hi_f = _ln_dyadic_bounds(x, p)
        return DyadicInterval.from_fractions(lo_f, hi_f, p)
    lo_f, _ = _ln_dyadic_bounds(x.lo, p)
    _, hi_f = _ln_dyadic_bounds(x.hi, p)
    return DyadicInterval.from_fractions(lo_f, hi_f, p)


def pow_rational(x: DyadicInterval, a: Fraction, p: int) -> DyadicInterval:
    """x**a for a positive interval x and rational exponent a >= 0,
    outward-rounded where roots are involved."""
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
# Expression grammar text (inverse of the CLI parser)
# ---------------------------------------------------------------------------


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
