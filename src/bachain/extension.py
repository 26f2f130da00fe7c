"""Dimension-extension experiments: padded chains, the degeneracy
criterion, slab measure bounds, and seeded Monte Carlo probes.

A base chain in dimension r is padded with k zero coordinates; each padded
vector is a candidate best approximation of any (r+k)-dimensional form that
extends the base constants by (b_1, ..., b_k).  The per-index criterion
checked here is the exhaustive one: no integer vector with a nonzero
extension part and coordinates bounded by the successor norm may produce a
form value smaller than the base record's.  Slab measure bounds quantify,
via an explicit union bound with fully spelled-out constants, how much of
the (b_1, ..., b_k)-cube can violate the criterion at each index.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product, zip_longest
from math import isqrt
from operator import mul
from typing import Iterable, Iterator, Optional

from .enumerator import (
    BAChain,
    canonical_shell_tails,
    enumerate_chain,
    scan_volume,
)
from .errors import (
    AmbiguousRounding,
    ChainTooShort,
    DependenceSuspected,
    PrecisionExhausted,
    SearchTooLarge,
)
from .linform import LinearForm, abs_bounds, scaled_constants, scaled_residual
from .realnum import (
    START_PRECISION,
    Dyadic,
    DyadicInterval,
    RealExpr,
    dyadic_from_ratio,
    rational,
    root,
    widths,
)

DEFAULT_BUDGET = 10 ** 7
LATTICE_BITS = 64  # bits of each square root in the lattice sum
OMEGA_BITS = LATTICE_BITS + 16  # grid of the lattice sum and k**(k/2)


# ---------------------------------------------------------------------------
# Padding
# ---------------------------------------------------------------------------


def pad_chain(chain: BAChain, k: int) -> list[tuple[int, ...]]:
    """Every record's vector extended by k zero coordinates, in record
    order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [rec.m + (0,) * k for rec in chain.records]


# ---------------------------------------------------------------------------
# Sampled extension constants
# ---------------------------------------------------------------------------


class BetaSample:
    """k extension constants in (0, 1), irrational by construction, with
    the seed and recipe that produced them."""

    __slots__ = ("values", "seed", "recipe")

    def __init__(self, values: tuple[RealExpr, ...], seed: Optional[int],
                 recipe: str):
        self.values, self.seed, self.recipe = values, seed, recipe

    @property
    def k(self) -> int:
        return len(self.values)


def _primes() -> Iterator[int]:
    out: list[int] = []
    n = 2
    while True:
        if all(n % p for p in out):
            out.append(n)
            yield n
        n += 1


def sample_betas(form: LinearForm, k: int, seed: int) -> BetaSample:
    """Seeded constants b_i = frac(u_i * sqrt(p_i)) with rational u_i and
    distinct primes p_i.

    A prime is skipped when it divides a square-root radicand greater
    than 1 already present in the form, so a sample can never be
    trivially dependent on the base constants.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = random.Random(seed)
    radicands = [rad for alpha in form.alphas
                 for rad in alpha.square_root_radicands() if rad > 1]
    values = []
    picked = []
    gen = _primes()
    while len(values) < k:
        p = next(gen)
        if any(rad % p == 0 for rad in radicands):
            continue
        a = 2 * rng.randrange(1, 1 << 20) + 1
        u = Fraction(a, 1 << 21)
        # floor(u * sqrt(p)) = floor(sqrt(a*a*p) / 2**21), exactly; u *
        # sqrt(p) is irrational, so its fractional part lies in (0, 1)
        floor = isqrt(a * a * p) >> 21
        values.append(rational(u) * root(p) - rational(floor))
        picked.append((u, p))
    recipe = "frac(u*sqrt(p)) with " + ", ".join(
        f"u={u} p={p}" for u, p in picked)
    return BetaSample(values=tuple(values), seed=seed, recipe=recipe)


# ---------------------------------------------------------------------------
# Degeneracy criterion
# ---------------------------------------------------------------------------


class CriterionVerdict:
    """Outcome of the exhaustive per-index scan."""

    __slots__ = ("nu", "passed", "witness", "detail")

    def __init__(self, nu: int, passed: bool,
                 witness: Optional[tuple[int, ...]] = None, detail: str = ""):
        self.nu, self.passed, self.witness, self.detail = \
            nu, passed, witness, detail

    def to_dict(self) -> dict:
        out = {"nu": self.nu, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.detail:
            out["detail"] = self.detail
        return out


def _mixed_tails(r: int, k: int, bound: int):
    """Canonical representatives of vectors (base tail, extension tail)
    with coordinates bounded by ``bound`` and a nonzero extension part;
    one per +-pair (first nonzero coordinate positive)."""
    zero_base = (0,) * r
    for M in range(1, bound + 1):
        for bt in canonical_shell_tails(k, M):
            yield zero_base + bt
    nonzero_ext = [t for t in product(range(-bound, bound + 1), repeat=k)
                   if any(t)]
    for M in range(1, bound + 1):
        for at in canonical_shell_tails(r, M):
            for bt in nonzero_ext:
                yield at + bt


def mixed_scan_volume(r: int, k: int, bound: int) -> int:
    """Vectors the criterion scan visits: those with a nonzero extension part."""
    return scan_volume(r + k, bound) - scan_volume(r, bound)


def degeneracy_criterion(chain: BAChain, beta: BetaSample, nu: int,
                         budget: int = DEFAULT_BUDGET) -> CriterionVerdict:
    """Exhaustively test whether any integer vector with nonzero extension
    part and coordinates bounded by M_{nu+1} achieves a form value below
    zeta_nu under the extended constants.

    Passing at every index is exactly what keeps the padded chain equal to
    the extended form's chain from that point on.  The free coefficient is
    chosen optimally per tail and clamped to |m_0| <= (r+k+1) * M_{nu+1},
    the widest value that can matter for constants of this size.
    """
    if nu < 1 or nu + 1 > len(chain.records):
        raise ChainTooShort(f"criterion at {nu} needs record {nu + 1}")
    r = chain.r
    k = beta.k
    bound = chain.records[nu].M  # M_{nu+1}, successor norm
    rec = chain.records[nu - 1]
    volume = mixed_scan_volume(r, k, bound)
    SearchTooLarge.check(volume, budget, f"criterion scan at nu={nu}")
    exprs = tuple(chain.form.alphas) + beta.values
    m0_cap = (r + k + 1) * bound
    cap = chain.precision_cap

    for w in widths(START_PRECISION + (2 * (r + k) * bound).bit_length(), cap):
        binding = scaled_constants(exprs, w, cap)
        grid, half = binding.grid, binding.half
        # zeta bounds on the same scale, rounded away from the comparison
        z_lo = rec.zeta.lo.floor_scaled(grid)
        z_hi = rec.zeta.hi.ceil_scaled(grid)
        ambiguous = None
        for tail in _mixed_tails(r, k, bound):
            try:
                n, o_lo, o_hi = scaled_residual(tail, binding)
            except AmbiguousRounding:
                ambiguous, rounding = tail, True
                break
            m0 = min(m0_cap, max(-m0_cap, n))
            shift = ((n - m0) << grid) - half
            abs_lo, abs_hi = abs_bounds(o_lo + shift, o_hi + shift)
            if abs_lo >= z_hi:
                continue  # certified no smaller than zeta_nu
            if abs_hi < z_lo:
                return CriterionVerdict(nu=nu, passed=False,
                                        witness=(-m0,) + tail,
                                        detail="form value certifiably below "
                                               f"zeta_{nu}")
            ambiguous, rounding = tail, False
            break
        if ambiguous is None:
            return CriterionVerdict(nu=nu, passed=True,
                                    detail=f"scan bound {bound}, {volume} vectors")
    if rounding:  # a form value on a half-integer: a rational dependence
        raise DependenceSuspected(f"criterion at nu={nu}: vector {ambiguous}"
                                  " cannot be rounded at cap", witness=ambiguous)
    raise PrecisionExhausted(
        f"criterion at nu={nu}: vector {ambiguous} does not separate "
        "from zeta", cap)


# ---------------------------------------------------------------------------
# Slab measure bounds
# ---------------------------------------------------------------------------


def _ratio_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of num/den over ``terms`` (each den > 0) as one unreduced
    ratio, by binary splitting: no gcd is ever taken."""
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    n1, d1 = _ratio_sum(terms[:mid])
    n2, d2 = _ratio_sum(terms[mid:])
    return n1 * d2 + n2 * d1, d1 * d2


def _round_sum(terms: list[tuple[int, int]], p: int,
               round_up: bool) -> Dyadic:
    """The sum of num/den over ``terms`` (each den > 0) rounded to the
    2**-p grid, down or up.

    Each term is floored on a grid g = bitlength(len(terms)) + 32 bits
    finer, so the exact sum times 2**(p+g) lies in [F, F + len(terms)).
    When both ends of that range round to the same grid point, that point
    is the answer; otherwise the exact sum decides, through
    ``dyadic_from_ratio``.  A sum that is itself a dyadic rational finer
    than the grid is thus rounded outward on the fast path, where the
    exact path would return it unrounded; both are enclosures.
    """
    g = len(terms).bit_length() + 32
    q = p + g
    floors = sum((num << q) // den for num, den in terms)
    top = floors + len(terms)  # the exact scaled sum lies below top
    if round_up:
        first, last = -((-floors) >> g), -((-top) >> g)
    else:
        first, last = floors >> g, (top - 1) >> g
    if first == last:
        return Dyadic(first, -p)
    return dyadic_from_ratio(*_ratio_sum(terms), p, round_up)


def lattice_inv_norm_sum(M: int, k: int, rows: Iterable[int] = (),
                         budget: int = DEFAULT_BUDGET
                         ) -> dict[int, DyadicInterval]:
    """Bounds on sum of 1/sqrt(m_1^2 + ... + m_k^2) over nonzero integer
    vectors with max-norm <= R, on the 2**-OMEGA_BITS grid, for R = M and
    each R in ``rows`` (1 <= R <= M): one table, by direct enumeration of
    the shells 1..M.

    The points are counted by squared norm n, shell by shell, and each
    row reads its norm classes off the running counts.  Each class adds
    one term: count/sqrt(n) exactly when n is a perfect square (always,
    for k = 1), otherwise count/sqrt(n) with sqrt(n) rounded outward to
    the 2**-LATTICE_BITS grid; each class's root is taken once per table.
    The sums of a row's terms are rounded outward to the output grid in
    integers (``_round_sum``); for k = 1 the endpoints are twice the R-th
    harmonic number rounded down and up.
    """
    if M < 1 or k < 1:
        raise ValueError("M and k must be >= 1")
    wanted = {M, *rows}
    if min(wanted) < 1 or max(wanted) > M:
        raise ValueError(f"rows must lie in 1..{M}")
    SearchTooLarge.check(scan_volume(k, M), budget,
                         f"lattice sum in dimension {k} to max-norm {M}")
    classes: Counter = Counter()  # squared norm -> canonical tails so far
    roots: dict[int, tuple[int, int, int]] = {}  # n -> shift, lo/hi dens
    table = {}
    for shell in range(1, M + 1):
        # squared norms unpacked for k = 2: no iterator per tail
        shell_tails = canonical_shell_tails(k, shell)
        if k == 2:
            classes.update(a * a + b * b for a, b in shell_tails)
        else:
            classes.update(sum(map(mul, t, t)) for t in shell_tails)
        if shell not in wanted:
            continue
        lo_terms: list[tuple[int, int]] = []
        hi_terms: list[tuple[int, int]] = []
        for n, tails in classes.items():
            root_n = roots.get(n)
            if root_n is None:
                # floor(2**p sqrt(n)) <= 2**p sqrt(n) < floor + 1, with
                # equality exactly when n is a square; p = LATTICE_BITS
                scaled = n << 2 * LATTICE_BITS
                rt = isqrt(scaled)
                if rt * rt == scaled:
                    s = rt >> LATTICE_BITS
                    root_n = (0, s, s)
                else:
                    root_n = (LATTICE_BITS, rt + 1, rt)
                roots[n] = root_n
            shift, lo_den, hi_den = root_n
            # canonical tails cover one of each +-pair
            points = 2 * tails << shift
            lo_terms.append((points, lo_den))
            hi_terms.append((points, hi_den))
        table[shell] = DyadicInterval(
            _round_sum(lo_terms, OMEGA_BITS, round_up=False),
            _round_sum(hi_terms, OMEGA_BITS, round_up=True))
    return table


def omega_bound(zeta_nu: DyadicInterval, M_next: int, r: int, k: int,
                lattice_sum: DyadicInterval) -> DyadicInterval:
    """Explicit union bound on the measure of extension constants that
    violate the criterion at one index:

        2*(k+r+1) * k**(k/2) * zeta_nu * (2*M_next+1)**(r+1)
            * sum over 0 < max|m| <= M_next of 1/sqrt(m_1^2+...+m_k^2)

    where ``lattice_sum`` encloses that sum: row M_next of
    ``lattice_inv_norm_sum`` in dimension k.  All constants are spelled
    out; nothing hides in an unspecified factor.
    """
    if M_next < 1 or r < 1 or k < 1:
        raise ValueError("inputs must be positive")
    if zeta_nu.lo.man <= 0:
        raise ValueError("zeta must be a certified positive enclosure")
    if k % 2 == 0:
        k_pow = DyadicInterval.point(k ** (k // 2))
    else:
        k_pow = DyadicInterval.point(k ** k).nth_root(2, OMEGA_BITS)
    scale = 2 * (k + r + 1) * (2 * M_next + 1) ** (r + 1)
    return zeta_nu.mul_int(scale) * k_pow * lattice_sum


# ---------------------------------------------------------------------------
# Extended-form comparison and Monte Carlo aggregation
# ---------------------------------------------------------------------------


class ExtensionReport:
    """Alignment of an extended form's chain against the padded base chain;
    ``compare_extended`` fills in the criterion scan and the omega table."""

    __slots__ = ("k", "search_bound", "beta", "base_chain", "extended_chain",
                 "criterion_verdicts", "skipped_criteria", "extras",
                 "missing", "nu_match", "omega_table", "regime_note")

    def __init__(self, k: int, search_bound: int, beta: BetaSample,
                 base_chain: BAChain, extended_chain: BAChain,
                 extras: list[tuple[int, ...]], missing: list[int],
                 nu_match: Optional[int]):
        self.k, self.search_bound, self.beta = k, search_bound, beta
        self.base_chain, self.extended_chain = base_chain, extended_chain
        self.extras = extras
        self.missing = missing  # base indices
        self.nu_match = nu_match
        self.criterion_verdicts: dict[int, CriterionVerdict] = {}
        self.skipped_criteria: dict[int, str] = {}
        self.omega_table: dict[int, DyadicInterval] = {}
        self.regime_note = ""

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "k": self.k,
            "search_bound": self.search_bound,
            "beta_seed": self.beta.seed,
            "beta_recipe": self.beta.recipe,
            "criterion": {str(nu): v.to_dict()
                          for nu, v in sorted(self.criterion_verdicts.items())},
            "criterion_skipped": {str(nu): why
                                  for nu, why in sorted(self.skipped_criteria.items())},
            "extra_records": [list(v) for v in self.extras],
            "missing_base_indices": self.missing,
            "match_horizon": self.nu_match,
            "omega_bounds": {str(nu): [iv.lo.to_hex(), iv.hi.to_hex()]
                             for nu, iv in sorted(self.omega_table.items())},
            "regime_note": self.regime_note,
        }


def _resolve_base(base: BAChain, k: int, M_max: int, budget: int) -> BAChain:
    """Check the extended scan and the largest omega row, then return
    ``base``, or its form's chain re-enumerated to M_max when ``base``
    stops short of it, whose scans the first check covers.  A ``base``
    that reaches M_max is checked against its form's chain to M_max: the
    records up to M_max must agree in (index, m, M), or ValueError names
    the first that differs.  It is returned as read, enclosures too."""
    SearchTooLarge.check(scan_volume(base.r + k, M_max), budget,
                         f"extended scan in dimension {base.r + k} to max-norm {M_max}")
    if base.search_bound < M_max:
        return enumerate_chain(base.form, M_max, base.precision_cap)
    row = max((rec.M for rec in base.records[1:]), default=0)
    SearchTooLarge.check(scan_volume(k, row), budget,
                         f"omega row in dimension {k} to max-norm {row}")
    fresh = enumerate_chain(base.form, M_max, base.precision_cap)
    got, want = ([(rec.index, rec.m, rec.M) for rec in chain.records
                  if rec.M <= M_max] for chain in (base, fresh))
    for g, w in zip_longest(got, want):
        if g != w:
            raise ValueError(f"chain record {(g or w)[0]} disagrees with "
                             f"the form's chain to max-norm {M_max}")
    return base


def _align(base_chain: BAChain, beta: BetaSample,
           M_max: int) -> ExtensionReport:
    """Enumerate the extended form's chain to M_max and align it against
    the padded base chain; the per-sample half of an extension run."""
    ext_form = LinearForm(tuple(base_chain.form.alphas) + beta.values)
    ext_chain = enumerate_chain(ext_form, M_max, base_chain.precision_cap)

    padded = pad_chain(base_chain, beta.k)
    padded_vectors = set(padded)
    ext_vectors = {rec.m for rec in ext_chain.records}

    extras = [rec.m for rec in ext_chain.records
              if rec.m not in padded_vectors]
    missing = [rec.index for rec, v in zip(base_chain.records, padded)
               if v not in ext_vectors]

    max_extra_norm = max((max(abs(c) for c in v[1:]) for v in extras),
                         default=0)
    bad_pad = max(missing, default=0)
    nu_match: Optional[int] = None
    for s, rec in enumerate(base_chain.records, start=1):
        if s > bad_pad and rec.M > max_extra_norm:
            nu_match = s
            break

    return ExtensionReport(k=beta.k, search_bound=M_max, beta=beta,
                           base_chain=base_chain, extended_chain=ext_chain,
                           extras=extras, missing=missing, nu_match=nu_match)


def _omega_table(chain: BAChain, k: int,
                 budget: int) -> tuple[dict[int, DyadicInterval], str]:
    """The omega bound at each index with a successor record, its lattice
    sum read off one table to the largest successor norm, and the regime
    note read from them; neither depends on the extension constants."""
    rows = [rec.M for rec in chain.records[1:]]
    sums = lattice_inv_norm_sum(max(rows), k, rows, budget) if rows else {}
    table = {nu: omega_bound(chain.records[nu - 1].zeta, M, chain.r, k,
                             sums[M])
             for nu, M in enumerate(rows, start=1)}
    small = sum(1 for iv in table.values() if iv.hi.cmp_int(1) < 0)
    return table, (
        f"{small} of {len(table)} per-index measure bounds are below 1; "
        "the bounds control violations only where their tail sum is small, "
        "so for generic base constants this table is diagnostic rather "
        "than a proof of eventual matching.")


def compare_extended(chain: BAChain, beta: BetaSample, M_max: int,
                     budget: int = DEFAULT_BUDGET) -> ExtensionReport:
    """Enumerate the chain of ``chain.form`` extended by ``beta``, align
    it against the padded base chain, and run the per-index criterion
    scans.

    The match horizon is the smallest base index from which the two
    sequences agree exactly through the search bound (None when no suffix
    agrees).
    """
    base_chain = _resolve_base(chain, beta.k, M_max, budget)
    report = _align(base_chain, beta, M_max)
    for nu in range(1, len(base_chain.records)):
        try:
            report.criterion_verdicts[nu] = degeneracy_criterion(
                base_chain, beta, nu, budget=budget)
        except SearchTooLarge as exc:
            report.skipped_criteria[nu] = str(exc)
    report.omega_table, report.regime_note = _omega_table(
        base_chain, beta.k, budget)
    return report


class MonteCarloResult:
    """Aggregate of seeded extension comparisons for one base chain."""

    __slots__ = ("samples", "seed", "k", "search_bound", "sample_seeds",
                 "horizons", "matched_beyond", "omega_table", "regime_note")

    def __init__(self, samples: int, seed: int, k: int, search_bound: int,
                 sample_seeds: list[int], horizons: list[Optional[int]],
                 matched_beyond: dict[int, int],
                 omega_table: dict[int, DyadicInterval], regime_note: str):
        # matched_beyond: base index -> samples matching from it
        self.samples, self.seed, self.k = samples, seed, k
        self.search_bound, self.sample_seeds = search_bound, sample_seeds
        self.horizons, self.matched_beyond = horizons, matched_beyond
        self.omega_table, self.regime_note = omega_table, regime_note

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "samples": self.samples,
            "seed": self.seed,
            "k": self.k,
            "search_bound": self.search_bound,
            "sample_seeds": self.sample_seeds,
            "match_horizons": self.horizons,
            "matched_beyond": {str(i): c
                               for i, c in sorted(self.matched_beyond.items())},
            "omega_bounds": {str(nu): [iv.lo.to_hex(), iv.hi.to_hex()]
                             for nu, iv in sorted(self.omega_table.items())},
            "regime_note": self.regime_note,
        }


def monte_carlo(chain: BAChain, k: int, samples: int, seed: int, M_max: int,
                budget: int = DEFAULT_BUDGET) -> MonteCarloResult:
    """Align ``samples`` seeded extensions of ``chain.form`` against the
    padded base chain and aggregate how many match it from each index on;
    the omega table is built once, and no criterion scan runs.

    Fully deterministic for a fixed seed: per-sample seeds derive from one
    generator, and every numeric step is exact or certified.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    base = _resolve_base(chain, k, M_max, budget)
    rng = random.Random(seed)
    sample_seeds = [rng.randrange(1 << 30) for _ in range(samples)]
    betas = (sample_betas(base.form, k, s) for s in sample_seeds)
    horizons = [_align(base, b, M_max).nu_match for b in betas]
    matched_beyond = {
        nu: sum(1 for h in horizons if h is not None and h <= nu)
        for nu in range(1, len(base.records) + 1)
    }
    omega_table, regime = _omega_table(base, k, budget)
    return MonteCarloResult(samples=samples, seed=seed, k=k,
                            search_bound=M_max, sample_seeds=sample_seeds,
                            horizons=horizons, matched_beyond=matched_beyond,
                            omega_table=omega_table, regime_note=regime)
