"""Certified checks and diagnostics over best-approximation chains.

Two kinds of checks live here.  Unconditional ones (monotonicity, the
convex-body bound, the doubling-step growth bound, the polytope volume
bound on full-rank windows) must hold for every correctly enumerated
chain, so a failure indicates an enumerator bug.  Conditional ones
(psi-singularity, the exponent-gap estimate) describe special tuples and
are expected to fail on generic input; their failure is informative
output, not an error.

Every verdict is backed by exact integer comparisons or certified dyadic
intervals; no check ever decides anything through floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .enumerator import BAChain
from .errors import ChainTooShort, DomainError
from .realnum import (
    PRECISION_CAP,
    DyadicInterval,
    ln_interval,
    pow_rational,
    widths,
)

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
UNDECIDED = "undecided"

#: Checks that are theorems about every chain: a failure fails the build.
THEOREM_CHECKS = ("monotonic", "minkowski", "growth", "polytope")

#: Working precision, in bits, of psi values and logarithms: the series
#: sums are computed at it, and the psi test starts its ladder there.
CHECK_PRECISION = 96

#: Largest |numerator| n and denominator d of a psi exponent.
#: ``pow_rational`` forms the exact n-th power of a p-bit enclosure, n * p
#: bits, and its integer d-th root on the 2**-(d * p) grid; a larger n or
#: d is refused before that power is formed.
MAX_PSI_EXP_NUMERATOR = 10 ** 5
MAX_PSI_EXP_DENOMINATOR = 30_000

#: Largest k of the series and of a psi target, which form M**(r+k).
MAX_K = 10 ** 5


class Verdict:
    """Outcome of one check with its machine-readable evidence."""

    __slots__ = ("check", "status", "witness_index", "margin", "detail")

    def __init__(self, check: str, status: str,
                 witness_index: Optional[int] = None,
                 margin: Optional[DyadicInterval] = None, detail: str = ""):
        self.check, self.status = check, status
        self.witness_index, self.margin, self.detail = \
            witness_index, margin, detail

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        out = {"check": self.check, "status": self.status}
        if self.witness_index is not None:
            out["witness_index"] = self.witness_index
        if self.margin is not None:
            out["margin"] = [self.margin.lo.to_hex(), self.margin.hi.to_hex()]
        if self.detail:
            out["detail"] = self.detail
        return out

    def __str__(self) -> str:
        parts = [f"{self.check}: {self.status}"]
        if self.witness_index is not None:
            parts.append(f"at index {self.witness_index}")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Unconditional checks
# ---------------------------------------------------------------------------


def check_monotonic(chain: BAChain) -> Verdict:
    """Strictly increasing norms and strictly decreasing form values,
    the latter certified by disjoint stored enclosures."""
    if not chain.records:
        raise ChainTooShort("empty chain")
    prev = None
    for rec in chain.records:
        if prev is not None:
            if not (prev.M < rec.M):
                return Verdict("monotonic", FAIL, witness_index=rec.index,
                               detail="norm did not increase")
            if not (rec.zeta.hi < prev.zeta.lo):
                return Verdict("monotonic", FAIL, witness_index=rec.index,
                               detail="form value not certifiably smaller")
        prev = rec
    return Verdict("monotonic", PASS,
                   detail=f"{len(chain.records)} records")


def check_minkowski(chain: BAChain) -> Verdict:
    """zeta_nu * M_{nu+1}**r <= 1 for every consecutive pair (the final
    record has no known successor and is skipped)."""
    if len(chain.records) < 2:
        raise ChainTooShort("need at least 2 records")
    r = chain.r
    worst: Optional[DyadicInterval] = None
    for rec, nxt in zip(chain.records, chain.records[1:]):
        product = rec.zeta.mul_int(nxt.M ** r)
        if product.hi.cmp_int(1) > 0:
            return Verdict("minkowski", FAIL, witness_index=rec.index,
                           margin=product,
                           detail=f"zeta_{rec.index} * {nxt.M}^{r} > 1")
        if worst is None or product.hi > worst.hi:
            worst = product
    return Verdict("minkowski", PASS, margin=worst,
                   detail=f"largest certified product {float(worst.hi):.6f}")


def growth_offset(r: int) -> int:
    """Index step after which norms are guaranteed to have doubled."""
    return 2 ** (2 * r + 1) - 2 ** (r + 1)


def check_growth(chain: BAChain) -> Verdict:
    """M_{nu+s} >= 2*M_nu with s = growth_offset(r); exact integers."""
    s = growth_offset(chain.r)
    n = len(chain.records)
    if n <= s:
        raise ChainTooShort(
            f"need more than {s} records for r={chain.r}, have {n}")
    tightest: Optional[Fraction] = None
    witness = None
    for i in range(n - s):
        m_lo = chain.records[i].M
        m_hi = chain.records[i + s].M
        ratio = Fraction(m_hi, 2 * m_lo)
        if tightest is None or ratio < tightest:
            tightest = ratio
            witness = chain.records[i].index
        if m_hi < 2 * m_lo:
            return Verdict("growth", FAIL, witness_index=chain.records[i].index,
                           detail=f"M_{i + 1 + s}={m_hi} < 2*M_{i + 1}={2 * m_lo}")
    return Verdict("growth", PASS,
                   detail=f"offset {s}, tightest ratio {tightest} at index {witness}")


# ---------------------------------------------------------------------------
# Exact determinants and ranks
# ---------------------------------------------------------------------------


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Rank and signed last pivot of an integer matrix by fraction-free
    (Bareiss) elimination; for a square matrix of full rank the pivot is
    the determinant.  Each division is exact, since every entry below the
    pivot rows is a minor of the input, and a column without a pivot is
    zero in every remaining row, so skipping it keeps that so."""
    m = [list(row) for row in rows]
    rank, sign, prev = 0, 1, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        for row in m[rank + 1:]:
            f = row[col]
            for j in range(col + 1, len(row)):
                row[j] = (row[j] * top[col] - f * top[j]) // prev
        prev = top[col]
        rank += 1
    return rank, sign * prev


def det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    rank, det = _eliminate(rows)
    return det if rank == n else 0


def window_determinants(chain: BAChain) -> dict[int, int]:
    """Exact determinant of each (r+1)x(r+1) window of consecutive
    records, keyed by the 1-based index nu of its first record.

    For r = 1 the positive-value normalization fixes the sign: with form
    values z, det_nu = z_nu * m1^(nu+1) - m1^(nu) * z_(nu+1), and since
    z_nu > z_(nu+1) > 0 and |m1^(nu+1)| > |m1^(nu)| this is the sign of m1
    in record nu+1, namely s * (-1)**(nu-1) with s = +1 when
    frac(alpha) > 1/2 and s = -1 when frac(alpha) < 1/2.
    """
    rows = [rec.m for rec in chain.records]
    r = chain.r
    return {nu: det_bareiss(rows[nu - 1:nu + r])
            for nu in range(1, len(rows) - r + 1)}


def rank_rational(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, computed exactly."""
    return _eliminate(rows)[0]


def tail_rank(chain: BAChain, nu_0: int) -> int:
    """Rank of the integer matrix whose rows are all records with index
    >= nu_0; the dimension actually spanned by the late chain."""
    if nu_0 < 1 or nu_0 > len(chain.records):
        raise ChainTooShort(f"no records from index {nu_0}")
    return rank_rational([rec.m for rec in chain.records[nu_0 - 1:]])


def check_polytope(chain: BAChain, dets: dict[int, int]) -> Verdict:
    """zeta_nu * (r+1)! * M_{nu+r}**r >= 1 on every window of full rank
    among ``dets`` (as ``window_determinants`` gives them); degenerate
    windows are counted as skipped, not failed."""
    r = chain.r
    if len(chain.records) < r + 1:
        raise ChainTooShort(f"need at least {r + 1} records")
    skipped = 0
    worst: Optional[DyadicInterval] = None
    for nu, det in dets.items():
        if det == 0:
            skipped += 1
            continue
        scale = math.factorial(r + 1) * chain.records[nu - 1 + r].M ** r
        product = chain.records[nu - 1].zeta.mul_int(scale)
        if product.lo.cmp_int(1) < 0:
            return Verdict("polytope", FAIL, witness_index=nu, margin=product,
                           detail=f"zeta_{nu} * {scale} < 1")
        if worst is None or product.lo < worst.lo:
            worst = product
    detail = f"{skipped} degenerate window(s) skipped" if skipped else "all windows full rank"
    return Verdict("polytope", PASS, margin=worst, detail=detail)


# ---------------------------------------------------------------------------
# psi families and conditional checks
# ---------------------------------------------------------------------------


def delta(k: int) -> int:
    """The paper's delta_k: 1 for k = 1 and 0 for k >= 2."""
    return 1 if k == 1 else 0


class PsiSpec:
    """Parametric decay target psi(y) = coeff / (y**a * (log y)**b *
    (log log y)**c) for singularity testing, each family setting the
    powers (a, b, c) in ``powers``, coeff 1 in the logarithmic ones.
    Logarithms are natural; the choice only shifts constants and is
    recorded here once.  r names the dimension of the chain the target is
    meant for; every family's r must equal the chain's, although only the
    logarithmic families use it in their formula.
    """

    __slots__ = ("family", "r", "k", "eps", "coeff", "power_exp", "powers")

    def __init__(self, family: str, r: int, k: int = 1,
                 eps: Fraction = Fraction(1, 10),
                 coeff: Fraction = Fraction(1),
                 power_exp: Fraction = Fraction(0)):
        if family not in PSI_KEYS:
            raise ValueError(f"unknown psi family {family!r}")
        if r < 1 or not 1 <= k <= MAX_K:
            raise ValueError(f"r must be positive and k in 1..{MAX_K}")
        if family != "power" and eps <= 0:
            raise ValueError("eps must be positive for logarithmic families")
        if coeff <= 0:
            raise ValueError("coeff must be positive")
        self.family, self.r, self.k = family, r, k
        self.eps, self.coeff, self.power_exp = eps, coeff, power_exp
        # the powers (a, b, c) of y, log y and log log y
        if family == "power":
            self.powers = power_exp, 0, 0
        elif family == "log":
            self.powers = r + k, delta(k) + 1 + eps, 0
        else:
            self.powers = r + k, delta(k), 1 + eps
        for power in self.powers:
            if (abs(power.numerator) > MAX_PSI_EXP_NUMERATOR
                    or power.denominator > MAX_PSI_EXP_DENOMINATOR):
                raise ValueError(
                    f"psi exponent {power} has a numerator above "
                    f"{MAX_PSI_EXP_NUMERATOR} or a denominator above "
                    f"{MAX_PSI_EXP_DENOMINATOR}")

    def _key(self):
        return (self.family, self.r, self.k, self.eps, self.coeff,
                self.power_exp)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PsiSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def delta_k(self) -> int:
        return delta(self.k)

    @property
    def y_min(self) -> int:
        # smallest integer argument with a positive, finite value
        _, b, c = self.powers
        return 3 if c else 2 if b else 1  # log log y > 0 needs y >= 3

    def value(self, y: int,
              precision: int = CHECK_PRECISION) -> DyadicInterval:
        """Certified enclosure of psi(y) for integer y >= y_min: the
        nonzero powers by ``pow_rational``, their exact product inverted."""
        if y < self.y_min:
            raise DomainError(f"psi undefined below y = {self.y_min}")
        p = precision
        a, b, c = self.powers
        denom = pow_rational(DyadicInterval.point(y), a, p)
        log_y = ln_interval(y, p) if b or c else None
        if b:
            denom = denom * pow_rational(log_y, b, p)
        if c:
            denom = denom * pow_rational(ln_interval(log_y, p), c, p)
        coeff = DyadicInterval.from_fractions(self.coeff, self.coeff, p)
        return coeff * denom.reciprocal(p)

    def describe(self) -> str:
        if self.family == "power":
            return f"psi(y) = {self.coeff} * y^-({self.power_exp})"
        if self.family == "log":
            return (f"psi(y) = 1/(y^{self.r + self.k} "
                    f"(log y)^({self.delta_k}+1+{self.eps}))")
        return (f"psi(y) = 1/(y^{self.r + self.k} (log y)^{self.delta_k} "
                f"(log log y)^(1+{self.eps}))")


#: The keys of each psi family's spec; ``exp`` sets ``power_exp``.
PSI_KEYS = {"power": ("r", "k", "coeff", "exp"), "log": ("r", "k", "eps"),
            "loglog": ("r", "k", "eps")}


def parse_psi(text: str, r: int) -> PsiSpec:
    """Parse 'family:key=value,...', e.g. 'log:k=1,eps=1/10'; r defaults
    to ``r``, the chain's dimension, and other keys to PsiSpec's."""
    if ":" not in text:
        raise ValueError("psi spec must look like family:key=value,...")
    family, _, rest = text.partition(":")
    if family not in PSI_KEYS:
        raise ValueError(f"unknown psi family {family!r}")
    given: dict[str, str] = {}
    for part in filter(None, rest.split(",")):
        key, _, val = (s.strip() for s in part.partition("="))
        if key not in PSI_KEYS[family]:
            raise ValueError(f"unknown psi key {key!r} for family {family!r}; "
                             f"expected {', '.join(PSI_KEYS[family])}")
        if key in given:
            raise ValueError(f"psi key {key!r} given twice")
        given[key] = val
    try:
        fields = {"power_exp" if key == "exp" else key:
                  int(val) if key in ("r", "k") else Fraction(val)
                  for key, val in given.items()}
        return PsiSpec(family, **({"r": r} | fields))
    except ZeroDivisionError:
        raise ValueError(f"psi spec {text!r} divides by zero") from None
    except ValueError as exc:
        raise ValueError(f"psi spec {text!r}: {exc}") from None


def check_psi_singular(chain: BAChain, psi: PsiSpec) -> Verdict:
    """zeta_nu <= psi(M_{nu+1}) for every applicable nu.

    Most chains fail this: singularity at a prescribed rate is a property
    of special tuples, so a first-violation report is the informative
    outcome, not a defect.  psi is evaluated on
    ``widths(CHECK_PRECISION, PRECISION_CAP)``, 96 to 32768 bits, whatever
    cap the chain names: psi values do not involve the chain's constants.
    """
    if psi.r != chain.r:
        raise ValueError(f"psi spec r={psi.r} does not match the chain's "
                         f"r={chain.r}")
    if len(chain.records) < 2:
        raise ChainTooShort("need at least 2 records")
    skipped = 0
    for rec, nxt in zip(chain.records, chain.records[1:]):
        y = nxt.M
        if y < psi.y_min:
            skipped += 1
            continue
        for p in widths(CHECK_PRECISION, PRECISION_CAP):
            psi_iv = psi.value(y, p)
            if rec.zeta.hi <= psi_iv.lo:
                break  # certified pass at this index
            if psi_iv.hi < rec.zeta.lo:
                return Verdict("psi-singular", FAIL, witness_index=rec.index,
                               margin=psi_iv,
                               detail=f"zeta_{rec.index} > psi({y}) certified; "
                                      f"{psi.describe()}")
            if rec.zeta.lo <= psi_iv.lo and psi_iv.hi <= rec.zeta.hi:
                # psi(y) is in the stored enclosure: no rung can certify a
                # fail, and a pass needs a lower endpoint equal to psi(y) =
                # zeta.hi.  Log and loglog ones come from upper bounds on
                # the transcendental log y, so fall short; a power one is
                # exact only if every rung is a point, as the pass test saw.
                break  # undecided at this index
        if psi_iv.lo < rec.zeta.hi:
            return Verdict("psi-singular", UNDECIDED,
                           witness_index=rec.index,
                           detail="enclosures never separated")
    note = f"{skipped} index(es) below y_min skipped; " if skipped else ""
    return Verdict("psi-singular", PASS,
                   detail=note + psi.describe())


def series_partial_sums(chain: BAChain, k: int) -> list[DyadicInterval]:
    """Certified partial sums S_N of the convergence diagnostic series
    sum_nu M_{nu+1}**(r+k) * (log M_{nu+1})**delta_k * zeta_nu.

    delta_k is 1 for k = 1 and 0 for k >= 2; logs are natural.  Terms are
    positive, so the sums are strictly increasing.
    """
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be >= 1 and at most {MAX_K}")
    if len(chain.records) < 2:
        raise ChainTooShort("need at least 2 records")
    sums: list[DyadicInterval] = []
    total = DyadicInterval.point(0)
    for rec, nxt in zip(chain.records, chain.records[1:]):
        term = rec.zeta.mul_int(nxt.M ** (chain.r + k))
        if delta(k):
            term = term * ln_interval(nxt.M, CHECK_PRECISION)
        total = total + term
        sums.append(total)
    return sums


def _norm_gap(chain: BAChain, k: int, dets: dict[int, int]) -> Verdict:
    """Eventual norm gap M_{nu+r}**r >= M_{nu+1}**(r+k) under the loglog
    psi-singularity (certified by the caller) and full-rank windows.

    The exponent inequality M_{nu+r} >= M_{nu+1}**(1 + k/r) is checked in
    the equivalent integer form, and the smallest index from which it
    holds through the end of the chain is reported.
    """
    r = chain.r
    if len(chain.records) < r + 1:
        return Verdict("norm-gap", SKIPPED,
                       detail=f"need at least {r + 1} records")
    last_fail = 0
    for nu, det in dets.items():
        if det == 0:
            return Verdict("norm-gap", SKIPPED,
                           detail=f"window {nu} is degenerate")
        if chain.records[nu - 1 + r].M ** r < chain.records[nu].M ** (r + k):
            last_fail = nu
    if last_fail >= len(dets):
        return Verdict("norm-gap", FAIL, witness_index=last_fail,
                       detail="gap inequality fails through the end")
    return Verdict("norm-gap", PASS,
                   detail=f"holds for all nu >= {last_fail + 1}")


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


class ChainReport:
    """All verdicts and tables for one chain, serializable via to_dict;
    ``run_checks`` fills them in."""

    __slots__ = ("verdicts", "determinants", "tail_ranks", "series_sums",
                 "series_k", "notes")

    def __init__(self):
        self.verdicts: dict[str, Verdict] = {}
        self.determinants: dict[int, int] = {}
        self.tail_ranks: dict[int, int] = {}
        self.series_sums: list[DyadicInterval] = []
        self.series_k: Optional[int] = None
        self.notes: list[str] = []

    @property
    def theorem_checks_pass(self) -> bool:
        return all(v.status in (PASS, SKIPPED)
                   for name, v in self.verdicts.items()
                   if name in THEOREM_CHECKS)

    def to_dict(self) -> dict:
        out = {
            "version": 1,
            "verdicts": {k: v.to_dict() for k, v in self.verdicts.items()},
            "determinants": {str(k): v for k, v in self.determinants.items()},
            "tail_ranks": {str(k): v for k, v in self.tail_ranks.items()},
            "notes": self.notes,
        }
        if self.series_k is not None:
            out["series_k"] = self.series_k
            out["series_partial_sums"] = [
                [s.lo.to_hex(), s.hi.to_hex()] for s in self.series_sums]
        return out


def run_checks(chain: BAChain, psi: Optional[PsiSpec] = None,
               series_k: Optional[int] = None) -> ChainReport:
    """Run every applicable check and collect the evidence tables: the
    four theorem checks, the window determinants and the tail ranks
    always; the psi test, and the norm gap after a passing psi verdict,
    when ``psi`` is given; the series partial sums when ``series_k`` is."""
    report = ChainReport()

    def run(name: str, fn) -> None:
        try:
            report.verdicts[name] = fn()
        except ChainTooShort as exc:
            report.verdicts[name] = Verdict(name, SKIPPED, detail=str(exc))
            report.notes.append(f"{name}: {exc}")

    run("monotonic", lambda: check_monotonic(chain))
    run("minkowski", lambda: check_minkowski(chain))
    run("growth", lambda: check_growth(chain))
    report.determinants = dets = window_determinants(chain)
    run("polytope", lambda: check_polytope(chain, dets))
    # from the last record back: a longer suffix spans at least as much,
    # and rows in Z^(r+1) span at most r + 1 dimensions
    ranks = []
    for nu0 in range(len(chain.records), 0, -1):
        ranks.append(ranks[-1] if ranks and ranks[-1] > chain.r
                     else tail_rank(chain, nu0))
    report.tail_ranks = dict(enumerate(reversed(ranks), start=1))
    if psi is not None:
        run("psi-singular", lambda: check_psi_singular(chain, psi))
        if report.verdicts["psi-singular"].passed:
            report.verdicts["norm-gap"] = _norm_gap(chain, psi.k, dets)
    if series_k is not None:
        try:
            report.series_sums = series_partial_sums(chain, series_k)
            report.series_k = series_k
        except ChainTooShort as exc:
            report.notes.append(f"series: {exc}")
    return report
