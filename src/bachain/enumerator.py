"""Best-approximation chains by exhaustive max-norm shell scanning.

``enumerate_chain`` walks integer tails (m_1, ..., m_r) shell by shell
(max-norm 1, 2, 3, ...), takes the argmin of the distance-to-nearest-integer
of the form value within each shell, and records a new chain entry whenever
the running minimum strictly drops.  All comparisons are certified interval
comparisons; an unresolvable tie or an exact zero aborts with
DependenceSuspected because it witnesses a rational dependence among
1, a_1, ..., a_r.

``brute_force_oracle`` reproduces the same contract through a deliberately
separate code path (per-tail residuals via the interval API, explicit
prefix minima) and exists for cross-validation.  ``cf_convergents`` gives
the classical r = 1 ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice, product
from typing import Iterator, Optional

from .errors import DependenceSuspected, PrecisionExhausted
from .linform import (
    LinearForm,
    abs_bounds,
    best_m0,
    scaled_constants,
    scaled_dot,
    tail_norm,
    zeta,
)
from .realnum import (
    PRECISION_CAP,
    START_PRECISION,
    Dyadic,
    DyadicInterval,
    RealExpr,
    enclosures,
    precision_ladder,
    working_limit,
)


@dataclass(frozen=True)
class BestApprox:
    """One chain record: index, sign-normalized vector, tail max-norm, and
    a certified strictly positive enclosure of the form value."""

    index: int
    m: tuple[int, ...]
    M: int
    zeta: DyadicInterval

    def __post_init__(self):
        if self.zeta.lo.man <= 0:
            raise ValueError("record form value must be certified positive")
        if tail_norm(self.m[1:]) != self.M:
            raise ValueError("stored norm disagrees with coordinates")


@dataclass(frozen=True)
class BAChain:
    """Ordered best-approximation records plus search provenance.

    Construction only enforces structural sanity (consecutive indices);
    the mathematical ordering invariants are certified during enumeration
    and re-checkable on any chain, including one parsed from a file, via
    analysis.check_monotonic.  The last record's successor norm is unknown
    by construction (the scan stopped at ``search_bound``), so pairwise
    checks skip it.
    """

    form: LinearForm
    records: tuple[BestApprox, ...]
    search_bound: int
    precision_used: int

    def __post_init__(self):
        for i, rec in enumerate(self.records, start=1):
            if rec.index != i:
                raise ValueError("record indices must be consecutive from 1")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def r(self) -> int:
        return self.form.r


class _Rescan(Exception):
    """Internal: the shell scan hit an ambiguity at the current working
    precision.  ``reason`` is 'tie', 'rounding' or 'sign'; ``witness``
    carries the offending tail(s)."""

    def __init__(self, reason: str, witness):
        self.reason = reason
        self.witness = witness


def canonical_shell_tails(r: int, M: int) -> Iterator[tuple[int, ...]]:
    """Tails of max-norm exactly M whose first nonzero coordinate is
    positive: one representative per +-pair.

    Ordered by the position of the first nonzero coordinate, then
    lexicographically.  Scans compare candidates in this order, so it
    decides which near-ties force a rescan and, through the precision
    used, the bytes of a chain file.  Work is proportional to the output.
    """
    if M < 1:
        return
    if r == 1:
        yield (M,)
        return
    box = range(-M, M + 1)
    for lead in range(r):
        zeros = (0,) * lead
        length = r - lead - 1
        if length:
            # a leading coordinate below M leaves the norm to the suffix
            suffixes = list(_normed(M, length))
            for first in range(1, M):
                head = zeros + (first,)
                for suffix in suffixes:
                    yield head + suffix
        yield from product(*((0,),) * lead, (M,), *(box,) * length)


def _normed(M: int, length: int) -> Iterator[tuple[int, ...]]:
    """Vectors in [-M, M]**length (length >= 1) with max-norm exactly M,
    in lexicographic order."""
    if length == 1:
        yield (-M,)
        yield (M,)
        return
    rest = (range(-M, M + 1),) * (length - 1)
    yield from product((-M,), *rest)
    inner = list(_normed(M, length - 1))
    for c in range(1 - M, M):
        for suffix in inner:
            yield (c,) + suffix
    yield from product((M,), *rest)


def _shell_scan(form: LinearForm, M_max: int, w: int, cap: int) -> list[dict]:
    """One full scan at working precision w.  Returns record dicts or
    raises _Rescan when certification fails at this precision."""
    r = form.r
    grid = w + 2
    a_lo, a_hi = scaled_constants(form.alphas, w, grid, cap)
    T = 1 << grid
    T2 = T << 1

    running_lo: Optional[int] = None  # certified |residual| bounds of last record
    running_hi: Optional[int] = None
    running_tail: Optional[tuple[int, ...]] = None
    records: list[dict] = []

    for M in range(1, M_max + 1):
        best = None  # (abs_lo, abs_hi, tail, n, r_lo, r_hi)
        for tail in canonical_shell_tails(r, M):
            s_lo, s_hi = scaled_dot(tail, a_lo, a_hi)
            # nearest integer; an endpoint on a half-integer is ambiguous
            n_lo, rem_lo = divmod(2 * s_lo + T, T2)
            n_hi, rem_hi = divmod(2 * s_hi + T, T2)
            if n_lo != n_hi or rem_lo == 0 or rem_hi == 0:
                raise _Rescan("rounding", tail)
            r_lo = s_lo - n_lo * T
            r_hi = s_hi - n_lo * T
            abs_lo, abs_hi = abs_bounds(r_lo, r_hi)
            if abs_lo == 0 and abs_hi == 0:
                raise DependenceSuspected(
                    f"form value of tail {tail} is exactly zero",
                    witness=tail)
            if best is None:
                best = (abs_lo, abs_hi, tail, n_lo, r_lo, r_hi)
            elif abs_lo > best[1]:
                continue
            elif abs_hi < best[0]:
                best = (abs_lo, abs_hi, tail, n_lo, r_lo, r_hi)
            else:
                raise _Rescan("tie", (best[2], tail))

        abs_lo, abs_hi, tail, n, r_lo, r_hi = best
        if running_lo is not None:
            if abs_lo > running_hi:
                continue  # shell minimum certifiably worse: no new record
            if abs_hi >= running_lo:
                raise _Rescan("tie", (running_tail, tail))
        # new record: strict drop certified; need a sign-definite residual
        if r_lo > 0:
            m = (-n,) + tail
            z_lo, z_hi = r_lo, r_hi
        elif r_hi < 0:
            m = (n,) + tuple(-c for c in tail)
            z_lo, z_hi = -r_hi, -r_lo
        else:
            raise _Rescan("sign", tail)
        records.append({
            "m": m,
            "M": M,
            "zeta": DyadicInterval(Dyadic(z_lo, -grid), Dyadic(z_hi, -grid)),
        })
        running_lo, running_hi, running_tail = abs_lo, abs_hi, tail

    return records


def enumerate_chain(form: LinearForm, M_max: int,
                    cap: int = PRECISION_CAP) -> BAChain:
    """All best approximations with tail max-norm <= M_max.

    Deterministic: the working precision starts at a value derived from
    M_max and doubles on any failed certification, so identical inputs
    yield identical chains.
    """
    if M_max < 1:
        raise ValueError("M_max must be >= 1")
    limit = working_limit(cap)
    start = min(START_PRECISION + (form.r * M_max).bit_length(), limit)
    for w in precision_ladder(start, limit):
        try:
            raw = _shell_scan(form, M_max, w, cap)
        except _Rescan as exc:
            # below the cap an ambiguity is just a request for more precision
            failed = exc
            continue
        records = tuple(
            BestApprox(index=i + 1, m=rec["m"], M=rec["M"], zeta=rec["zeta"])
            for i, rec in enumerate(raw))
        return BAChain(form=form, records=records, search_bound=M_max,
                       precision_used=w)
    # an ambiguity (tie, half-integer, zero straddle) that survives the cap
    # witnesses a rational dependence
    raise DependenceSuspected(
        f"cannot separate candidates at cap ({failed.reason})",
        witness=failed.witness)


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------


def brute_force_oracle(form: LinearForm, M_max: int,
                       cap: int = PRECISION_CAP) -> BAChain:
    """Same contract as enumerate_chain, computed independently.

    Every canonical tail's residual is evaluated through the interval API
    (per-tail precision refinement, no shared scan state), shell minima are
    selected by certified comparison with on-demand re-refinement, and the
    global minimum at every norm level is recomputed from the stored shell
    minima.  Intended for tests at small M_max.
    """
    if M_max < 1:
        raise ValueError("M_max must be >= 1")
    r = form.r

    # per-shell argmin, each tail evaluated from scratch
    shell_minima: list[dict] = []
    for M in range(1, M_max + 1):
        entries = []
        for tail in canonical_shell_tails(r, M):
            m0, residual = best_m0(tail, form, cap)
            entries.append({"tail": tail, "m0": m0, "abs": residual.abs(),
                            "residual": residual})
        best = entries[0]
        for cand in entries[1:]:
            best = _min_by_abs(best, cand, form, cap)
        shell_minima.append(best)

    # global minimum at every level, recomputed as an explicit prefix pass
    records: list[BestApprox] = []
    prev_best: Optional[dict] = None
    for level in range(1, M_max + 1):
        global_best = shell_minima[0]
        for i in range(1, level):
            global_best = _min_by_abs(global_best, shell_minima[i], form, cap)
        if prev_best is not None and global_best["tail"] == prev_best["tail"]:
            prev_best = global_best
            continue
        entry = global_best
        if tail_norm(entry["tail"]) != level:
            raise AssertionError("oracle: new global minimum off its shell")
        for w in precision_ladder(START_PRECISION, working_limit(cap)):
            if w > START_PRECISION:  # the stored residual stands for rung 1
                _re_abs(entry, form, w, cap)
            residual = entry["residual"]
            if residual.sign() in (1, -1):
                break
        else:
            raise DependenceSuspected(
                f"oracle: sign of tail {entry['tail']} undecidable",
                witness=entry["tail"])
        if residual.sign() == 1:
            m = (entry["m0"],) + entry["tail"]
            z = residual
        else:
            m = (-entry["m0"],) + tuple(-c for c in entry["tail"])
            z = -residual
        records.append(BestApprox(index=len(records) + 1, m=m,
                                  M=level, zeta=z))
        prev_best = global_best

    # the chain invariants need certified strict decrease between records
    tightened = _tighten_decrease(records, form, cap)
    return BAChain(form=form, records=tuple(tightened),
                   search_bound=M_max, precision_used=PRECISION_CAP)


def _min_by_abs(a: dict, b: dict, form: LinearForm, cap: int) -> dict:
    """Certified argmin of two residual entries, refining on demand."""
    ia, ib = a["abs"], b["abs"]
    for w in precision_ladder(START_PRECISION, working_limit(cap)):
        if w > START_PRECISION:  # the stored enclosures stand for rung 1
            ia = _re_abs(a, form, w, cap)
            ib = _re_abs(b, form, w, cap)
        if ia.hi < ib.lo:
            return a
        if ib.hi < ia.lo:
            return b
    raise DependenceSuspected(
        f"oracle: residual tie between {a['tail']} and {b['tail']}",
        witness=(a["tail"], b["tail"]))


def _re_abs(entry: dict, form: LinearForm, w: int, cap: int) -> DyadicInterval:
    value = zeta((entry["m0"],) + entry["tail"], form, w, cap)
    entry["abs"] = value.abs()
    entry["residual"] = value
    return entry["abs"]


def _tighten_decrease(records: list[BestApprox], form: LinearForm,
                      cap: int) -> list[BestApprox]:
    """Re-evaluate record values until consecutive enclosures are disjoint."""
    out = list(records)
    for i in range(1, len(out)):
        for w in precision_ladder(START_PRECISION, working_limit(cap)):
            if w > START_PRECISION:  # the stored values stand for rung 1
                for j in (i - 1, i):
                    rec = out[j]
                    iv = zeta(rec.m, form, w, cap)
                    out[j] = BestApprox(index=rec.index, m=rec.m, M=rec.M,
                                        zeta=iv)
            if out[i].zeta.hi < out[i - 1].zeta.lo:
                break
        else:
            raise DependenceSuspected(
                "oracle: consecutive records do not separate",
                witness=(out[i - 1].m, out[i].m))
    return out


# ---------------------------------------------------------------------------
# Continued fractions (r = 1 ground truth)
# ---------------------------------------------------------------------------


def _convergents(alpha: RealExpr, cap: int) -> Iterator[tuple[int, int]]:
    """Continued-fraction convergents p/q of alpha, in order, without end.

    Gauss-map steps are tracked exactly through an integer Moebius state
    x_i = (a*alpha + b) / (c*alpha + d); each partial quotient is the
    certified floor of that quotient, refined on the shared enclosure of
    alpha.  A floor that never certifies (a rational alpha) raises
    PrecisionExhausted.
    """
    a, b, c, d = 1, 0, 0, 1
    p_prev, p_curr = 0, 1  # seeds p_{-2} = 0, p_{-1} = 1
    q_prev, q_curr = 1, 0  # seeds q_{-2} = 1, q_{-1} = 0
    w = START_PRECISION
    for step in count():
        # each step resumes at the rung the previous one certified on
        for w, iv in enclosures(alpha, w, cap):
            den = iv.mul_int(c).add_int(d)
            if den.sign() is None:
                continue  # the divisor straddles zero at this rung
            n = iv.mul_int(a).add_int(b).divide(den, w).certified_floor()
            if n is not None:
                break
        else:
            raise PrecisionExhausted(
                f"partial quotient {step} does not certify "
                "(rational value suspected)", cap)
        if step > 0 and n < 1:
            raise AssertionError("partial quotients must be positive")
        p_prev, p_curr = p_curr, n * p_curr + p_prev
        q_prev, q_curr = q_curr, n * q_curr + q_prev
        yield p_curr, q_curr
        a, b, c, d = c, d, a - n * c, b - n * d


def cf_convergents(alpha: RealExpr, count: int,
                   cap: int = PRECISION_CAP) -> list[tuple[int, int]]:
    """First ``count`` continued-fraction convergents p/q of alpha."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return list(islice(_convergents(alpha, cap), count))


def convergent_denominators(alpha: RealExpr, up_to: int,
                            cap: int = PRECISION_CAP) -> list[int]:
    """Distinct convergent denominators <= up_to, in order.  These are the
    r = 1 best-approximation norms (the duplicate q = 1 that appears when
    the first partial quotient is 1 collapses to a single entry).  The
    stream ends because positive partial quotients make q grow at least
    like the Fibonacci numbers."""
    qs: list[int] = []
    for _, q in _convergents(alpha, cap):
        if q > up_to:
            break
        if not qs or q > qs[-1]:
            qs.append(q)
    return qs
