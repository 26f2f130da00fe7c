"""Best-approximation chains by exhaustive max-norm shell scanning.

``enumerate_chain`` walks integer tails (m_1, ..., m_r) shell by shell
(max-norm 1, 2, 3, ...), takes the argmin of the distance-to-nearest-integer
of the form value within each shell, and records a new chain entry whenever
the running minimum strictly drops.  All comparisons are certified interval
comparisons; an unresolvable tie or an exact zero aborts with
DependenceSuspected because it witnesses a rational dependence among
1, a_1, ..., a_r.

``brute_force_oracle`` reproduces the same contract through a deliberately
separate code path (per-tail residuals from the form-value dot product,
explicit running minima) and exists for cross-validation.
``convergent_denominators`` gives the classical r = 1 ground truth.
"""

from __future__ import annotations

from itertools import count, product
from typing import Iterator

from .errors import AmbiguousRounding, DependenceSuspected
from .linform import (
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
    tail_norm,
)
from .realnum import (
    PRECISION_CAP,
    START_PRECISION,
    Dyadic,
    DyadicInterval,
    RealExpr,
    enclosures,
    round_scaled,
    widths,
)


class BestApprox:
    """One chain record: index, sign-normalized vector, tail max-norm, and
    a certified strictly positive enclosure of the form value."""

    __slots__ = ("index", "m", "M", "zeta")

    def __init__(self, index: int, m: tuple[int, ...], M: int,
                 zeta: DyadicInterval):
        if zeta.lo.man <= 0:
            raise ValueError("form value must be certified positive")
        if tail_norm(m[1:]) != M:
            raise ValueError("stored norm disagrees with coordinates")
        self.index, self.m, self.M, self.zeta = index, m, M, zeta

    def _key(self):
        return (self.index, self.m, self.M, self.zeta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BestApprox):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class BAChain:
    """Ordered best-approximation records plus search provenance.

    Construction only enforces structural sanity (consecutive indices);
    the mathematical ordering invariants are certified during enumeration
    and re-checkable on any chain, including one parsed from a file, via
    analysis.check_monotonic.  The last record's successor norm is unknown
    by construction (the scan stopped at ``search_bound``), so pairwise
    checks skip it.  ``precision_cap`` is the cap the chain was certified
    under; every refinement on the chain runs at it.
    """

    __slots__ = ("form", "records", "search_bound", "precision_used",
                 "precision_cap")

    def __init__(self, form: LinearForm, records: tuple[BestApprox, ...],
                 search_bound: int, precision_used: int, precision_cap: int):
        for i, rec in enumerate(records, start=1):
            if rec.index != i:
                raise ValueError("record indices must be consecutive from 1")
        self.form, self.records = form, records
        self.search_bound = search_bound
        self.precision_used, self.precision_cap = precision_used, precision_cap

    def _key(self):
        return (self.form, self.records, self.search_bound,
                self.precision_used, self.precision_cap)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BAChain):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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


def scan_volume(r: int, M: int) -> int:
    """Tails ``canonical_shell_tails`` yields over shells 1..M: a scan's visits."""
    return ((2 * M + 1) ** r - 1) // 2


def _shell_scan(form: LinearForm, M_max: int, w: int,
                cap: int) -> list[BestApprox]:
    """One full scan at working precision w.  Returns the records or
    raises _Rescan when certification fails at this precision.  Every
    tail the kernel rounds has |residual| < 1/2, so bounds of 1/2 stand
    for "no best yet" and "no record yet".  For r >= 2 the kernel sees
    only the tails ``screen`` keeps in each shell."""
    r = form.r
    binding = scaled_constants(form.alphas, w, cap)
    tables = residue_tables(binding, M_max) if r > 1 else None
    half, mask = binding.half, binding.mask

    # |residual| bounds and tail of the last record
    running_lo, running_hi, running_tail = half, half, None
    records: list[BestApprox] = []

    for M in range(1, M_max + 1):
        best_lo, best_hi, best_tail = half, half, None  # the shell's best
        # offset residuals wholly above up or below down are beaten
        up, down = mask, 0
        tails = canonical_shell_tails(r, M)
        if tables is not None:
            tails = screen(tails, binding, *tables)
        for tail in tails:
            try:
                _, o_lo, o_hi = scaled_residual(tail, binding)
            except AmbiguousRounding:
                raise _Rescan("rounding", tail) from None
            if o_lo > up or o_hi < down:
                continue
            abs_lo, abs_hi = abs_bounds(o_lo - half, o_hi - half)
            if abs_hi == 0:
                raise DependenceSuspected(
                    f"form value of tail {tail} is exactly zero",
                    witness=tail)
            if abs_hi >= best_lo:
                raise _Rescan("tie", (best_tail, tail))
            best_lo, best_hi, best_tail = abs_lo, abs_hi, tail
            up, down = half + abs_hi, half - abs_hi

        if best_lo > running_hi:
            continue  # shell minimum certifiably worse: no new record
        if best_hi >= running_lo:
            raise _Rescan("tie", (running_tail, best_tail))
        # new record: strict drop certified; need a sign-definite residual
        n, o_lo, o_hi = scaled_residual(best_tail, binding)
        if o_lo <= half <= o_hi:
            raise _Rescan("sign", best_tail)
        m = (-n,) + best_tail if o_lo > half else \
            (n,) + tuple(-c for c in best_tail)
        records.append(BestApprox(
            index=len(records) + 1, m=m, M=M,
            zeta=record_enclosure(m, binding)))
        running_lo, running_hi, running_tail = best_lo, best_hi, best_tail

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
    for w in widths(START_PRECISION + (form.r * M_max).bit_length(), cap):
        try:
            records = _shell_scan(form, M_max, w, cap)
        except _Rescan as exc:
            # below the cap an ambiguity is just a request for more precision
            failed = exc
            continue
        return BAChain(form=form, records=tuple(records), search_bound=M_max,
                       precision_used=w, precision_cap=cap)
    # an ambiguity (tie, half-integer, zero straddle) that survives the cap
    # witnesses a rational dependence
    raise DependenceSuspected(
        f"cannot separate candidates at cap ({failed.reason})",
        witness=failed.witness)


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------


class _Candidate:
    """One tail's full vector (m_0, tail), its signed form value enclosed
    as [lo, hi] * 2**e, bounds size_lo <= |value| <= size_hi on the same
    scale, and the rung of the form-value ladder the enclosure came
    from."""

    __slots__ = ("m", "lo", "hi", "e", "size_lo", "size_hi", "rung")

    def __init__(self, m: tuple[int, ...], lo: int, hi: int, e: int,
                 rung: int):
        self.m, self.rung = m, rung
        self._enclose(lo, hi, e)

    @classmethod
    def from_best_m0(cls, tail: tuple[int, ...], form: LinearForm,
                     cap: int) -> "_Candidate":
        """The candidate ``best_m0`` certifies on its full ladder."""
        m0, value, rung = best_m0(tail, form, cap)
        lo, hi = value.lo, value.hi
        e = min(lo.exp, hi.exp)
        return cls((m0,) + tail, lo.man << (lo.exp - e),
                   hi.man << (hi.exp - e), e, rung)

    def _enclose(self, lo: int, hi: int, e: int) -> None:
        self.lo, self.hi, self.e = lo, hi, e
        self.size_lo, self.size_hi = max(lo, -hi, 0), max(-lo, hi)

    @property
    def value(self) -> DyadicInterval:
        return DyadicInterval(Dyadic(self.lo, self.e), Dyadic(self.hi, self.e))

    def refine(self, form: LinearForm, cap: int) -> bool:
        """Climb to the next rung above the candidate's own; the enclosure
        only narrows.  False when the candidate already holds the top."""
        w, lo, hi, e = next(form_values(self.m, form, 2 * self.rung, cap))
        if w <= self.rung:
            return False
        self.rung = w
        self._enclose(lo, hi, e)
        return True


def brute_force_oracle(form: LinearForm, M_max: int,
                       cap: int = PRECISION_CAP) -> BAChain:
    """Same contract as enumerate_chain, computed independently.

    Every canonical tail's residual is rounded from one integer dot
    product over the form's endpoint table at the rung ``best_m0`` would
    start from (no shared scan state).  A tail that the shell's minimum
    so far certifiably beats is dropped there; any other becomes a
    candidate, and a tail whose first rung cannot decide its nearest
    integer takes ``best_m0``'s full ladder.  Shell minima are selected
    by certified comparison, and a running minimum over them gives the
    global minimum at every norm level.  A comparison or a sign that the
    enclosures cannot decide refines the candidates involved, each
    climbing from its own rung, so enclosures only narrow and every
    decision taken stays certified by the final ones, which the records
    carry; ``precision_used`` is the highest rung any tail reached.
    Intended for tests at small M_max.
    """
    if M_max < 1:
        raise ValueError("M_max must be >= 1")

    # per-shell argmin.  A candidate's rung only climbs, so the top rung
    # is read off the first rungs, each candidate that loses a comparison
    # and each one kept to the end
    first_rungs = {}  # ladder start -> (rung, e, los, his)
    top = fetched = 0  # fetched: the ladder start of the table in hand
    shell_minima: list[_Candidate] = []
    for M in range(1, M_max + 1):
        best = None
        for tail in canonical_shell_tails(form.r, M):
            start = START_PRECISION + sum(map(abs, tail)).bit_length()
            if start != fetched:
                fetched, table = start, first_rungs.get(start)
                if table is None:
                    w = next(widths(start, cap))
                    table = first_rungs[start] = \
                        (w,) + endpoint_table(form, w, cap)
                    top = max(top, w)
                w, e, los, his = table
            s_lo, s_hi = dot_bounds(tail, los, his)
            try:
                n, lo, hi = round_scaled(s_lo, s_hi, -e)
            except AmbiguousRounding:
                lo = hi = 0
            if lo or hi:
                if best is not None:
                    low = lo if lo > 0 else -hi if hi < 0 else 0
                    if (best_hi < low if best_e == e
                            else _below(best_hi, best_e, low, e)):
                        continue  # certifiably beaten at its first rung
                cand = _Candidate((-n,) + tail, lo, hi, e, w)
            else:
                # undecided or exactly zero: best_m0's ladder decides or
                # raises
                cand = _Candidate.from_best_m0(tail, form, cap)
            if best is None:
                best = cand
            else:
                winner = _smaller(best, cand, form, cap)
                top = max(top, best.rung, cand.rung)
                best = winner
            # the drop test's bound, read again since _smaller may refine
            best_hi, best_e = best.size_hi, best.e
        shell_minima.append(best)

    # global minimum at every level, as a running minimum: a comparison
    # once separated stays so, since enclosures only narrow
    found: list[tuple[int, _Candidate]] = []
    best = None
    for level, cand in enumerate(shell_minima, start=1):
        best = cand if best is None else _smaller(best, cand, form, cap)
        if found and found[-1][1] is best:
            continue
        if tail_norm(best.m[1:]) != level:
            raise AssertionError("oracle: new global minimum off its shell")
        while not (best.lo > 0 or best.hi < 0):
            if not best.refine(form, cap):
                raise DependenceSuspected(
                    f"oracle: sign of tail {best.m[1:]} undecidable",
                    witness=best.m[1:])
        found.append((level, best))

    records = []
    for index, (level, cand) in enumerate(found, start=1):
        s = 1 if cand.lo > 0 else -1  # certified above; narrowing keeps it
        records.append(BestApprox(
            index=index, m=tuple(s * c for c in cand.m), M=level,
            zeta=cand.value if s == 1 else -cand.value))
    for prev, rec in zip(records, records[1:]):
        if not rec.zeta.hi < prev.zeta.lo:
            raise AssertionError("oracle: consecutive records do not separate")
    top = max([top] + [cand.rung for cand in shell_minima])
    return BAChain(form=form, records=tuple(records), search_bound=M_max,
                   precision_used=top, precision_cap=cap)


def _below(x: int, ex: int, y: int, ey: int) -> bool:
    """x * 2**ex < y * 2**ey, exactly."""
    if ex >= ey:
        return (x << (ex - ey)) < y
    return x < (y << (ey - ex))


def _smaller(a: _Candidate, b: _Candidate, form: LinearForm,
             cap: int) -> _Candidate:
    """Certified argmin of |form value| over two candidates, refining
    both until their enclosures separate."""
    while True:
        if _below(a.size_hi, a.e, b.size_lo, b.e):
            return a
        if _below(b.size_hi, b.e, a.size_lo, a.e):
            return b
        climbed_a = a.refine(form, cap)
        climbed_b = b.refine(form, cap)
        if not (climbed_a or climbed_b):
            raise DependenceSuspected(
                f"oracle: residual tie between {a.m[1:]} and {b.m[1:]}",
                witness=(a.m[1:], b.m[1:]))


# ---------------------------------------------------------------------------
# Continued fractions (r = 1 ground truth)
# ---------------------------------------------------------------------------


def _convergents(alpha: RealExpr, cap: int) -> Iterator[tuple[int, int]]:
    """Continued-fraction convergents p/q of alpha, in order, without end.

    Gauss-map steps are tracked exactly through an integer Moebius state
    x_i = (a*alpha + b) / (c*alpha + d); each partial quotient is the
    certified floor of that quotient, refined on the shared enclosure of
    alpha.  A floor that never certifies (a rational alpha) raises
    PrecisionExhausted from ``enclosures``.
    """
    a, b, c, d = 1, 0, 0, 1
    p_prev, p_curr = 0, 1  # seeds p_{-2} = 0, p_{-1} = 1
    q_prev, q_curr = 1, 0  # seeds q_{-2} = 1, q_{-1} = 0
    w = START_PRECISION
    for step in count():
        # each step resumes at the rung the previous one certified on
        for w, iv in enclosures(alpha, w, cap, f"partial quotient {step} "
                                "(rational value suspected)"):
            den = iv.mul_int(c).add_int(d)
            if den.sign() is None:
                continue  # the divisor straddles zero at this rung
            n = iv.mul_int(a).add_int(b).divide(den, w).certified_floor()
            if n is not None:
                break
        if step > 0 and n < 1:
            raise AssertionError("partial quotients must be positive")
        p_prev, p_curr = p_curr, n * p_curr + p_prev
        q_prev, q_curr = q_curr, n * q_curr + q_prev
        yield p_curr, q_curr
        a, b, c, d = c, d, a - n * c, b - n * d


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
