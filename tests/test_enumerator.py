import sys
from itertools import islice, product

import pytest
from hypothesis import example, given, settings, strategies as st

from bachain import enumerator, linform
from bachain.enumerator import (
    brute_force_oracle,
    canonical_shell_tails,
    convergent_denominators,
    enumerate_chain,
    scan_volume,
)
from bachain.errors import (
    BachainError,
    DependenceSuspected,
    PrecisionExhausted,
)
from bachain.linform import LinearForm, best_m0, endpoint_table, tail_norm
from bachain.realnum import (
    PRECISION_CAP,
    Dyadic,
    DyadicInterval,
    rational,
    root,
    round_scaled,
    working_limit,
)
from bachain import parse_expr
from bachain.cli import serialize_chain
from conftest import interval_abs, quotient, reference_oracle, \
    reference_shell_scan


class TestShellTails:
    @pytest.mark.parametrize("r,M", [(1, 1), (1, 7), (2, 1), (2, 4), (3, 2)])
    def test_counts_and_canonical_form(self, r, M):
        tails = list(canonical_shell_tails(r, M))
        # one representative per +-pair on the shell
        expected = ((2 * M + 1) ** r - (2 * M - 1) ** r) // 2
        assert len(tails) == expected
        assert len(set(tails)) == len(tails)
        for t in tails:
            assert tail_norm(t) == M
            first = next(c for c in t if c)
            assert first > 0

    def test_pairs_cover_shell(self):
        tails = set(canonical_shell_tails(2, 3))
        full = {t for t in tails} | {tuple(-c for c in t) for t in tails}
        assert len(full) == (2 * 3 + 1) ** 2 - (2 * 3 - 1) ** 2

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("M", range(7))
    def test_order_matches_box_listing(self, r, M):
        # the order decides which near-ties a scan meets, and so the
        # precision-used header of a chain file: by the position of the
        # first nonzero coordinate, then lexicographic
        def leading_zeros(t):
            return next(i for i, c in enumerate(t) if c)

        listing = sorted(
            (t for t in product(range(-M, M + 1), repeat=r)
             if any(t) and max(map(abs, t)) == M and t[leading_zeros(t)] > 0),
            key=lambda t: (leading_zeros(t), t))
        assert list(canonical_shell_tails(r, M)) == listing

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("M", range(7))
    def test_scan_volume_counts_the_generator(self, r, M):
        # the count every budget check charges a scan with
        yielded = sum(1 for shell in range(1, M + 1)
                      for _ in canonical_shell_tails(r, shell))
        assert scan_volume(r, M) == yielded


class TestEnumerate:
    def test_sqrt2_m_sequence(self, sqrt2_chain):
        assert [r.M for r in sqrt2_chain.records] == [1, 2, 5, 12, 29]
        assert [r.m for r in sqrt2_chain.records] == [
            (-1, 1), (3, -2), (-7, 5), (17, -12), (-41, 29)]

    def test_golden_fibonacci(self):
        form = LinearForm((parse_expr("(1+root(5,2))/2 - 1"),))
        chain = enumerate_chain(form, 25)
        assert [r.M for r in chain.records] == [1, 2, 3, 5, 8, 13, 21]

    def test_single_shell(self, sqrt2_form):
        chain = enumerate_chain(sqrt2_form, 1)
        assert len(chain.records) == 1
        assert chain.records[0].m == (-1, 1)

    def test_cbrt_pair_matches_oracle_small(self, cbrt_pair_form):
        chain = enumerate_chain(cbrt_pair_form, 10)
        oracle = brute_force_oracle(cbrt_pair_form, 10)
        assert [(r.m, r.M) for r in chain.records] == \
               [(r.m, r.M) for r in oracle.records]
        # frozen from an independent 200-bit scaled-integer scan
        assert [(r.m, r.M) for r in chain.records] == [
            ((3, -1, -1), 1), ((1, -2, 1), 2), ((1, 3, -3), 3),
            ((-7, -2, 6), 6), ((19, -5, -8), 8)]

    def test_zeta_certified_positive_and_decreasing(self, sqrt2_chain):
        for rec in sqrt2_chain.records:
            assert rec.zeta.lo.man > 0
        for a, b in zip(sqrt2_chain.records, sqrt2_chain.records[1:]):
            assert b.zeta.hi < a.zeta.lo

    def test_deterministic(self, sqrt2_form):
        c1 = enumerate_chain(sqrt2_form, 40)
        c2 = enumerate_chain(sqrt2_form, 40)
        assert [(r.m, r.M, r.zeta) for r in c1.records] == \
               [(r.m, r.M, r.zeta) for r in c2.records]
        assert c1.precision_used == c2.precision_used

    def test_equal_records_hash_alike(self, sqrt2_form):
        c1 = enumerate_chain(sqrt2_form, 40)
        c2 = enumerate_chain(LinearForm(sqrt2_form.alphas), 40)
        assert c1 is not c2 and c1 == c2
        assert len({c1, c2}) == len({c1.form, c2.form}) == 1
        assert len({*c1.records, *c2.records}) == len(c1.records)
        assert c1 != enumerate_chain(sqrt2_form, 12)

    def test_bad_bound(self, sqrt2_form):
        with pytest.raises(ValueError):
            enumerate_chain(sqrt2_form, 0)


class TestDependenceDetection:
    def test_hidden_rational_single(self):
        # exactly 1 behind a root node
        form = LinearForm((quotient(root(4), 2),))
        with pytest.raises(DependenceSuspected):
            enumerate_chain(form, 3, cap=2048)

    def test_hidden_rational_combination(self):
        # alpha2 = 1 - alpha1 forces |zeta| ties between distinct tails
        a = root(2) - 1
        b = rational(2) - root(2)
        form = LinearForm((a, b))
        with pytest.raises(DependenceSuspected) as info:
            enumerate_chain(form, 2, cap=2048)
        assert info.value.witness is not None

    def test_oracle_detects_dependence_too(self):
        with pytest.raises(DependenceSuspected):
            brute_force_oracle(LinearForm((quotient(root(9), 3),)), 3,
                               cap=2048)


class TestOracle:
    def test_sqrt2_small(self, sqrt2_form):
        oracle = brute_force_oracle(sqrt2_form, 5)
        assert [r.M for r in oracle.records] == [1, 2, 5]

    def test_matches_enumerate_r1(self, sqrt2_form):
        a = enumerate_chain(sqrt2_form, 50)
        b = brute_force_oracle(sqrt2_form, 50)
        assert [(r.m, r.M) for r in a.records] == [(r.m, r.M) for r in b.records]

    def test_independent_of_scan_kernel(self, monkeypatch):
        # the cross-check is worthless if the oracle runs the enumerator's
        # residual kernel, so it must work with that kernel unavailable,
        # both where the scan imports it and where it is defined
        def alphas():
            return (parse_expr("root(7,2)"), parse_expr("root(11,3)"))

        want = enumerate_chain(LinearForm(alphas()), 12)

        def unavailable(*args, **kwargs):
            raise AssertionError("scan kernel reached")

        for module in (enumerator, linform):
            monkeypatch.setattr(module, "scaled_residual", unavailable)
            monkeypatch.setattr(module, "scaled_constants", unavailable)
        with pytest.raises(AssertionError, match="scan kernel reached"):
            enumerate_chain(LinearForm(alphas()), 12)
        got = brute_force_oracle(LinearForm(alphas()), 12)
        assert [(r.index, r.m, r.M) for r in got.records] == \
            [(r.index, r.m, r.M) for r in want.records]
        assert len(got.records) >= 4


@pytest.fixture
def climbs(monkeypatch):
    """Counts the oracle's refinements by the rule that asked for them
    (an argmin comparison or a record's sign), records the highest rung
    reached, and checks that every climb goes up and only narrows."""
    counts = {"argmin": 0, "sign": 0, "top": 0}
    asking = ["sign"]
    real_refine = enumerator._Candidate.refine
    real_smaller = enumerator._smaller

    def refine(cand, form, cap):
        value, rung = cand.value, cand.rung
        climbed = real_refine(cand, form, cap)
        if climbed:
            assert cand.rung > rung
            assert value.lo <= cand.value.lo and cand.value.hi <= value.hi
            counts[asking[-1]] += 1
            counts["top"] = max(counts["top"], cand.rung)
        return climbed

    def smaller(*args):
        asking.append("argmin")
        try:
            return real_smaller(*args)
        finally:
            asking.pop()

    monkeypatch.setattr(enumerator._Candidate, "refine", refine)
    monkeypatch.setattr(enumerator, "_smaller", smaller)
    return counts


def coarse_best_m0(pad_exp):
    """``best_m0`` with its residual enclosure widened by 2**pad_exp on
    both sides: still an enclosure, but coarser than any rung gives."""
    pad = Dyadic(1, pad_exp)

    def coarse(tail, form, cap=PRECISION_CAP):
        m0, value, rung = best_m0(tail, form, cap)
        return m0, DyadicInterval(value.lo - pad, value.hi + pad), rung

    return coarse


def seed_coarse(monkeypatch, pad_exp):
    """Start every oracle candidate from its first enclosure widened by
    2**pad_exp on both sides, so decisions must climb.  Widens both ways
    a tail gets its first enclosure: the residual ``round_scaled`` gives
    at the tail's first rung, and ``best_m0``'s answer for a tail that
    rung cannot round."""

    def coarse_rounding(lo, hi, q):
        n, r_lo, r_hi = round_scaled(lo, hi, q)
        pad = 1 << (q + pad_exp)  # 2**pad_exp on the 2**-q scale
        return n, r_lo - pad, r_hi + pad

    monkeypatch.setattr(enumerator, "round_scaled", coarse_rounding)
    monkeypatch.setattr(enumerator, "best_m0", coarse_best_m0(pad_exp))


def record_rungs(monkeypatch):
    """The first rungs the oracle evaluates tails at: the rung of every
    endpoint table it takes for a first rounding, and the rung
    ``best_m0`` answers at for a tail that cannot round there; wraps
    whatever ``enumerator.endpoint_table`` and ``enumerator.best_m0``
    are bound to."""
    rungs = []
    table, inner = enumerator.endpoint_table, enumerator.best_m0

    def recorded_table(form, precision, cap=PRECISION_CAP):
        rungs.append(precision)
        return table(form, precision, cap)

    def recorded(tail, form, cap=PRECISION_CAP):
        got = inner(tail, form, cap)
        rungs.append(got[2])
        return got

    monkeypatch.setattr(enumerator, "endpoint_table", recorded_table)
    monkeypatch.setattr(enumerator, "best_m0", recorded)
    return rungs


def records(chain):
    return [(r.index, r.m, r.M) for r in chain.records]


class TestOracleRefinement:
    def test_argmin_climb(self, monkeypatch, climbs):
        form = LinearForm((parse_expr("root(7,2)"), parse_expr("root(11,3)")))
        want = records(enumerate_chain(form, 12))
        seed_coarse(monkeypatch, -3)
        assert records(brute_force_oracle(form, 12)) == want
        assert climbs["argmin"] > 0

    def test_sign_climb(self, monkeypatch, climbs):
        # shell 1 holds the only tail of r = 1, so the first record's sign
        # is decided before any comparison refines it
        form = LinearForm((parse_expr("(1+root(5,2))/2 - 1"),))
        want = records(enumerate_chain(form, 25))
        seed_coarse(monkeypatch, -1)
        assert records(brute_force_oracle(form, 25)) == want
        assert climbs["sign"] > 0

    @pytest.mark.parametrize("cap", [2048, PRECISION_CAP])
    def test_precision_used_is_the_top_rung(self, monkeypatch, climbs,
                                            sqrt2_form, cap):
        # the highest rung any candidate reached, not the cap
        rungs = record_rungs(monkeypatch)
        chain = brute_force_oracle(sqrt2_form, 50, cap=cap)
        assert chain.precision_used == max(rungs + [climbs["top"]])
        assert chain.precision_used <= working_limit(cap)
        assert chain.precision_cap == cap
        text = serialize_chain(chain)
        assert f"# precision-cap {cap}\n" in text
        assert f"# precision-used {chain.precision_used}\n" in text

    def test_precision_used_counts_climbs(self, monkeypatch, climbs):
        # a losing candidate's climb counts as much as a record's
        form = LinearForm((parse_expr("root(7,2)"), parse_expr("root(11,3)")))
        seed_coarse(monkeypatch, -3)
        rungs = record_rungs(monkeypatch)
        chain = brute_force_oracle(form, 12, cap=2048)
        assert climbs["top"] > max(rungs)
        assert chain.precision_used == climbs["top"]

    def test_tie_at_cap(self, climbs):
        # |1/3| and |2/3 - 1| tie exactly; 1/3 hides behind a root node
        form = LinearForm((quotient(root(9), 9),))
        with pytest.raises(DependenceSuspected, match="tie") as info:
            brute_force_oracle(form, 2, cap=2048)
        assert info.value.witness == ((1,), (2,))
        assert climbs["argmin"] > 0
        assert climbs["top"] == working_limit(2048)


def cf_convergents(alpha, count, cap=PRECISION_CAP):
    """The first ``count`` convergents p/q of alpha, in order."""
    return list(islice(enumerator._convergents(alpha, cap), count))


class TestContinuedFractions:
    def test_sqrt2(self):
        convs = cf_convergents(root(2), 5)
        assert convs == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]

    def test_golden(self):
        convs = cf_convergents(parse_expr("(1+root(5,2))/2"), 6)
        assert [q for _, q in convs] == [1, 1, 2, 3, 5, 8]
        assert [p for p, _ in convs] == [1, 2, 3, 5, 8, 13]

    def test_sqrt5(self):
        convs = cf_convergents(root(5), 4)
        assert [q for _, q in convs] == [1, 4, 17, 72]

    def test_rational_rejected(self):
        with pytest.raises(PrecisionExhausted):
            cf_convergents(quotient(root(4), 2), 3, cap=1024)

    def test_denominators_deduplicate(self):
        qs = convergent_denominators(parse_expr("(1+root(5,2))/2 - 1"), 25)
        assert qs == [1, 2, 3, 5, 8, 13, 21]

    def test_convergents_approximate(self):
        # |q*alpha - p| decreases along the sequence
        alpha = root(3)
        convs = cf_convergents(alpha, 8)
        from bachain.linform import zeta as _zeta
        form = LinearForm((alpha,))
        prev = None
        for p, q in convs:
            iv = interval_abs(_zeta((-p, q), form, 80))
            if prev is not None:
                assert iv.hi < prev.lo
            prev = iv


# --- oracle equivalence as a property ------------------------------------------

_ALPHA_POOL = [
    "root(2,2)", "root(3,2)", "root(5,2)", "root(6,2)", "root(7,2)",
    "root(2,3)", "root(4,3)", "(1+root(5,2))/2 - 1", "root(5,2)-2",
    "2*root(6,2)-4", "root(3,2)-1", "root(2,2)/2",
]


@given(st.integers(min_value=0, max_value=len(_ALPHA_POOL) - 1),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=25, deadline=None)
def test_oracle_equivalence_r1(idx, m_max):
    form = LinearForm((parse_expr(_ALPHA_POOL[idx]),))
    a = enumerate_chain(form, m_max)
    b = brute_force_oracle(form, m_max)
    assert [(r.m, r.M) for r in a.records] == [(r.m, r.M) for r in b.records]


@given(st.integers(min_value=0, max_value=len(_ALPHA_POOL) - 1),
       st.integers(min_value=0, max_value=len(_ALPHA_POOL) - 1),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=15, deadline=None)
def test_oracle_equivalence_r2(i, j, m_max):
    if _ALPHA_POOL[i] == _ALPHA_POOL[j]:
        return  # identical constants are trivially dependent
    try:
        form = LinearForm((parse_expr(_ALPHA_POOL[i]),
                           parse_expr(_ALPHA_POOL[j])))
        a = enumerate_chain(form, m_max, cap=4096)
        b = brute_force_oracle(form, m_max, cap=4096)
    except DependenceSuspected:
        return  # pool contains rationally dependent pairs (e.g. sqrt2, sqrt2/2)
    assert [(r.m, r.M) for r in a.records] == [(r.m, r.M) for r in b.records]


#: Roots with 1 rationally independent, any of them together; the scans'
#: shift-invariance test shifts them by integers.
_INDEPENDENT_ROOTS = ["root(2,2)", "root(3,2)", "root(5,2)", "root(7,2)",
                      "root(2,3)", "root(3,3)"]
_SHIFT_BOUNDS = {1: 300, 2: 25, 3: 8}


@given(st.lists(st.sampled_from(_INDEPENDENT_ROOTS), min_size=1, max_size=3,
                unique=True),
       st.lists(st.integers(min_value=-50, max_value=50), min_size=3,
                max_size=3))
@settings(max_examples=30, deadline=None)
def test_integer_shifts_move_only_m0(texts, shifts):
    # a_j + s_j takes m_0 - sum s_j * m_j and changes nothing else
    alphas = [parse_expr(t) for t in texts]
    shifted = LinearForm(tuple(a + s for a, s in zip(alphas, shifts)))
    form = LinearForm(tuple(alphas))
    m_max = _SHIFT_BOUNDS[form.r]

    def moved(m):
        return (m[0] - sum(s * c for s, c in zip(shifts, m[1:])),) + m[1:]

    want, got = enumerate_chain(form, m_max), enumerate_chain(shifted, m_max)
    assert [(r.index, moved(r.m), r.M, r.zeta) for r in want.records] == \
        [(r.index, r.m, r.M, r.zeta) for r in got.records]
    assert got.precision_used == want.precision_used
    want, got = (brute_force_oracle(f, m_max) for f in (form, shifted))
    assert [(r.index, r.m[1:], r.M) for r in want.records] == \
        [(r.index, r.m[1:], r.M) for r in got.records]


#: Square roots of these primes, any of them together, are independent
#: with 1; the symmetry test maps them by signed permutations and shifts.
_SYMMETRY_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]
_SYMMETRY_BOUNDS = {2: 25, 3: 8}


@st.composite
def signed_permutations(draw):
    """Distinct primes for a form of r = 2 or 3 square roots, a bound, and
    a map b_i = s_i * alpha_pi(i) + j_i: signs s, permutation pi, shifts j."""
    r = draw(st.sampled_from(sorted(_SYMMETRY_BOUNDS)))
    primes = draw(st.lists(st.sampled_from(_SYMMETRY_PRIMES), min_size=r,
                           max_size=r, unique=True))
    m_max = draw(st.integers(min_value=1, max_value=_SYMMETRY_BOUNDS[r]))
    perm = draw(st.permutations(range(r)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=r, max_size=r))
    shifts = draw(st.lists(st.integers(min_value=-3, max_value=3),
                           min_size=r, max_size=r))
    return primes, m_max, perm, signs, shifts


@given(signed_permutations())
@settings(max_examples=150, deadline=None)
def test_signed_permutations_map_every_record(case):
    # record (m_0, m) of alpha is record (m_0 - sum t_i j_i, t) of b, with
    # t_i = s_i * m_pi(i), at the same index and M
    primes, m_max, perm, signs, shifts = case
    form = LinearForm(tuple(root(p) for p in primes))
    mapped = LinearForm(tuple(
        parse_expr(f"{'-' if s < 0 else ''}root({primes[i]},2){j:+d}")
        for s, i, j in zip(signs, perm, shifts)))

    def image(m):
        t = tuple(s * m[1 + i] for s, i in zip(signs, perm))
        return (m[0] - sum(c * j for c, j in zip(t, shifts)),) + t

    want, got = enumerate_chain(form, m_max), enumerate_chain(mapped, m_max)
    assert [(r.index, image(r.m), r.M) for r in want.records] == \
        [(r.index, r.m, r.M) for r in got.records]


# --- the oracle against its per-tail reference ----------------------------


def oracle_outcome(oracle, form, m_max, cap):
    """The chain file an oracle's chain serialises to, or the error it
    raises with its witness."""
    try:
        return serialize_chain(oracle(form, m_max, cap))
    except BachainError as exc:
        return (type(exc), str(exc), getattr(exc, "witness", None))


_REFERENCE_BOUNDS = {1: 60, 2: 10, 3: 4}


@given(st.lists(st.integers(min_value=0, max_value=len(_ALPHA_POOL) - 1),
                min_size=1, max_size=3, unique=True),
       st.integers(min_value=1, max_value=60),
       st.sampled_from([2048, PRECISION_CAP]))
@settings(max_examples=40, deadline=None)
# in these two, a tail that loses at its first rung holds the top rung
@example([0, 1], 2, 2048)
@example([0, 1], 8, PRECISION_CAP)
def test_oracle_matches_reference_bytes(indices, m_max, cap):
    # the whole file: enclosures and precision-used, not only the vectors
    form = LinearForm(tuple(parse_expr(_ALPHA_POOL[i]) for i in indices))
    m_max = min(m_max, _REFERENCE_BOUNDS[form.r])
    assert oracle_outcome(brute_force_oracle, form, m_max, cap) == \
        oracle_outcome(reference_oracle, form, m_max, cap)


@pytest.mark.parametrize("texts,m_max,pad_exp", [
    (("root(7,2)", "root(11,3)"), 12, -3),
    (("(1+root(5,2))/2 - 1",), 25, -1),
])
def test_coarse_seeded_oracle_matches_reference(monkeypatch, texts, m_max,
                                                pad_exp):
    form = LinearForm(tuple(parse_expr(t) for t in texts))

    def coarse_reference(form, m_max, cap):
        return reference_oracle(form, m_max, cap,
                                first=coarse_best_m0(pad_exp))

    want = oracle_outcome(coarse_reference, form, m_max, 2048)
    seed_coarse(monkeypatch, pad_exp)
    assert oracle_outcome(brute_force_oracle, form, m_max, 2048) == want


@pytest.mark.parametrize("alphas,m_max", [
    ((root(2) - 1, rational(2) - root(2)), 2),
    ((root(2), quotient(root(2), 2)), 5),
    ((quotient(root(9), 9),), 2),
    ((quotient(root(9), 3),), 3),
])
def test_oracle_and_reference_witness_the_same_dependence(alphas, m_max):
    form = LinearForm(alphas)
    got = oracle_outcome(brute_force_oracle, form, m_max, 2048)
    assert got[0] is DependenceSuspected and got[2] is not None
    assert got == oracle_outcome(reference_oracle, form, m_max, 2048)


def pell(bits):
    """The first Pell convergent p/q of sqrt(2) with q >= 2**bits."""
    p, q = 1, 1
    while q < 1 << bits:
        p, q = p + 2 * q, p + q
    return p, q


def shifted_sqrt2(bits):
    """sqrt(2) - p/q for ``pell(bits)``: within about 2**-(2 * bits) of
    0, so its sign needs a rung that fine."""
    return root(2) - rational(*pell(bits))


def near_half(bits):
    """1/2 + ``shifted_sqrt2(bits)``: within about 2**-(2 * bits) of 1/2,
    so its nearest integer needs a rung that fine."""
    return rational(1, 2) + shifted_sqrt2(bits)


@pytest.mark.parametrize("alphas,m_max,cap", [
    ((near_half(200),), 6, PRECISION_CAP),
    ((near_half(200), root(3)), 6, PRECISION_CAP),
    ((near_half(200), root(2, 3), root(5)), 3, PRECISION_CAP),
    ((near_half(200), root(3)), 4, 256),
])
def test_tails_the_first_rung_cannot_decide_take_best_m0(monkeypatch, alphas,
                                                         m_max, cap):
    form = LinearForm(alphas)
    want = oracle_outcome(reference_oracle, form, m_max, cap)
    ladders = []
    inner = enumerator.best_m0

    def counted(tail, form, cap=PRECISION_CAP):
        ladders.append(tail)
        return inner(tail, form, cap)

    monkeypatch.setattr(enumerator, "best_m0", counted)
    assert oracle_outcome(brute_force_oracle, form, m_max, cap) == want
    assert ladders


def test_a_constant_without_a_first_rung_enclosure_fails_every_path():
    # the second constant has no enclosure at the first rung, so the
    # oracle's table raises there, as the scan's binding does
    form = LinearForm((root(3), root(2) * (1 << 2000)))
    want = oracle_outcome(reference_oracle, form, 2, 2048)
    assert want[0] is PrecisionExhausted
    assert oracle_outcome(brute_force_oracle, form, 2, 2048) == want
    # the same constant and cap; the scan's first rung, 64 +
    # bitlength(r * M_max), is one bit finer than the oracle's
    with pytest.raises(PrecisionExhausted) as info:
        enumerate_chain(form, 2, 2048)
    assert str(info.value) == want[1].replace("2^-66 ", "2^-67 ")


def test_drop_test_compares_across_first_rungs(monkeypatch):
    # sqrt(5)/8 and sqrt(7)/8 are 2**-67 wide at the 64-bit rung, so
    # tails with sum |m_j| < 8 take their first table on the 2**-67 grid
    # and longer ones on the 2**-131 grid: shells 4 to 7 span both
    form = LinearForm((parse_expr("root(5,2)/8"), parse_expr("root(7,2)/8")))
    assert endpoint_table(form, 67)[0] != endpoint_table(form, 68)[0]
    want = oracle_outcome(reference_oracle, form, 8, PRECISION_CAP)
    exponents = []
    inner = enumerator._below

    def counted(x, ex, y, ey):
        if sys._getframe(1).f_code.co_name == "brute_force_oracle":
            exponents.append((ex, ey))
        return inner(x, ex, y, ey)

    monkeypatch.setattr(enumerator, "_below", counted)
    assert oracle_outcome(brute_force_oracle, form, 8, PRECISION_CAP) == want
    # the drop test reaches _below, and only across exponents
    assert exponents
    assert all(ex != ey for ex, ey in exponents)


# --- the shell scan against its reference ---------------------------------


def scan_outcome(scan, form, m_max, cap):
    """The chain file ``enumerate_chain`` writes with ``scan`` as its
    shell scan, or the error it raises with its witness; and every
    rescan the scan asked for, as (rung, reason, witness)."""
    rescans = []

    def spy(form, M_max, w, cap):
        try:
            return scan(form, M_max, w, cap)
        except enumerator._Rescan as exc:
            rescans.append((w, exc.reason, exc.witness))
            raise

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumerator, "_shell_scan", spy)
        try:
            out = serialize_chain(enumerate_chain(form, m_max, cap))
        except BachainError as exc:
            out = (type(exc), str(exc), getattr(exc, "witness", None))
    return out, rescans


_SCAN_REFERENCE_BOUNDS = {1: 2000, 2: 40, 3: 10}


@given(st.lists(st.integers(min_value=0, max_value=len(_ALPHA_POOL) - 1),
                min_size=1, max_size=3, unique=True),
       st.integers(min_value=1, max_value=2000),
       st.sampled_from([2048, PRECISION_CAP]))
@settings(max_examples=40, deadline=None)
@example([7, 8], 3, 2048)  # a rational dependence: a tie at every rung
@example([0], 2000, PRECISION_CAP)
@example([1, 5], 40, 2048)
@example([2, 6, 9], 10, PRECISION_CAP)
# r = 2 at M_max = 1, where the screen's tables cover the one shell: an
# exact integer a1 - a2 in it, a dependence just beyond it, and neither
@example([1, 10], 1, 2048)
@example([0, 11], 1, PRECISION_CAP)
@example([2, 5], 1, PRECISION_CAP)
def test_scan_matches_reference_bytes(indices, m_max, cap):
    form = LinearForm(tuple(parse_expr(_ALPHA_POOL[i]) for i in indices))
    m_max = 1 + (m_max - 1) % _SCAN_REFERENCE_BOUNDS[form.r]
    assert scan_outcome(enumerator._shell_scan, form, m_max, cap) == \
        scan_outcome(reference_shell_scan, form, m_max, cap)


@pytest.mark.parametrize("alphas,m_max,cap,reason,want", [
    # 1/2 + sqrt(2) - p/q: shell 1 cannot round below 2 * 100 bits
    ((near_half(100),), 6, PRECISION_CAP, "rounding", 268),
    ((shifted_sqrt2(100),), 5, PRECISION_CAP, "sign", 268),
    # a2 = 2**-200 - 2 * a1: tails (1, 0) and (1, 1) of shell 1 have
    # |form values| 2**-200 apart
    ((quotient(root(2), 10),
      rational(1, 1 << 200) - quotient(root(2), 5)), 3, PRECISION_CAP,
     "tie", 268),
    # |1/3 + e| and |2/3 + 2e - 1| 3e apart: shell 2's best ties record 1
    ((rational(1, 3) + quotient(root(2), 1 << 200),), 2, PRECISION_CAP,
     "tie", 264),
    # 1 * a1 + 1 * a2 = 1 exactly: the sign never certifies
    ((root(2) - 1, rational(2) - root(2)), 2, 2048, "sign",
     (DependenceSuspected, "cannot separate candidates at cap (sign)",
      (1, 1))),
    # 5 * a1 + 3 * a2 = 2**-200: shell 4's second tail (1, 4) and its
    # later (4, -1) have residuals of sizes 2**-200 apart
    ((root(2), quotient(rational(1, 1 << 200) - root(2) * 5, 3)), 4,
     PRECISION_CAP, "tie", 272),
])
def test_rescan_reasons_fire_and_match_reference(alphas, m_max, cap, reason,
                                                 want):
    form = LinearForm(alphas)
    got, rescans = scan_outcome(enumerator._shell_scan, form, m_max, cap)
    assert (got, rescans) == \
        scan_outcome(reference_shell_scan, form, m_max, cap)
    assert rescans and {why for _, why, _ in rescans} == {reason}
    if isinstance(want, int):
        assert f"# precision-used {want}\n" in got
    else:
        assert got == want
