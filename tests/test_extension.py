import re
from collections import Counter
from fractions import Fraction
from math import ceil, floor, isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from bachain import extension as ext
from bachain.enumerator import (
    BAChain,
    BestApprox,
    canonical_shell_tails,
    enumerate_chain,
)
from bachain.errors import (
    ChainTooShort,
    DependenceSuspected,
    PrecisionExhausted,
    SearchTooLarge,
)
from bachain.linform import LinearForm, tail_norm, zeta
from bachain.realnum import (
    PRECISION_CAP,
    Dyadic,
    DyadicInterval,
    eval_interval,
    rational,
    root,
)
from bachain import parse_expr
from conftest import as_fraction, replace


def tree_sum(terms):
    """Balanced exact summation of Fractions."""
    if not terms:
        return Fraction(0)
    work = terms
    while len(work) > 1:
        nxt = [work[i] + work[i + 1] for i in range(0, len(work) - 1, 2)]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def lattice_sum_exact(M, k):
    """The exact sums of the class terms ``ext.lattice_inv_norm_sum``
    rounds: count/s for n = s**2, else count * 2**64 over the outward
    64-bit square root of n, as Fractions.  A test oracle for its integer
    rounding."""
    classes = Counter(sum(c * c for c in tail)
                      for shell in range(1, M + 1)
                      for tail in canonical_shell_tails(k, shell))
    lo_terms, hi_terms = [], []
    for n, points in classes.items():
        s = isqrt(n)
        if s * s == n:
            lo_terms.append(Fraction(points, s))
            hi_terms.append(lo_terms[-1])
        else:
            rt = isqrt(n << 2 * ext.LATTICE_BITS)
            lo_terms.append(Fraction(points << ext.LATTICE_BITS, rt + 1))
            hi_terms.append(Fraction(points << ext.LATTICE_BITS, rt))
    # canonical tails cover one of each +-pair
    return 2 * tree_sum(lo_terms), 2 * tree_sum(hi_terms)


def lattice_sum_reference(M, k):
    """The lattice sum one point at a time: each point's square root from
    ``DyadicInterval.nth_root`` and its reciprocal as its own Fraction
    term.  A test oracle for ``lattice_sum_exact``, which adds one term
    per squared norm instead."""
    lo_terms, hi_terms = [], []
    for shell in range(1, M + 1):
        for tail in canonical_shell_tails(k, shell):
            n = sum(c * c for c in tail)
            s = isqrt(n)
            if s * s == n:
                lo_terms.append(Fraction(1, s))
                hi_terms.append(Fraction(1, s))
            else:
                rt = DyadicInterval.point(n).nth_root(2, ext.LATTICE_BITS)
                lo_terms.append(1 / as_fraction(rt.hi))
                hi_terms.append(1 / as_fraction(rt.lo))
    # canonical tails cover one of each +-pair
    return 2 * tree_sum(lo_terms), 2 * tree_sum(hi_terms)


def lattice_rows_reference(M, k):
    """Row R -> the lattice sum to max-norm R on the output grid, for
    R = 1..M, a point at a time: each point adds its class term floored
    (ceiled) 128 bits below the grid, so the exact sum scaled there lies
    in [F, F + points) ([C - points, C]); a row whose bracket holds a grid
    point takes the exact sum of ``lattice_sum_exact``.  A test oracle for
    the rows that ``ext.lattice_inv_norm_sum`` reads off its one table."""
    drop = 128
    fine = ext.OMEGA_BITS + drop
    terms = {}  # squared norm -> floored and ceiled terms on the fine grid
    lo = hi = points = 0
    rows = {}
    for shell in range(1, M + 1):
        for tail in canonical_shell_tails(k, shell):
            n = sum(c * c for c in tail)
            if n not in terms:
                s = isqrt(n)
                if s * s == n:
                    num, den_lo, den_hi = 1 << fine, s, s
                else:
                    rt = isqrt(n << 2 * ext.LATTICE_BITS)
                    num = 1 << (fine + ext.LATTICE_BITS)
                    den_lo, den_hi = rt + 1, rt
                terms[n] = (num // den_lo, -(-num // den_hi))
            t_lo, t_hi = terms[n]
            lo += 2 * t_lo  # canonical tails cover one of each +-pair
            hi += 2 * t_hi
            points += 2
        down, up = lo >> drop, -(-hi >> drop)
        if lo + points <= (down + 1) << drop \
                and hi - points >= (up - 1) << drop:
            rows[shell] = DyadicInterval(Dyadic(down, -ext.OMEGA_BITS),
                                         Dyadic(up, -ext.OMEGA_BITS))
        else:
            rows[shell] = on_omega_grid(*lattice_sum_exact(shell, k))
    return rows


def on_omega_grid(lo, hi):
    """[lo, hi] rounded outward to the lattice sum's output grid, by the
    rule of ``DyadicInterval.from_fractions``."""
    return DyadicInterval.from_fractions(lo, hi, ext.LATTICE_BITS + 16)


def make_chain(form, rows, cap=PRECISION_CAP):
    records = []
    for i, (m, lo, hi) in enumerate(rows, start=1):
        iv = DyadicInterval.from_fractions(Fraction(lo), Fraction(hi), 120)
        records.append(BestApprox(index=i, m=tuple(m),
                                  M=tail_norm(m[1:]), zeta=iv))
    return BAChain(form=form, records=tuple(records),
                   search_bound=max(r.M for r in records), precision_used=64,
                   precision_cap=cap)


#: 1/3 plus a tiny irrational: its records to M = 20 are those of 1/3's
#: neighbours, (0, 1), (1, -2) and (-1, 3), and an extension by one more
#: constant keeps the last of them.
NEAR_THIRD = "1/3 + root(2,2)/1000000000000"


@pytest.fixture(scope="module")
def near_third_chain():
    return enumerate_chain(LinearForm((parse_expr(NEAR_THIRD),)), 20)


class TestPadChain:
    def test_single_zero(self, sqrt2_chain):
        padded = ext.pad_chain(sqrt2_chain, 1)
        assert padded[0] == (-1, 1, 0)
        assert [v[-1] for v in padded] == [0] * len(padded)

    def test_three_zeros(self, cbrt_pair_form):
        chain = enumerate_chain(cbrt_pair_form, 3)
        padded = ext.pad_chain(chain, 3)
        assert padded[0] == (3, -1, -1, 0, 0, 0)

    def test_empty_chain(self, sqrt2_form):
        empty = BAChain(form=sqrt2_form, records=(), search_bound=1,
                        precision_used=64, precision_cap=PRECISION_CAP)
        assert ext.pad_chain(empty, 2) == []

    def test_norm_preserved(self, sqrt2_chain):
        padded = ext.pad_chain(sqrt2_chain, 2)
        for rec, v in zip(sqrt2_chain.records, padded, strict=True):
            assert tail_norm(v[1:]) == rec.M

    def test_value_preserved_under_extension(self, sqrt2_form, sqrt2_chain):
        beta = ext.sample_betas(sqrt2_form, 1, seed=3)
        ext_form = LinearForm(tuple(sqrt2_form.alphas) + beta.values)
        padded = ext.pad_chain(sqrt2_chain, 1)
        for rec, v in zip(sqrt2_chain.records, padded, strict=True):
            via_ext = zeta(v, ext_form, 80)
            via_base = zeta(rec.m, sqrt2_form, 80)
            assert via_ext == via_base  # zero coefficients kill the extension

    def test_k_validation(self, sqrt2_chain):
        with pytest.raises(ValueError):
            ext.pad_chain(sqrt2_chain, 0)


class TestBetaSample:
    def test_range_and_determinism(self, sqrt2_form):
        b1 = ext.sample_betas(sqrt2_form, 2, seed=42)
        b2 = ext.sample_betas(sqrt2_form, 2, seed=42)
        assert [v._key() for v in b1.values] == [v._key() for v in b2.values]
        for v in b1.values:
            iv = eval_interval(v, 40)
            assert iv.lo.man > 0
            assert iv.hi < Dyadic(1)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, (1 << 30) - 1))
    def test_integer_floor_matches_mpmath(self, sqrt2_form, seed):
        beta = ext.sample_betas(sqrt2_form, 2, seed=seed)
        picked = re.findall(r"u=(\d+/\d+) p=(\d+)", beta.recipe)
        for value, (u_text, p_text) in zip(beta.values, picked,
                                           strict=True):
            u, p = Fraction(u_text), int(p_text)
            with mpmath.workdps(50):
                floor = int(mpmath.floor(
                    mpmath.mpf(u.numerator) / u.denominator * mpmath.sqrt(p)))
            assert value == rational(u) * root(p) - rational(floor)
            for w in (64, 256, 4096):
                iv = eval_interval(value, w)
                assert iv.lo.man > 0 and iv.hi < Dyadic(1)

    def test_distinct_seeds_differ(self, sqrt2_form):
        b1 = ext.sample_betas(sqrt2_form, 1, seed=1)
        b2 = ext.sample_betas(sqrt2_form, 1, seed=2)
        assert b1.values[0]._key() != b2.values[0]._key()

    def test_avoids_form_radicands(self):
        form = LinearForm((root(8),))  # sqrt(8) = 2*sqrt(2)
        beta = ext.sample_betas(form, 3, seed=5)
        used = set()
        for v in beta.values:
            used |= v.square_root_radicands()
        assert 2 not in used
        assert len(used) == 3

    def test_recipe_recorded(self, sqrt2_form):
        beta = ext.sample_betas(sqrt2_form, 1, seed=9)
        assert "frac(u*sqrt(p))" in beta.recipe
        assert beta.seed == 9


class TestMixedTails:
    @pytest.mark.parametrize("r,k,bound", [(1, 1, 2), (1, 2, 2), (2, 1, 3)])
    def test_volume_formula(self, r, k, bound):
        tails = list(ext._mixed_tails(r, k, bound))
        assert len(tails) == ext.mixed_scan_volume(r, k, bound)
        assert len(set(tails)) == len(tails)
        for t in tails:
            assert any(t[r:])  # extension part nonzero
            assert max(abs(c) for c in t) <= bound
            first = next(c for c in t if c)
            assert first > 0


class TestDegeneracyCriterion:
    def test_pass_when_base_residual_tiny(self, sqrt2_form):
        # synthetic: stored form values far below anything a small scan
        # can produce, so every mixed vector clears the bar
        rows = [((-1, 1), Fraction(1, 10 ** 7), Fraction(1, 10 ** 7)),
                ((3, -2), Fraction(1, 10 ** 8), Fraction(1, 10 ** 8))]
        chain = make_chain(sqrt2_form, rows)
        beta = ext.BetaSample(values=(parse_expr("root(3,2)-1"),), seed=None,
                              recipe="explicit")
        verdict = ext.degeneracy_criterion(chain, beta, 1)
        assert verdict.passed

    def test_adversarial_beta_fails_with_witness(self, sqrt2_form):
        chain = enumerate_chain(sqrt2_form, 30)
        # beta = frac(5*sqrt(2)): the vector with extension coordinate 1
        # reproduces a base residual far below zeta_1
        beta = ext.BetaSample(values=(parse_expr("5*root(2,2)-7"),),
                              seed=None, recipe="adversarial")
        verdict = ext.degeneracy_criterion(chain, beta, 1)
        assert not verdict.passed
        assert verdict.witness is not None
        assert abs(verdict.witness[-1]) == 1

    def test_needs_successor(self, sqrt2_chain):
        with pytest.raises(ChainTooShort):
            ext.degeneracy_criterion(
                sqrt2_chain,
                ext.BetaSample(values=(root(3) - 1,), seed=None, recipe="x"),
                len(sqrt2_chain.records))

    def test_budget_guard(self, r1_chains_10k):
        chain = r1_chains_10k["sqrt2"]
        beta = ext.BetaSample(values=(root(3) - 1,), seed=None, recipe="x")
        with pytest.raises(SearchTooLarge):
            ext.degeneracy_criterion(chain, beta, len(chain.records) - 1,
                                     budget=1000)

    def test_wide_zeta_exhausts_precision(self, sqrt2_form):
        rows = [((-1, 1), "0.3", "0.5"), ((3, -2), "0.1", "0.2")]
        chain = make_chain(sqrt2_form, rows, cap=4096)
        # ||beta|| = sqrt(2)/4 ~ 0.3536 sits inside the stored enclosure
        beta = ext.BetaSample(values=(parse_expr("root(2,2)/4"),),
                              seed=None, recipe="x")
        with pytest.raises(PrecisionExhausted):
            ext.degeneracy_criterion(chain, beta, 1)

    def test_half_integer_value_suspects_dependence(self, sqrt2_chain):
        # beta = root(4,2)/4 is exactly 1/2: the vector (0, 1) rounds
        # ambiguously on every rung, as in the shell scan, and is never
        # compared with zeta
        beta = ext.BetaSample(values=(parse_expr("root(4,2)/4"),),
                              seed=None, recipe="x")
        with pytest.raises(DependenceSuspected) as info:
            ext.degeneracy_criterion(
                replace(sqrt2_chain, precision_cap=1024), beta, 1)
        assert info.value.witness == (0, 1)


#: The omega rows of the extend-mc benchmark: the successor norms of its
#: golden-ratio-minus-1 base chain.
EXTEND_MC_ROWS = (2, 3, 5, 8, 13, 21, 34, 55, 89)


class TestLatticeSum:
    @pytest.mark.parametrize("M", [1, 2, 10, 100])
    def test_k1_harmonic_closed_form(self, M):
        iv = ext.lattice_inv_norm_sum(M, 1)[M]
        harmonic = sum(Fraction(1, m) for m in range(1, M + 1))
        assert iv == on_omega_grid(2 * harmonic, 2 * harmonic)

    def test_k2_against_oracle(self):
        with mpmath.workprec(200):
            oracle = mpmath.mpf(0)
            for a in range(-3, 4):
                for b in range(-3, 4):
                    if a or b:
                        oracle += 1 / mpmath.sqrt(a * a + b * b)
        sign, man, exp, _ = oracle._mpf_
        oracle_f = Fraction(man) * Fraction(2) ** exp
        iv = ext.lattice_inv_norm_sum(3, 2)[3]
        lo, hi = as_fraction(iv.lo), as_fraction(iv.hi)
        slack = Fraction(1, 2 ** 150)  # oracle's own rounding
        assert lo - slack <= oracle_f <= hi + slack
        assert hi - lo < Fraction(1, 10 ** 9)

    def test_budget(self):
        with pytest.raises(SearchTooLarge):
            ext.lattice_inv_norm_sum(10 ** 4, 2, budget=10 ** 6)

    @pytest.mark.parametrize("M,k", [(1, 1), (7, 1), (3, 2), (10, 2), (2, 3)])
    def test_budget_counts_visits(self, M, k):
        # the sum visits one canonical tail per +-pair of nonzero points
        visits = ((2 * M + 1) ** k - 1) // 2
        assert ext.lattice_inv_norm_sum(M, k, budget=visits) == \
            ext.lattice_inv_norm_sum(M, k)
        with pytest.raises(SearchTooLarge, match=f"needs {visits} evaluations "
                                                 f"> budget {visits - 1}$"):
            ext.lattice_inv_norm_sum(M, k, budget=visits - 1)

    @pytest.mark.parametrize("visits,count", [
        ((1 << 256) - 1, str((1 << 256) - 1)),
        (1 << 256, "at least 2**256"),
        ((1 << 20000) + 1, "at least 2**20000"),
    ], ids=["below", "at", "past-printable"])
    def test_budget_message_prints_a_bounded_count(self, visits, count):
        with pytest.raises(SearchTooLarge) as info:
            SearchTooLarge.check(visits, 10, "lattice sum")
        assert str(info.value) == \
            f"lattice sum needs {count} evaluations > budget 10"

    @pytest.mark.parametrize("M,k", [
        (1, 1), (2, 1), (10, 1),
        (1, 2), (2, 2), (3, 2), (13, 2), (34, 2),
        (1, 3), (4, 3), (7, 3),
        (1, 4), (3, 4),
    ])
    def test_equals_per_point_reference(self, M, k):
        reference = lattice_sum_reference(M, k)
        assert lattice_sum_exact(M, k) == reference
        assert ext.lattice_inv_norm_sum(M, k)[M] == on_omega_grid(*reference)

    def test_k3_against_oracle(self):
        with mpmath.workdps(50):
            oracle = mpmath.mpf(0)
            for a in range(-4, 5):
                for b in range(-4, 5):
                    for c in range(-4, 5):
                        if a or b or c:
                            oracle += 1 / mpmath.sqrt(a * a + b * b + c * c)
            sign, man, exp, _ = oracle._mpf_
        oracle_f = Fraction(man) * Fraction(2) ** exp
        iv = ext.lattice_inv_norm_sum(4, 3)[4]
        lo, hi = as_fraction(iv.lo), as_fraction(iv.hi)
        slack = Fraction(1, 10 ** 45)  # oracle's own rounding
        assert lo < hi
        assert lo - slack <= oracle_f <= hi + slack

    @pytest.mark.parametrize("M,k", [(10, 1), (13, 2), (4, 3), (3, 4)])
    def test_every_row_equals_the_per_point_reference(self, M, k):
        rows = {R: on_omega_grid(*lattice_sum_reference(R, k))
                for R in range(1, M + 1)}
        assert ext.lattice_inv_norm_sum(M, k, range(1, M)) == rows
        # the faster reference that the larger tables below are held to
        assert lattice_rows_reference(M, k) == rows

    @pytest.mark.parametrize("M,k", [(299, 1), (89, 2), (21, 3), (5, 4)])
    def test_every_row_equals_the_fast_reference(self, M, k):
        # rows 1..M of one table: k = 1 to 299, k = 2 to 89, k = 3 to 21
        # and k = 4 to 5 are the 414 rows the per-row sums were checked on
        assert ext.lattice_inv_norm_sum(M, k, range(1, M)) == \
            lattice_rows_reference(M, k)

    @pytest.mark.parametrize("M,k", [(300, 2), (10 ** 5, 1)])
    def test_large_row_equals_the_fast_reference(self, M, k):
        assert ext.lattice_inv_norm_sum(M, k) == \
            {M: lattice_rows_reference(M, k)[M]}

    @pytest.mark.parametrize("rows", [(0,), (4,), (1, 2, 5)])
    def test_rows_beyond_the_table_refused(self, rows):
        with pytest.raises(ValueError, match="rows must lie in 1..3"):
            ext.lattice_inv_norm_sum(3, 2, rows)

    @pytest.mark.parametrize("M,k", [(5, 2), (3, 3)])
    def test_draws_one_tail_per_point_pair(self, monkeypatch, M, k):
        # the traced benchmark gate counts (2M+1)^k - 1 points per call
        drawn = []
        tails = ext.canonical_shell_tails

        def counting(*args):
            for tail in tails(*args):
                drawn.append(tail)
                yield tail

        monkeypatch.setattr(ext, "canonical_shell_tails", counting)
        ext.lattice_inv_norm_sum(M, k)
        assert len(drawn) == ((2 * M + 1) ** k - 1) // 2
        assert len(set(drawn)) == len(drawn)

    @pytest.mark.parametrize("M,total", [(1, 2), (2, 3)])
    def test_sum_on_the_grid_takes_the_exact_path(self, monkeypatch, M,
                                                  total):
        # 2*H_1 = 2 and 2*H_2 = 3 lie on the output grid: the floored terms
        # bracket the upper end across a grid point, and only the exact
        # sum can show that it is not above
        exact = []
        real = ext.dyadic_from_ratio

        def counting(num, den, p, round_up):
            exact.append((Fraction(num, den), round_up))
            return real(num, den, p, round_up)

        monkeypatch.setattr(ext, "dyadic_from_ratio", counting)
        assert ext.lattice_inv_norm_sum(M, 1) == \
            {M: DyadicInterval.point(total)}
        assert exact == [(total, True)]

    @pytest.mark.parametrize("M", EXTEND_MC_ROWS)
    def test_extend_mc_rows_match_the_exact_sum(self, M):
        # the rows the extend-mc benchmark reads off its one table, to the
        # hex digits
        iv = ext.lattice_inv_norm_sum(89, 2, EXTEND_MC_ROWS)[M]
        ref = on_omega_grid(*lattice_sum_exact(M, 2))
        assert (iv.lo.to_hex(), iv.hi.to_hex()) == \
            (ref.lo.to_hex(), ref.hi.to_hex())


ratio_terms = st.lists(st.tuples(st.integers(0, 1 << 200),
                                 st.integers(1, 1 << 100)),
                       min_size=1, max_size=12)


@given(terms=ratio_terms, p=st.integers(0, 100), on_grid=st.booleans())
@settings(max_examples=300, deadline=None)
def test_round_sum_is_the_fraction_floor_and_ceiling(terms, p, on_grid):
    exact = sum(Fraction(num, den) for num, den in terms)
    if on_grid:  # one more term moves the sum onto the grid
        gap = Fraction(ceil(exact * (1 << p)), 1 << p) - exact
        terms = terms + [(gap.numerator, gap.denominator)]
        exact += gap
    down = ext._round_sum(terms, p, round_up=False)
    up = ext._round_sum(terms, p, round_up=True)
    floor_d = Dyadic(floor(exact * (1 << p)), -p)
    ceil_d = Dyadic(ceil(exact * (1 << p)), -p)
    den = exact.denominator
    if den & (den - 1) == 0 and den > 1 << p:
        # a dyadic finer than the grid: rounded, or kept by the exact path
        kept = Dyadic(exact.numerator, 1 - den.bit_length())
        assert down in (floor_d, kept) and up in (ceil_d, kept)
    else:
        assert (down, up) == (floor_d, ceil_d)


class TestOmegaBound:
    def test_worked_example(self):
        z = DyadicInterval.from_fractions(Fraction(1, 100), Fraction(1, 100),
                                          90)
        iv = ext.omega_bound(z, 1, 1, 1, ext.lattice_inv_norm_sum(1, 1)[1])
        # 2*(1+1+1) * 1 * (1/100) * 3**2 * 2*H_1 = 27/25
        assert as_fraction(iv.lo) <= Fraction(27, 25) <= as_fraction(iv.hi)
        assert as_fraction(iv.hi - iv.lo) < Fraction(1, 10 ** 12)

    def test_monotone_in_bound(self, sqrt2_chain):
        z = sqrt2_chain.records[0].zeta
        sums = ext.lattice_inv_norm_sum(9, 1, (1, 2, 5))
        prev = None
        for m in (1, 2, 5, 9):
            iv = ext.omega_bound(z, m, 1, 1, sums[m])
            if prev is not None:
                assert iv.lo > prev.hi
            prev = iv

    def test_k2_even_power_exact(self):
        z = DyadicInterval.point(Dyadic(1, -4))
        iv = ext.omega_bound(z, 1, 1, 2, ext.lattice_inv_norm_sum(1, 2)[1])
        # k**(k/2) = 2 exactly; lattice sum has irrational terms
        assert iv.lo.man > 0

    def test_input_validation(self):
        z = DyadicInterval.from_fractions(Fraction(-1), Fraction(1), 10)
        with pytest.raises(ValueError):
            ext.omega_bound(z, 1, 1, 1, ext.lattice_inv_norm_sum(1, 1)[1])


class TestCompareExtended:
    def test_explicit_beta_cross_checked(self, sqrt2_form):
        beta = ext.BetaSample(values=(parse_expr("(1+root(5,2))/2 - 1"),),
                              seed=None, recipe="explicit")
        chain = enumerate_chain(sqrt2_form, 30)
        rep = ext.compare_extended(chain, beta, 30)
        # independent scan of the pair confirms every alignment field
        from bachain.enumerator import brute_force_oracle
        pair = LinearForm(tuple(sqrt2_form.alphas) + beta.values)
        oracle = brute_force_oracle(pair, 30)
        assert [(r.m, r.M) for r in rep.extended_chain.records] == \
               [(r.m, r.M) for r in oracle.records]
        padded = ext.pad_chain(rep.base_chain, 1)
        oracle_set = {r.m for r in oracle.records}
        assert set(rep.extras) == oracle_set - set(padded)
        assert set(rep.missing) == {
            rec.index for rec, v in zip(rep.base_chain.records, padded)
            if v not in oracle_set}

    def test_criterion_pass_implies_membership(self):
        # base with both passing and failing indices across seeds
        form = LinearForm((parse_expr("2*root(6,2)-4"),))
        chain = enumerate_chain(form, 99)
        for seed in range(4):
            beta = ext.sample_betas(form, 1, seed=seed)
            rep = ext.compare_extended(chain, beta, 99)
            ext_set = {r.m for r in rep.extended_chain.records}
            for nu, verdict in rep.criterion_verdicts.items():
                if verdict.passed:
                    assert chain.records[nu - 1].m + (0,) in ext_set
                    assert chain.records[nu].m + (0,) in ext_set

    def test_all_pass_prefix_forces_exact_match(self, sqrt2_form):
        # tiny synthetic base residuals: criterion passes everywhere, and
        # then the padded vectors must be exactly the pair's records
        rows = [((-1, 1), Fraction(1, 10 ** 7), Fraction(1, 10 ** 7))]
        chain = make_chain(sqrt2_form, rows)
        beta = ext.BetaSample(values=(parse_expr("root(3,2)-1"),),
                              seed=None, recipe="x")
        verdict = ext.degeneracy_criterion(chain, beta, 1) \
            if len(chain.records) > 1 else None
        assert verdict is None  # single record: nothing scannable

    def test_match_horizon_none_when_everything_differs(self, sqrt2_form):
        beta = ext.BetaSample(values=(parse_expr("root(3,2)-1"),),
                              seed=None, recipe="x")
        chain = enumerate_chain(sqrt2_form, 30)
        rep = ext.compare_extended(chain, beta, 30)
        assert rep.missing  # sqrt2 base records do not survive
        assert rep.nu_match is None

    def test_match_horizon_found(self, near_third_chain):
        # the base's first two records do not survive the extension, and
        # its third, at norm 3, is beyond both extra records' norm 1
        beta = ext.BetaSample(values=(parse_expr("root(3,2)-1"),),
                              seed=None, recipe="x")
        rep = ext.compare_extended(near_third_chain, beta, 20)
        assert rep.missing == [1, 2]
        assert rep.extras == [(-1, 1, 1), (0, -2, 1)]
        assert rep.nu_match == 3

    def test_extends_the_chain_form(self, sqrt2_form):
        # the form comes from the chain; a short chain is re-enumerated
        beta = ext.BetaSample(values=(parse_expr("root(3,2)-1"),),
                              seed=None, recipe="x")
        short = enumerate_chain(sqrt2_form, 5)
        rep = ext.compare_extended(short, beta, 20)
        assert rep.extended_chain.form.alphas == \
            tuple(sqrt2_form.alphas) + beta.values
        assert rep.base_chain.search_bound == 20
        full = ext.compare_extended(enumerate_chain(sqrt2_form, 20), beta, 20)
        assert rep.to_dict() == full.to_dict()

    def test_budget_guard(self, sqrt2_chain):
        beta = ext.BetaSample(values=(root(3) - 1,), seed=None, recipe="x")
        with pytest.raises(SearchTooLarge):
            ext.compare_extended(sqrt2_chain, beta, 10 ** 5, budget=10 ** 4)


class TestMonteCarlo:
    def test_deterministic(self, sqrt2_form):
        chain = enumerate_chain(sqrt2_form, 30)
        a = ext.monte_carlo(chain, k=1, samples=3, seed=11,
                            M_max=30)
        b = ext.monte_carlo(chain, k=1, samples=3, seed=11,
                            M_max=30)
        assert a.to_dict() == b.to_dict()

    def test_sample_count_validation(self, sqrt2_form, sqrt2_chain):
        with pytest.raises(ValueError):
            ext.monte_carlo(sqrt2_chain, k=1, samples=0, seed=1,
                            M_max=10)

    def test_aggregate_counts_consistent(self, sqrt2_form):
        chain = enumerate_chain(sqrt2_form, 30)
        res = ext.monte_carlo(chain, k=1, samples=4, seed=2,
                              M_max=30)
        assert len(res.horizons) == 4
        for nu, count in res.matched_beyond.items():
            expected = sum(1 for h in res.horizons
                           if h is not None and h <= nu)
            assert count == expected

    def test_match_counts_respect_measure_bounds(self, sqrt2_form):
        # empirical mismatch frequency can never undercut what the bound
        # table permits; all bundled constants sit in the bounds > 1
        # regime, where the inequality is vacuously wide
        chain = enumerate_chain(sqrt2_form, 30)
        res = ext.monte_carlo(chain, k=1, samples=4, seed=6,
                              M_max=30)
        for nu, iv in res.omega_table.items():
            allowed = max(Fraction(0), 1 - as_fraction(iv.hi))
            fraction = Fraction(res.matched_beyond[nu], res.samples)
            assert fraction >= allowed

    def test_horizons_found(self, near_third_chain):
        res = ext.monte_carlo(near_third_chain, k=1, samples=5, seed=2,
                              M_max=20)
        assert res.horizons == [3] * 5
        assert res.matched_beyond == {1: 0, 2: 0, 3: 5}

    @pytest.mark.parametrize("samples", [1, 3])
    def test_beta_independent_work_runs_once(self, sqrt2_form, monkeypatch,
                                             samples):
        chain = enumerate_chain(sqrt2_form, 20)
        calls = []  # (M, k, canonical tails drawn) per lattice call
        lattice, tails = ext.lattice_inv_norm_sum, ext.canonical_shell_tails

        def counting(*args, **kwargs):
            calls.append([*args[:2], 0])
            return lattice(*args, **kwargs)

        def counting_tails(*args):
            for tail in tails(*args):
                calls[-1][2] += 1
                yield tail

        def forbidden(*args, **kwargs):
            raise AssertionError("monte_carlo must not run criterion scans")

        monkeypatch.setattr(ext, "lattice_inv_norm_sum", counting)
        monkeypatch.setattr(ext, "canonical_shell_tails", counting_tails)
        monkeypatch.setattr(ext, "compare_extended", forbidden)
        monkeypatch.setattr(ext, "degeneracy_criterion", forbidden)
        res = ext.monte_carlo(chain, k=2, samples=samples,
                              seed=3, M_max=8)
        assert len(res.horizons) == samples
        # one lattice table per run, at the largest row, whatever the
        # sample count; like the traced benchmark gate, it visits exactly
        # ((2M+1)^k - 1)/2 canonical tails
        assert len(chain.records) > 2
        M = chain.records[-1].M
        assert calls == [[M, 2, ((2 * M + 1) ** 2 - 1) // 2]]

    def test_one_record_chain_builds_no_table(self, sqrt2_form,
                                              monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a chain with one record has no omega row")

        monkeypatch.setattr(ext, "lattice_inv_norm_sum", forbidden)
        chain = enumerate_chain(sqrt2_form, 1)
        assert len(chain.records) == 1
        res = ext.monte_carlo(chain, k=2, samples=1, seed=3, M_max=1)
        assert res.omega_table == {}
        assert res.regime_note.startswith("0 of 0 per-index measure bounds")

    def test_omega_table_matches_compare_extended(self, sqrt2_form):
        chain = enumerate_chain(sqrt2_form, 20)
        res = ext.monte_carlo(chain, k=1, samples=3, seed=8,
                              M_max=20)
        for s, horizon in zip(res.sample_seeds, res.horizons):
            beta = ext.sample_betas(sqrt2_form, 1, s)
            rep = ext.compare_extended(chain, beta, 20)
            assert rep.omega_table == res.omega_table
            assert rep.regime_note == res.regime_note
            assert rep.nu_match == horizon

    def test_short_chain_enumerates_the_base(self, sqrt2_form):
        # a chain that stops short of M_max is re-enumerated from its form
        chain = enumerate_chain(sqrt2_form, 20)
        short = enumerate_chain(sqrt2_form, 5)
        given = ext.monte_carlo(chain, k=1, samples=2, seed=4, M_max=20)
        fresh = ext.monte_carlo(short, k=1, samples=2, seed=4, M_max=20)
        assert fresh.to_dict() == given.to_dict()

    def test_matched_beyond_spans_resolved_base(self):
        # M_max beyond the given chain's bound re-enumerates the base chain;
        # every per-index field must describe that chain, not the short one
        form = LinearForm((parse_expr("(root(5,2)-1)/2"),))
        short = enumerate_chain(form, 10)
        base = enumerate_chain(form, 60)
        assert len(base.records) > len(short.records)
        res = ext.monte_carlo(short, k=1, samples=1, seed=3, M_max=60)
        assert sorted(res.matched_beyond) == list(
            range(1, len(base.records) + 1))
        assert sorted(res.omega_table) == list(range(1, len(base.records)))
