from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from bachain import analysis as an
from bachain.enumerator import BAChain, BestApprox
from bachain.errors import ChainTooShort, DomainError
from bachain.linform import LinearForm, tail_norm
from bachain.realnum import PRECISION_CAP, Dyadic, DyadicInterval, root
from conftest import PSI_Y_MIN, as_fraction, reference_psi_value


def det_cofactor(rows):
    """Exact determinant by first-row cofactor expansion: the slow,
    independent reference for det_bareiss."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, coeff in enumerate(rows[0]):
        if coeff:
            minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            total += (-1) ** j * coeff * det_cofactor(minor)
    return total


def rank_fraction(rows):
    """Rank by Gaussian elimination over Fraction: the independent
    reference for rank_rational."""
    work = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][col] / work[rank][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


@st.composite
def low_rank_matrices(draw, rows=st.integers(0, 7), cols=st.integers(1, 5)):
    """Integer products A*B with n rows, c columns and an inner dimension
    drawn from 0..c, so that many are rank-deficient; n = 0 gives the
    matrix with no rows."""
    n = draw(rows)
    c = draw(cols)
    inner = draw(st.integers(0, c))
    entry = st.integers(min_value=-5, max_value=5)
    a = [[draw(entry) for _ in range(inner)] for _ in range(n)]
    b = [[draw(entry) for _ in range(c)] for _ in range(inner)]
    return [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(c)]
            for i in range(n)]


def make_chain(form, rows, search_bound=None):
    """Synthetic chain: rows of (vector, zeta_lo, zeta_hi) fractions."""
    records = []
    for i, (m, lo, hi) in enumerate(rows, start=1):
        zeta = DyadicInterval.from_fractions(Fraction(lo), Fraction(hi), 120)
        records.append(BestApprox(index=i, m=tuple(m),
                                  M=tail_norm(m[1:]), zeta=zeta))
    bound = search_bound or max(r.M for r in records)
    return BAChain(form=form, records=tuple(records), search_bound=bound,
                   precision_used=64, precision_cap=PRECISION_CAP)


@pytest.fixture(scope="module")
def r1_form():
    return LinearForm((root(2),))


@pytest.fixture(scope="module")
def r2_form():
    return LinearForm((root(2), root(3)))


class TestMonotonic:
    def test_pass(self, sqrt2_chain):
        assert an.check_monotonic(sqrt2_chain).passed

    def test_reordered_fails_with_index(self, r1_form, sqrt2_chain):
        recs = list(sqrt2_chain.records)
        rows = [(recs[0].m, "0.41", "0.42"), (recs[2].m, "0.07", "0.072"),
                (recs[1].m, "0.17", "0.172")]
        chain = make_chain(r1_form, rows)
        verdict = an.check_monotonic(chain)
        assert not verdict.passed
        assert verdict.witness_index == 3

    def test_value_not_smaller_fails_with_index(self, r1_form):
        # norms rise, but the second enclosure overlaps the first
        rows = [((-1, 1), "0.41", "0.42"), ((3, -2), "0.415", "0.43")]
        verdict = an.check_monotonic(make_chain(r1_form, rows))
        assert not verdict.passed
        assert verdict.witness_index == 2
        assert verdict.detail == "form value not certifiably smaller"

    def test_single_record_vacuous(self, r1_form):
        chain = make_chain(r1_form, [((-1, 1), "0.41", "0.42")])
        assert an.check_monotonic(chain).passed

    def test_empty_raises(self, r1_form):
        with pytest.raises(ChainTooShort):
            an.check_monotonic(BAChain(form=r1_form, records=(),
                                       search_bound=1, precision_used=64,
                                       precision_cap=PRECISION_CAP))


class TestMinkowski:
    def test_pass_on_enumerated(self, sqrt2_chain):
        verdict = an.check_minkowski(sqrt2_chain)
        assert verdict.passed
        assert verdict.margin.hi.cmp_int(1) <= 0

    def test_synthetic_violation(self, r1_form):
        rows = [((0, 1), "1", "1"), ((0, 2), "1/4", "1/4")]
        chain = make_chain(r1_form, rows)
        verdict = an.check_minkowski(chain)
        assert not verdict.passed
        assert verdict.witness_index == 1

    def test_needs_two_records(self, r1_form):
        with pytest.raises(ChainTooShort):
            an.check_minkowski(make_chain(r1_form, [((-1, 1), "0.4", "0.42")]))


class TestGrowth:
    def test_offsets(self):
        assert an.growth_offset(1) == 4
        assert an.growth_offset(2) == 24
        assert an.growth_offset(3) == 112

    def test_pass_on_sqrt2(self, sqrt2_chain):
        verdict = an.check_growth(sqrt2_chain)
        assert verdict.passed

    def test_short_chain_raises(self, r1_form):
        rows = [((-1, 1), "0.41", "0.42"), ((3, -2), "0.17", "0.172")]
        with pytest.raises(ChainTooShort):
            an.check_growth(make_chain(r1_form, rows))

    def test_synthetic_violation(self, r1_form):
        # M_5 = 14 < 2 * M_1 = 20: impossible for a real chain
        ms = [10, 11, 12, 13, 14, 15]
        rows = [((0, m), Fraction(1, 10 * (i + 1)), Fraction(1, 10 * (i + 1)))
                for i, m in enumerate(ms)]
        chain = make_chain(r1_form, rows)
        verdict = an.check_growth(chain)
        assert not verdict.passed
        assert verdict.witness_index == 1


class TestDeterminants:
    def test_identity_stub(self):
        assert an.det_bareiss([(1, 0), (0, 1)]) == 1
        assert det_cofactor([(1, 0), (0, 1)]) == 1

    def test_r1_alternation(self, r1_chains_10k):
        for chain in r1_chains_10k.values():
            dets = list(an.window_determinants(chain).values())
            assert len(dets) == len(chain.records) - 1
            assert all(abs(d) == 1 for d in dets)
            assert all(a == -b for a, b in zip(dets, dets[1:]))

    def test_r2_against_cofactor(self, cbrt_pair_chain_200):
        chain = cbrt_pair_chain_200
        dets = an.window_determinants(chain)
        assert list(dets) == list(range(1, len(chain.records) - 1))
        for nu, det in dets.items():
            rows = [rec.m for rec in chain.records[nu - 1:nu + 2]]
            assert det == det_cofactor(rows)

    def test_window_out_of_range(self, sqrt2_chain, r2_form):
        # windows stop at the last full one; a short chain has none
        assert max(an.window_determinants(sqrt2_chain)) == \
            len(sqrt2_chain.records) - 1
        rows = [((1, 2, 0), "1/8", "1/8"), ((1, 3, 1), "1/16", "1/16")]
        assert an.window_determinants(make_chain(r2_form, rows)) == {}

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.one_of(
            st.lists(st.lists(st.integers(min_value=-30, max_value=30),
                              min_size=n, max_size=n),
                     min_size=n, max_size=n),
            low_rank_matrices(st.just(n), st.just(n)))))
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
    @example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    @settings(max_examples=200)
    def test_bareiss_equals_cofactor(self, rows):
        assert an.det_bareiss(rows) == det_cofactor(rows)


class TestTailRank:
    def test_r1_full(self, sqrt2_chain):
        for nu0 in range(1, len(sqrt2_chain.records)):
            assert an.tail_rank(sqrt2_chain, nu0) == 2

    def test_single_row(self, sqrt2_chain):
        assert an.tail_rank(sqrt2_chain, len(sqrt2_chain.records)) == 1

    def test_monotone_nonincreasing(self, cbrt_pair_chain_200):
        ranks = [an.tail_rank(cbrt_pair_chain_200, nu0)
                 for nu0 in range(1, len(cbrt_pair_chain_200.records) + 1)]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    @given(low_rank_matrices())
    @example([])
    @example([[0, 0, 0], [1, 2, 3], [0, 0, 0], [2, 4, 6]])
    @example([[0, 1, 0], [0, 0, 1], [0, 2, 3]])
    @settings(max_examples=300)
    def test_rank_matches_fraction_elimination(self, rows):
        assert an.rank_rational(rows) == rank_fraction(rows)

    def test_zero_column_preserves_rank(self, sqrt2_chain):
        rows = [rec.m for rec in sqrt2_chain.records]
        padded = [r + (0,) for r in rows]
        assert an.rank_rational(rows) == an.rank_rational(padded)

    def test_out_of_range(self, sqrt2_chain):
        with pytest.raises(ChainTooShort):
            an.tail_rank(sqrt2_chain, len(sqrt2_chain.records) + 1)

    @pytest.mark.parametrize("fixture", [
        "sqrt2_chain", "r1_chains_10k", "cbrt_pair_chain_200",
        "sqrt23_chain_200", "sqrt235_chain_60"])
    def test_report_table_is_every_tail_rank(self, fixture, request):
        # run_checks stops eliminating once a suffix has full rank; the
        # cube-root pair's table falls to 2 and 1 at its last records
        chains = request.getfixturevalue(fixture)
        for chain in chains.values() if isinstance(chains, dict) else [chains]:
            want = {nu0: an.tail_rank(chain, nu0)
                    for nu0 in range(1, len(chain.records) + 1)}
            got = an.run_checks(chain).tail_ranks
            assert list(got.items()) == list(want.items())


class TestPolytope:
    def test_pass_on_chains(self, sqrt2_chain, cbrt_pair_chain_200):
        for chain in (sqrt2_chain, cbrt_pair_chain_200):
            assert an.check_polytope(chain,
                                     an.window_determinants(chain)).passed

    def test_degenerate_window_skipped(self, r2_form):
        rows = [((1, 1, 0), "1/2", "1/2"),
                ((2, 2, 0), "1/4", "1/4"),
                ((3, 3, 0), "1/8", "1/8")]
        chain = make_chain(r2_form, rows)
        dets = an.window_determinants(chain)
        assert dets == {1: 0}
        verdict = an.check_polytope(chain, dets)
        assert verdict.passed and verdict.margin is None
        assert verdict.detail == "1 degenerate window(s) skipped"

    def test_specific_window_value(self, sqrt2_chain):
        # zeta_1 * 2! * M_2 = 0.414... * 2 * 2 > 1
        dets = an.window_determinants(sqrt2_chain)
        verdict = an.check_polytope(sqrt2_chain, {1: dets[1]})
        assert verdict.passed
        assert verdict.margin == sqrt2_chain.records[0].zeta.mul_int(4)
        assert verdict.margin.lo.cmp_int(1) >= 0


class TestPsi:
    def test_sqrt2_not_singular_for_half_inverse(self, sqrt2_chain):
        psi = an.PsiSpec(family="power", r=1, coeff=Fraction(1, 2),
                         power_exp=Fraction(1))
        verdict = an.check_psi_singular(sqrt2_chain, psi)
        assert not verdict.passed
        assert verdict.witness_index == 1

    def test_constant_one_passes(self, sqrt2_chain):
        psi = an.PsiSpec(family="power", r=1, coeff=Fraction(1),
                         power_exp=Fraction(0))
        assert an.check_psi_singular(sqrt2_chain, psi).passed

    def test_equality_case_passes(self, r1_form):
        # dyadic norms so zeta = M_next**-2 is exactly representable
        rows = [((0, 1), "1/4", "1/4"), ((0, 2), "1/16", "1/16"),
                ((0, 4), "1/64", "1/64"), ((0, 8), "1/256", "1/256")]
        chain = make_chain(r1_form, rows)
        psi = an.PsiSpec(family="power", r=1, coeff=Fraction(1),
                         power_exp=Fraction(2))
        assert an.check_psi_singular(chain, psi).passed

    def test_family_values_against_oracle(self):
        def mpf_fraction(x):
            sign, man, exp, _ = x._mpf_
            f = Fraction(man) * Fraction(2) ** exp
            return -f if sign else f

        log_spec = an.PsiSpec(family="log", r=2, k=1, eps=Fraction(1, 10))
        iv = log_spec.value(50, 128)
        with mpmath.workprec(200):
            oracle = mpf_fraction(
                1 / (mpmath.mpf(50) ** 3
                     * mpmath.log(50) ** mpmath.mpf("2.1")))
        assert as_fraction(iv.lo) <= oracle <= as_fraction(iv.hi)

        ll_spec = an.PsiSpec(family="loglog", r=2, k=2, eps=Fraction(1, 10))
        iv = ll_spec.value(50, 128)
        with mpmath.workprec(200):
            oracle = mpf_fraction(
                1 / (mpmath.mpf(50) ** 4
                     * mpmath.log(mpmath.log(50)) ** mpmath.mpf("1.1")))
        assert as_fraction(iv.lo) <= oracle <= as_fraction(iv.hi)

    def _rungs(self, chain, psi, monkeypatch):
        rungs = []
        value = an.PsiSpec.value

        def spy(self, y, precision=an.CHECK_PRECISION):
            rungs.append(precision)
            return value(self, y, precision)

        monkeypatch.setattr(an.PsiSpec, "value", spy)
        verdict = an.check_psi_singular(chain, psi)
        assert verdict.status == an.UNDECIDED
        assert verdict.witness_index == 1
        return rungs

    def test_undecided_after_the_top_rung(self, r1_form, monkeypatch):
        # psi = 83/200 lies inside zeta_1's enclosure, so no rung decides,
        # and the first rung that shows it ends the climb
        rows = [((-1, 1), "0.41", "0.42"), ((3, -2), "0.17", "0.172")]
        chain = make_chain(r1_form, rows)
        psi = an.PsiSpec(family="power", r=1, coeff=Fraction(83, 200),
                         power_exp=Fraction(0))
        assert self._rungs(chain, psi, monkeypatch) == [96]

    def test_straddling_enclosure_climbs_every_rung(self, r1_form,
                                                     monkeypatch):
        # psi(M_2) = 3/6 = zeta_1.hi, and the enclosure of 1/6 * 3 holds
        # 1/2 strictly inside at every rung, so it always reaches past
        # zeta_1.hi and the ladder runs to its top
        rows = [((-1, 1), "0.4", "0.5"), ((3, -3), "0.1", "0.2")]
        chain = make_chain(r1_form, rows)
        psi = an.PsiSpec(family="power", r=1, coeff=Fraction(1, 6),
                         power_exp=Fraction(-1))
        rungs = self._rungs(chain, psi, monkeypatch)
        assert rungs == [96 << i for i in range(9)] + [32768]
        assert rungs[-2] == 24576

    def test_domain_limits(self):
        spec = an.PsiSpec(family="loglog", r=2, k=1, eps=Fraction(1, 10))
        with pytest.raises(DomainError):
            spec.value(2)
        spec.value(3)  # smallest valid argument

    def test_delta_k_rule(self):
        assert an.PsiSpec(family="log", r=2, k=1, eps=Fraction(1)).delta_k == 1
        assert an.PsiSpec(family="log", r=2, k=2, eps=Fraction(1)).delta_k == 0
        assert an.PsiSpec(family="log", r=2, k=5, eps=Fraction(1)).delta_k == 0

    # the one formula against the three-branch value it replaced: every
    # endpoint equal, at every rung the psi check starts from
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["power", "log", "loglog"]), st.integers(1, 3),
           st.integers(1, 3),
           st.fractions(Fraction(1, 6), 3, max_denominator=6),
           st.fractions(-3, 4, max_denominator=4),
           st.fractions(Fraction(1, 4), 8, max_denominator=4),
           st.integers(0, 10 ** 6), st.sampled_from([96, 192, 384]))
    def test_value_matches_the_family_branches(self, family, r, k, eps, exp,
                                               coeff, y, p):
        spec = an.PsiSpec(family, r=r, k=k, eps=eps, coeff=coeff,
                          power_exp=exp) if family == "power" else \
            an.PsiSpec(family, r=r, k=k, eps=eps)
        y = max(y, spec.y_min)
        got, want = spec.value(y, p), reference_psi_value(spec, y, p)
        assert (got.lo, got.hi) == (want.lo, want.hi)

    @pytest.mark.parametrize("family", ["power", "log", "loglog"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_y_min_is_the_family_table(self, family, k):
        spec = an.PsiSpec(family, r=1, k=k)
        assert spec.y_min == PSI_Y_MIN[family]
        with pytest.raises(DomainError):
            spec.value(spec.y_min - 1)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            an.PsiSpec(family="log", r=2, k=1, eps=Fraction(0))
        with pytest.raises(ValueError):
            an.PsiSpec(family="exp", r=1)


class TestSeries:
    def test_single_term_exact(self, r1_form):
        rows = [((0, 1), "1/8", "1/8"), ((0, 2), "1/32", "1/32")]
        chain = make_chain(r1_form, rows)
        sums = an.series_partial_sums(chain, k=2)
        assert len(sums) == 1
        assert sums[0].lo == sums[0].hi == Dyadic(1)  # 2**3 * 1/8

    def test_k1_includes_log_factor(self, r1_form):
        rows = [((0, 1), "1/8", "1/8"), ((0, 2), "1/32", "1/32")]
        chain = make_chain(r1_form, rows)
        s1 = an.series_partial_sums(chain, k=1)[0]
        # 2**2 * ln(2) * 1/8 = ln(2)/2
        with mpmath.workprec(120):
            sign, man, exp, _ = (mpmath.log(2) / 2)._mpf_
        oracle = Fraction(man) * Fraction(2) ** exp
        assert as_fraction(s1.lo) <= oracle <= as_fraction(s1.hi)

    def test_strictly_increasing(self, sqrt2_chain):
        for k in (1, 2):
            sums = an.series_partial_sums(sqrt2_chain, k)
            for a, b in zip(sums, sums[1:]):
                assert b.lo > a.lo and b.hi > a.hi

    def test_k_validation(self, sqrt2_chain):
        with pytest.raises(ValueError):
            an.series_partial_sums(sqrt2_chain, 0)

    def test_k_above_the_bound(self, sqrt2_chain):
        with pytest.raises(ValueError, match=f"at most {an.MAX_K}"):
            an.series_partial_sums(sqrt2_chain, an.MAX_K + 1)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_checked_before_the_length(self, r1_form, k):
        chain = make_chain(r1_form, [((-1, 1), "0.41", "0.42")])
        with pytest.raises(ValueError, match="k must be >= 1"):
            an.series_partial_sums(chain, k)


class TestNormGap:
    def _singular_rows(self):
        # norms square at each step (2, 4, 16, 256, 65536) and form values
        # decay fast enough to sit below the loglog target at every index
        ms = [2, 4, 16, 256, 65536]
        rows = []
        for i, m in enumerate(ms, start=1):
            z = Fraction(1, 2 ** (5 * 2 ** i))
            rows.append(((1, m, i), z, z))
        return rows

    PSI = an.PsiSpec(family="loglog", r=2, k=2, eps=Fraction(1, 10))

    def _verdicts(self, chain):
        return an.run_checks(chain, psi=self.PSI).verdicts

    def test_engineered_pass(self, r2_form):
        verdicts = self._verdicts(make_chain(r2_form, self._singular_rows()))
        assert verdicts["psi-singular"].passed
        assert verdicts["norm-gap"].passed
        assert "nu >= 1" in verdicts["norm-gap"].detail

    def test_generic_chain_unmet(self, cbrt_pair_chain_200):
        # the singularity hypothesis fails, so the gap is not reported
        verdicts = self._verdicts(cbrt_pair_chain_200)
        assert verdicts["psi-singular"].status == an.FAIL
        assert "norm-gap" not in verdicts

    def test_short_chain_unmet(self, r2_form):
        verdicts = self._verdicts(
            make_chain(r2_form, self._singular_rows()[:2]))
        assert verdicts["psi-singular"].passed
        assert verdicts["norm-gap"].status == an.SKIPPED
        assert verdicts["norm-gap"].detail == "need at least 3 records"

    def test_degenerate_window_unmet(self, r2_form):
        # every record ends in 1, so every window is degenerate
        rows = [((1, m[1], 1), lo, hi) for m, lo, hi in self._singular_rows()]
        verdicts = self._verdicts(make_chain(r2_form, rows))
        assert verdicts["psi-singular"].passed
        assert verdicts["norm-gap"].status == an.SKIPPED
        assert verdicts["norm-gap"].detail == "window 1 is degenerate"


class TestRunChecks:
    def test_full_report(self, sqrt2_chain):
        psi = an.PsiSpec(family="power", r=1, coeff=Fraction(1, 2),
                         power_exp=Fraction(1))
        report = an.run_checks(sqrt2_chain, psi=psi, series_k=1)
        assert report.theorem_checks_pass
        assert report.verdicts["psi-singular"].status == an.FAIL
        assert report.determinants
        assert report.tail_ranks[1] == 2
        assert len(report.series_sums) == len(sqrt2_chain.records) - 1
        d = report.to_dict()
        assert d["version"] == 1
        assert set(d["verdicts"]) >= {"monotonic", "minkowski", "growth",
                                      "polytope", "psi-singular"}

    def test_each_fact_computed_once(self, sqrt2_chain, monkeypatch):
        # a passing psi verdict brings in the norm gap, which reads the
        # same window determinants as the polytope check and the table
        windows, psi_calls = [], []
        det_bareiss, check_psi = an.det_bareiss, an.check_psi_singular

        def count_det(rows):
            windows.append(tuple(rows))
            return det_bareiss(rows)

        def count_psi(chain, psi):
            psi_calls.append(psi)
            return check_psi(chain, psi)

        monkeypatch.setattr(an, "det_bareiss", count_det)
        monkeypatch.setattr(an, "check_psi_singular", count_psi)
        psi = an.PsiSpec(family="power", r=1, coeff=Fraction(1),
                         power_exp=Fraction(0))
        report = an.run_checks(sqrt2_chain, psi=psi, series_k=2)
        records = sqrt2_chain.records
        assert windows == [(a.m, b.m) for a, b in zip(records, records[1:])]
        assert psi_calls == [psi]
        assert report.verdicts["polytope"].passed
        assert report.verdicts["psi-singular"].passed
        assert "norm-gap" in report.verdicts
        assert list(report.determinants) == list(range(1, len(records)))

    def test_short_chain_degrades_to_skips(self, r1_form):
        rows = [((-1, 1), "0.41", "0.42")]
        report = an.run_checks(make_chain(r1_form, rows))
        assert report.verdicts["minkowski"].status == an.SKIPPED
        assert report.verdicts["growth"].status == an.SKIPPED
        assert report.theorem_checks_pass
