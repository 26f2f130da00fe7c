from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bachain import enumerator
from bachain.enumerator import (
    brute_force_oracle,
    canonical_shell_tails,
    cf_convergents,
    convergent_denominators,
    enumerate_chain,
)
from bachain.errors import DependenceSuspected, PrecisionExhausted
from bachain.linform import LinearForm, tail_norm
from bachain.realnum import rational, root
from bachain.cli import parse_expr


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

    def test_bad_bound(self, sqrt2_form):
        with pytest.raises(ValueError):
            enumerate_chain(sqrt2_form, 0)


class TestDependenceDetection:
    def test_hidden_rational_single(self):
        form = LinearForm((root(4) / 2,))  # exactly 1 behind a root node
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
            brute_force_oracle(LinearForm((root(9) / 3,)), 3, cap=2048)


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
        # residual kernel, so it must work with that kernel unavailable
        def alphas():
            return (parse_expr("root(7,2)"), parse_expr("root(11,3)"))

        want = enumerate_chain(LinearForm(alphas()), 12)

        def unavailable(*args, **kwargs):
            raise AssertionError("scan kernel reached")

        monkeypatch.setattr(enumerator, "scaled_dot", unavailable)
        monkeypatch.setattr(enumerator, "scaled_constants", unavailable)
        with pytest.raises(AssertionError, match="scan kernel reached"):
            enumerate_chain(LinearForm(alphas()), 12)
        got = brute_force_oracle(LinearForm(alphas()), 12)
        assert [(r.index, r.m, r.M) for r in got.records] == \
            [(r.index, r.m, r.M) for r in want.records]
        assert len(got.records) >= 4


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
            cf_convergents(root(4) / 2, 3, cap=1024)

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
            iv = _zeta((-p, q), form, 80).abs()
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
