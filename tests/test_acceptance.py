"""Acceptance suite: every release-gating property, one printed verdict
line per criterion (run with ``pytest -s`` to see them inline).

All comparisons are exact or interval-certified; independent oracles are
continued fractions, exhaustive rescans, closed-form identities, and
50-digit scalar evaluation.
"""

import time
from fractions import Fraction

import mpmath
import pytest

from bachain import analysis as an
from bachain import cli
from bachain import extension as ext
from bachain.enumerator import (
    brute_force_oracle,
    convergent_denominators,
    enumerate_chain,
)
from bachain.linform import LinearForm
from bachain.realnum import DyadicInterval, eval_interval
from conftest import R1_ALPHA_TEXTS, as_fraction


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num:>2} {name}: {status}{suffix}")


def _mpf_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    f = Fraction(man) * Fraction(2) ** exp
    return -f if sign else f


# --- 1: continued-fraction correspondence -----------------------------------


def test_criterion_1_cf_correspondence(r1_forms):
    t0 = time.time()
    ok = True
    for name, form in r1_forms.items():
        chain = enumerate_chain(form, 10 ** 4)
        ms = [rec.M for rec in chain.records]
        qs = convergent_denominators(form.alphas[0], 10 ** 4)
        ok = ok and ms == qs
        assert ms == qs, f"{name}: chain norms {ms} != convergents {qs}"
    elapsed = time.time() - t0
    _line(1, "continued-fraction correspondence", ok,
          f"4 constants to 1e4 in {elapsed:.1f}s")
    assert ok


# --- 2: unimodularity with the convention-derived start sign ----------------

# Each r = 1 constant as a 50-digit mpmath value, independent of the package.
R1_ALPHA_MPMATH = {
    "sqrt2": lambda: mpmath.sqrt(2),
    "golden_minus_1": lambda: (1 + mpmath.sqrt(5)) / 2 - 1,
    "sqrt5_minus_2": lambda: mpmath.sqrt(5) - 2,
    "sqrt3_minus_1": lambda: mpmath.sqrt(3) - 1,
}


def _r1_start_sign(name: str) -> int:
    """Sign of the first r = 1 window determinant under the positive-value
    normalization: +1 when frac(alpha) > 1/2, -1 when frac(alpha) < 1/2."""
    with mpmath.workdps(50):
        alpha = R1_ALPHA_MPMATH[name]()
        frac = alpha - mpmath.floor(alpha)
        return 1 if frac > mpmath.mpf(1) / 2 else -1


@pytest.mark.parametrize("name", list(R1_ALPHA_TEXTS))
def test_criterion_2_unimodularity(name, r1_chains_10k):
    chain = r1_chains_10k[name]
    start = _r1_start_sign(name)
    dets = an.window_determinants(chain)
    assert list(dets) == list(range(1, len(chain.records)))
    expected = {nu: start * (-1) ** (nu - 1) for nu in dets}
    ok = dets == expected
    _line(2, f"unimodularity[{name}]", ok,
          f"dets {list(dets.values())[:6]}...")
    assert ok, (f"{name}: window determinants {dets} != alternation "
                f"starting at {start:+d} from frac(alpha) {expected}")


# --- 3: oracle equivalence ----------------------------------------------------


def test_criterion_3_oracle_equivalence(
        cbrt_pair_chain_200, cbrt_pair_oracle_200,
        sqrt23_chain_200, sqrt23_oracle_200,
        sqrt235_chain_60, sqrt235_oracle_60):
    t0 = time.time()
    pairs = [("(cbrt2,cbrt4) M<=200", cbrt_pair_chain_200, cbrt_pair_oracle_200),
             ("(sqrt2,sqrt3) M<=200", sqrt23_chain_200, sqrt23_oracle_200),
             ("(sqrt2,sqrt3,sqrt5) M<=60", sqrt235_chain_60, sqrt235_oracle_60)]
    ok = True
    for label, chain, oracle in pairs:
        got = [(r.index, r.m, r.M) for r in chain.records]
        want = [(r.index, r.m, r.M) for r in oracle.records]
        ok = ok and got == want
        assert got == want, f"{label}: enumerate != brute force"
    _line(3, "oracle equivalence", ok,
          f"3 forms, {time.time() - t0:.1f}s incl. fixtures")
    assert ok


# --- 4 and 5 and 6: certified inequalities over every fixture chain -----------


def _all_chains(r1_chains_10k, cbrt_pair_chain_200, sqrt23_chain_200,
                sqrt235_chain_60):
    chains = dict(r1_chains_10k)
    chains["(cbrt2,cbrt4)"] = cbrt_pair_chain_200
    chains["(sqrt2,sqrt3)"] = sqrt23_chain_200
    chains["(sqrt2,sqrt3,sqrt5)"] = sqrt235_chain_60
    return chains


def test_criterion_4_minkowski(r1_chains_10k, cbrt_pair_chain_200,
                               sqrt23_chain_200, sqrt235_chain_60):
    chains = _all_chains(r1_chains_10k, cbrt_pair_chain_200,
                         sqrt23_chain_200, sqrt235_chain_60)
    ok = True
    for label, chain in chains.items():
        verdict = an.check_minkowski(chain)
        ok = ok and verdict.passed
        assert verdict.passed, f"{label}: {verdict}"
    _line(4, "minkowski bound", ok, f"{len(chains)} chains")
    assert ok


def test_criterion_5_growth(r1_chains_10k, cbrt_pair_chain_200,
                            sqrt23_chain_200, sqrt235_chain_60):
    from bachain.errors import ChainTooShort
    chains = _all_chains(r1_chains_10k, cbrt_pair_chain_200,
                         sqrt23_chain_200, sqrt235_chain_60)
    ok = True
    checked, skipped = 0, 0
    for label, chain in chains.items():
        try:
            verdict = an.check_growth(chain)
        except ChainTooShort:
            # the doubling offset exceeds the chain length at this scale
            skipped += 1
            continue
        checked += 1
        ok = ok and verdict.passed
        assert verdict.passed, f"{label}: {verdict}"
    assert checked >= 4  # every r = 1 chain is long enough
    _line(5, "norm growth bound", ok,
          f"{checked} chains checked, {skipped} too short for their offset")
    assert ok


def test_criterion_6_polytope(r1_chains_10k, cbrt_pair_chain_200,
                              sqrt23_chain_200, sqrt235_chain_60):
    chains = _all_chains(r1_chains_10k, cbrt_pair_chain_200,
                         sqrt23_chain_200, sqrt235_chain_60)
    ok = True
    windows = 0
    for label, chain in chains.items():
        dets = an.window_determinants(chain)
        verdict = an.check_polytope(chain, dets)
        assert verdict.passed, f"{label}: {verdict}"
        windows += sum(1 for det in dets.values() if det)
        ok = ok and verdict.passed
    _line(6, "polytope volume bound", ok, f"{windows} full-rank windows")
    assert ok


# --- 7: degeneracy criterion against independent brute force ------------------


def _independent_mixed_minimum(alpha_f, beta_f, bound):
    """Smallest distance to an integer over all vectors with a nonzero
    second coordinate, via 50-digit scalar arithmetic (no shared code with
    the certified scan)."""
    best = None
    for m1 in range(-bound, bound + 1):
        for m2 in range(1, bound + 1):  # sign symmetry: m2 > 0 suffices
            v = m1 * alpha_f + m2 * beta_f
            d = abs(v - mpmath.nint(v))
            if best is None or d < best:
                best = d
    return best


def test_criterion_7_criterion_vs_enumeration(sqrt2_form):
    with mpmath.workdps(50):
        t0 = time.time()
        chain = enumerate_chain(sqrt2_form, 60)
        alpha_f = mpmath.sqrt(2)
        agreements = 0
        ok = True
        for seed in range(5):
            beta = ext.sample_betas(sqrt2_form, 1, seed=seed)
            rep = ext.compare_extended(chain, beta, 60)
            pair_form = LinearForm(tuple(sqrt2_form.alphas) + beta.values)
            pair_records = {r.m for r in
                            brute_force_oracle(pair_form, 60).records}
            beta_iv = eval_interval(beta.values[0], 180)
            beta_f = (mpmath.mpf(beta_iv.lo.man)
                      * mpmath.mpf(2) ** beta_iv.lo.exp)
            for nu, verdict in rep.criterion_verdicts.items():
                bound = chain.records[nu].M
                zeta_f = _mpf_fraction(
                    abs(chain.records[nu - 1].m[0]
                        + chain.records[nu - 1].m[1] * alpha_f))
                mixed_min = _mpf_fraction(
                    _independent_mixed_minimum(alpha_f, beta_f, bound))
                independent = mixed_min >= zeta_f
                same = verdict.passed == independent
                ok = ok and same
                assert same, (f"seed {seed} nu={nu}: certified verdict "
                              f"{verdict.passed} vs independent scan "
                              f"{independent}")
                agreements += 1
                if verdict.passed:
                    # a passing index forces both padded vectors into the
                    # pair's actual chain
                    assert chain.records[nu - 1].m + (0,) in pair_records
                    assert chain.records[nu].m + (0,) in pair_records
        _line(7, "degeneracy criterion vs enumeration", ok,
              f"{agreements} exact verdict agreements, "
              f"{time.time() - t0:.1f}s")
        assert ok


# --- 8: closed-form lattice sum ------------------------------------------------


def test_criterion_8_harmonic_closed_form():
    t0 = time.time()
    ok = True
    for M in (1, 7, 100, 1234, 10 ** 4):
        iv = ext.lattice_inv_norm_sum(M, 1)[M]
        harmonic = Fraction(0)
        for m in range(1, M + 1):
            harmonic += Fraction(1, m)
        on_grid = DyadicInterval.from_fractions(
            2 * harmonic, 2 * harmonic, ext.LATTICE_BITS + 16)
        ok = ok and iv == on_grid
        assert iv == on_grid, f"M={M}"
    _line(8, "harmonic closed form", ok,
          f"up to M=1e4 in {time.time() - t0:.1f}s")
    assert ok


# --- 9: series diagnostics vs 50-digit oracle ----------------------------------


def test_criterion_9_series_diagnostics(r1_chains_10k):
    with mpmath.workdps(50):
        chain = r1_chains_10k["sqrt2"]
        sqrt2 = mpmath.sqrt(2)
        ok = True
        for k in (1, 2):
            sums = an.series_partial_sums(chain, k)
            running = mpmath.mpf(0)
            slack = Fraction(1, 10 ** 40)
            pairs = zip(chain.records, chain.records[1:])
            for i, (rec, nxt) in enumerate(pairs):
                zeta_f = abs(rec.m[0] + rec.m[1] * sqrt2)
                term = mpmath.mpf(nxt.M) ** (1 + k) * zeta_f
                if k == 1:
                    term *= mpmath.log(nxt.M)
                running += term
                oracle = _mpf_fraction(running)
                enclosure = sums[i]
                inside = (as_fraction(enclosure.lo) - slack <= oracle
                          <= as_fraction(enclosure.hi) + slack)
                ok = ok and inside
                assert inside, f"k={k} S_{i + 1}"
            for a, b in zip(sums, sums[1:]):
                assert b.lo > a.lo and b.hi > a.hi
        _line(9, "series diagnostics vs 50-digit oracle", ok,
              f"{2 * (len(chain.records) - 1)} partial sums")
        assert ok


# --- 10: bit-level reproducibility ----------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    enum_outs = []
    for name in ("one.rec", "two.rec"):
        path = tmp_path / name
        code = cli.main(["enumerate", "--alpha", "root(2,2)", "--alpha",
                         "root(3,2)", "--max-norm", "40", "--out", str(path)])
        assert code == cli.EXIT_OK
        enum_outs.append(path.read_bytes())
    identical_enum = enum_outs[0] == enum_outs[1]

    rec = tmp_path / "base.rec"
    cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "30",
              "--out", str(rec)])
    ext_outs = []
    for name in ("e1.json", "e2.json"):
        path = tmp_path / name
        code = cli.main(["extend", str(rec), "--k", "1", "--samples", "3",
                         "--seed", "13", "--format", "machine",
                         "--out", str(path)])
        assert code == cli.EXIT_OK
        ext_outs.append(path.read_bytes())
    identical_ext = ext_outs[0] == ext_outs[1]

    text = rec.read_text()
    round_trip = cli.serialize_chain(cli.parse_chain(text)) == text

    ok = identical_enum and identical_ext and round_trip
    _line(10, "bit-level reproducibility", ok,
          "enumerate, extend, and file round-trip")
    assert identical_enum
    assert identical_ext
    assert round_trip
