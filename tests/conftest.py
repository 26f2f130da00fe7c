"""Shared fixtures: expensive chains are built once per session, and the
digit oracles used to pin expected values are deliberately independent of
the package's own evaluation code."""

from fractions import Fraction

import pytest

from bachain import Dyadic, LinearForm, brute_force_oracle, enumerate_chain
from bachain import parse_expr

R1_ALPHA_TEXTS = {
    "sqrt2": "root(2,2)",
    "golden_minus_1": "(1+root(5,2))/2 - 1",
    "sqrt5_minus_2": "root(5,2)-2",
    "sqrt3_minus_1": "root(3,2)-1",
}


def as_fraction(d) -> Fraction:
    """The exact value of a ``Dyadic`` man * 2**exp as a Fraction."""
    if d.exp >= 0:
        return Fraction(d.man << d.exp)
    return Fraction(d.man, 1 << -d.exp)


def dyadic_from_hex(text: str):
    """Inverse of ``Dyadic.to_hex``; other spellings of the value may
    parse too."""
    try:
        man_hex, exp_dec = text.replace("0x", "", 1).split("p")
        return Dyadic(int(man_hex, 16), int(exp_dec))
    except ValueError:
        raise ValueError(f"malformed dyadic literal: {text!r}") from None


def sqrt_digits(n: int, digits: int) -> Fraction:
    """floor(sqrt(n) * 10**digits) / 10**digits via integer arithmetic."""
    import math
    scale = 10 ** digits
    return Fraction(math.isqrt(n * scale * scale), scale)


def cbrt_digits(n: int, digits: int) -> Fraction:
    """floor(cbrt(n) * 10**digits) / 10**digits, by bisection on integers
    (kept distinct from the package's Newton iteration on purpose)."""
    scale = 10 ** digits
    target = n * scale ** 3
    lo, hi = 0, 1
    while hi ** 3 <= target:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** 3 <= target:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, scale)


@pytest.fixture(scope="session")
def sqrt2_form():
    return LinearForm((parse_expr(R1_ALPHA_TEXTS["sqrt2"]),))


@pytest.fixture(scope="session")
def sqrt2_chain(sqrt2_form):
    return enumerate_chain(sqrt2_form, 30)


@pytest.fixture(scope="session")
def r1_forms():
    return {name: LinearForm((parse_expr(text),))
            for name, text in R1_ALPHA_TEXTS.items()}


@pytest.fixture(scope="session")
def r1_chains_10k(r1_forms):
    return {name: enumerate_chain(form, 10 ** 4)
            for name, form in r1_forms.items()}


@pytest.fixture(scope="session")
def cbrt_pair_form():
    return LinearForm((parse_expr("root(2,3)"), parse_expr("root(4,3)")))


@pytest.fixture(scope="session")
def cbrt_pair_chain_200(cbrt_pair_form):
    return enumerate_chain(cbrt_pair_form, 200)


@pytest.fixture(scope="session")
def sqrt23_form():
    return LinearForm((parse_expr("root(2,2)"), parse_expr("root(3,2)")))


@pytest.fixture(scope="session")
def sqrt23_chain_200(sqrt23_form):
    return enumerate_chain(sqrt23_form, 200)


@pytest.fixture(scope="session")
def sqrt235_form():
    return LinearForm((parse_expr("root(2,2)"), parse_expr("root(3,2)"),
                       parse_expr("root(5,2)")))


@pytest.fixture(scope="session")
def sqrt235_chain_60(sqrt235_form):
    return enumerate_chain(sqrt235_form, 60)


@pytest.fixture(scope="session")
def cbrt_pair_oracle_200(cbrt_pair_form):
    return brute_force_oracle(cbrt_pair_form, 200)


@pytest.fixture(scope="session")
def sqrt23_oracle_200(sqrt23_form):
    return brute_force_oracle(sqrt23_form, 200)


@pytest.fixture(scope="session")
def sqrt235_oracle_60(sqrt235_form):
    return brute_force_oracle(sqrt235_form, 60)
