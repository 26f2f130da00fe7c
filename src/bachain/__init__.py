"""Exact best-approximation chains for linear forms, with certified checks."""

from .errors import (
    AmbiguousRounding,
    BachainError,
    ChainTooShort,
    DependenceSuspected,
    DomainError,
    PrecisionExhausted,
    SearchTooLarge,
)
from .realnum import (
    PRECISION_CAP,
    Dyadic,
    DyadicInterval,
    RealExpr,
    eval_interval,
    ln_interval,
    nearest_integer,
    parse_expr,
    rational,
    root,
)
from .linform import LinearForm, best_m0, zeta
from .enumerator import (
    BAChain,
    BestApprox,
    brute_force_oracle,
    convergent_denominators,
    enumerate_chain,
)
from .analysis import (
    ChainReport,
    PsiSpec,
    Verdict,
    check_growth,
    check_minkowski,
    check_monotonic,
    check_polytope,
    check_psi_singular,
    run_checks,
    series_partial_sums,
    tail_rank,
    window_determinants,
)
from .extension import (
    BetaSample,
    CriterionVerdict,
    ExtensionReport,
    MonteCarloResult,
    compare_extended,
    degeneracy_criterion,
    lattice_inv_norm_sum,
    monte_carlo,
    omega_bound,
    pad_chain,
    sample_betas,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
