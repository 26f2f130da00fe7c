"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them to stable exit codes.
"""


class BachainError(Exception):
    """Base class for all package-specific errors."""


class PrecisionExhausted(BachainError):
    """Refinement hit the precision cap before the result was certified.

    Carries the cap (in bits) that was reached.
    """

    def __init__(self, message: str, precision: int):
        super().__init__(f"{message} (precision cap {precision} bits reached)")
        self.precision = precision


class DomainError(BachainError):
    """An operand is provably outside an operation's domain
    (negative radicand, zero denominator)."""


class AmbiguousRounding(BachainError):
    """Interval straddles a half-integer; the nearest integer is not
    determined.  Callers refine and retry."""


class DependenceSuspected(BachainError):
    """Evidence of a rational dependence among 1 and the form constants:
    an exact zero or an unresolvable tie between residuals.

    ``witness`` holds the integer tail(s) that produced the evidence.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ChainTooShort(BachainError):
    """The chain has too few records for the requested check."""


class SearchTooLarge(BachainError):
    """A scan would exceed the budget; ``check`` refuses it before any work."""

    @staticmethod
    def check(visits: int, budget: int, scan: str) -> None:
        if visits > budget:
            # by bit length past 2**256: str() refuses ints over 4,300 digits
            count = visits if visits >> 256 == 0 else \
                f"at least 2**{visits.bit_length() - 1}"
            raise SearchTooLarge(f"{scan} needs {count} evaluations > budget {budget}")
