"""Exception types shared across the package, and the default enumeration budget."""

# the largest enumeration an exhaustive search or audit may start; the CLI's
# --budget default, kept here so building its parser imports no search module
DEFAULT_BUDGET = 10**6


def enumeration_size(base: int, exp: int, budget: int, what: str) -> int:
    """base**exp (base >= 2) if it is within budget; never builds a larger count.

    ``BudgetExceeded`` names the count if it was computed in full, else base^exp.
    """
    total = 1
    for done in range(1, exp + 1):
        total *= base
        if total > budget:
            count = total if done == exp else f"{base}^{exp}"
            raise BudgetExceeded(f"{count} {what} exceed budget {budget}")
    return total


class CleanmatError(Exception):
    """Base class for all package errors."""


class NonRing(CleanmatError):
    """An operation table fails a ring axiom.

    Carries ``axiom`` (name) and ``witness`` (the offending element triple).
    """

    def __init__(self, axiom, witness=None):
        self.axiom = axiom
        self.witness = witness
        msg = f"table is not a commutative unital ring: {axiom}"
        if witness is not None:
            msg += f" fails at {witness}"
        super().__init__(msg)


class MalformedDescriptor(CleanmatError):
    """A ring descriptor of no known shape, or a table of the wrong shape."""


class NotPrime(CleanmatError):
    pass


class UnsupportedSize(CleanmatError):
    pass


class RingMismatch(CleanmatError):
    pass


class IncompleteCover(CleanmatError):
    """Idempotents handed to a glue operation do not sum to 1."""


class NonMonicDivisor(CleanmatError):
    pass


class BudgetExceeded(CleanmatError):
    pass


class InfiniteRing(CleanmatError):
    pass


class TwoNotUnit(CleanmatError):
    """Raised by the square-root supplement when 2 is not invertible."""


class NotInRadical(CleanmatError):
    pass


class NotInModule(CleanmatError):
    """A pair fails membership in the rank-2 module over Z[sqrt(-5)]."""


class VerificationFailed(CleanmatError):
    """A constructed certificate failed its mandatory re-check."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))
