"""Exception types, the record bases and the default enumeration budget of the package."""

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


class Record:
    """A result record whose fields are its ``__slots__``, in ``__init__`` order.

    Records of one type are equal when their fields are, so a mutable record
    is unhashable; copying and pickling rebuild a record through ``__init__``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """An immutable, hashable record: ``__init__`` sets each field once."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._fields())


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
