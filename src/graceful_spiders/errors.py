"""Exception taxonomy shared by all modules, and the oracle's default node
budget, which the CLI's `--budget` default reads without loading the oracle.

The CLI maps these onto exit codes: ValidationError (and its subclass
InfeasibleError) -> 2, ResourceBudgetError -> 3, ConstructionInvariantError -> 4.
A built-in MemoryError, a request too large for memory, also maps to 3.
"""

DEFAULT_ORACLE_BUDGET = 10**8


class GracefulError(Exception):
    """Base class for all package errors."""


class ValidationError(GracefulError):
    """The caller supplied input violating a documented precondition."""


class InfeasibleError(ValidationError):
    """The requested object provably does not exist (not a search limit)."""


class ResourceBudgetError(GracefulError):
    """A search ran out of its node budget before reaching a verdict."""


class ConstructionInvariantError(GracefulError):
    """A construction step violated a guarantee it is supposed to carry.

    Raising this means either a bug or a genuine counterexample to the
    underlying existence claim, so callers should surface it loudly. Each
    construction raises it from its one final check, `model.certified`, and
    from the few guards that stop a fault from crashing or hanging first
    (`paths._alpha_low_end`'s band guard among them). `trace` is the list of
    step documents of `doubling.label_doubling_spider`, every step, when its
    final check fails; otherwise None.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
