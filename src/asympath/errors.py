"""Exception types shared across the package, the count check whose
failures raise InputError, and the check log whose failures raise
InvariantError."""


class SolverError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SolverError):
    """Malformed or out-of-range arguments (bad matrix shape, k < 1, ...)."""


def require_count(value, name):
    """value if it is an int >= 1 (a bool is not); else InputError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(f"{name} must be an int >= 1, got {value!r}")
    return value


class SizeLimitError(InputError):
    """Instance exceeds the hard cap of an exponential-time routine."""


class InfeasibleError(SolverError):
    """No feasible object exists (unreachable node pair, no perfect matching)."""


class ContractError(SolverError):
    """A caller-supplied object violates a documented precondition."""


class AcyclicityError(SolverError):
    """An arc set required to be acyclic contains a cycle."""

    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = cycle


class InvariantError(SolverError):
    """An internal invariant of an algorithm run was violated.

    Carries the offending state so failures can be dumped for inspection.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class CheckLog:
    """Mixin for solver run states that keep a list self.checks.

    check() appends {"name", "pass", "witness"} and, on failure, raises
    InvariantError carrying the state; run_name prefixes the message.
    """

    run_name = "solver run"

    def check(self, name, ok, witness):
        self.checks.append({"name": name, "pass": bool(ok), "witness": witness})
        if not ok:
            raise InvariantError(f"{self.run_name} check failed: {name} ({witness})",
                                 state=self)


class DegenerateLatencyError(InputError):
    """A latency value that must be positive is zero: the input has a zero
    distance the latency solver cannot bucket."""
