"""Exception types shared across the package, and its one check of counts.

The CLI maps these to exit codes: input problems exit 1, an empty feasible
set exits 2, numerical failures exit 3.
"""


class PCutError(Exception):
    """Base class for all package errors."""


class InputError(PCutError):
    """Malformed or inconsistent input data (files, matrices, labels)."""


class ParameterError(PCutError):
    """A parameter value outside its valid range or an invalid configuration."""


class ConstraintError(PCutError):
    """A structural precondition is violated (e.g. unlabeled component)."""


class NumericError(PCutError):
    """A numerical routine failed to converge or met an ill-posed system."""


class NoFeasiblePartitionError(PCutError):
    """No candidate satisfied the minimum-cluster-size constraint."""

    def __init__(self, message, best_infeasible=None):
        super().__init__(message)
        self.best_infeasible = best_infeasible


def check_counts(**counts) -> None:
    """Raise ParameterError naming the first count below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ParameterError(f"{name} must be >= 1, got {value}")
