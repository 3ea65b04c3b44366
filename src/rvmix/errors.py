"""Semantic exception hierarchy shared by all rvmix modules."""


class RvmixError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RvmixError, ValueError):
    """An argument violates its documented domain (sign, range, shape)."""


class ConfigError(RvmixError, ValueError):
    """A configuration file, flag set, or source layout is invalid."""


class ContainerError(DomainError):
    """A matrix file is truncated, corrupt, or neither a container nor CSV."""


class NumericError(RvmixError, FloatingPointError):
    """A numeric procedure failed (factorization, quadrature, divergence).

    column, when set, is the index of the failing column in a stacked call.
    """

    def __init__(self, *args, column=None):
        super().__init__(*args)
        self.column = column


class RankError(NumericError):
    """The operator has no usable rank (e.g. an all-zero lead field)."""


class RootFindError(NumericError):
    """A root search found no sign change on (0, inf), or did not converge."""


class DegenerateStateError(NumericError):
    """A solver state collapsed (e.g. every coordinate pruned at once)."""


class SelectionError(NumericError):
    """Model selection failed on the whole candidate grid."""


class UndefinedMetricError(DomainError):
    """A quality measure is undefined for the given inputs."""
