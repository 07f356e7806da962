"""Exception types shared across the package."""


class DriftMpcError(Exception):
    """Base class for all package errors."""


class DegenerateSpeedError(DriftMpcError):
    """Speed dropped below the validity floor of the sideslip dynamics."""


class FrictionCircleError(DriftMpcError):
    """Commanded longitudinal force exceeds the rear friction circle."""


class NoConvergenceError(DriftMpcError):
    """Equilibrium iteration failed to converge."""


class GripBranchError(DriftMpcError):
    """Only a low-sideslip (grip) solution was reachable from the given seeds."""


class OffPathError(DriftMpcError):
    """Pose is too far from every path sample for a trustworthy projection."""


class InfeasibleQpError(DriftMpcError):
    """QP has no feasible starting point (should not happen with rate-feasible setups)."""


class QpIterationLimitError(DriftMpcError):
    """Active-set iteration limit exhausted before reaching KKT conditions."""


class UncertifiedQpError(DriftMpcError):
    """QP answer whose scale-relative KKT residual is too large to apply."""


class ConfigError(DriftMpcError):
    """Invalid scenario or parameter configuration."""
