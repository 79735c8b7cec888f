"""Exception types shared across the package."""


class ChargePlaneError(Exception):
    """Base class for all package errors."""


class ConfigError(ChargePlaneError):
    """Invalid configuration input (bad field, unknown key, schema violation)."""


class EigensolverError(ChargePlaneError):
    """Dense eigensolver failed to converge or violated its residual contract."""


class DegenerateEigenvectorError(ChargePlaneError):
    """Quasi-null bilinear norm x.T @ x; the eigenvalue-derivative formula
    is undefined there (near an eigenvalue degeneracy)."""
