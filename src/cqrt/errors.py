"""Exception types shared across the package."""


class CqrtError(Exception):
    """Base class for all package-specific errors."""


class NearNode(CqrtError):
    """Evaluation point is numerically indistinguishable from a wavefunction node.

    Below the node tolerance the Hermite ratio has no correct digits in double
    precision.  Only log_derivative raises it; the integrator and the FPE
    solver read the node mask of log_derivative_masked instead.
    """


class NumericalBlowup(CqrtError):
    """A trajectory left the trusted domain (|z| > blowup threshold)."""


class EmptyResult(CqrtError):
    """An extraction produced no samples (window too small, or paths never cross)."""


class TimeNotRecorded(CqrtError):
    """Requested snapshot time is not one of the recorded step times."""


class AllOutOfRange(CqrtError):
    """Every sample fell outside the requested histogram range."""


class DegenerateVariance(CqrtError):
    """Pearson correlation is undefined because one input vector is constant."""


class InstabilityDetected(CqrtError):
    """The explicit PDE update grew by more than the allowed factor in one step."""


class ZeroMass(CqrtError):
    """A density field holds no probability mass to normalize."""
