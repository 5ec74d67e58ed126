"""Exception taxonomy shared across the package.

Parameter problems are ValueErrors so they read naturally at the library
level; the CLI maps them to exit code 2 and every other failure to 1.
"""


class ParameterError(ValueError):
    """Arguments outside a documented precondition."""


class DegeneracyError(ValueError):
    """Geometric input too degenerate to continue (collinear, coincident, ...)."""


class AdmissibilityError(ValueError):
    """Construction refused because two vertices share a neighbourhood, or
    a polytope fails the coplanarity / distinct-plane requirements."""

    def __init__(self, message: str, pair=None):
        super().__init__(message)
        self.pair = pair


class DistinctnessError(ValueError):
    """Two derived objects (circles, planes) coincide within tolerance."""


class ConcyclicityError(ValueError):
    """A neighbourhood that was expected to be concyclic is not."""

    def __init__(self, message: str, vertex=None, residual=None):
        super().__init__(message)
        self.vertex = vertex
        self.residual = residual


class ConvergenceError(RuntimeError):
    """Iterative solve stopped above tolerance; carries the best residual (None
    when no start ran), for a restarted solve the restarts run and the failed
    starts counted by class, and for a symmetric solve the orbit sets ruled out."""

    def __init__(self, message: str, residual=None, restarts=None, skipped=None, failed=None):
        super().__init__(message)
        self.residual = residual
        self.restarts = restarts
        self.skipped = skipped
        self.failed = failed


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its attempt budget; reports the seed and,
    where the sampler counts them, the attempts made and the rejections per
    reason."""

    def __init__(self, message: str, seed=None, attempts=None, rejections=None):
        super().__init__(message)
        self.seed = seed
        self.attempts = attempts
        self.rejections = rejections


class PolePlacementError(ValueError):
    """No projection pole clear of all points and circles was found."""


class CapacityError(RuntimeError):
    """Input exceeds the documented scale limit of a search routine."""
