"""Exception types shared across the toolkit."""


class SepLqgError(Exception):
    """Base class for toolkit errors."""


class IntegrationDivergedError(SepLqgError):
    """Plant step produced a non-finite state."""


class FilterDegenerateError(SepLqgError):
    """Innovation covariance singular; the ensemble has collapsed."""


class InsufficientEnsembleError(SepLqgError):
    """Ensemble statistics need at least two members."""


class GradientEvaluationError(SepLqgError):
    """A gradient evaluation (a finite-difference cost probe or the
    reverse pass) returned a non-finite value."""


class PerturbationDivergedError(SepLqgError):
    """Impulse-response rollout diverged; retry with a smaller epsilon."""


class IllPosedCostError(SepLqgError):
    """Riccati inner matrix not invertible; cost weights are ill posed."""
