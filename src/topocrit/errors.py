"""Exception types shared across the package."""


class TopocritError(Exception):
    """Base class for all package-specific errors."""


class ZeroGap(TopocritError):
    """Energy gap closed (or numerically indistinguishable from closed)."""


class GaugeSingularity(TopocritError):
    """Requested eigenstate gauge is singular at this point."""


class PoorFit(TopocritError):
    """A least-squares fit failed its quality threshold."""


class AtCriticality(TopocritError):
    """Closed-form asymptotics requested exactly at a critical point."""


class WindowTouchesCriticality(TopocritError):
    """A sweep window contains (or touches) a gap-closing point."""


class InsufficientDecade(TopocritError):
    """Decay fit rejected: dynamic range below one decade."""


class UndersampledPeak(TopocritError):
    """Momentum grid too coarse to resolve a near-critical peak."""


class QuantizationFailure(TopocritError):
    """A topological invariant failed to round cleanly to an integer."""


class OracleMismatch(TopocritError):
    """Two independent invariant computations disagree."""
