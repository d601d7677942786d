"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI:

* :class:`ConfigError`      -> 2  (bad input, bad config file, invalid grid)
* :class:`RegimeError`      -> 3  (mathematically degenerate or out-of-regime request)
* :class:`DomainError`      -> 3  (point outside the region where a field is defined)
* :class:`ConvergenceError` -> 4  (iteration/quadrature did not converge)
* any other :class:`BandLayerError` -> 3

Everything derives from :class:`BandLayerError` so library users can catch
one base type.
"""


class BandLayerError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BandLayerError, ValueError):
    """Invalid parameters, grids, or configuration files."""


class RegimeError(BandLayerError, ArithmeticError):
    """The requested quantity does not exist in this parameter regime.

    Examples: flat-band degeneracy (no mean reversion), nonpositive
    risk-adjusted edge at the band, evaluation outside the trading sector.
    """


class ConvergenceError(BandLayerError, RuntimeError):
    """An iterative method failed to converge within its budget."""

    def __init__(self, message, history=None):
        super().__init__(message)
        # residual-vs-iteration trail for post-mortems; may be None
        self.history = history


class DomainError(BandLayerError, ValueError):
    """A point lies outside the region where the requested field is defined."""
