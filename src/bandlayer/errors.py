"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI, and the label it prints:

* :class:`ConfigError`      -> 2  "config error": bad input, bad config
  file, invalid grid
* :class:`RegimeError`      -> 3  "regime error": mathematically degenerate
  or out-of-regime request
* :class:`DomainError`      -> 3  "domain error": point outside the region
  where a field is defined
* :class:`ConvergenceError` -> 4  "convergence failure": an iteration or
  quadrature did not converge, or an integration overflowed
* any other :class:`BandLayerError` -> 3  "error"

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
