"""Exceptions shared across the estimation pipeline."""


class SingularDesign(ValueError):
    """Local-linear normal equations are numerically singular.

    Raised when a smoothing window holds fewer than two distinct support
    points, or when the 2x2 normal matrix is rank deficient.  When it can
    be computed, ``min_bandwidth`` is the smallest bandwidth that would
    put two distinct support points inside the window.
    """

    def __init__(self, message, min_bandwidth=None, eval_point=None):
        if min_bandwidth is not None:
            message += f"; a bandwidth above {min_bandwidth:.6g} would capture 2 distinct points"
        if eval_point is not None:
            message += f" (evaluation point {eval_point:.6g})"
        super().__init__(message + " -- consider a larger bandwidth")
        self.min_bandwidth = min_bandwidth
        self.eval_point = eval_point


class IllConditioned(RuntimeError):
    """Regressor spectral density matrix is near singular at some frequency."""

    def __init__(self, omega, cond, threshold):
        super().__init__(
            f"spectral density matrix at frequency {omega:.6f} has condition number "
            f"{cond:.3e}, above the threshold {threshold:.3e}; the regressor spectrum "
            "is near singular there -- consider a different window span q"
        )
        self.omega = omega
        self.cond = cond
        self.threshold = threshold


class DegenerateTotal(ValueError):
    """The panel is constant in time at every maturity; R^2 is undefined."""


class ParseError(ValueError):
    """Malformed CSV input, with a 1-based row/column location when known."""

    def __init__(self, message, row=None, column=None):
        if row is not None and column is not None:
            message += f" (row {row}, column {column})"
        elif row is not None:
            message += f" (row {row})"
        super().__init__(message)
        self.row = row
        self.column = column
