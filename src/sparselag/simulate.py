"""Synthetic data generation under the lagged-regression model, with oracles.

Generates a VAR(1) regressor path, builds curves through a known filter,

    Y_t(tau) = mu_Y(tau) + sum_j sum_h b_h^j(tau) (X^j_{t-h} - mu_X_j) + e_t(tau),

and samples them on the maturity grid with observation noise
y_ti = Y_t(tau_i) + noise_sd * eps_ti.  The regressor path is extended by
presample and postsample steps so the generated truth never involves mean
imputation.  Curve shapes (mean and filter coefficient functions) are given
in warped coordinates, matching how the estimators report them.

The VAR(1) spectral density has the closed form

    F(omega) = (1/2pi) (I - A e^{-i omega})^{-1} Sigma (I - A e^{-i omega})^{-*},

used as the independent oracle for the lag-window estimator.

A diagonal A runs as d scalar AR(1) recursions x = a_jj * x + s over Python
floats.  The off-diagonal terms of A @ x add exact zeros, so each step rounds
as the matrix product does and the path is bit-identical to the matrix loop
that a coupled A keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .model import (FrequencyGrid, LaggedRegressionFit, MacroPanel, MaturityGrid, SparseYieldPanel, _ArrayHolder,
                    _check_integers, _store)

_BURN_IN = 500          # the fewest steps a path discards; radius 0.95 decays below 1e-10 within them
_MAX_RADIUS = 0.9999    # decays below 1e-10 within 230,247 steps

US_MATURITIES = (1 / 12, 6 / 12, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 30.0)

CurveFn = Callable[[np.ndarray], np.ndarray]


def _check_stationary(a: np.ndarray) -> float:
    """A VAR(1) coefficient matrix is stationary: its spectral radius is below 1.  Returns the radius."""
    rho = float(np.abs(np.linalg.eigvals(a)).max())
    if rho >= 1.0:
        raise ValueError(f"ar_coef spectral radius must be < 1 for stationarity, got {rho:.4f}")
    return rho


def _burn_in(rho: float) -> int:
    """Steps a path of spectral radius rho <= _MAX_RADIUS discards: the fewest n >= _BURN_IN with rho^n <= 1e-10,
    so its zero start weighs at most 1e-10 on the first kept value."""
    if rho > _MAX_RADIUS:
        raise ValueError(f"ar_coef spectral radius must be <= {_MAX_RADIUS} for a bounded burn-in, got {rho:.6g}")
    steps = math.log(1e-10) / math.log(rho) if rho > 0 else 0.0
    return max(_BURN_IN, math.ceil(steps))


def _zero_mean(t):
    """The default mean curve: zero at every warped maturity."""
    return np.zeros_like(t)


def _falling_line(t):
    """The recovery experiment's lag-0 coefficient function 1 - tau~."""
    return 1.0 - t


@dataclass(frozen=True)
class SyntheticSpec(_ArrayHolder):
    """Everything needed to generate one synthetic data set.

    ``filter_fns`` pairs (lag h, series j) with the coefficient function of the warped coordinate,
    as a dict or ((h, j), fn) pairs; ``mean_fn`` is the mean curve in warped coordinates.  Series indices
    are zero-based.  The spec holds read-only copies of its arrays, its terms as a tuple in the order given,
    and ``burn_in``, the steps each path discards, sized from the spectral radius of ``ar_coef``.
    """

    maturity_grid: MaturityGrid
    n_times: int
    ar_coef: np.ndarray          # (d, d), spectral radius < 1
    innovation_cov: np.ndarray   # (d, d), symmetric positive definite
    macro_mean: np.ndarray       # (d,)
    mean_fn: CurveFn = _zero_mean
    filter_fns: tuple[tuple[tuple[int, int], CurveFn], ...] = ()
    curve_error_scale: float = 0.0
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.ar_coef, dtype=float))
        cov = np.atleast_2d(np.asarray(self.innovation_cov, dtype=float))
        mean = np.atleast_1d(np.asarray(self.macro_mean, dtype=float))
        d = a.shape[0]
        if a.shape != (d, d) or cov.shape != (d, d) or mean.shape != (d,):
            raise ValueError("ar_coef, innovation_cov and macro_mean disagree on the dimension d")
        _check_integers(n_times=self.n_times, seed=self.seed)
        if self.n_times < 1:
            raise ValueError("n_times must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for name, arr in (("ar_coef", a), ("innovation_cov", cov), ("macro_mean", mean)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if not all(np.isfinite(v) and v >= 0 for v in (self.curve_error_scale, self.noise_sd)):
            raise ValueError("noise scales must be finite and nonnegative")
        vars(self)["burn_in"] = _burn_in(_check_stationary(a))
        if np.abs(cov - cov.T).max() > 1e-12 * max(1.0, np.abs(cov).max()):
            raise ValueError("innovation covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("innovation covariance must be positive definite") from None
        object.__setattr__(self, "filter_fns", tuple(dict(self.filter_fns).items()))
        for (_, j), _ in self.filter_fns:
            if not 0 <= j < d:
                raise ValueError(f"filter series index {j} outside 0..{d - 1}")
        _store(self, ar_coef=a, innovation_cov=cov, macro_mean=mean)

    @property
    def n_series(self) -> int:
        return self.ar_coef.shape[0]

    @property
    def max_filter_lag(self) -> int:
        return max((abs(h) for (h, _), _ in self.filter_fns), default=0)


def _scalar_ar1(a: float, shocks: Iterable[float]) -> Iterator[float]:
    # two roundings per step, as in A @ x + shock; CPython never fuses them
    x = 0.0
    for s in shocks:
        x = a * x + s
        yield x


def _var1_deviations(spec: SyntheticSpec, rng: np.random.Generator, n_steps: int) -> np.ndarray:
    chol = np.linalg.cholesky(spec.innovation_cov)
    burn_in = spec.burn_in
    shocks = rng.standard_normal((burn_in + n_steps, spec.n_series)) @ chol.T
    out = np.empty((burn_in + n_steps, spec.n_series))
    a = spec.ar_coef
    diag = np.diagonal(a)
    if not np.any(a - np.diag(diag)):
        for j, a_jj in enumerate(diag.tolist()):
            # a memoryview yields Python floats one at a time, with no list of them
            column = memoryview(np.ascontiguousarray(shocks[:, j]))
            out[:, j] = np.fromiter(_scalar_ar1(a_jj, column), float, count=len(out))
        return out[burn_in:]
    x = np.zeros(spec.n_series)
    for t in range(burn_in + n_steps):
        x = spec.ar_coef @ x + shocks[t]
        out[t] = x
    return out[burn_in:]


def simulate_var1(spec: SyntheticSpec) -> MacroPanel:
    """VAR(1) sample of length n_times (after a discarded burn-in)."""
    rng = np.random.default_rng(spec.seed)
    values = spec.macro_mean + _var1_deviations(spec, rng, spec.n_times)
    names = tuple(f"X{j + 1}" for j in range(spec.n_series))
    return MacroPanel(values=values, series_names=names)


def var1_spectral_density(ar_coef, innovation_cov, grid: FrequencyGrid) -> np.ndarray:
    """Closed-form VAR(1) spectral density (N, d, d), computed at every node of the grid."""
    a = np.atleast_2d(np.asarray(ar_coef, dtype=float))
    cov = np.atleast_2d(np.asarray(innovation_cov, dtype=float))
    _check_stationary(a)
    d = a.shape[0]
    chol = np.linalg.cholesky(cov)
    m = np.eye(d)[None, :, :] - np.exp(-1j * grid.nodes)[:, None, None] * a[None, :, :]
    z = np.linalg.solve(m, np.broadcast_to(chol.astype(complex), m.shape).copy())
    return z @ np.conj(np.swapaxes(z, 1, 2)) / (2.0 * np.pi)


@dataclass(frozen=True)
class SimulationTruth(_ArrayHolder):
    """Ground truth emitted next to a synthetic data set: the model that made it, and its curves (read-only)."""

    model: LaggedRegressionFit     # the generating filter, lags -H..H, at the maturities and warped knots
    regression_curves: np.ndarray  # (T, I), noise- and e-free

    def __post_init__(self):
        if np.shape(self.regression_curves)[1:] != self.model.eval_tau.shape:
            raise ValueError(f"regression_curves must be (T, {self.model.eval_tau.size}): one column per grid point")
        _store(self, regression_curves=self.regression_curves)


def _on_knots(name: str, fn: CurveFn, knots: np.ndarray) -> np.ndarray:
    """fn at the warped knots, one value per maturity; a scalar result holds at every maturity."""
    values = np.asarray(fn(knots), dtype=float)
    if values.ndim and values.shape != knots.shape:
        raise ValueError(f"{name} returned shape {values.shape}, not one value per maturity ({knots.size})")
    return np.broadcast_to(values, knots.shape)


def simulate_lagged_regression(spec: SyntheticSpec):
    """Generate (SparseYieldPanel, MacroPanel, SimulationTruth) from a spec; the truth's model holds the one
    evaluation of the mean and of each filter function at the warped knots, and the curves built from them."""
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow fails the panel's finiteness check
        rng = np.random.default_rng(spec.seed)
        t_len = spec.n_times
        n_mat = spec.maturity_grid.n_maturities
        h_ext = spec.max_filter_lag

        # One extended VAR path: rows cover t = 1-h_ext .. T+h_ext.
        dev = _var1_deviations(spec, rng, t_len + 2 * h_ext)
        tau_tilde = np.linspace(0.0, 1.0, n_mat)
        mean = _on_knots("mean function", spec.mean_fn, tau_tilde)
        coef = np.zeros((2 * h_ext + 1, n_mat, spec.n_series))

        curves = np.tile(mean, (t_len, 1))
        for (h, j), fn in spec.filter_fns:
            coef[h_ext + h, :, j] = _on_knots(f"filter function {(h, j)}", fn, tau_tilde)
            # X_{t-h} for t = 1..T sits at extended row (t - h) - (1 - h_ext) = t + h_ext - h - 1
            rows = dev[h_ext - h: h_ext - h + t_len, j]
            curves = curves + np.outer(rows, coef[h_ext + h, :, j])

        noisy_curves = curves
        if spec.curve_error_scale > 0:
            # Smooth disturbances: shifted-Legendre combination with decaying scores.
            s = 2.0 * tau_tilde - 1.0
            basis = np.stack([np.ones_like(s), s, 0.5 * (3 * s * s - 1), 0.5 * (5 * s ** 3 - 3 * s)])
            amps = spec.curve_error_scale / (1.0 + np.arange(basis.shape[0]))
            scores = rng.standard_normal((t_len, basis.shape[0])) * amps
            noisy_curves = curves + scores @ basis

        if spec.noise_sd > 0:
            noisy_curves = noisy_curves + spec.noise_sd * rng.standard_normal((t_len, n_mat))

        panel = SparseYieldPanel(values=noisy_curves, observed=np.ones((t_len, n_mat), dtype=bool),
                                 maturity_grid=spec.maturity_grid)
        macro = MacroPanel(values=spec.macro_mean + dev[h_ext: h_ext + t_len],
                           series_names=tuple(f"X{j + 1}" for j in range(spec.n_series)))
        model = LaggedRegressionFit(coef, spec.maturity_grid.maturities, tau_tilde, mean, spec.macro_mean)
        truth = SimulationTruth(model=model, regression_curves=curves)
    return panel, macro, truth


def recovery_spec(seed: int = 0, null_model: bool = False) -> SyntheticSpec:
    """Reference experiment: one AR(1) regressor driving curves at lag 0.

    The lag-0 coefficient function is 1 - tau~ in warped coordinates; the
    null variant keeps the same generator with the filter switched off.
    """
    filter_fns = {} if null_model else {(0, 0): _falling_line}
    return SyntheticSpec(
        maturity_grid=MaturityGrid(np.array(US_MATURITIES)),
        n_times=2000,
        ar_coef=np.array([[0.7]]),
        innovation_cov=np.array([[1.0]]),
        macro_mean=np.zeros(1),
        mean_fn=_zero_mean,
        filter_fns=filter_fns,
        curve_error_scale=0.1,
        noise_sd=0.05,
        seed=seed,
    )
