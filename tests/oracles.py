"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive (plain loops, library least-squares
and root finding) and shares no code with the production paths it checks.
The two exceptions take library pieces because their subject is another
step: ``brentq_warp_inverse`` evaluates phi with the library's knots, slopes
and Hermite evaluator to pin the inverse, and ``naive_result_rows`` takes its
predictions from the full-grid ``predict_panel``, its maturity lookup from
the library and the knot fields' N nodes from ``FrequencyGrid.mirror``,
because its subject is the text formatting, which must match bit for bit.  ``loop_var1_deviations`` is the simulator's original
matrix loop, kept verbatim (with the spec's ``burn_in``) to pin the
scalar-recursion path for diagonal A bit for bit.
"""

import numpy as np
from scipy.optimize import brentq


def naive_spectral_density(matrices, lags, weights, nodes):
    """Triple-loop lag-window spectral density, no vectorization."""
    n_lags, d, _ = matrices.shape
    out = np.zeros((len(nodes), d, d), dtype=complex)
    for k, omega in enumerate(nodes):
        acc = np.zeros((d, d), dtype=complex)
        for l in range(n_lags):
            phase = complex(np.cos(lags[l] * omega), -np.sin(lags[l] * omega))
            for a in range(d):
                for b in range(d):
                    acc[a, b] += weights[l] * matrices[l, a, b] * phase
        out[k] = acc / (2.0 * np.pi)
    return out


def full_grid_reference(grid, cross_lags, density_lags):
    """The spectral steps on all N nodes: (Z, F, cond, B).

    Z is the lag-window transform of the cross lags with the (N, 2q-1) kernel W_h e^{-i h omega_k},
    F that of the density lags over 2pi, made Hermitian as the estimator makes
    it (the conjugate of the lower triangle above the diagonal, the real part
    on it), cond the per-node |eigenvalue| ratio of F (inf where singular) and
    B the response knots solving B F = Z.
    """
    q = (len(cross_lags) + 1) // 2
    lags = np.arange(1 - q, q)
    kernel = np.exp(-1j * np.outer(grid.nodes, lags)) * (1.0 - np.abs(lags) / q)
    z = np.tensordot(kernel, cross_lags, axes=1)
    f = np.tensordot(kernel, density_lags, axes=1) / (2.0 * np.pi)
    for i in range(f.shape[1]):
        f[:, i, i] = f[:, i, i].real
        for j in range(i + 1, f.shape[1]):
            f[:, i, j] = np.conj(f[:, j, i])
    mags = np.abs(np.linalg.eigvalsh(f))
    lo, hi = mags.min(axis=1), mags.max(axis=1)
    cond = np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 0)
    b = np.conj(np.swapaxes(np.linalg.solve(f, np.conj(np.swapaxes(z, 1, 2))), 1, 2))
    return z, f, cond, b


def lag_domain_filter(autocov, cross_sums, smoother, n_omega, h_max, reach=300):
    """The filter (2H+1, R, d) from the lag-domain normal equations, one dense solve.

    With the triangular weights W_h = 1 - |h|/q, A_h = W_h R_h / 2pi and C_h = W_h S_h for the
    autocovariances R (2q-1, d, d) and the raw cross sums S (2q-1, I, d), the knot response is the
    lag sequence kappa solving sum_k kappa_k A_{h-k} = C_h (Brillinger 1981), taken on the finite
    section |h|, |k| <= reach.  The rectangle rule on n_omega nodes returns kappa folded modulo
    n_omega (Gray 2006), and the smoother (q/2pi) L (L the real (R, I) knot operator) maps the
    folded lags to the evaluation points.
    """
    q = (len(autocov) + 1) // 2
    d, n_knots, size = autocov.shape[1], cross_sums.shape[1], 2 * reach + 1
    weights = 1.0 - np.abs(np.arange(1 - q, q)) / q
    a = weights[:, None, None] * autocov / (2.0 * np.pi)
    c = weights[:, None, None] * cross_sums
    # block (k, h) of the system matrix is A_{h-k}; kappa is one row vector per knot
    blocks = np.zeros((size, size, d, d))
    for l, lag in enumerate(range(1 - q, q)):
        k = np.arange(max(0, -lag), min(size, size - lag))
        blocks[k, k + lag] = a[l]
    system = blocks.transpose(0, 2, 1, 3).reshape(size * d, size * d)
    rhs = np.zeros((n_knots, size, d))
    rhs[:, reach + 1 - q: reach + q] = np.swapaxes(c, 0, 1)
    kappa = np.linalg.solve(system.T, rhs.reshape(n_knots, -1).T).T.reshape(n_knots, size, d)
    folded = np.zeros((2 * h_max + 1, n_knots, d))
    for k in range(-reach, reach + 1):
        h = (k + n_omega // 2) % n_omega - n_omega // 2
        if abs(h) <= h_max:
            folded[h + h_max] += kappa[:, k + reach]
    return np.einsum("ri,lid->lrd", q / (2.0 * np.pi) * smoother, folded)


def loop_var1_deviations(spec, rng, n_steps):
    """VAR(1) deviations by one ``A @ x + shock`` matrix step per date."""
    chol = np.linalg.cholesky(spec.innovation_cov)
    shocks = rng.standard_normal((spec.burn_in + n_steps, spec.n_series)) @ chol.T
    out = np.empty((spec.burn_in + n_steps, spec.n_series))
    x = np.zeros(spec.n_series)
    for t in range(spec.burn_in + n_steps):
        x = spec.ar_coef @ x + shocks[t]
        out[t] = x
    return out[spec.burn_in:]


def lstsq_locallin(x, z, w, x0):
    """Weighted local-linear fit via library least squares on sqrt-weights."""
    keep = w > 0
    sw = np.sqrt(w[keep])
    design = np.column_stack([sw, sw * (x0 - x[keep])])
    if np.iscomplexobj(z):
        design = design.astype(complex)
    coef, *_ = np.linalg.lstsq(design, sw * z[keep], rcond=None)
    return coef[0], coef[1]


def loop_autocovariance(values, h):
    """Definition-level empirical autocovariance, divisor T."""
    t_len, d = values.shape
    mu = values.mean(axis=0)
    acc = np.zeros((d, d))
    if h >= 0:
        for t in range(t_len - h):
            acc += np.outer(values[t + h] - mu, values[t] - mu)
    else:
        return loop_autocovariance(values, -h).T
    return acc / t_len


def loop_prediction(fit, macro_values, macro_means, t_one_based):
    """Definition-level prediction with explicit mean imputation."""
    t_len = macro_values.shape[0]
    pred = fit.mean_curve.copy()
    for l, h in enumerate(fit.lags):
        s = t_one_based - int(h)
        if 1 <= s <= t_len:
            xc = macro_values[s - 1] - macro_means
        else:
            xc = np.zeros(macro_values.shape[1])
        for j in range(macro_values.shape[1]):
            pred = pred + fit.filter_coef[l, :, j] * xc[j]
    return pred


def loop_limited_slopes(x, y):
    """Fritsch-Carlson derivative choices: monotone, no interval overshoot."""
    h = np.diff(x)
    d = np.diff(y) / h
    n = x.size
    m = np.zeros(n)

    # Interior knots: weighted harmonic mean of adjacent secants, zero when
    # the secants disagree in sign (cannot happen for increasing knots).
    for i in range(1, n - 1):
        if d[i - 1] * d[i] <= 0.0:
            m[i] = 0.0
        else:
            w1 = 2.0 * h[i] + h[i - 1]
            w2 = h[i] + 2.0 * h[i - 1]
            m[i] = (w1 + w2) / (w1 / d[i - 1] + w2 / d[i])

    m[0] = _edge_slope(h[0], h[1], d[0], d[1])
    m[-1] = _edge_slope(h[-1], h[-2], d[-1], d[-2])
    return m


def _edge_slope(h0, h1, d0, d1):
    # One-sided three-point estimate, clipped so the end interval stays monotone.
    m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if np.sign(m) != np.sign(d0):
        return 0.0
    if np.sign(d0) != np.sign(d1) and abs(m) > 3.0 * abs(d0):
        return 3.0 * d0
    return m


def brentq_warp_inverse(grid, tau):
    """Per-point root bracketing of the grid's phi(x) = tau on the cubic piece holding tau.

    Takes phi from the library's Hermite evaluator; its subject is the inverse.
    """
    from sparselag.warp import _hermite_eval, _knots

    knots = _knots(grid)
    knots_x, knots_y, _ = knots

    def one(t):
        piece = int(np.clip(np.searchsorted(knots_y, t, side="right") - 1, 0, knots_y.size - 2))
        if t == knots_y[piece]:
            return float(knots_x[piece])
        if t == knots_y[piece + 1]:
            return float(knots_x[piece + 1])
        a, b = knots_x[piece], knots_x[piece + 1]
        return float(brentq(lambda s: _hermite_eval(knots, np.asarray(s)) - t, a, b,
                            xtol=1e-14, rtol=4.0 * np.finfo(float).eps))

    return np.array([one(t) for t in np.asarray(tau, dtype=float)])


def _fmt(x: float) -> str:
    return repr(float(x))


def naive_result_rows(result, panel, macro):
    """Per-element result-table rows, keyed by table name, as strings."""
    from sparselag.lagreg import _eval_indices, predict_panel

    fit = result.fit
    names = macro.series_names
    omegas = result.spectral_density.grid.nodes

    mean_rows = [(_fmt(tau), _fmt(tw), _fmt(mu))
                 for tau, tw, mu in zip(fit.eval_tau, fit.eval_warped, fit.mean_curve)]

    filt_rows = [
        (names[j], str(int(h)), _fmt(tau), _fmt(fit.filter_coef[l, r, j]))
        for j in range(fit.n_series)
        for l, h in enumerate(fit.lags)
        for r, tau in enumerate(fit.eval_tau)
    ]

    spec_rows = [
        (_fmt(om), names[a], names[b],
         _fmt(result.spectral_density.values[k, a, b].real),
         _fmt(result.spectral_density.values[k, a, b].imag))
        for k, om in enumerate(omegas)
        for a in range(len(names))
        for b in range(len(names))
    ]

    def knot_rows(field):
        values = field.grid.mirror(field.knot_values)
        return [
            (_fmt(om), _fmt(tau), names[j], _fmt(values[k, i, j].real), _fmt(values[k, i, j].imag))
            for k, om in enumerate(omegas)
            for i, tau in enumerate(panel.maturity_grid.maturities)
            for j in range(len(names))
        ]

    cols = _eval_indices(fit, panel.maturity_grid.maturities)
    pred = predict_panel(fit, macro)[:, cols]
    fitted_rows = [
        (str(t + 1), _fmt(tau),
         _fmt(panel.values[t, i]) if panel.observed[t, i] else "",
         _fmt(pred[t, i]))
        for t in range(panel.n_times)
        for i, tau in enumerate(panel.maturity_grid.maturities)
    ]

    return {
        "mean_curve": mean_rows,
        "filter_coefficients": filt_rows,
        "spectral_density": spec_rows,
        "cross_spectral": knot_rows(result.cross_spectral),
        "frequency_response": knot_rows(result.frequency_response),
        "fitted": fitted_rows,
    }
