"""CSV and JSON persistence for panels, results, and diagnostics.

Formats are deliberately plain: UTF-8, LF line endings, comma separator,
dot decimal point, no locale dependence.  Numbers are written in Python's
shortest round-trip form, so save/load round trips are bit-exact.  The
yields format carries the maturity grid (decimal years) in its header and
encodes missing cells as empty fields; the regressor format has a name
header and admits no missing cells.  The cross-spectral and response tables
hold their fields at the quoted maturities; summary.json holds the operator
that smooths them onto the evaluation grid.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .lagreg import predict_panel
from .model import MacroPanel, MaturityGrid, SparseYieldPanel
from .pipeline import AnalysisResult


def _parse_float(text: str, row: int, column: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse {text!r} as a number", row=row, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {text!r}", row=row, column=column)
    return value


def _read_rows(path) -> list[list[str]]:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh)]
    if not rows:
        raise ParseError(f"empty file: {path}")
    return rows


def _parse_cells(rows, n_cols: int, missing_ok: bool) -> np.ndarray:
    """The rows after the header as a float matrix; an empty cell is NaN if ``missing_ok``."""
    values = np.full((len(rows) - 1, n_cols), np.nan)
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != n_cols:
            raise ParseError(f"expected {n_cols} cells, found {len(row)}", row=r)
        for c, cell in enumerate(row):
            cell = cell.strip()
            if cell:
                values[r - 2, c] = _parse_float(cell, r, c + 1)
            elif not missing_ok:
                raise ParseError("missing value in regressor panel", row=r, column=c + 1)
    return values


def load_yields_csv(path) -> SparseYieldPanel:
    """Load a curve panel; header = maturities in years, empty cell = missing."""
    rows = _read_rows(path)
    header = rows[0]
    maturities = [_parse_float(cell.strip(), 1, c + 1) for c, cell in enumerate(header)]
    if any(b <= a for a, b in zip(maturities, maturities[1:])):
        raise ParseError("header maturities must be strictly increasing", row=1)
    try:
        grid = MaturityGrid(np.asarray(maturities))
    except ValueError as exc:
        raise ParseError(f"invalid maturity header: {exc}", row=1) from None

    values = _parse_cells(rows, len(maturities), missing_ok=True)
    try:
        return SparseYieldPanel.from_values(values, grid)
    except ValueError as exc:
        raise ParseError(f"invalid panel: {exc}") from None


def load_macro_csv(path) -> MacroPanel:
    """Load a regressor panel; header = series names, no missing cells."""
    rows = _read_rows(path)
    names = [cell.strip() for cell in rows[0]]
    if any(not name for name in names):
        raise ParseError("series names must be non-empty", row=1)
    values = _parse_cells(rows, len(names), missing_ok=False)
    try:
        return MacroPanel(values=values, series_names=tuple(names))
    except ValueError as exc:
        raise ParseError(f"invalid regressor panel: {exc}") from None


def write_yields_csv(panel: SparseYieldPanel, path) -> None:
    cells, width = _cells(panel), panel.n_maturities
    _write_table(_column(panel.maturity_grid.maturities),
                 [cells[k: k + width] for k in range(0, len(cells), width)], Path(path))


def write_macro_csv(macro: MacroPanel, path) -> None:
    _write_table(macro.series_names, map(_column, macro.values), Path(path))


def sha256_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class ResultBundle:
    """Plot-ready tables plus a JSON summary; every table carries its grids."""

    mean_curve: tuple        # (columns, rows)
    filter_coefficients: tuple
    spectral_density: tuple
    cross_spectral: tuple
    frequency_response: tuple
    fitted: tuple
    summary: dict

    TABLES = (
        "mean_curve", "filter_coefficients", "spectral_density",
        "cross_spectral", "frequency_response", "fitted",
    )


def _column(values) -> list[str]:
    """Shortest round-trip text of every value of a real array, in C order."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _cells(panel: SparseYieldPanel) -> list[str]:
    """Every cell of a curve panel in C order: its value's text, or an empty string if missing."""
    return [text if seen else "" for text, seen in
            zip(_column(panel.values), panel.observed.ravel().tolist())]


def _grid_column(labels, inner: int, outer: int) -> list[str]:
    """Each label repeated ``inner`` times, the whole run repeated ``outer`` times."""
    return [label for label in labels for _ in range(inner)] * outer


def build_result_bundle(result: AnalysisResult, panel: SparseYieldPanel, macro: MacroPanel,
                        input_digests: dict | None = None) -> ResultBundle:
    """Flatten an analysis into self-describing long-format tables.

    Every spectral field f of a real-valued panel satisfies
    f(omega_{(-k) mod N}) = conj f(omega_k), so the three spectral tables
    hold only nodes k = 0..N/2 (omega in [-pi, 0]); ``FrequencyGrid.mirror``
    rebuilds the other nodes.  The regressor density is written as its
    ``half``.  The cross-spectral and response fields are written as their
    ``knot_values`` Z at the I quoted maturities; ``summary["smoothing_operator"]``
    holds the real (R, I) operator L they share, so that their half at the R
    evaluation maturities is L @ Z (``SpectralField.from_knots``).

    Tables are built column by column: every grid value (frequency,
    maturity, lag, series name) is formatted once and its string reused on
    every row that carries it.
    """
    fit = result.fit
    names = macro.series_names
    n_series, n_eval = len(names), fit.eval_tau.size
    spec = result.spectral_density.half
    n_nodes = len(spec)
    omegas = _column(result.spectral_density.grid.nodes[:n_nodes])
    taus = _column(fit.eval_tau)
    maturities = panel.maturity_grid.maturities
    knot_taus = _column(maturities)

    mean_rows = list(zip(taus, _column(fit.eval_warped), _column(fit.mean_curve)))

    n_lags = fit.lags.size
    filt_rows = list(zip(
        _grid_column(names, n_lags * n_eval, 1),
        _grid_column([str(int(h)) for h in fit.lags], n_eval, n_series),
        _grid_column(taus, 1, n_series * n_lags),
        _column(fit.filter_coef.transpose(2, 0, 1)),
    ))

    def field_rows(half, rows):
        """One row per entry of a (nodes, rows, series) half: omega, row label, series, value."""
        return list(zip(_grid_column(omegas, len(rows) * n_series, 1),
                        _grid_column(rows, n_series, n_nodes),
                        _grid_column(names, 1, n_nodes * len(rows)),
                        _column(half.real), _column(half.imag), strict=True))

    fitted_rows = list(zip(
        _grid_column([str(t + 1) for t in range(panel.n_times)], panel.n_maturities, 1),
        _grid_column(knot_taus, 1, panel.n_times),
        _cells(panel),
        _column(predict_panel(fit, macro, maturities)),
    ))

    summary = {
        "r_squared": fit.r_squared,
        "n_times": panel.n_times,
        "n_maturities": panel.n_maturities,
        "n_series": macro.n_series,
        "series_names": list(names),
        "config": asdict(result.config),
        "diagnostics": {
            "max_imag_residual": result.diagnostics.max_imag_residual,
            "truncation_tail_mass": result.diagnostics.truncation_tail_mass,
            "max_condition_number": result.diagnostics.max_condition_number,
        },
        "input_digests": input_digests or {},
        "smoothing_operator": {"tau": fit.eval_tau.tolist(), "knot_tau": maturities.tolist(),
                               "weights": result.cross_spectral.operator.tolist()},
    }

    return ResultBundle(
        mean_curve=(("tau", "tau_warped", "mean"), mean_rows),
        filter_coefficients=(("series", "lag", "tau", "coefficient"), filt_rows),
        spectral_density=(("omega", "row_series", "col_series", "real", "imag"),
                          field_rows(spec, names)),
        cross_spectral=(("omega", "tau", "series", "real", "imag"),
                        field_rows(result.cross_spectral.knot_values, knot_taus)),
        frequency_response=(("omega", "tau", "series", "real", "imag"),
                            field_rows(result.frequency_response.knot_values, knot_taus)),
        fitted=(("t", "tau", "observed", "fitted"), fitted_rows),
        summary=summary,
    )


def write_staged(out_dir, writers: dict) -> list[Path]:
    """Write a set of files all or nothing; returns their paths in ``writers`` order.

    ``writers`` maps a file name to a callable that writes that file at the
    path it is given.  Every file is first written into a temporary sibling
    of ``out_dir`` and moved into place only after all writes succeeded.  On
    failure the staged files, and any already moved into ``out_dir``, are
    removed and the OSError is raised.
    """
    out_dir = Path(out_dir)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", suffix=".partial",
                                  dir=out_dir.parent))
    moved = []
    try:
        for name, write in writers.items():
            write(stage / name)
        out_dir.mkdir(exist_ok=True)
        for name in writers:
            os.replace(stage / name, out_dir / name)
            moved.append(out_dir / name)
    except OSError:
        for path in moved:
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return moved


def _write_table(columns, rows, path) -> None:
    """The header and one line per row, each LF-terminated, in one write."""
    path.write_text("\n".join([",".join(columns), *map(",".join, rows), ""]),
                    encoding="utf-8", newline="\n")


def write_results(bundle: ResultBundle, out_dir) -> list[Path]:
    """Write one CSV per table plus summary.json; returns the manifest.

    The files appear all or nothing (see ``write_staged``).  Re-running with
    identical inputs reproduces byte-identical files.
    """
    writers = {f"{name}.csv": functools.partial(_write_table, *getattr(bundle, name))
               for name in ResultBundle.TABLES}
    summary = json.dumps(bundle.summary, indent=2, sort_keys=True) + "\n"
    writers["summary.json"] = lambda path: path.write_text(summary, encoding="utf-8")
    return write_staged(out_dir, writers)
