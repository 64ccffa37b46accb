"""CSV and JSON persistence for panels, results, and diagnostics.

Formats are deliberately plain: UTF-8, LF line endings, comma separator,
dot decimal point, no locale dependence.  Numbers are written in Python's
shortest round-trip form, the text of ``repr``, so save/load round trips are
bit-exact; an empty cell is a missing value (NaN) both ways.  The private
``_floattext`` formats whole arrays at once into one blob of lines per table.
A result table is an array in C order, one row per entry after a label column
per axis.  The yields format carries the maturity grid (decimal years) in its
header; the regressor format has a name header and admits no missing
cells.  The cross-spectral and response tables hold their fields at the
quoted maturities; summary.json holds the operator that smooths them onto
the evaluation grid, its weights formatted in bulk like the tables.
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

from ._floattext import encode, float_texts, lines
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
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise ParseError(f"file not found: {path}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise ParseError(f"empty file: {path}")
    return rows


def _parse_cells(rows, n_cols: int, missing_ok: bool) -> np.ndarray:
    """The rows after the header as a float matrix; an empty cell is NaN if ``missing_ok``.

    A blank line, which ``csv.reader`` reads as no cells, is one empty cell.  Parses every
    non-empty cell in one pass with ``float``; on any error a walk over the rows raises the
    ParseError of the first bad row or cell.
    """
    body = [row or [""] for row in rows[1:]]
    if all(len(row) == n_cols for row in body):
        cells = [cell.strip() for row in body for cell in row]
        present = np.fromiter(map(bool, cells), bool, len(cells))
        with contextlib.suppress(ValueError):
            found = np.fromiter(map(float, filter(None, cells)), float)
            if np.isfinite(found).all() and (missing_ok or present.all()):
                values = np.full(len(cells), np.nan)
                values[present] = found
                return values.reshape(len(body), n_cols)
    for r, row in enumerate(body, start=2):
        if len(row) != n_cols:
            raise ParseError("blank line" if not rows[r - 1] else f"expected {n_cols} cells, found {len(row)}", row=r)
        for c, cell in enumerate(map(str.strip, row), start=1):
            if cell:
                _parse_float(cell, r, c)
            elif not missing_ok:
                raise ParseError("missing value in regressor panel", row=r, column=c)
    raise AssertionError("the one-pass parse fails only where the walk raises")


def load_yields_csv(path) -> SparseYieldPanel:
    """Load a curve panel; header = maturities in years, empty cell = missing."""
    rows = _read_rows(path)
    header = rows[0]
    maturities = [_parse_float(cell.strip(), 1, c + 1) for c, cell in enumerate(header)]
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
    header = b",".join(float_texts(panel.maturity_grid.maturities))
    _write_table(header, lines(*panel.values.T), Path(path))


def write_macro_csv(macro: MacroPanel, path) -> None:
    header = ",".join(macro.series_names).encode()
    _write_table(header, lines(*macro.values.T), Path(path))


def sha256_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class ResultBundle:
    """Plot-ready tables plus a JSON summary; every table carries its grids.

    A table is (column names, blob): one ``bytes`` of LF-terminated lines, one line
    of comma-joined UTF-8 cells per row (``blob.splitlines()`` lists them).
    """

    mean_curve: tuple        # (columns, blob)
    filter_coefficients: tuple
    spectral_density: tuple
    cross_spectral: tuple
    frequency_response: tuple
    fitted: tuple
    summary: dict

    TABLES = ("mean_curve", "filter_coefficients", "spectral_density", "cross_spectral", "frequency_response", "fitted")


def build_result_bundle(result: AnalysisResult, panel: SparseYieldPanel, macro: MacroPanel,
                        input_digests: dict | None = None) -> ResultBundle:
    """Flatten an analysis into self-describing long-format tables.

    Every spectral field f of a real-valued panel satisfies
    f(omega_{(-k) mod N}) = conj f(omega_k), so the three spectral tables
    hold only nodes k = 0..N/2 (omega in [-pi, 0]); ``FrequencyGrid.mirror``
    rebuilds the other nodes.  Every spectral table writes its field's
    ``knot_values``: the regressor density's are its nodes themselves, and the
    cross-spectral and response fields' are Z at the I quoted maturities;
    ``summary["smoothing_operator"]`` holds the real (R, I) operator L they share,
    so that their nodes at the R evaluation maturities are L @ Z (``SpectralField.from_knots``).

    Each table is an array written in C order, one row per entry, after one
    label column per axis; ``_floattext.lines`` lays both out.  Every number of
    the tables, the grids' included, goes through one digit search
    (``_floattext.encode``), and each grid is formatted once.
    """
    fit, density = result.fit, result.spectral_density
    maturities = panel.maturity_grid.maturities
    stored = (density.knot_values, result.cross_spectral.knot_values, result.frequency_response.knot_values)
    omegas, taus, knot_taus, warped, mean, coef, observed, fitted, *parts = encode(
        density.grid.nodes[:len(density.knot_values)], fit.eval_tau, maturities, fit.eval_warped, fit.mean_curve,
        fit.filter_coef.transpose(2, 0, 1), panel.values, predict_panel(fit, macro, maturities),
        *(part for knots in stored for part in (knots.real, knots.imag)))
    omega_texts, tau_texts, knot_texts = (lines(grid).splitlines() for grid in (omegas, taus, knot_taus))
    names = [name.encode() for name in macro.series_names]
    t_texts, lag_texts = [b"%d" % t for t in range(1, panel.n_times + 1)], [b"%d" % h for h in fit.lags]
    at_knots = ("omega", "tau", "series", "real", "imag"), (omega_texts, knot_texts, names)
    tables = (
        ("mean_curve", ("tau", "tau_warped", "mean"), (), (taus, warped, mean)),
        ("filter_coefficients", ("series", "lag", "tau", "coefficient"), (names, lag_texts, tau_texts), (coef,)),
        ("spectral_density", ("omega", "row_series", "col_series", "real", "imag"), (omega_texts, names, names),
         parts[0:2]),
        ("cross_spectral", *at_knots, parts[2:4]),
        ("frequency_response", *at_knots, parts[4:6]),
        ("fitted", ("t", "tau", "observed", "fitted"), (t_texts, knot_texts), (observed, fitted)),
    )
    summary = {
        "r_squared": result.r_squared,
        "n_times": panel.n_times,
        "n_maturities": panel.n_maturities,
        "n_series": macro.n_series,
        "series_names": list(macro.series_names),
        "config": {**asdict(result.config), "n_omega": density.grid.n_nodes},     # the grid the run used
        "diagnostics": asdict(result.diagnostics),
        "input_digests": input_digests or {},
        "smoothing_operator": {"tau": fit.eval_tau.tolist(), "knot_tau": maturities.tolist(),
                               "weights": result.cross_spectral.operator.tolist()},
    }
    return ResultBundle(**{name: (heads, lines(*values, axes=axes)) for name, heads, axes, values in tables},
                        summary=summary)


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


def _write_table(header: bytes, blob: bytes, path) -> None:
    """The header line, then the table's LF-terminated lines, without copying the blob."""
    with path.open("wb") as fh:
        fh.writelines((header, b"\n", blob))


def summary_json(summary: dict) -> bytes:
    """``json.dumps(summary, indent=2, sort_keys=True)`` and a line end, as UTF-8 bytes.

    The operator weights, formatted in bulk, replace their empty stand-in in the
    text of the rest (a key's quotes are never escaped); they must be a finite
    matrix with a row and a column, or ValueError: json would write NaN.
    """
    operator = summary["smoothing_operator"]
    weights = np.asarray(operator["weights"], dtype=float)
    if weights.ndim != 2 or not weights.size or not np.isfinite(weights).all():
        raise ValueError("smoothing operator weights must be a finite, non-empty matrix")
    rest = {**summary, "smoothing_operator": {**operator, "weights": []}}
    head, tail = json.dumps(rest, indent=2, sort_keys=True).encode().split(b'"weights": []')
    rows = (row.replace(b",", b",\n        ") for row in lines(*weights.T).splitlines())
    body = b"\n      ],\n      [\n        ".join(rows)
    return head + b'"weights": [\n      [\n        ' + body + b"\n      ]\n    ]" + tail + b"\n"


def write_results(bundle: ResultBundle, out_dir) -> list[Path]:
    """Write one CSV per table plus summary.json; returns the manifest.

    The files appear all or nothing (see ``write_staged``).  Re-running with
    identical inputs reproduces byte-identical files.
    """
    writers = {}
    for name in ResultBundle.TABLES:
        columns, blob = getattr(bundle, name)
        writers[f"{name}.csv"] = functools.partial(_write_table, ",".join(columns).encode(), blob)
    summary = summary_json(bundle.summary)
    writers["summary.json"] = lambda path: path.write_bytes(summary)
    return write_staged(out_dir, writers)
