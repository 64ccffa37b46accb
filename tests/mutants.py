"""A catalogue of mutants of ``src/sparselag``: faults the test suite must reject.

A mutant replaces one exact text of one source file.  The runner copies
``src/`` to a temporary directory, applies the mutant there and runs the
mutant's test files against the copy with ``pytest -x``.  The mutant is killed
if a test fails, and survives if all pass.

    python tests/mutants.py                 # every mutant
    python tests/mutants.py NAME [NAME ...]  # the named ones
    python tests/mutants.py --list           # names, files and sources

It prints one line per mutant and exits 1 if any survives (or its tests cannot
run).  It needs only the standard library and pytest.  ``tests/test_mutants.py``
checks that each ``old`` text occurs exactly once in its file, so a refactor
that changes a mutated line has to update its entry here.  A survivor is a gap
in the tests: record it as a FOUND line in CHANGES.md, and never weaken a test
to decide a mutant's fate.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str                  # under src/sparselag
    old: str                   # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]     # under tests/
    source: str                # a phrase of the CHANGES.md line that reports the fault or the code


MUTANTS = (
    Mutant("label-axis-stride", "_floattext.py",
           "math.prod(sizes[k + 1:])", "math.prod(sizes[k:])",
           ("test_io.py",), "One layout rule for every result table"),
    Mutant("label-repeat-tile-swapped", "_floattext.py",
           "np.tile(np.repeat(labels(axis), math.prod(sizes[k + 1:]), axis=0), (math.prod(sizes[:k]), 1))",
           "np.repeat(np.tile(labels(axis), (math.prod(sizes[k + 1:]), 1)), math.prod(sizes[:k]), axis=0)",
           ("test_io.py",), "One layout rule for every result table"),
    Mutant("lag-sum-chunk-edge", "mv_spectral.py",
           "for t in range(0, len(a), CHUNK)", "for t in range(0, len(a), CHUNK + 1)",
           ("test_mv_spectral.py",), "Thread-invariant lag sums"),
    Mutant("lag-sum-last-chunk-dropped", "mv_spectral.py",
           "for t in range(0, len(a), CHUNK)", "for t in range(0, len(a) - 1, CHUNK)",
           ("test_mv_spectral.py",), "Thread-invariant lag sums"),
    Mutant("lines-block-offset", "_floattext.py",
           "slice(start, start + _BLOCK)", "slice(start + 1, start + 1 + _BLOCK)",
           ("test_floattext.py",), "Every number of a result bundle in one digit search"),
    Mutant("digits-halfway-unchecked", "_floattext.py",
           "(unique16 & (trips16 |", "((trips16 |",
           ("test_floattext.py",), "Result numbers turned into text in bulk by an exact shortest-round-trip kernel"),
    Mutant("digits-nearest-the-far-way", "_floattext.py",
           "return (n + (above < below)) * q", "return (n + (above > below)) * q",
           ("test_floattext.py",), "Result numbers turned into text in bulk by an exact shortest-round-trip kernel"),
    Mutant("density-not-conjugated", "mv_spectral.py",
           "half[:, i, i + 1:] = np.conj(half[:, i + 1:, i])", "half[:, i, i + 1:] = half[:, i + 1:, i]",
           ("test_mv_spectral.py",), "an exactly Hermitian regressor spectrum"),
    Mutant("autocovariance-mirror-untransposed", "mv_spectral.py",
           "mats[: q - 1] = np.swapaxes(mats[: q - 1: -1], 1, 2)", "mats[: q - 1] = mats[: q - 1: -1]",
           ("test_mv_spectral.py",), "One lagged-product kernel and one Fourier convention"),
    Mutant("cross-counts-all-observed", "cross_spectral.py",
           "np.cumsum(panel.observed, axis=0", "np.cumsum(np.ones_like(panel.observed), axis=0",
           ("test_statistics.py",), "The sparse regime the paper is named for"),
    Mutant("cross-counts-shifted", "cross_spectral.py",
           "seen[panel.n_times + np.minimum(h, 0)] - seen[np.maximum(h, 0)]",
           "seen[panel.n_times + np.minimum(h, 0) - 1] - seen[np.maximum(h, 0)]",
           ("test_cross_spectral.py",), "lag counts by prefix sums"),
    Mutant("bartlett-span", "mv_spectral.py",
           "return 1.0 - np.abs(h) / q", "return 1.0 - np.abs(h) / (q + 1)",
           ("test_mv_spectral.py",), "One lagged-product kernel and one Fourier convention"),
    Mutant("analyze-overflow-unguarded", "pipeline.py",
           'with np.errstate(over="ignore", invalid="ignore"):   # an overflow fails the next finiteness check',
           "if True:",
           ("test_cli.py", "test_pipeline.py"), "One owner for the failure policy"),
    Mutant("staged-file-left-behind", "io.py",
           "                path.unlink()", "                pass",
           ("test_io.py", "test_cli.py"), "writes every file into a temporary sibling"),
    Mutant("grid-never-doubled", "pipeline.py",
           "if _aliasing_edge_ratio(response) <= ALIASING_LEVEL:", "if True:",
           ("test_pipeline.py",), "A frequency grid chosen per run"),
    Mutant("grid-always-doubled", "pipeline.py",
           "if _aliasing_edge_ratio(response) <= ALIASING_LEVEL:", "if False:",
           ("test_pipeline.py",), "The frequency-grid choice has one owner"),
    Mutant("grid-edge-read-at-half", "pipeline.py",
           "peak, edge = magnitude.max(), response.grid.n_nodes // 2 - 1",
           "peak, edge = magnitude.max(), response.grid.n_nodes // 2",
           ("test_pipeline.py",), "A frequency grid chosen per run"),
    Mutant("grid-start-at-lag-reach", "pipeline.py",
           "START_FACTOR * (q + h_max)", "(2 * h_max + 2)",
           ("test_pipeline.py",), "A frequency grid chosen per run"),
    Mutant("explicit-grid-doubled", "pipeline.py",
           "else [config.n_omega]", "else [config.n_omega << k for k in range(MAX_DOUBLINGS + 1)]",
           ("test_pipeline.py",), "A frequency grid chosen per run"),
    Mutant("warp-domain-nan", "warp.py",
           "if not np.all((t_arr >= -_DOMAIN_TOL) & (t_arr <= 1.0 + _DOMAIN_TOL)):",
           "if np.any((t_arr < -_DOMAIN_TOL) | (t_arr > 1.0 + _DOMAIN_TOL)):",
           ("test_warp.py",), "`warp_apply` (`src/sparselag/warp.py`) accepts NaN"),
    Mutant("smoother-determinant-sign", "smoother.py",
           "det = s0 * s2 - s1 * s1", "det = s0 * s2 + s1 * s1",
           ("test_smoother.py",), "One knot-level local-linear operator"),
    Mutant("grid-size-truncated", "model.py",
           '_check_integers(n_nodes=self.n_nodes)', 'object.__setattr__(self, "n_nodes", int(self.n_nodes))',
           ("test_model.py",), "Each input rule has one raiser"),
    Mutant("span-integer-clause-dropped", "model.py",
           "if not isinstance(q, numbers.Integral) or q < 1:", "if q < 1:",
           ("test_model.py",), "Each input rule has one raiser"),
    Mutant("cli-horizons-unchecked", "cli.py",
           "_check_horizons(panel.n_times, macro.n_times)", "None",
           ("test_cli.py",), "Each input rule has one raiser"),
    Mutant("stationarity-boundary", "simulate.py",
           "if rho >= 1.0:", "if rho > 1.0:",
           ("test_model.py",), "Each input rule has one raiser"),
    Mutant("eval-grid-knot-twin-kept", "pipeline.py",
           ".min(axis=1) > 1e-12", ".min(axis=1) > 0.0",
           ("test_pipeline.py",), "Each maturity knot is in the evaluation grid once"),
    Mutant("digits-high-part-uncarried", "_floattext.py",
           "(mantissa * five - low.astype(np.float64)) * 2.0 ** -64", "mantissa * five * 2.0 ** -64",
           ("test_floattext.py",), "dropping the 128-bit carry"),
    Mutant("simulate-overflow-unguarded", "simulate.py",
           'with np.errstate(over="ignore", invalid="ignore"):   # an overflow fails the panel\'s finiteness check',
           "if True:",
           ("test_cli.py", "test_simulate.py"), "so a finite but huge spec prints numpy RuntimeWarnings"),
    Mutant("cli-overflow-unguarded", "cli.py",
           'with np.errstate(over="ignore", invalid="ignore"):   # an overflow surfaces as a typed error',
           "if True:",
           ("test_cli.py",), "One owner for the failure policy"),
    Mutant("self-paired-check-dropped", "model.py",
           "if not np.abs(operator).sum(axis=1).max() * self_paired <= cls._symmetry[0]:", "if False:",
           ("test_mv_spectral.py",), "no self-paired check in `from_knots`"),
    Mutant("autocovariance-finiteness-dropped", "mv_spectral.py",
           'raise ValueError(f"autocovariance at lag {self.lags[np.argmin(finite)]} not finite")', "pass",
           ("test_model.py", "test_mv_spectral.py", "test_cli.py"), "no `AutocovarianceSet` finiteness raise"),
    Mutant("quadrature-exponent-flipped", "lagreg.py",
           "[lags % n]", "[-lags % n]",
           ("test_lagreg.py",), "a flipped quadrature exponent"),
    Mutant("quadrature-sign-dropped", "lagreg.py",
           "((-1.0) ** lags * coef.T).T", "coef",
           ("test_lagreg.py",), "The spectral transforms are numpy FFTs"),
    Mutant("response-unconjugated", "lagreg.py",
           "FrequencyResponseField.from_knots(cross.grid, np.conj(z), cross.operator)",
           "FrequencyResponseField.from_knots(cross.grid, z, cross.operator)",
           ("test_lagreg.py",), "`frequency_response` without its conjugation"),
    Mutant("condition-singular-divided", "mv_spectral.py",
           "where=lo > 0", "where=lo >= 0",
           ("test_mv_spectral.py",), "`where=lo >= 0`"),
    Mutant("condition-signed-eigenvalues", "mv_spectral.py",
           "mags = np.abs(np.linalg.eigvalsh(self.half))", "mags = np.linalg.eigvalsh(self.half)",
           ("test_mv_spectral.py",), "signed eigenvalues"),
    Mutant("phase-sign-flipped", "mv_spectral.py",
           "buffer[lags % len(buffer)]", "buffer[-lags % len(buffer)]",
           ("test_cli.py",), "the flipped phase sign"),
    Mutant("transform-sign-dropped", "mv_spectral.py",
           "weights = (-1.0) ** lags * bartlett_weights(q)", "weights = bartlett_weights(q)",
           ("test_mv_spectral.py",), "The spectral transforms are numpy FFTs"),
    Mutant("transform-fold-dropped", "mv_spectral.py",
           "reduce(np.add, buffer.reshape(blocks, n, *lag_values.shape[1:]))", "buffer[:n]",
           ("test_mv_spectral.py",), "The spectral transforms are numpy FFTs"),
    Mutant("check-inverse-transform-conjugated", "checks.py",
           "np.exp(1j * np.outer(grid.nodes, acov.lags))", "np.exp(-1j * np.outer(grid.nodes, acov.lags))",
           ("test_cli.py",), "lag-window inverse transform"),
    Mutant("response-threshold-unchecked", "lagreg.py",
           "    _check_cond_threshold(cond_threshold)\n", "",
           ("test_model.py",), "One owner per stage rule"),
    Mutant("threshold-one-accepted", "model.py",
           "if not (1.0 < cond_threshold < math.inf):", "if not (1.0 <= cond_threshold < math.inf):",
           ("test_model.py",), "One owner per stage rule"),
    Mutant("lag-reach-integer-clause-dropped", "model.py",
           "    _check_integers(n_omega=n_omega)\n", "",
           ("test_model.py",), "One owner per stage rule"),
    Mutant("bandwidth-nan-passes", "smoother.py",
           "if not bandwidth > 0:", "if bandwidth <= 0:",
           ("test_model.py",), "One owner per stage rule"),
    Mutant("burn-in-floor-dropped", "simulate.py",
           "return max(_BURN_IN, math.ceil(steps))", "return math.ceil(steps)",
           ("test_simulate.py",), "burn-in sized from the spectral radius"),
    Mutant("burn-in-cap-dropped", "simulate.py",
           "if rho > _MAX_RADIUS:", "if False:",
           ("test_simulate.py",), "burn-in sized from the spectral radius"),
    Mutant("burn-in-fixed", "simulate.py",
           "burn_in = spec.burn_in", "burn_in = _BURN_IN",
           ("test_simulate.py",), "burn-in sized from the spectral radius"),
    Mutant("walk-row-length-unchecked", "io.py",
           "if len(row) != n_cols:", "if False:",
           ("test_io.py",), "a walk over the rows that builds nothing"),
    Mutant("blank-line-kept-as-no-cells", "io.py",
           'body = [row or [""] for row in rows[1:]]', "body = rows[1:]",
           ("test_io.py",), "a blank line in a CSV is one empty cell"),
    Mutant("walk-missing-ok-ignored", "io.py",
           "elif not missing_ok:", "else:",
           ("test_io.py", "test_cli.py"), "a walk over the rows that builds nothing"),
    Mutant("one-pass-finiteness-dropped", "io.py",
           "if np.isfinite(found).all() and (missing_ok or present.all()):", "if missing_ok or present.all():",
           ("test_io.py",), "`_parse_cells` parses a table's stripped non-empty cells"),
    Mutant("one-pass-missing-rule-dropped", "io.py",
           "if np.isfinite(found).all() and (missing_ok or present.all()):", "if np.isfinite(found).all():",
           ("test_io.py",), "`_parse_cells` parses a table's stripped non-empty cells"),
    Mutant("parse-float-finiteness-dropped", "io.py",
           "if not math.isfinite(value):", "if False:",
           ("test_io.py",), "`io._parse_float` uses `math.isfinite`"),
    Mutant("csv-byte-order-mark-kept", "io.py",
           'encoding="utf-8-sig") as fh', 'encoding="utf-8") as fh',
           ("test_io.py",), "a UTF-8 byte-order mark"),
    Mutant("config-byte-order-mark-kept", "cli.py",
           'read_text(encoding="utf-8-sig")', 'read_text(encoding="utf-8")',
           ("test_cli.py",), "a UTF-8 byte-order mark"),
    Mutant("config-repeated-key-accepted", "cli.py",
           "if key in seen_at:", "if False:",
           ("test_cli.py",), "rejects a key set twice"),
    Mutant("config-unknown-key-accepted", "cli.py",
           "if unknown:", "if False:",
           ("test_cli.py",), "config failures (unknown key"),
    Mutant("filter-lag-leading-zero", "cli.py",
           "(0|-?[1-9][0-9]*)_j", "(-?[0-9]+)_j",
           ("test_cli.py",), "one spelling per filter term"),
    Mutant("filter-series-leading-zero", "cli.py",
           "_j([1-9][0-9]*)", "_j([0-9]+)",
           ("test_cli.py",), "one spelling per filter term"),
    Mutant("filter-series-bound-off-by-one", "cli.py",
           "if not 1 <= j <= d:", "if not 1 <= j <= d + 1:",
           ("test_cli.py",), "one spelling per filter term"),
    Mutant("parse-error-column-dropped", "errors.py",
           'message += f" (row {row}, column {column})"', 'message += f" (row {row})"',
           ("test_io.py",), "with every `ParseError` message and location unchanged"),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or 'error' (the tests did not run to a verdict)."""
    with tempfile.TemporaryDirectory(prefix="sparselag-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "sparselag" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "error"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        tests = [str(ROOT / "tests" / name) for name in mutant.tests]
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=ROOT, env=env, capture_output=True, text=True)
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(f"{mutant.name}  {mutant.file}  ({mutant.source})")
        return 0
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    verdicts = {}
    for mutant in (by_name[name] for name in argv) if argv else MUTANTS:
        verdicts[mutant.name] = run(mutant)
        print(f"{verdicts[mutant.name]:8}  {mutant.name}", flush=True)
    killed = sum(verdict == "killed" for verdict in verdicts.values())
    print(f"{killed} of {len(verdicts)} killed")
    return 0 if killed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
