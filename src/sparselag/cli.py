"""Command-line interface: analyze a panel pair, generate data, self-check.

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage or validation
error.  Config files are flat ``key = value`` text; ``#`` starts a comment
and a key may be set once.  Flags override file values.  All computation
happens before any output file is written, and the files of a run appear all
or nothing, so a failing stage (the write included) leaves no partial
results behind.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import typing
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io as sio
from . import simulate as sim
from .checks import run_builtin_checks
from .errors import IllConditioned, ParseError, ResidualImaginary
from .model import Config, MaturityGrid
from .pipeline import analyze


class StageError(Exception):
    def __init__(self, stage, exc, exit_code):
        super().__init__(f"[{stage}] {exc}")
        self.exit_code = exit_code


@contextlib.contextmanager
def _stage(name, exit_code, *errors):
    """Re-raise any of ``errors`` as the StageError of stage ``name``."""
    try:
        yield
    except errors as exc:
        raise StageError(name, exc, exit_code) from exc


def read_key_values(path) -> dict[str, str]:
    """Parse ``key = value`` lines; keys are case-insensitive and may appear once."""
    out, seen_at = {}, {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in seen_at:
            raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {seen_at[key]}")
        seen_at[key] = lineno
        out[key] = value.strip()
    return out


def _build_config(n_times: int, n_maturities: int, path) -> Config:
    raw = read_key_values(path) if path else {}
    casters = typing.get_type_hints(Config)     # each setting's int or float
    unknown = set(raw) - set(casters)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    overrides = {key: casters[key](value) for key, value in raw.items()}
    return Config.defaults(n_times, n_maturities, **overrides)


def _parse_matrix(text: str) -> np.ndarray:
    return np.array([[float(x) for x in row.split(",")] for row in text.split(";")])


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


def _poly_fn(coeffs: np.ndarray):
    return lambda t, c=np.asarray(coeffs, dtype=float): np.polynomial.polynomial.polyval(t, c)


def parse_synthetic_config(path, seed_flag=None) -> sim.SyntheticSpec:
    """Build a SyntheticSpec from a flat key-value file.

    Either ``preset = recovery`` / ``preset = null`` (optionally with seed),
    or explicit keys: t, maturities, ar, innovation_cov, macro_mean,
    mean_poly, filter_h{H}_j{J} (J one-based, polynomial coefficients in the
    warped coordinate), curve_error_scale, noise_sd, seed.
    """
    raw = read_key_values(path)
    seed = int(raw.pop("seed", 0))
    if seed_flag is not None:
        seed = seed_flag

    preset = raw.pop("preset", None)
    if preset is not None:
        if raw:
            raise ValueError(f"preset config admits only 'seed', found: {', '.join(sorted(raw))}")
        if preset == "recovery":
            return sim.recovery_spec(seed=seed)
        if preset == "null":
            return sim.recovery_spec(seed=seed, null_model=True)
        raise ValueError(f"unknown preset {preset!r} (expected 'recovery' or 'null')")

    try:
        maturities = _parse_vector(raw.pop("maturities"))
        t_len = int(raw.pop("t"))
        ar = _parse_matrix(raw.pop("ar"))
    except KeyError as exc:
        raise ValueError(f"missing required key {exc.args[0]!r}") from None
    d = ar.shape[0]
    cov = _parse_matrix(raw.pop("innovation_cov")) if "innovation_cov" in raw else np.eye(d)
    macro_mean = _parse_vector(raw.pop("macro_mean")) if "macro_mean" in raw else np.zeros(d)
    mean_fn = _poly_fn(_parse_vector(raw.pop("mean_poly")) if "mean_poly" in raw else np.zeros(1))
    curve_error_scale = float(raw.pop("curve_error_scale", 0.0))
    noise_sd = float(raw.pop("noise_sd", 0.0))

    filter_fns = {}
    for key in list(raw):
        if key.startswith("filter_h"):
            body = key[len("filter_h"):]
            lag_text, _, j_text = body.partition("_j")
            try:
                h, j = int(lag_text), int(j_text)
            except ValueError:
                raise ValueError(f"cannot parse filter key {key!r}") from None
            if not 1 <= j <= d:
                raise ValueError(f"filter key {key!r}: series index must lie in 1..{d}")
            filter_fns[(h, j - 1)] = _poly_fn(_parse_vector(raw.pop(key)))
    if raw:
        raise ValueError(f"unknown simulate config keys: {', '.join(sorted(raw))}")

    return sim.SyntheticSpec(
        maturity_grid=MaturityGrid(maturities), n_times=t_len, ar_coef=ar,
        innovation_cov=cov, macro_mean=macro_mean, mean_fn=mean_fn,
        filter_fns=filter_fns, curve_error_scale=curve_error_scale,
        noise_sd=noise_sd, seed=seed)


def run_analyze(args) -> int:
    with _stage("load", 2, ParseError, OSError):
        panel = sio.load_yields_csv(args.yields)
        macro = sio.load_macro_csv(args.macro)
        if macro.n_times != panel.n_times:
            raise ParseError(f"yields has {panel.n_times} rows, macro {macro.n_times}")
        digests = {"yields": sio.sha256_digest(args.yields), "macro": sio.sha256_digest(args.macro)}
    with _stage("config", 2, ValueError, OSError):
        config = _build_config(panel.n_times, panel.n_maturities, args.config)
    with _stage("estimate", 1, ValueError, IllConditioned, ResidualImaginary, MemoryError):
        result = analyze(panel, macro, config)
    with _stage("write", 1, OSError):
        bundle = sio.build_result_bundle(result, panel, macro, digests)
        manifest = sio.write_results(bundle, args.out)

    print(f"T={panel.n_times} I={panel.n_maturities} d={macro.n_series} "
          f"q={config.q} b_mu={config.b_mu:.4g} b_r={config.b_r:.4g} h_max={config.h_max}")
    print(f"r_squared={result.r_squared:.4f}")
    print("diagnostics:", *(f"{name}={value:.3e}" for name, value in asdict(result.diagnostics).items()))
    print(f"wrote {len(manifest)} files to {Path(args.out).resolve()}")
    return 0


def run_simulate(args) -> int:
    with _stage("config", 2, ValueError, OSError, KeyError):
        spec = parse_synthetic_config(args.config, args.seed)
    with _stage("simulate", 1, ValueError):
        panel, macro, truth = sim.simulate_lagged_regression(spec)
    out_dir = Path(args.out)
    truth_doc = {
        "maturities": [float(v) for v in spec.maturity_grid.maturities],
        "tau_warped": [float(v) for v in truth.tau_warped],
        "mean_at_maturities": [float(v) for v in truth.mean_at_maturities],
        "filter": [
            {"lag": int(h), "series": int(j) + 1,
             "values_at_maturities": [float(v) for v in vals]}
            for (h, j), vals in sorted(truth.filter_at_maturities.items())
        ],
        "curve_error_scale": spec.curve_error_scale,
        "noise_sd": spec.noise_sd,
        "seed": spec.seed,
    }
    truth_text = json.dumps(truth_doc, indent=2, sort_keys=True) + "\n"
    with _stage("write", 1, OSError):
        sio.write_staged(out_dir, {
            "yields.csv": functools.partial(sio.write_yields_csv, panel),
            "macro.csv": functools.partial(sio.write_macro_csv, macro),
            "truth.json": lambda path: path.write_text(truth_text, encoding="utf-8"),
        })
    print(f"wrote yields.csv, macro.csv, truth.json to {out_dir.resolve()}")
    return 0


def run_check(args) -> int:
    if args.seed < 0:
        raise StageError("config", f"seed must be nonnegative, got {args.seed}", 2)
    results = run_builtin_checks(seed=args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparselag",
                                     description="Spectral-domain lagged regression for sparsely observed curve panels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the full estimation pipeline on CSV panels")
    p_an.add_argument("--yields", required=True, help="curve panel CSV (maturity header, empty cell = missing)")
    p_an.add_argument("--macro", required=True, help="regressor panel CSV (name header, no missing cells)")
    p_an.add_argument("--config", default=None, help="key = value settings file")
    p_an.add_argument("--out", default="results", help="output directory (default: results)")
    p_an.set_defaults(func=run_analyze)

    p_sim = sub.add_parser("simulate", help="generate a synthetic panel pair plus ground truth")
    p_sim.add_argument("--config", required=True, help="synthetic spec (key = value, or preset = recovery|null)")
    p_sim.add_argument("--out", default="simulated", help="output directory (default: simulated)")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.set_defaults(func=run_simulate)

    p_chk = sub.add_parser("check", help="run the built-in oracle suite")
    p_chk.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")
    p_chk.set_defaults(func=run_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow surfaces as a typed error
            return args.func(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
