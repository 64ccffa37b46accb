"""Golden result files: the SHA-256 of every file ``sparselag analyze`` writes.

Two fixed simulated panel pairs (d = 1 and d = 3, 10% missing quotes,
``n_omega = 64``) go through the CLI, and each of the seven result files must
match its pinned digest byte for byte.  A refactor that promises identical
outputs is checked here; a change that alters outputs on purpose re-records
the digests and says so in CHANGES.md.
"""

import numpy as np
import pytest

from sparselag import (MaturityGrid, SparseYieldPanel, SyntheticSpec, US_MATURITIES,
                       simulate_lagged_regression, write_macro_csv, write_yields_csv)
from sparselag.cli import main
from sparselag.io import sha256_digest

GOLDEN = {
    1: {
        "mean_curve.csv": "4fe450214b5aabccc8603a9c72667e7184fb0fef2be18fea816493c598b6cd59",
        "filter_coefficients.csv": "9e8c1bd78307a2aa6fa2331f7671f35404b941a2fbe4891b11ae8c6a55b48847",
        "spectral_density.csv": "2a98cca5f2c0f70e5915286c69fe602fcdc675e7a3dd1ec3b3fb515be1c5a647",
        "cross_spectral.csv": "f717cadc874b7d7c63bbd9c03e2df28ad96288d8178dad055ef0e0be028dfc85",
        "frequency_response.csv": "d1628bdd16d5ab085eb10fcf343c14581b65d3cc98223bafd39386b75e20152a",
        "fitted.csv": "65ed61bcb1ff0a65ddb380fbb0096dc2530258cce37b69cf5d78caea3fe0e708",
        "summary.json": "c6c9a92d88e5234baab862f48526d193eb86575f858bcaa4cbc59172adeb45cd",
    },
    3: {
        "mean_curve.csv": "411746a8ea0707ba690678fbd1255af79324ebf7aceb1c941f45c57891699d5b",
        "filter_coefficients.csv": "a5a3a5a4d2267bf436df760acb1bdd1fd6f0a5076a1cf9a05afdeca9e08bc4de",
        "spectral_density.csv": "92969fbcd4d4de3fee3b050777929ebead4ec3797d7312784946506a17459af2",
        "cross_spectral.csv": "f953911d683cf23b9f0a281ece099fa65fb8aab7b52d59a87c6c3d8afd6d3ba8",
        "frequency_response.csv": "daafff5f7080e09a1bec94a92d49dcc0555897787db3fa93847fa9caabdcb165",
        "fitted.csv": "3ea932f38df64e4cc5e3b009329c1ab0b5c0340a4c3d85e4a62510520fb8fed3",
        "summary.json": "c2678778ac89e0ecc6ba2db07c9aada06620ad0a735ad42e494bd0dfbb1be3fc",
    },
}


def _write_panels(n_series, out_dir):
    """A T = 150 panel pair with series 1 driving the curves at lag 0; seed 11 + d."""
    spec = SyntheticSpec(
        maturity_grid=MaturityGrid(np.array(US_MATURITIES)), n_times=150,
        ar_coef=np.diag([0.8, 0.6, 0.9][:n_series]), innovation_cov=np.eye(n_series),
        macro_mean=np.full(n_series, 2.0), filter_fns={(0, 0): lambda t: 1.0 - t},
        curve_error_scale=0.3, noise_sd=0.1, seed=11 + n_series)
    panel, macro, _ = simulate_lagged_regression(spec)
    missing = np.random.default_rng(n_series).random(panel.values.shape) < 0.1
    missing[:, 0] = False                      # every date keeps an observed cell
    panel = SparseYieldPanel.from_values(np.where(missing, np.nan, panel.values),
                                         panel.maturity_grid)
    write_yields_csv(panel, out_dir / "yields.csv")
    write_macro_csv(macro, out_dir / "macro.csv")
    (out_dir / "analyze.cfg").write_text("n_omega = 64\n", encoding="utf-8")


@pytest.mark.parametrize("n_series", sorted(GOLDEN))
def test_result_files_match_pinned_digests(n_series, tmp_path):
    _write_panels(n_series, tmp_path)
    out = tmp_path / "results"
    assert main(["analyze", "--yields", str(tmp_path / "yields.csv"),
                 "--macro", str(tmp_path / "macro.csv"),
                 "--config", str(tmp_path / "analyze.cfg"), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(GOLDEN[n_series])
    for name, digest in GOLDEN[n_series].items():
        assert sha256_digest(out / name) == digest, name
