"""Cross-check the closed-form array noise against Gaussian propagation.

The oracle assembles, per frequency, the complete linear map from every
input quadrature (bright mode, idle vacua, mechanical baths, loss ports) to
the combined estimator and propagates the input covariance through it.  The
closed-form coherent sums, term by term, must add up to the oracle's total.
"""

import numpy as np

from omsense import SqueezedInput, input_quadrature_psds
from omsense.arrays import array_noise_psd
from omsense.oracle import oracle_noise_psd
from omsense.scans import oracle_check_table, random_array

worst = max(oracle_check_table(n_configs=25, n_freqs=40,
                               seed=7)["max_rel_residual"])
print(f"25 random heterogeneous arrays x 40 frequencies: "
      f"max relative residual {worst:.2e}\n")

rng = np.random.default_rng(11)
arr, db = random_array(rng, 3)
squeeze = SqueezedInput.from_db(db)
omega = arr.sensors[0].oscillator.omega0 * 1.7
closed = array_noise_psd(arr, input_quadrature_psds(squeeze, -0.5), omega)
oracle = oracle_noise_psd(arr, omega, squeeze, theta=-0.5)

print("closed-form terms on one config (N^2/Hz):")
for name in ("shot", "back_action", "correlation", "thermal",
             "residual_vacuum", "detection_loss", "total"):
    print(f"{name:>16} {getattr(closed, name):>14.4e}")
print(f"{'oracle total':>16} {oracle:>14.4e}")
print(f"{'residual':>16} {abs(oracle - closed.total) / closed.total:>14.2e}")
