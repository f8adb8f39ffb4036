"""Cross-check the closed-form array noise against Gaussian propagation.

The oracle assembles, per frequency, the complete linear map from every
input quadrature (bright mode, idle vacua, mechanical baths, loss ports) to
the combined estimator and propagates the input covariance through it.  The
closed-form coherent sums must agree term by term.
"""

import numpy as np

from omsense import SqueezedInput, input_quadrature_psds
from omsense.arrays import array_noise_psd
from omsense.oracle import assemble_transfer, oracle_breakdown
from omsense.scans import oracle_check_table, random_array

worst = max(oracle_check_table(n_configs=25, n_freqs=40,
                               seed=7)["max_rel_residual"])
print(f"25 random heterogeneous arrays x 40 frequencies: "
      f"max relative residual {worst:.2e}\n")

rng = np.random.default_rng(11)
arr, db = random_array(rng, 3)
squeeze = SqueezedInput.from_db(db)
omega = np.array([arr.sensors[0].oscillator.omega0 * 1.7])
asm = assemble_transfer(arr, omega, squeeze, theta=-0.5)
blocks = oracle_breakdown(asm)
closed = array_noise_psd(arr, input_quadrature_psds(squeeze, -0.5), omega)

print("per-term comparison on one config (N^2/Hz):")
print(f"{'term':>16} {'closed form':>14} {'oracle':>14}")
for name, value in (("shot", closed.shot), ("back_action", closed.back_action),
                    ("correlation", closed.correlation),
                    ("thermal", closed.thermal),
                    ("residual_vacuum", closed.residual_vacuum),
                    ("detection_loss", closed.detection_loss),
                    ("total", closed.total)):
    print(f"{name:>16} {float(value[0]):>14.4e} {float(blocks[name][0]):>14.4e}")
