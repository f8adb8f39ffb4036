"""Cross-check the closed-form array noise against Gaussian propagation.

The oracle assembles, per frequency, the complete linear map from every
input quadrature (bright mode, idle vacua, mechanical baths, loss ports) to
the combined estimator and propagates the input covariance through it.  The
closed-form coherent sums, term by term, must add up to the oracle's total.
"""

import numpy as np

from omsense import (ArraySensor, CavityOptics, Oscillator, SensorArray,
                     SqueezedInput, input_quadrature_psds)
from omsense.arrays import array_noise_psd, matched_weights
from omsense.constants import TWO_PI
from omsense.oracle import oracle_noise_psd
from omsense.scans import oracle_check_table

worst = max(oracle_check_table(n_configs=25, n_freqs=40,
                               seed=7)["max_rel_residual"])
print(f"25 random heterogeneous arrays x 40 frequencies: "
      f"max relative residual {worst:.2e}\n")

# three membranes that differ in mass, resonance, quality, cavity and loss
sensors = tuple(
    ArraySensor(Oscillator.from_quality(mass=mass, omega0=TWO_PI * hz,
                                        quality=q, temperature=10e-3),
                CavityOptics.from_wavelength(kappa=kappa, kappa_readout=kappa,
                                             g0=46.0, wavelength=1.06e-6,
                                             efficiency_sq=eta_sq), factor)
    for mass, hz, q, kappa, eta_sq, factor in (
        (6e-6, 2000.0, 1e9, 0.94e9, 0.95, 1.0),
        (4e-6, 2600.0, 5e8, 1.5e9, 0.9, 0.8),
        (9e-6, 1500.0, 2e9, 0.6e9, 0.85, 1.3)))
dv = np.array([0.5, 0.6, 0.62])
dv = dv / np.linalg.norm(dv)
arr = SensorArray(sensors, dv, matched_weights(dv),
                  total_power=6e-3)
squeeze = SqueezedInput.from_db(10.0)
omega = arr.sensors[0].oscillator.omega0 * 1.7
closed = array_noise_psd(arr, input_quadrature_psds(squeeze, -0.5), omega)
oracle = oracle_noise_psd(arr, omega, squeeze, theta=-0.5)

print("closed-form terms on one config (N^2/Hz):")
for name in ("shot", "back_action", "correlation", "thermal",
             "residual_vacuum", "detection_loss", "total"):
    print(f"{name:>16} {getattr(closed, name):>14.4e}")
print(f"{'oracle total':>16} {oracle:>14.4e}")
print(f"{'residual':>16} {abs(oracle - closed.total) / closed.total:>14.2e}")
