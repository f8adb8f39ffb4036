"""Scaling of the broadband figure of merit with the number of sensors.

A common stochastic drive is coherent across the array, so combining the
per-sensor force estimates at the amplitude level boosts the signal PSD by M
while (at fixed power per sensor) the noise stays at the single-sensor
level: the integrated sensitivity grows like M^2 instead of the M of
independent sensors.  Distributing one squeezed vacuum over the array adds a
constant entanglement factor on top.
"""

import numpy as np

from omsense import SqueezedInput
from omsense.arrays import ArrayNoise, array_signal_psd, identical_array
from omsense.scenario import preset_scenario, scenario_from_dict
from omsense.sensitivity import integrated_sensitivity

scn = scenario_from_dict(preset_scenario("fig2"))
sensor = scn.sensors[0]
grid = scn.build_grid()
inputs = [SqueezedInput.vacuum(),
          SqueezedInput.from_db(10.0, angle_policy="optimal")]


def flat(gain):
    return lambda w: np.full_like(np.asarray(w, float), gain)


def sensitivities(m):
    arr = identical_array(sensor, m, power_per_sensor=2e-3)
    gain = float(array_signal_psd(arr, 1.0))
    # one kernel build per quadrature pass gives both noise totals
    res = integrated_sensitivity(
        flat(gain), lambda w: ArrayNoise(arr, w).totals(inputs), grid)
    i_coh, i_dqs = res.value.tolist()
    return i_coh, i_dqs


i1, _ = sensitivities(1)
print(f"{'M':>4} {'I_coherent/I(1)':>16} {'I_incoherent/I(1)':>18} "
      f"{'I_DQS/I(1)':>12} {'DQS/coherent':>13}")
for m in (1, 2, 4, 8, 16, 32):
    i_coh, i_dqs = sensitivities(m)
    print(f"{m:>4} {i_coh / i1:>16.3f} {float(m):>18.3f} "
          f"{i_dqs / i1:>12.1f} {i_dqs / i_coh:>13.2f}")

print("\nCoherent combining scales like M^2 (vs M for independent sensors);")
print("the distributed squeezer multiplies every row by the same factor.")
