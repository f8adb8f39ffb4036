"""Walk through the noise budget of one membrane force sensor.

Builds the cm-scale membrane reference point (6 mg, 2 kHz, Q = 1e9, 10 mK,
0.94e9 rad/s cavity, 2 mW at 1.06 um) and prints the force-noise budget at a
few frequencies, together with the standard quantum limit and the
squeezed-input noise at the frequency-tracking optimal angle.
"""

from omsense import (CavityOptics, Oscillator, QuadraturePsds, SqueezedInput,
                     acceleration_asd)
from omsense.arrays import ArrayNoise, array_sql_psd, single_sensor_array
from omsense.constants import TWO_PI

osc = Oscillator.from_quality(mass=6e-6, omega0=TWO_PI * 2000.0, quality=1e9,
                              temperature=10e-3)
cav = CavityOptics.from_wavelength(kappa=0.94e9, kappa_readout=0.94e9,
                                   g0=46.0, wavelength=1.06e-6,
                                   length=1e-3)
power = 2e-3  # W; the laser power is the array's, here an array of one
arr = single_sensor_array(osc, cav, power)
squeeze = SqueezedInput.from_db(10.0, angle_policy="optimal")
vac = QuadraturePsds.vacuum()

print(f"membrane sensor: Q = {osc.quality:.2e}, gamma = {osc.gamma:.3e} rad/s")
print(f"intracavity field E^2 = {cav.intracavity_flux_at(power):.3e} "
      "photons\n")

print(f"{'f [Hz]':>10} {'shot':>10} {'back-act':>10} {'thermal':>10} "
      f"{'total':>10} {'SQL':>10} {'squeezed':>10}  (m s^-2/rtHz)")
for f_hz in (20.0, 200.0, 1900.0, 2000.0, 2100.0, 20000.0):
    w = TWO_PI * f_hz
    noise = ArrayNoise(arr, w)
    bd = noise.breakdown(vac)
    [[squeezed]] = noise.totals([squeeze])
    print(f"{f_hz:>10.0f} "
          f"{acceleration_asd(osc, bd.shot):>10.2e} "
          f"{acceleration_asd(osc, bd.back_action):>10.2e} "
          f"{acceleration_asd(osc, bd.thermal):>10.2e} "
          f"{acceleration_asd(osc, bd.total):>10.2e} "
          f"{acceleration_asd(osc, array_sql_psd(arr, w)):>10.2e} "
          f"{acceleration_asd(osc, squeezed):>10.2e}")

print("\nOn resonance the budget is back-action dominated at 2 mW; off")
print("resonance shot noise takes over, and 10 dB of squeezing at the")
print("optimal angle suppresses whichever quadrature dominates.")
