"""Scaling of the broadband figure of merit with the number of sensors.

A common stochastic drive is coherent across the array, so combining the
per-sensor force estimates at the amplitude level boosts the signal PSD by M
while (at fixed power per sensor) the noise stays at the single-sensor
level: the integrated sensitivity grows like M^2 instead of the M of
independent sensors.  Distributing one squeezed vacuum over the array adds a
constant entanglement factor on top.
"""

from omsense.scans import array_scan_table
from omsense.scenario import preset_scenario, scenario_from_dict

scn = scenario_from_dict(preset_scenario("fig2"))
scn.scan["sensor_counts"] = [1, 2, 4, 8, 16, 32]
scan = array_scan_table(scn)
print(f"{'M':>4} {'I_coherent/I(1)':>16} {'I_incoherent/I(1)':>18} "
      f"{'I_DQS/I(1)':>12} {'DQS/coherent':>13}")
for m, coh, incoh, dqs in zip(scan["n_sensors"], scan["coherent_over_single"],
                              scan["incoherent_over_single"],
                              scan["dqs_over_coherent"]):
    print(f"{m:>4} {coh:>16.3f} {incoh:>18.3f} {dqs * coh:>12.1f} {dqs:>13.2f}")

print("\nCoherent combining scales like M^2 (vs M for independent sensors);")
print("the distributed squeezer multiplies every row by the same factor.")
