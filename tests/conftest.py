import numpy as np
import pytest

from omsense.constants import TWO_PI
from omsense.spectra import CavityOptics, Oscillator
from omsense.arrays import ArraySensor

# The membrane reference point's laser power (W).  The power is an array's,
# not the cavity's, so a test passes it wherever it drives one sensor.
MEMBRANE_POWER = 2e-3


@pytest.fixture
def membrane_osc():
    """The cm-scale membrane reference point: 6 mg, 2 kHz, Q = 1e9, 10 mK."""
    return Oscillator.from_quality(mass=6e-6, omega0=TWO_PI * 2000.0,
                                   quality=1e9, temperature=10e-3)


@pytest.fixture
def membrane_cav():
    """Matching cavity: kappa = 0.94e9 rad/s, g0 = 46 rad/s, 1.06 um, driven
    at ``MEMBRANE_POWER``."""
    return CavityOptics.from_wavelength(kappa=0.94e9, kappa_readout=0.94e9,
                                        g0=46.0, wavelength=1.06e-6,
                                        length=1e-3)


@pytest.fixture
def membrane_sensor(membrane_osc, membrane_cav):
    return ArraySensor(oscillator=membrane_osc, cavity=membrane_cav,
                       response_factor=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(171717)


def power_for_cooperativity(osc, cav, omega, target):
    """Input power at which |C_omega| equals ``target`` for this sensor."""
    u = 2.0 * omega / cav.kappa
    det = abs((1.0 - 1j * u) ** 2)
    # |C| = 2 g0^2 (4 kr/k^2) P/(hbar W_L) / (gamma kappa det)
    from omsense.constants import HBAR
    return (target * osc.gamma * cav.kappa * det * HBAR * cav.laser_omega
            * cav.kappa**2 / (8.0 * cav.g0**2 * cav.kappa_readout))
