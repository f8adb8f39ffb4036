"""Quantum noise budgets and dark-matter reach for optomechanical sensor arrays.

The package is organized around the frequency-domain noise model of a
cavity-optomechanical force sensor and its coherent, optionally entangled,
extension to M sensors:

``spectra``      single-sensor records and the one rule table of a valid
                 sensor, the per-sensor response kernel (susceptibility,
                 cooperativity and reflection half phase), quadrature inputs
``arrays``       M-sensor network algebra, the only force-noise budget (one
                 sensor is M = 1): weights, the ``ArrayBatch``
                 parameter block of padded arrays, and the ``ArrayNoise``
                 kernel (one build per array, or batch of arrays, and
                 frequency set; one row for an array of identical
                 sensors, one per slot otherwise) giving the combined
                 noise with its residual-vacuum term, squeezed totals and
                 the optimal squeezing angle; array SQL
``oracle``       covariance-propagation verifier of the closed-form array
                 noise, the one path that ``oracle-check`` runs
``sensitivity``  resonance-refined adaptive quadrature, integrated
                 sensitivity, observation plans and coupling projections
``scenario``     JSON scenarios with explicit units, plus figure presets
``scans``        figure-level tables (noise budgets, parameter scans)
``cli``          deterministic command-line front end
"""

__version__ = "0.1.0"

from .errors import ConfigError, ConvergenceError, OmsenseError, ScenarioError
from .spectra import (CavityOptics, Oscillator, QuadraturePsds, SqueezedInput,
                      acceleration_asd, displacement_asd,
                      input_quadrature_psds, mechanical_susceptibility,
                      sensor_response)
from .arrays import (ArrayBatch, ArrayNoise, ArraySensor, NoiseBreakdown,
                     SensorArray, array_noise_psd, array_signal_psd,
                     array_sql_psd, identical_array,
                     inverse_variance_weights, matched_weights,
                     optimal_squeezing_angle, single_sensor_array,
                     uniform_weights)
from .oracle import (TransferAssembly, assemble_transfer, complete_unitary,
                     oracle_noise_psd, propagate_covariance)
from .sensitivity import (DarkMatterModel, FrequencyGrid, IntegrationResult,
                          ObservationPlan, calibrate_material_factor,
                          integrated_sensitivity, min_detectable_coupling,
                          resonance_refined_grid)
from .scenario import (Scenario, load_scenario, preset_scenario,
                       scenario_from_dict)
