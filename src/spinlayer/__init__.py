"""Finite-difference simulator of coupled magnetization/Maxwell dynamics
in a bilayered ferromagnet with spacer surface energies."""

from .errors import (CFLViolation, ConfigError, EtaTooLarge, NonFinite,
                     NonTilingGrid, ParseError, SimulationError, SolverDiverged,
                     ValidationError)
from .geometry import DomainGeometry, GeometryConfig, build_geometry
from .energetics import (EnergyBreakdown, MaterialParams, anisotropy_energy,
                         exchange_energy, maxwell_energy, penalty_energy,
                         thin_layer_energy, total_energy, uniform_k_matrix)
from .effective_field import assemble_h_tot, penalty_field, thin_layer_field
from .maxwell import (AppliedCurrent, EMState, divergence_drift, empty_em_state,
                      fdtd_step, init_divfree, interp_h_to_cells, make_box)
from .dynamics import SchemeConfig, SimState, Trajectory, llg_rhs, run, step
from .diagnostics import (energy_inequality_residual, omega_limit_field,
                          saturation_deviation, stationarity_residual,
                          test_function_library)
from .config import RunConfig, build_setup, parse_config

__version__ = "0.1.0"
