"""Nonlinear optics of a driven cavity filled with trapped ultracold atoms.

Steady-state lineshapes, dispersive bistability and hysteresis, transient
collective atomic motion, and the photon-counting detection chain, at desk
scale.

The package namespace holds the params and steady-state API, so importing
it loads those two modules only.  Ring-up, lattice and detection names come
from their own modules: ``cavkerr.dynamics``, ``cavkerr.lattice`` and
``cavkerr.measure``.
"""

from .params import (
    CONSTANTS,
    CavityParams,
    DriveParams,
    SystemParams,
    TrapParams,
    beta_parameter,
    collective_shift,
    critical_numbers,
    kerr_coefficient,
    nonlinear_photon_threshold,
    reference_cavity,
    reference_trap,
    recoil_frequency,
)
from .steady_state import (
    ResponseProfile,
    bistability_threshold,
    fold_points,
    lineshape_scan,
    profile_value,
    steady_state_roots_lorentzian,
)

__version__ = "0.1.0"
