"""Nonlinear optics of a driven cavity filled with trapped ultracold atoms.

Steady-state lineshapes, dispersive bistability and hysteresis, transient
collective atomic motion, and the photon-counting detection chain, at desk
scale.
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
    SteadyStateSolution,
    bistability_threshold,
    fold_points,
    lineshape_scan,
    profile_value,
    steady_state_roots_lorentzian,
)
from .lattice import (
    LatticeEnsemble,
    build_lattice,
    collective_shift_from_displacements,
    effective_kerr_numeric,
    per_site_force,
    probe_potential,
)
from .dynamics import (
    CavityFieldMode,
    TransientTrace,
    impulse_boundary_detuning,
    impulse_modulation_estimate,
    n_max_for_switch_on,
    quasi_static_sweep,
    ring_up,
)
from .measure import (
    AtomLossDrift,
    CountRecord,
    DecayFit,
    SpectralDecay,
    TriggerResult,
    averaged_counts,
    count_monte_carlo,
    decay_fit,
    trigger_sequence,
    windowed_fourier_amplitude,
)

__version__ = "0.1.0"
