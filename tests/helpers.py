"""Shared builders for the ring-up operating point used across tests, the
stable steady states at one detuning, the probe's AC-Stark potential, and
the collective modulation of one photon's kick."""

import numpy as np

from cavkerr import (
    CONSTANTS,
    DriveParams,
    ResponseProfile,
    reference_cavity,
    reference_trap,
    steady_state,
)
from cavkerr.dynamics import n_max_for_switch_on, ring_up
from cavkerr.lattice import (LatticeEnsemble, build_lattice,
                             collective_shift_from_displacements,
                             optical_acceleration)

TWO_PI = 2 * np.pi

RINGUP_DELTA_N0 = -TWO_PI * 19e6
RINGUP_DELTA_PC = -TWO_PI * 17e6
RINGUP_OMEGA_Z = TWO_PI * 49e3


def ringup_context(omega_z_spread=0.0, subensembles=1, seed=42,
                   tracer_pi4=False):
    """Cavity/trap/profile/ensemble for the triggered ring-up point
    (delta_ca = -2pi x 260 GHz, Delta_N = -2pi x 19 MHz, ~300 wells)."""
    cavity = reference_cavity(delta_ca=-TWO_PI * 260e9)
    trap = reference_trap(omega_z=RINGUP_OMEGA_Z)
    profile = ResponseProfile.from_cavity(cavity)
    ensemble = build_lattice(
        300, 5e4, RINGUP_OMEGA_Z, omega_z_spread=omega_z_spread,
        seed=seed, k_ratio=cavity.k_probe / cavity.k_trap,
        subensembles=subensembles,
        tracer_thetas=(np.pi / 4,) if tracer_pi4 else ())
    ensemble = ensemble.scaled_to_shift(RINGUP_DELTA_N0, cavity)
    return cavity, trap, profile, ensemble


def ringup_drive(level, level_mode, profile):
    """DriveParams for 'level' photons interpreted per level_mode."""
    if level_mode == "instantaneous":
        n_max = n_max_for_switch_on(level, profile, RINGUP_DELTA_PC,
                                    RINGUP_DELTA_N0)
    else:
        n_max = level
    return DriveParams(n_max=n_max, delta_pc=RINGUP_DELTA_PC,
                       atom_number=5e4)


def run_ringup(level, level_mode, duration, *, omega_z_spread=0.0,
               subensembles=1, seed=42, tracer_pi4=False, backaction=True,
               **kwargs):
    cavity, trap, profile, ensemble = ringup_context(
        omega_z_spread, subensembles, seed, tracer_pi4)
    drive = ringup_drive(level, level_mode, profile)
    trace = ring_up(ensemble, cavity, drive, duration=duration,
                    profile=profile, backaction=backaction, **kwargs)
    return cavity, trap, trace


def stable_roots(profile, delta0, beta):
    """The stable steady states u at one reduced detuning, ascending: the
    finite roots on the stable segments, which lineshape_scan follows
    (beta < 0 mirrors (-delta0, -beta), as there)."""
    if beta < 0.0:
        delta0, beta = -delta0, -beta
    [branches] = steady_state._branches(profile, [beta], [np.array([delta0])])
    return sorted(float(u) for u in branches[:, 0] if np.isfinite(u))


def probe_potential(theta, displacement, nbar, cavity):
    """AC-Stark potential (J) hbar nbar Delta_N of one atom at probe phase
    theta displaced by d, Delta_N being the shift of that one-atom row:
    the oracle that m nbar optical_acceleration is its negative gradient.
    Elementwise over broadcast theta and d."""
    def shift(th, d):
        row = LatticeEnsemble([th], [1.0], [1.0])
        return collective_shift_from_displacements(row, [d], cavity)
    return CONSTANTS.hbar * nbar * np.vectorize(shift)(theta, displacement)


def impulse_modulation(cavity, trap, n_atoms):
    """Collective resonance modulation (rad/s) driven by the kick of one
    photon: the oracle that impulse_boundary_detuning bounds.

    A photon transiting in ~1/2kappa imparts impulse f/(2 kappa) to an atom
    at probe phase pi/4, where the force peaks, i.e. velocity v = a/(2
    kappa), a its optical_acceleration there.  All N atoms oscillating with
    displacement amplitude |v|/omega_z modulate the resonance by
    N g0^2 k_p/(2|delta_ca|) |v|/omega_z.
    """
    v = optical_acceleration(np.pi / 4, 0.0, cavity) / (2.0 * cavity.kappa)
    return float(n_atoms * cavity.g0 ** 2 * cavity.k_probe
                 / (2.0 * abs(cavity.delta_ca)) * abs(v) / trap.omega_z)
