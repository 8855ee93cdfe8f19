"""Shared builders for the ring-up operating point used across tests."""

import numpy as np

from cavkerr import (
    DriveParams,
    ResponseProfile,
    build_lattice,
    n_max_for_switch_on,
    reference_cavity,
    reference_trap,
    ring_up,
)

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
