"""Time-domain simulation: hysteresis sweeps, ring-up transients, impulses.

The mechanical timescale (1/omega_z ~ 3 us) is far slower than the cavity
field (1/2kappa ~ 120 ns), so by default the intracavity photon number
adiabatically tracks the instantaneous collective shift; a first-order
filter relaxing at 2*kappa is available to check that approximation.

Integration is fixed-step velocity Verlet on the per-site collective
coordinates (symplectic, so the energy bookkeeping test is meaningful),
with the optional viscous damping applied as exact exponential half-step
decays and the cavity filter sub-stepped by exact exponential relaxation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lattice import LatticeEnsemble, collective_shift_from_displacements
from .params import CONSTANTS, CavityParams, DriveParams, PhysicalConstants, TrapParams
from .steady_state import ResponseProfile, lineshape_scan, profile_value

TWO_PI = 2.0 * np.pi

# Trap-frequency rms spread reproducing the observed 1.0 ms collective
# coherence time (Gaussian dephasing gives t_1e = sqrt(2)/spread); a
# matching calibration, not a prediction.  The full-backaction model
# mode-locks at high drive, so the 1.0 ms value applies to the one-way
# (backaction=False) detection response.
CALIBRATED_OMEGA_Z_SPREAD = float(np.sqrt(2.0) / 1.0e-3)


class CavityFieldMode(Enum):
    """Cavity photon-number model; the filter relaxes at 2*kappa."""

    ADIABATIC = "adiabatic"
    FIRST_ORDER_FILTER = "filter"


@dataclass
class TransientTrace:
    """Sampled ring-up record.

    ``delta_n`` and ``nbar`` are the collective shift and photon number at
    every sample.  ``sites`` holds the ensemble row indices whose motion was
    recorded; ``displacements`` and ``velocities`` are (n_samples,
    len(sites)), column k belonging to row ``sites[k]``, or None when no
    site was recorded.
    """

    time: np.ndarray
    delta_n: np.ndarray
    nbar: np.ndarray
    displacements: np.ndarray | None = None
    velocities: np.ndarray | None = None
    sites: tuple[int, ...] = ()

    def __post_init__(self):
        n = len(self.time)
        if not (len(self.delta_n) == len(self.nbar) == n):
            raise ValueError("trace series must have equal length")
        if np.any(self.nbar < 0):
            raise ValueError("nbar must be nonnegative")
        for series in (self.displacements, self.velocities):
            if series is not None and series.shape != (n, len(self.sites)):
                raise ValueError("site series must be (n_samples, len(sites))")


def quasi_static_sweep(profile: ResponseProfile, beta: float, delta_pc,
                       n_max: float, delta_n: float,
                       direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-static swept lineshape nbar(delta_pc) with hysteretic jumps.

    Wraps the branch-following scan in physical units: the probe detunings
    ``delta_pc`` (rad/s) become reduced detunings (delta_pc - delta_n)/kappa,
    scanned in ``direction`` ("up" or "down").  Returns (delta_pc, nbar) in
    traversal order.
    """
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    grid = (np.asarray(delta_pc, dtype=float) - delta_n) / profile.kappa
    d0, u = np.array(lineshape_scan(profile, beta, grid, direction)).T
    return d0 * profile.kappa + delta_n, u * n_max


def n_max_for_switch_on(level: float, profile: ResponseProfile,
                        delta_pc: float, delta_n0: float) -> float:
    """Resonant drive level that gives ``level`` photons right at switch-on."""
    v = profile_value(profile, delta_pc - delta_n0)
    if v <= 0:
        raise ValueError("response vanishes at the switch-on detuning")
    return level / v


def ring_up(ensemble: LatticeEnsemble, cavity: CavityParams,
            drive: DriveParams, *,
            field_model: CavityFieldMode = CavityFieldMode.ADIABATIC,
            damping_rate: float = 0.0, duration: float = 1e-3,
            dt: float | None = None, profile: ResponseProfile | None = None,
            linearized_force: bool = False, ramp_time: float = 0.0,
            backaction: bool = True, record_every: int = 1,
            record_sites: Sequence[int] = (),
            constants: PhysicalConstants = CONSTANTS) -> TransientTrace:
    """Integrate the probe switch-on transient of the whole ensemble.

    Per site sub-ensemble j:

        m d''_j = -m omega_zj^2 d_j + f(theta_j, d_j, nbar(t)) - m G_v d'_j

    starting from the probe-off equilibrium (d = d' = 0).  nbar(t) follows
    the cavity model: adiabatic tracks n_max*V(delta_pc - Delta_N) exactly,
    the first-order filter relaxes toward it at 2*kappa.  ``ramp_time`` > 0
    ramps the drive linearly instead of an instantaneous switch-on.

    ``backaction=False`` freezes the photon number entering the *force* at
    its switch-on value while the recorded transmission still follows the
    moving resonance -- the one-way (no optical spring) response used for
    expected-signal analysis.  ``linearized_force`` evaluates the force
    gradient at zero displacement.

    Every ``record_every``-th step is a sample.  ``record_sites`` indexes
    the ensemble rows (negative from the end) whose displacement and
    velocity are kept at each sample; by default none are, so the trace
    holds only per-sample series.  Each step evaluates the force once: the
    end-of-step acceleration starts the next step.  Delta_N and nbar are
    computed every step only when they feed back (backaction, or the
    filter's memory); otherwise only at the samples.
    """
    if profile is None:
        profile = ResponseProfile.from_cavity(cavity)
    theta = ensemble.theta
    w2 = ensemble.omega_z ** 2
    kp = cavity.k_probe
    w_max = float(np.max(ensemble.omega_z))
    sites = np.arange(len(ensemble))[np.asarray(record_sites, dtype=int)]

    if dt is None:
        dt = TWO_PI / (200.0 * w_max)
    if dt > TWO_PI / (50.0 * w_max):
        raise ValueError("dt too large for the fastest site (stability guard)")
    if damping_rate < 0:
        raise ValueError("damping_rate must be nonnegative")

    n_steps = int(round(duration / dt))
    # force = f1 * sin(2(theta + kp d)) * nbar, with f1 per photon
    f1 = -constants.hbar * cavity.g0 ** 2 * kp / cavity.delta_ca
    f1_m = f1 / constants.m_rb87
    f1_m_sin2_0 = f1_m * np.sin(2.0 * theta)     # the linearized force / m

    def drive_level(t):
        if ramp_time > 0.0:
            return drive.n_max * min(t / ramp_time, 1.0)
        return drive.n_max

    def target(dn, t):
        return drive_level(t) * float(profile_value(profile, drive.delta_pc - dn))

    def accel(d, nbar_force):
        s = (f1_m_sin2_0 if linearized_force
             else f1_m * np.sin(2.0 * (theta + kp * d)))
        return -w2 * d + s * nbar_force

    d = np.zeros(len(ensemble))
    v = np.zeros(len(ensemble))
    dn = collective_shift_from_displacements(ensemble, d, cavity)
    nbar = target(dn, 0.0)
    nbar_force0 = nbar
    filtered = field_model is CavityFieldMode.FIRST_ORDER_FILTER
    if filtered:
        nbar = 0.0                      # cavity empty at switch-on
        relax = np.exp(-2.0 * cavity.kappa * dt)
    feedback = backaction or filtered

    n_rec = n_steps // record_every + 1
    t_rec = np.empty(n_rec)
    dn_rec = np.empty(n_rec)
    nb_rec = np.empty(n_rec)
    disp_rec = np.empty((n_rec, sites.size))
    vel_rec = np.empty((n_rec, sites.size))

    def record(i_rec, t):
        t_rec[i_rec] = t
        dn_rec[i_rec] = dn
        nb_rec[i_rec] = nbar
        disp_rec[i_rec] = d[sites]
        vel_rec[i_rec] = v[sites]

    record(0, 0.0)
    damp = np.exp(-0.5 * damping_rate * dt) if damping_rate > 0 else 1.0
    a = accel(d, nbar if backaction else nbar_force0)
    for i in range(n_steps):
        t_new = (i + 1) * dt
        sample = (i + 1) % record_every == 0
        if damping_rate > 0:
            v = v * damp
        v_half = v + 0.5 * dt * a
        d = d + dt * v_half
        if feedback or sample:
            dn = collective_shift_from_displacements(ensemble, d, cavity)
            goal = target(dn, t_new)
            nbar = goal + (nbar - goal) * relax if filtered else goal
        a = accel(d, nbar if backaction else nbar_force0)
        v = v_half + 0.5 * dt * a
        if damping_rate > 0:
            v = v * damp
        if sample:
            record((i + 1) // record_every, t_new)

    kept = sites.size > 0
    return TransientTrace(t_rec, dn_rec, nb_rec,
                          disp_rec if kept else None,
                          vel_rec if kept else None,
                          tuple(int(j) for j in sites))


def impulse_modulation_estimate(cavity: CavityParams, trap: TrapParams,
                                n_atoms: float, theta: float = np.pi / 4,
                                constants: PhysicalConstants = CONSTANTS
                                ) -> tuple[float, float]:
    """Velocity kick of one photon and the collective modulation it drives.

    A photon transiting in ~1/2kappa imparts impulse f(theta)/(2 kappa) to
    an atom at probe phase theta, i.e. velocity v = f/(2 kappa m).  All N
    atoms oscillating with displacement amplitude v/omega_z (their local
    kick scaling with the local gradient, averaged over the wells) modulate
    the resonance by N g0^2 k_p/(2|delta_ca|) * v/omega_z.
    """
    f = (-constants.hbar * cavity.g0 ** 2 * cavity.k_probe
         * np.sin(2.0 * theta) / cavity.delta_ca)
    v = f / (2.0 * cavity.kappa * constants.m_rb87)
    modulation = (n_atoms * cavity.g0 ** 2 * cavity.k_probe
                  / (2.0 * abs(cavity.delta_ca)) * abs(v) / trap.omega_z)
    return float(v), float(modulation)


def impulse_boundary_detuning(cavity: CavityParams, trap: TrapParams,
                              n_atoms: float, theta: float = np.pi / 4,
                              constants: PhysicalConstants = CONSTANTS) -> float:
    """|delta_ca| below which the single-photon modulation exceeds kappa."""
    num = (n_atoms * constants.hbar * cavity.g0 ** 4 * cavity.k_probe ** 2
           * abs(np.sin(2.0 * theta)))
    den = 4.0 * cavity.kappa ** 2 * constants.m_rb87 * trap.omega_z
    return float(np.sqrt(num / den))
