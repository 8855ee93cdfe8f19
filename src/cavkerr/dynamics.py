"""Time-domain simulation: hysteresis sweeps, ring-up transients, impulses.

The mechanical timescale (1/omega_z ~ 3 us) is far slower than the cavity
field (1/2kappa ~ 120 ns), so by default the intracavity photon number
adiabatically tracks the instantaneous collective shift; a first-order
filter relaxing at 2*kappa is available to check that approximation.

The linearized one-way ring-up (no backaction, undamped, unramped,
adiabatic field) drives every site with a constant force, so it is solved
in closed form: each site's contribution to Delta_N is a short harmonic
series, summed at the sample times by blocked matrix products.  Every
other model is integrated by fixed-step velocity Verlet on the per-site
collective coordinates (symplectic, so the energy bookkeeping test is
meaningful), with the optional viscous damping applied as exact
exponential half-step decays and the cavity filter sub-stepped by exact
exponential relaxation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lattice import LatticeEnsemble, collective_shift_from_displacements
from .params import (CONSTANTS, CavityParams, DriveParams, TrapParams,
                     force_per_photon)
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
    len(sites)), column k belonging to row ``sites[k]``, so with no site
    recorded they have zero columns.
    """

    time: np.ndarray
    delta_n: np.ndarray
    nbar: np.ndarray
    displacements: np.ndarray
    velocities: np.ndarray
    sites: tuple[int, ...]

    def __post_init__(self):
        n = len(self.time)
        if not (len(self.delta_n) == len(self.nbar) == n):
            raise ValueError("trace series must have equal length")
        if np.any(self.nbar < 0):
            raise ValueError("nbar must be nonnegative")
        for series in (self.displacements, self.velocities):
            if series.shape != (n, len(self.sites)):
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
            record_sites: Sequence[int] = ()) -> TransientTrace:
    """Simulate the probe switch-on transient of the whole ensemble.

    Per site sub-ensemble j:

        m d''_j = -m omega_zj^2 d_j + f(theta_j, d_j, nbar(t)) - m G_v d'_j

    starting from the probe-off equilibrium (d = d' = 0).  nbar(t) follows
    the cavity model: adiabatic tracks n_max*V(delta_pc - Delta_N) exactly,
    the first-order filter relaxes toward it at 2*kappa.  ``ramp_time`` > 0
    ramps the drive linearly instead of an instantaneous switch-on; it needs
    ``backaction``, since the one-way force is fixed at switch-on, where a
    ramped drive is zero (ValueError otherwise).

    ``backaction=False`` freezes the photon number entering the *force* at
    its switch-on value while the recorded transmission still follows the
    moving resonance -- the one-way (no optical spring) response used for
    expected-signal analysis.  ``linearized_force`` evaluates the force
    gradient at zero displacement.

    The linearized one-way model (``linearized_force``, no backaction, no
    damping, no ramp, adiabatic field) drives each row with a constant
    force, so it is solved in closed form at the sample times; every other
    model runs the velocity-Verlet loop.  Both get inputs resolved here:
    ``profile`` defaults to ResponseProfile.from_cavity(cavity), ``dt`` to
    1/200 of the fastest row's period (over max_stable_dt is a ValueError),
    and the samples are sample_times(duration, dt, record_every).
    ``record_sites`` indexes the ensemble rows (negative from the end)
    whose displacement and velocity are kept at each sample; by default
    none are, and the site series have zero columns.
    """
    if profile is None:
        profile = ResponseProfile.from_cavity(cavity)
    if dt is None:
        dt = TWO_PI / (200.0 * float(np.max(ensemble.omega_z)))
    if dt > max_stable_dt(ensemble.omega_z):
        raise ValueError("dt too large for the fastest site (stability guard)")
    if damping_rate < 0:
        raise ValueError("damping_rate must be nonnegative")
    if ramp_time > 0 and not backaction:
        raise ValueError("a drive ramp needs backaction: the one-way force "
                         "is fixed at switch-on, where the ramp is zero")
    time = sample_times(duration, dt, record_every)
    sites = np.arange(len(ensemble))[np.asarray(record_sites, dtype=int)]
    if (linearized_force and not backaction and damping_rate == 0
            and ramp_time == 0 and field_model is CavityFieldMode.ADIABATIC):
        return _one_way_exact(ensemble, cavity, drive, profile=profile,
                              time=time, tau=record_every * dt, sites=sites)
    return _integrate(ensemble, cavity, drive, profile=profile, time=time,
                      dt=dt, record_every=record_every, sites=sites,
                      field_model=field_model, damping_rate=damping_rate,
                      linearized_force=linearized_force, ramp_time=ramp_time,
                      backaction=backaction)


def max_stable_dt(omega_z) -> float:
    """The stability guard: the largest ring-up step, 1/50 of the period of
    the fastest trap frequency in ``omega_z``."""
    return TWO_PI / (50.0 * float(np.max(omega_z)))


def sample_times(duration: float, dt: float, record_every: int) -> np.ndarray:
    """Ring-up sample times: t = 0 and every ``record_every``-th of the
    round(duration/dt) steps of ``dt`` that follow."""
    if duration < 0 or record_every < 1:
        raise ValueError("need duration >= 0 and record_every >= 1")
    n_samples = int(round(duration / dt)) // record_every + 1
    return (np.arange(n_samples) * record_every) * dt


# Closed-form sums: the samples go in blocks of _BLOCK and the blocks in
# chunks of _CHUNK; at most _TERMS harmonics share one (terms, _BLOCK) table
# (3 MB), so no temporary grows with the ensemble or the duration.
_BLOCK, _CHUNK, _TERMS = 64, 16, 6000


def _kept_harmonics(weight: np.ndarray, x: np.ndarray, tol: float) -> int:
    """Smallest H with sum_j weight_j sum_{n>H} x_j^n/n! <= tol.

    Past n = 2 max(x) each term is under half the one before, so twice the
    first dropped term bounds the tail.
    """
    h, term, x_max = 0, weight.astype(float), float(np.max(x))
    while True:
        term = term * x / (h + 1)
        if h + 1 >= 2.0 * x_max and 2.0 * float(np.sum(term)) <= tol:
            return h
        h += 1


def _one_way_exact(ensemble: LatticeEnsemble, cavity: CavityParams,
                   drive: DriveParams, *, profile: ResponseProfile,
                   time: np.ndarray, tau: float,
                   sites: np.ndarray) -> TransientTrace:
    """The linearized one-way ring-up (see ring_up) in closed form at the
    sample times ``time``, ``tau`` apart.

    Row j starts at rest under the constant switch-on force, so
    d_j = A_j (1 - cos w_j t), A_j = f1 sin(2 theta_j) nbar0 / (m w_j^2).
    Then N_j sin^2(theta_j + k_p d_j) is even and periodic in u = w_j t:
    a cosine series whose harmonic n is bounded by N_j (k_p|A_j|)^n / n!
    (Jacobi-Anger, |J_n(z)| <= (z/2)^n / n!).  One FFT per row over K
    points per period gives its coefficients; H harmonics are kept, with
    the dropped tail and, as K >= 2H + 2, the aliased tail each below
    1e-16 of sum N_j.  So Delta_N(t) is g0^2/delta_ca times a constant
    plus sum_p D_p cos(W_p t) over the kept harmonics W_p = n w_j.  At the
    sample t = t_B + m tau, m < _BLOCK, that sum is
    sum_p D_p [cos(W_p t_B) cos(W_p m tau) - sin(W_p t_B) sin(W_p m tau)]:
    two real matrix products of per-block anchors with one fixed table.
    """
    theta, w, pop = ensemble.theta, ensemble.omega_z, ensemble.population
    kp = cavity.k_probe
    n_rec = len(time)

    dn0 = collective_shift_from_displacements(ensemble, np.zeros(len(w)),
                                              cavity)
    nbar0 = drive.n_max * float(profile_value(profile, drive.delta_pc - dn0))
    amp = (force_per_photon(cavity) / CONSTANTS.m_rb87 * np.sin(2.0 * theta)
           * nbar0 / w ** 2)

    n_harm = _kept_harmonics(pop, kp * np.abs(amp), 1e-16 * np.sum(pop))
    k = 64
    while k < 2 * n_harm + 2:
        k *= 2
    u = np.arange(k) * (TWO_PI / k)
    s = np.sin(theta[:, None] + kp * amp[:, None] * (1.0 - np.cos(u)))
    coef = np.fft.rfft(pop[:, None] * s * s, axis=1).real[:, :n_harm + 1] / k
    coef[:, 1:] *= 2.0                  # cos(n u) carries the +-n pair

    freq = (w[:, None] * np.arange(1, n_harm + 1)).ravel()
    coef_osc = coef[:, 1:].ravel()
    n_blocks, block = -(-n_rec // _BLOCK), _BLOCK * tau
    sums = np.full(n_blocks * _BLOCK, np.sum(coef[:, 0]))
    for lo in range(0, freq.size, _TERMS):
        f, c = freq[lo:lo + _TERMS], coef_osc[lo:lo + _TERMS]
        cos_m = np.outer(f, np.arange(_BLOCK) * tau)
        sin_m = np.sin(cos_m)
        np.cos(cos_m, out=cos_m)
        # D_p exp(i W_p t_B) for the blocks of a chunk: the chunk's first
        # anchor times a fixed table of offsets, so no error accumulates
        ahead = c * np.exp(1j * np.outer(np.arange(_CHUNK) * block, f))
        for b in range(0, n_blocks, _CHUNK):
            anchor = ahead[:n_blocks - b] * np.exp(1j * (b * block) * f)
            part = anchor.real @ cos_m - anchor.imag @ sin_m
            sums[b * _BLOCK:b * _BLOCK + part.size] += part.ravel()
    delta_n = sums[:n_rec] * cavity.g0 ** 2 / cavity.delta_ca
    nbar = drive.n_max * profile_value(profile, drive.delta_pc - delta_n)

    phase = np.outer(time, w[sites])
    return TransientTrace(time, delta_n, nbar,
                          amp[sites] * (1.0 - np.cos(phase)),
                          amp[sites] * w[sites] * np.sin(phase),
                          tuple(sites.tolist()))


def _integrate(ensemble: LatticeEnsemble, cavity: CavityParams,
               drive: DriveParams, *, profile: ResponseProfile,
               time: np.ndarray, dt: float, record_every: int,
               sites: np.ndarray, field_model: CavityFieldMode,
               damping_rate: float, linearized_force: bool, ramp_time: float,
               backaction: bool) -> TransientTrace:
    """ring_up by velocity Verlet, whatever the model: steps of ``dt``, a
    sample every ``record_every``-th, up to the last of ``time``.

    Each step evaluates the force once: the end-of-step acceleration starts
    the next step.  Delta_N and nbar are computed every step only when they
    feed back (backaction, or the filter's memory); otherwise only at the
    samples.
    """
    theta = ensemble.theta
    w2 = ensemble.omega_z ** 2
    kp = cavity.k_probe
    f1_m = force_per_photon(cavity) / CONSTANTS.m_rb87
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

    n_rec = len(time)
    dn_rec = np.empty(n_rec)
    nb_rec = np.empty(n_rec)
    disp_rec = np.empty((n_rec, sites.size))
    vel_rec = np.empty((n_rec, sites.size))

    def record(i_rec):
        dn_rec[i_rec] = dn
        nb_rec[i_rec] = nbar
        disp_rec[i_rec] = d[sites]
        vel_rec[i_rec] = v[sites]

    record(0)
    damp = np.exp(-0.5 * damping_rate * dt) if damping_rate > 0 else 1.0
    a = accel(d, nbar if backaction else nbar_force0)
    for i in range((n_rec - 1) * record_every):
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
            record((i + 1) // record_every)

    return TransientTrace(time, dn_rec, nb_rec, disp_rec, vel_rec,
                          tuple(sites.tolist()))


def impulse_modulation_estimate(cavity: CavityParams, trap: TrapParams,
                                n_atoms: float) -> tuple[float, float]:
    """Velocity kick of one photon and the collective modulation it drives.

    A photon transiting in ~1/2kappa imparts impulse f/(2 kappa) to an atom
    at probe phase pi/4, where the force f = f1 sin(2 theta) peaks, i.e.
    velocity v = f1/(2 kappa m).  All N atoms oscillating with displacement
    amplitude v/omega_z (their local kick scaling with the local gradient,
    averaged over the wells) modulate the resonance by
    N g0^2 k_p/(2|delta_ca|) * v/omega_z.
    """
    v = force_per_photon(cavity) / (2.0 * cavity.kappa * CONSTANTS.m_rb87)
    modulation = (n_atoms * cavity.g0 ** 2 * cavity.k_probe
                  / (2.0 * abs(cavity.delta_ca)) * abs(v) / trap.omega_z)
    return float(v), float(modulation)


def impulse_boundary_detuning(cavity: CavityParams, trap: TrapParams,
                              n_atoms: float) -> float:
    """|delta_ca| below which the single-photon modulation of
    impulse_modulation_estimate exceeds kappa."""
    num = n_atoms * CONSTANTS.hbar * cavity.g0 ** 4 * cavity.k_probe ** 2
    den = 4.0 * cavity.kappa ** 2 * CONSTANTS.m_rb87 * trap.omega_z
    return float(np.sqrt(num / den))
