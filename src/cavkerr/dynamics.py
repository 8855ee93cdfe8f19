"""Time-domain simulation: hysteresis sweeps, ring-up transients, impulses.

The mechanical timescale (1/omega_z ~ 3 us) is far slower than the cavity
field (1/2kappa ~ 120 ns), so by default the intracavity photon number
adiabatically tracks the instantaneous collective shift; a first-order
filter relaxing at 2*kappa is available to check that approximation.

The linearized one-way ring-up (no backaction, undamped, unramped,
adiabatic field) drives every site with a constant force, so it is solved
in closed form: each site's contribution to Delta_N is a short harmonic
series of H harmonics, read off one FFT per site row at K points per
period, K the smallest power of two at or above 2H + 2 (the aliasing
bound).  Harmonic n of every site lies in the band n [min w, max w], so
each band is replaced by a few terms at Chebyshev frequencies of the band
(interpolation error bounded by Jacobi-Anger, within 1e-16 of the total
population), and the terms are summed at the sample times by blocked
matrix products.  Every other model is integrated by fixed-step velocity
Verlet on the per-site collective coordinates (symplectic, so the energy
bookkeeping test is meaningful), with the optional viscous damping applied
as exact exponential half-step decays and the cavity filter relaxed by one
exact exponential step per time step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .lattice import (LatticeEnsemble, collective_shift_from_displacements,
                      optical_acceleration)
from .params import CONSTANTS, TWO_PI, CavityParams, DriveParams, TrapParams
from .steady_state import ResponseProfile, lineshape_scan, profile_value

# Trap-frequency rms spread reproducing the observed 1.0 ms collective
# coherence time (Gaussian dephasing gives t_1e = sqrt(2)/spread); a
# matching calibration, not a prediction.  The full-backaction model
# mode-locks at high drive, so the 1.0 ms value applies to the one-way
# (backaction=False) detection response.
CALIBRATED_OMEGA_Z_SPREAD = float(np.sqrt(2.0) / 1.0e-3)


@dataclass
class TransientTrace:
    """Sampled ring-up record.

    ``delta_n`` and ``nbar`` are the collective shift and photon number at
    every sample.  ``displacements`` and ``velocities`` are (n_samples,
    len(record_sites)), column k belonging to the ensemble row
    ``record_sites[k]`` of the ``ring_up`` call, so with no site recorded
    they have zero columns.
    """

    time: np.ndarray
    delta_n: np.ndarray
    nbar: np.ndarray
    displacements: np.ndarray
    velocities: np.ndarray


def quasi_static_sweep(profile: ResponseProfile, beta, delta_pc, n_max,
                       delta_n: float,
                       direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-static swept lineshape nbar(delta_pc) with hysteretic jumps.

    Wraps the branch-following scan in physical units: the probe detunings
    ``delta_pc`` (rad/s) become reduced detunings (delta_pc - delta_n)/kappa,
    scanned in ``direction`` ("up", "down", or "both": up, then down over the
    same detunings reversed).  The scan starts on the stable branch nearest
    the linear response and stays on it until that branch ends at a fold,
    then jumps to the other stable branch.  Returns the arrays (delta_pc,
    nbar) in traversal order; a non-finite beta raises ValueError.

    ``beta`` and ``n_max`` may be 1-d arrays of one drive each, solved in
    one scan (see lineshape_scan): both arrays then have a leading axis, a
    row per drive.
    """
    grid = (np.asarray(delta_pc, dtype=float) - delta_n) / profile.kappa
    scan = lineshape_scan(profile, beta, grid, direction)
    return (scan[..., 0] * profile.kappa + delta_n,
            scan[..., 1] * np.asarray(n_max)[..., None])


def n_max_for_switch_on(level: float, profile: ResponseProfile,
                        delta_pc: float, delta_n0: float) -> float:
    """Resonant drive level that gives ``level`` photons right at switch-on."""
    v = profile_value(profile, delta_pc - delta_n0)
    if v <= 0:
        raise ValueError("response vanishes at the switch-on detuning")
    return level / v


def ring_up(ensemble: LatticeEnsemble, cavity: CavityParams,
            drive: DriveParams, *,
            field_model: str = "adiabatic",
            damping_rate: float = 0.0, duration: float = 1e-3,
            dt: float | None = None, profile: ResponseProfile | None = None,
            linearized_force: bool = False, ramp_time: float = 0.0,
            backaction: bool = True, record_every: int = 1,
            record_sites: Sequence[int] = ()) -> TransientTrace:
    """Simulate the probe switch-on transient of the whole ensemble.

    Per site sub-ensemble j:

        m d''_j = -m omega_zj^2 d_j + m a(theta_j, d_j) nbar(t) - m G_v d'_j

    with a the lattice's optical_acceleration, starting from the probe-off
    equilibrium (d = d' = 0).  nbar(t) follows
    ``field_model``: "adiabatic" tracks n_max*V(delta_pc - Delta_N) exactly,
    "filter" (first order) relaxes toward it at 2*kappa from an empty
    cavity; any other value is a ValueError.  ``ramp_time`` > 0
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
    1/200 of the fastest row's period (one not positive or over
    max_stable_dt is a ValueError, as is a negative or non-finite
    damping_rate, ramp_time or duration), and the samples are
    sample_times(duration, dt, record_every).
    ``record_sites`` indexes the ensemble rows (negative from the end)
    whose displacement and velocity are kept at each sample; by default
    none are, and the site series have zero columns.
    """
    if field_model not in ("adiabatic", "filter"):
        raise ValueError("field_model must be 'adiabatic' or 'filter'")
    for name, value in (("damping_rate", damping_rate),
                        ("ramp_time", ramp_time), ("duration", duration)):
        if not 0.0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and nonnegative")
    if dt is None:
        dt = TWO_PI / (200.0 * float(np.max(ensemble.omega_z)))
    if not 0.0 < dt <= max_stable_dt(ensemble.omega_z):
        raise ValueError("dt must be positive and small enough for the "
                         "fastest site (stability guard)")
    if ramp_time > 0 and not backaction:
        raise ValueError("a drive ramp needs backaction: the one-way force "
                         "is fixed at switch-on, where the ramp is zero")
    if profile is None:
        profile = ResponseProfile.from_cavity(cavity)
    time = sample_times(duration, dt, record_every)
    sites = np.arange(len(ensemble))[np.asarray(record_sites, dtype=int)]
    if (linearized_force and not backaction and damping_rate == 0
            and ramp_time == 0 and field_model == "adiabatic"):
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
# chunks of _CHUNK; at most _TERMS terms share one (terms, _BLOCK) table
# (3 MB), so no temporary grows with the ensemble or the duration.  Harmonic
# band n brings min(rows, K_n) terms (_band_terms); 3001 rows x 6 harmonics
# over 3 ms at a 225 Hz spread make 521 terms, a single chunk.
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


def _band_terms(w: np.ndarray, coef: np.ndarray, t_max: float,
                tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Cosine terms (W_p, D_p) for sum_jn D_jn cos(n w_j t), 0 <= t <= t_max.

    ``coef`` is (rows, H), column n - 1 holding harmonic n.  Harmonic n's
    band puts n w_j = n (c + h x_j), x_j in [-1, 1], with c and h the centre
    and half-width of [min w, max w], so its sum is
    Re e^{inct} sum_j D_jn f(x_j), f(x) = exp(i n h t x).  Interpolating f
    at the K first-kind Chebyshev nodes x_k = cos theta_k,
    theta_k = (k + 1/2) pi/K, replaces the rows by K terms at n (c + h x_k)
    with weights sum_j D_jn l_k(x_j).  By the discrete orthogonality of
    T_q(x_k) = cos(q theta_k) those weights are
    (m_0 + 2 sum_{0<q<K} cos(q theta_k) m_q) / K, from the moments
    m_q = sum_j D_jn T_q(x_j), which the three-term recurrence gives for
    all bands in one pass.  Jacobi-Anger makes f's Chebyshev coefficients
    2 i^q J_q(n h t), and each aliased one moves the interpolant by at most
    twice its size, so with z = n h t_max the band's error is at most
    sum_j |D_jn| 4 sum_{q>=K} (z/2)^q/q! <= sum_j |D_jn| 8 (z/2)^K/K!
    for K >= z.  K_n is the smallest K >= z that puts this under ``tol``;
    a band with K_n >= rows keeps its rows, in row-major order, ahead of
    the compressed bands.  A zero-width band (h = 0) is one term at n c
    carrying sum_j D_jn.  (The low-rank step of Ruiz-Antolin & Townsend,
    SIAM J. Sci. Comput. 40, A529 (2018).)
    """
    rows, n_harm = coef.shape
    lo, hi = float(np.min(w)), float(np.max(w))
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    scale = np.sum(np.abs(coef), axis=0)
    counts = np.ones(n_harm, dtype=int)
    for i in range(n_harm):
        z = (i + 1) * h * t_max
        if z > 0 and scale[i] > 0:
            k = math.ceil(z)
            log_bound = math.log(tol / (8.0 * scale[i]))
            while (k < rows
                   and k * math.log(z / 2) - math.lgamma(k + 1) > log_bound):
                k += 1
            counts[i] = k
    keep = counts >= rows
    freq = [(w[:, None] * np.arange(1, n_harm + 1)[keep]).ravel()]
    weight = [coef[:, keep].ravel()]

    bands = np.flatnonzero(~keep)
    x = (w - c) / h if h > 0 else np.zeros(rows)
    d = coef[:, bands]
    moments = np.empty((int(counts[bands].max(initial=0)), bands.size))
    t_prev, t_q = x, np.ones(rows)          # T_{-1} = T_1 starts T_0, T_1
    for q in range(len(moments)):
        moments[q] = t_q @ d
        t_prev, t_q = t_q, 2.0 * x * t_q - t_prev
    for b, i in enumerate(bands):
        k = counts[i]
        theta = (np.arange(k) + 0.5) * (np.pi / k)
        cos_q = np.cos(np.outer(theta, np.arange(1, k)))
        freq.append((i + 1) * (c + h * np.cos(theta)))
        weight.append((moments[0, b] + 2.0 * cos_q @ moments[1:k, b]) / k)
    return np.concatenate(freq), np.concatenate(weight)


def _one_way_exact(ensemble: LatticeEnsemble, cavity: CavityParams,
                   drive: DriveParams, *, profile: ResponseProfile,
                   time: np.ndarray, tau: float,
                   sites: np.ndarray) -> TransientTrace:
    """The linearized one-way ring-up (see ring_up) in closed form at the
    sample times ``time``, ``tau`` apart.

    Row j starts at rest under the constant switch-on force, so
    d_j = A_j (1 - cos w_j t), A_j = a_j nbar0 / w_j^2 with a_j the row's
    optical_acceleration at d = 0.
    Then N_j sin^2(theta_j + k_p d_j) is even and periodic in u = w_j t:
    a cosine series whose harmonic n is bounded by N_j (k_p|A_j|)^n / n!
    (Jacobi-Anger, |J_n(z)| <= (z/2)^n / n!).  H harmonics are kept, the
    dropped tail below 1e-16 of sum N_j, and one FFT per row over K points
    per period gives their coefficients, K the smallest power of two at or
    above 2H + 2.  Harmonic n <= H takes the aliases n +- mK, m >= 1, all
    at or above K - H >= H + 2, so in the dropped tail.  So Delta_N(t) is
    g0^2/delta_ca times a constant plus sum_p D_p cos(W_p t) over the kept
    harmonics W_p = n w_j.
    _band_terms then puts each harmonic band n [min w, max w] on K_n
    Chebyshev frequencies, with an error at most 1e-16 sum N_j per band
    (its bound is in _band_terms); a band with K_n >= rows keeps its rows,
    so a small ensemble keeps its exact terms.  At the
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
    amp = optical_acceleration(theta, 0.0, cavity) * nbar0 / w ** 2

    tol = 1e-16 * np.sum(pop)
    n_harm = _kept_harmonics(pop, kp * np.abs(amp), tol)
    k = 1 << (2 * n_harm + 1).bit_length()     # smallest 2**m >= 2H + 2
    u = np.arange(k) * (TWO_PI / k)
    s = np.sin(theta[:, None] + kp * amp[:, None] * (1.0 - np.cos(u)))
    coef = np.fft.rfft(pop[:, None] * s * s, axis=1).real[:, :n_harm + 1] / k
    coef[:, 1:] *= 2.0                  # cos(n u) carries the +-n pair

    freq, coef_osc = _band_terms(w, coef[:, 1:], float(time[-1]), tol)
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
                          amp[sites] * w[sites] * np.sin(phase))


def _integrate(ensemble: LatticeEnsemble, cavity: CavityParams,
               drive: DriveParams, *, profile: ResponseProfile,
               time: np.ndarray, dt: float, record_every: int,
               sites: np.ndarray, field_model: str,
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
    a0 = optical_acceleration(theta, 0.0, cavity)   # the linearized force / m

    def drive_level(t):
        if ramp_time > 0.0:
            return drive.n_max * min(t / ramp_time, 1.0)
        return drive.n_max

    def target(dn, t):
        return drive_level(t) * float(profile_value(profile, drive.delta_pc - dn))

    def accel(d, nbar_force):
        s = a0 if linearized_force else optical_acceleration(theta, d, cavity)
        return -w2 * d + s * nbar_force

    d = np.zeros(len(ensemble))
    v = np.zeros(len(ensemble))
    dn = collective_shift_from_displacements(ensemble, d, cavity)
    nbar = target(dn, 0.0)
    nbar_force0 = nbar
    filtered = field_model == "filter"
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

    return TransientTrace(time, dn_rec, nb_rec, disp_rec, vel_rec)


def impulse_boundary_detuning(cavity: CavityParams, trap: TrapParams,
                              n_atoms: float) -> float:
    """|delta_ca| below which one photon's kick modulates the resonance by
    more than kappa: the kick v = a/(2 kappa), a the optical_acceleration at
    probe phase pi/4, sets N atoms oscillating at |v|/omega_z, a modulation
    N g0^2 k_p/(2|delta_ca|) |v|/omega_z that falls as 1/delta_ca^2."""
    num = n_atoms * CONSTANTS.hbar * cavity.g0 ** 4 * cavity.k_probe ** 2
    den = 4.0 * cavity.kappa ** 2 * CONSTANTS.m_rb87 * trap.omega_z
    return float(np.sqrt(num / den))
