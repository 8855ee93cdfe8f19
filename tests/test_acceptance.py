"""Acceptance suite: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to later
calibration.
"""

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from helpers import probe_potential, ringup_context, run_ringup

from cavkerr import (
    CONSTANTS,
    DriveParams,
    ResponseProfile,
    SystemParams,
    beta_parameter,
    bistability_threshold,
    collective_shift,
    critical_numbers,
    fold_points,
    kerr_coefficient,
    nonlinear_photon_threshold,
    reference_cavity,
    reference_trap,
    recoil_frequency,
    steady_state_roots_lorentzian,
)
from cavkerr.dynamics import (
    impulse_boundary_detuning,
    quasi_static_sweep,
    ring_up,
)
from cavkerr.lattice import (
    LatticeEnsemble,
    build_lattice,
    effective_kerr_numeric,
    optical_acceleration,
)
from cavkerr.measure import (
    CountRecord,
    averaged_counts,
    decay_fit,
    windowed_fourier_amplitude,
)

TWO_PI = 2 * np.pi
KAPPA = TWO_PI * 0.66e6
SIGMA = TWO_PI * 1.1e6


def report(num, text):
    print(f"ACCEPTANCE PASS criterion {num:2d}: {text}")


def test_criterion_01_lorentzian_threshold():
    thr = bistability_threshold(ResponseProfile(KAPPA))
    exact = 8 * np.sqrt(3) / 9
    assert abs(thr - exact) < 1e-6
    report(1, f"Lorentzian bistability threshold {thr:.8f} = 8*sqrt(3)/9 "
              f"within 1e-6 (|diff| = {abs(thr - exact):.2e})")


def test_criterion_02_voigt_threshold():
    thr = bistability_threshold(ResponseProfile(KAPPA, SIGMA))
    assert abs(thr - 3.7) <= 0.1
    report(2, f"Voigt threshold {thr:.4f} = 3.7 +- 0.1")


def test_criterion_03_beta_reconstruction_lineshapes():
    cav = reference_cavity(delta_ca=-TWO_PI * 30e9)
    trap = reference_trap(omega_z=TWO_PI * 42e3)
    eps = kerr_coefficient(cav, trap)
    dn = -TWO_PI * 148e6
    betas = {n: beta_parameter(dn, eps, n, cav.kappa)
             for n in (0.06, 0.20, 0.56)}
    assert betas[0.56] == pytest.approx(3.72, rel=0.02)
    assert betas[0.20] == pytest.approx(1.33, rel=0.02)
    assert betas[0.06] == pytest.approx(0.37, rel=0.10)
    report(3, "beta reconstruction {%.3f, %.3f, %.3f} vs {0.37, 1.33, 3.72}"
              % (betas[0.06], betas[0.20], betas[0.56]))


def test_criterion_04_beta_reconstruction_hysteresis():
    cav = reference_cavity(delta_ca=-TWO_PI * 101e9)
    trap = reference_trap(omega_z=TWO_PI * 42e3)
    dn = collective_shift(7e4, cav.g0, cav.delta_ca)
    beta = beta_parameter(dn, kerr_coefficient(cav, trap), 10.0, cav.kappa)
    assert beta == pytest.approx(9.5, rel=0.03)
    report(4, f"beta = {beta:.3f} vs 9.5 within 3%")


def test_criterion_05_photon_threshold_limit():
    cav = reference_cavity(delta_ca=-1e-6)   # delta_ca -> 0 limit
    w_rec = recoil_frequency(cav.k_probe)
    trap = reference_trap(omega_z=2 * w_rec)
    system = SystemParams(cav, trap, DriveParams(1.0, 0.0, 5e4))
    n_nl = nonlinear_photon_threshold(system)
    assert 0.8e-4 <= n_nl <= 1.2e-4
    report(5, f"n_nl limiting value {n_nl:.3e} in [0.8, 1.2] x 1e-4")


def test_criterion_06_critical_numbers():
    atom, photon = critical_numbers(reference_cavity())
    assert round(atom, 2) == 0.02
    assert round(photon, 2) == 0.02
    report(6, f"critical numbers ({atom:.4f}, {photon:.4f}) both round to 0.02")


def test_criterion_07_multi_well_averaging():
    cav = reference_cavity(delta_ca=-TWO_PI * 101e9)
    trap = reference_trap(omega_z=TWO_PI * 42e3)
    ens = build_lattice(20_000, 7e4, trap.omega_z)   # >= 1e4 uniform phases
    eps_eff = effective_kerr_numeric(ens, cav)
    eps_half = kerr_coefficient(cav, trap, multi_well=False) / 2
    assert eps_eff == pytest.approx(eps_half, rel=0.005)
    report(7, f"numeric ensemble Kerr {eps_eff:.6f} = single-well/2 "
              f"{eps_half:.6f} within 0.5%")


def test_criterion_08_cubic_oracle():
    rng = np.random.default_rng(2026)
    grid = np.linspace(1e-9, 1.0, 100_000)
    worst = 0.0
    for _ in range(1000):
        beta = rng.uniform(0.0, 12.0)
        delta0 = rng.uniform(-15.0, 5.0)
        g = grid * (1.0 + (delta0 + beta * grid) ** 2) - 1.0
        idx = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
        lo, hi = grid[idx].copy(), grid[idx + 1].copy()
        neg_lo = g[idx] < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            neg_mid = mid * (1 + (delta0 + beta * mid) ** 2) - 1.0 < 0
            take_lo = neg_mid == neg_lo
            lo = np.where(take_lo, mid, lo)
            hi = np.where(take_lo, hi, mid)
        expected = 0.5 * (lo + hi)
        sol = steady_state_roots_lorentzian(delta0, beta)
        assert len(sol) == len(expected)
        for (u, _), ue in zip(sol, expected):
            worst = max(worst, abs(u - ue))
            assert abs(u - ue) <= 1e-6
    fold = steady_state_roots_lorentzian(-2.0, 2.0)
    us = [u for u, _ in fold]
    assert us[0] == pytest.approx(0.5, abs=1e-6)
    assert us[1] == pytest.approx(1.0, abs=1e-9)
    report(8, f"1000 random cubics match 1e5-point scan (worst |du| = "
              f"{worst:.2e}); beta=2, delta0=-2 gives {{0.5 (double), 1}}")


def test_criterion_09_hysteresis_sweeps():
    cav = reference_cavity(delta_ca=-TWO_PI * 101e9)
    trap = reference_trap(omega_z=TWO_PI * 42e3)
    profile = ResponseProfile.from_cavity(cav)
    dn = collective_shift(7e4, cav.g0, cav.delta_ca)
    beta = beta_parameter(dn, kerr_coefficient(cav, trap), 10.0, cav.kappa)
    lo, hi = dn - 14 * cav.kappa, dn + 4 * cav.kappa
    n_pts = 1601
    step = (hi - lo) / (n_pts - 1)
    sweeps = {}
    for direction, ends in (("up", (lo, hi)), ("down", (hi, lo))):
        sweeps[direction] = quasi_static_sweep(
            profile, beta, np.linspace(*ends, n_pts), 10.0, dn, direction)
    fold_dpc = [f[0] * cav.kappa + dn for f in fold_points(profile, beta)]
    for direction in ("up", "down"):
        dpc, nbar = sweeps[direction]
        i = np.argmax(np.abs(np.diff(nbar)))
        assert min(abs(dpc[i] - f) for f in fold_dpc) <= step
    up_max = sweeps["up"][1].max()
    down_max = sweeps["down"][1].max()
    assert down_max > up_max
    report(9, f"beta = {beta:.2f} Voigt sweep jumps at the folds; "
              f"toward-resonance max nbar {down_max:.2f} > {up_max:.2f}")


def test_criterion_10_ring_up():
    # switch-on interpretation: instantaneous nbar = 6.5 sets the
    # resonance excursion
    cavity, trap, trace_a = run_ringup(6.5, "instantaneous", 0.25e-3)
    excursion = (trace_a.delta_n.max() - trace_a.delta_n.min()) / cavity.kappa
    assert 0.4 <= excursion <= 1.1
    # resonant-drive interpretation: n_max = 6.5 sets the representative
    # pi/4-well displacement; its transmission is modulated at omega_z
    cavity, trap, trace_b = run_ringup(6.5, "nmax", 0.25e-3, tracer_pi4=True,
                                       record_sites=[-1])
    tracer = trace_b.displacements[:, 0]
    pp_nm = (tracer.max() - tracer.min()) * 1e9
    assert 0.4 <= pp_nm <= 1.6
    ac = trace_b.nbar - trace_b.nbar.mean()
    freqs = np.fft.rfftfreq(len(ac), trace_b.time[1] - trace_b.time[0])
    peak = freqs[1 + np.argmax(np.abs(np.fft.rfft(ac))[1:])]
    f_z = trap.omega_z / TWO_PI
    assert abs(peak - f_z) <= freqs[1]
    report(10, f"ring-up: excursion {excursion:.2f} half-linewidths in "
               f"[0.4, 1.1]; pi/4 well pp {pp_nm:.2f} nm in [0.4, 1.6]; "
               f"modulation {peak/1e3:.0f} kHz within one bin "
               f"({freqs[1]/1e3:.0f} kHz) of 49 kHz")


def test_criterion_11_dephasing_decay():
    from cavkerr.dynamics import CALIBRATED_OMEGA_Z_SPREAD
    spread = CALIBRATED_OMEGA_Z_SPREAD
    # (a) closed-form oracle in the weak-drive (uncoupled) regime
    cavity, trap, trace = run_ringup(
        0.05, "instantaneous", 3.0e-3, omega_z_spread=spread,
        subensembles=10, seed=42)
    decay = windowed_fourier_amplitude((trace.time, trace.nbar),
                                       trap.omega_z / TWO_PI, 500e-6)
    fit = decay_fit(decay, model="gaussian")
    t_free = np.sqrt(2.0) / spread
    assert fit.reliable
    assert fit.tau == pytest.approx(t_free, rel=0.05)
    # (b) end-to-end pipeline at the detection level, one-way response
    cavity, trap, trace = run_ringup(
        6.5, "instantaneous", 3.0e-3, omega_z_spread=spread,
        subensembles=10, seed=42, backaction=False, linearized_force=True)
    _, mean_counts = averaged_counts((trace.time, trace.nbar), cavity, 0.05,
                                     2e-6, 42, 50)
    record = CountRecord(2e-6, mean_counts, t_start=trace.time[0])
    decay2 = windowed_fourier_amplitude(record, trap.omega_z / TWO_PI, 500e-6)
    fit2 = decay_fit(decay2, model="gaussian")
    assert fit2.reliable
    assert 0.85e-3 <= fit2.tau <= 1.15e-3
    report(11, f"dephasing 1/e time {fit.tau*1e3:.3f} ms = sqrt(2)/spread "
               f"within 5%; end-to-end pipeline {fit2.tau*1e3:.3f} ms in "
               f"[0.85, 1.15] ms")


def test_criterion_12_impulse_regime_boundary():
    cav = reference_cavity()
    trap = reference_trap(omega_z=TWO_PI * 42e3)
    boundary = impulse_boundary_detuning(cav, trap, 5e4)
    target = TWO_PI * 15e9
    assert abs(boundary - target) <= 0.3 * target
    report(12, f"single-photon modulation exceeds kappa for |delta_ca| <= "
               f"2pi x {boundary/TWO_PI/1e9:.1f} GHz (15 GHz +- 30%)")


def test_criterion_13_conservation_and_consistency(tmp_path):
    # symplectic energy bookkeeping over 100 periods at the default step
    cav = reference_cavity(delta_ca=-TWO_PI * 260e9)
    trap = reference_trap(omega_z=TWO_PI * 49e3)
    ens = LatticeEnsemble(np.array([np.pi / 4]), np.array([1.0]),
                          np.array([trap.omega_z]))
    flat = ResponseProfile(1e18)
    nbar = 6.5
    period = TWO_PI / trap.omega_z
    trace = ring_up(ens, cav, DriveParams(n_max=nbar, delta_pc=0.0),
                    duration=100 * period, profile=flat, record_sites=[0])
    d, v = trace.displacements[:, 0], trace.velocities[:, 0]
    m = CONSTANTS.m_rb87
    energy = (0.5 * m * v**2 + 0.5 * m * trap.omega_z**2 * d**2
              + probe_potential(np.pi / 4, d, nbar, cav))
    per = len(d) // 100
    drift = abs(energy[-per:].mean() - energy[:per].mean()) / (
        0.5 * m * np.max(v**2))
    assert drift <= 1e-6

    # the integrator's force m nbar optical_acceleration = -gradient of
    # hbar nbar Delta_N, the shift it feeds back; 100 random phases
    rng = np.random.default_rng(3)
    h = 1e-12
    worst_force = 0.0
    for _ in range(100):
        theta = rng.uniform(0, np.pi)
        dd = rng.uniform(-30e-9, 30e-9)
        nb = rng.uniform(0.2, 8.0)
        f = m * nb * optical_acceleration(theta, dd, cav)
        du = (probe_potential(theta, dd + h, nb, cav)
              - probe_potential(theta, dd - h, nb, cav)) / (2 * h)
        scale = CONSTANTS.hbar * cav.g0**2 * cav.k_probe * nb / abs(cav.delta_ca)
        worst_force = max(worst_force, abs(f + du) / scale)
    assert worst_force <= 1e-6

    # Poisson statistics: mean/variance and chi-square at the 1% level
    t = np.arange(0.0, 0.1001, 1e-6)
    rec = CountRecord(1e-5, averaged_counts((t, np.full_like(t, 0.5)), cav,
                                            0.05, 1e-5, 23, 1)[1])
    assert len(rec.counts) >= 10_000
    c = rec.counts.astype(float)
    assert abs(c.var() / c.mean() - 1.0) < 3 * np.sqrt(2.0 / len(c))
    mu = 2 * cav.kappa * 0.5 * 0.05 * 1e-5
    kmax = int(poisson.ppf(0.999, mu)) + 1
    observed = np.bincount(np.minimum(rec.counts, kmax), minlength=kmax + 1)
    expected = poisson.pmf(np.arange(kmax + 1), mu)
    expected[-1] += poisson.sf(kmax, mu)
    expected *= len(c)
    keep = expected > 5
    observed = np.append(observed[keep], observed[~keep].sum())
    expected = np.append(expected[keep], expected[~keep].sum())
    _, p = chisquare(observed, expected * observed.sum() / expected.sum())
    assert p > 0.01

    # seed determinism, byte for byte
    rec2 = CountRecord(1e-5, averaged_counts((t, np.full_like(t, 0.5)), cav,
                                             0.05, 1e-5, 23, 1)[1])
    assert np.array_equal(rec.counts, rec2.counts)
    every_site = range(len(ringup_context(500.0, 2, 9)[3]))
    tr1 = run_ringup(2.0, "nmax", 0.1e-3, omega_z_spread=500.0, seed=9,
                     subensembles=2, record_sites=every_site)[2]
    tr2 = run_ringup(2.0, "nmax", 0.1e-3, omega_z_spread=500.0, seed=9,
                     subensembles=2, record_sites=every_site)[2]
    assert np.array_equal(tr1.nbar, tr2.nbar)
    assert np.array_equal(tr1.displacements, tr2.displacements)
    from cavkerr.cli import write_csv
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        write_csv(f, ["t", "x"], [tr1.time.tolist(), tr1.nbar.tolist()],
                  {"seed": 9})
    assert f1.read_bytes() == f2.read_bytes()
    report(13, f"energy drift {drift:.1e} <= 1e-6 over 100 periods; "
               f"force-gradient mismatch {worst_force:.1e} <= 1e-6; Poisson "
               f"chi-square p = {p:.3f} > 0.01; outputs seed-deterministic")
