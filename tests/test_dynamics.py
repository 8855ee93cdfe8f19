import numpy as np
import pytest

from helpers import run_ringup, ringup_context, ringup_drive, RINGUP_DELTA_N0

from cavkerr import (
    CONSTANTS,
    AtomLossDrift,
    CavityFieldMode,
    DriveParams,
    LatticeEnsemble,
    ResponseProfile,
    build_lattice,
    beta_parameter,
    collective_shift,
    effective_kerr_numeric,
    fold_points,
    impulse_boundary_detuning,
    impulse_modulation_estimate,
    kerr_coefficient,
    n_max_for_switch_on,
    reference_cavity,
    reference_trap,
    probe_potential,
    quasi_static_sweep,
    ring_up,
    steady_state_roots_profile,
    windowed_fourier_amplitude,
)

TWO_PI = 2 * np.pi


def flat_profile():
    """Effectively constant response: kappa so large that V = 1 on any
    detuning scale in play, giving a constant-force step drive."""
    return ResponseProfile.lorentzian(1e18)


def single_site_pi4(omega_z):
    return LatticeEnsemble(np.array([np.pi / 4]), np.array([1.0]),
                           np.array([omega_z]))


class TestRingUpStepResponse:
    def test_undamped_oscillation_at_omega_z(self, cavity260, trap49):
        # constant force switch-on: d(t) = d_eq (1 - cos w t)
        ens = single_site_pi4(trap49.omega_z)
        drive = DriveParams(n_max=2.0, delta_pc=0.0)
        periods = 20
        trace = ring_up(ens, cavity260, drive,
                        duration=periods * TWO_PI / trap49.omega_z,
                        profile=flat_profile(), linearized_force=True,
                        record_sites=[0])
        d = trace.displacements[:, 0]
        f1 = CONSTANTS.hbar * cavity260.g0**2 * cavity260.k_probe / abs(
            cavity260.delta_ca)
        d_eq = f1 * 2.0 / (CONSTANTS.m_rb87 * trap49.omega_z**2)
        assert d.max() - d.min() == pytest.approx(2 * d_eq, rel=1e-3)
        assert d.min() == pytest.approx(0.0, abs=1e-3 * d_eq)
        # spectral peak at the trap frequency within one bin
        ac = d - d.mean()
        freqs = np.fft.rfftfreq(len(ac), trace.time[1] - trace.time[0])
        peak = freqs[1 + np.argmax(np.abs(np.fft.rfft(ac))[1:])]
        assert abs(peak - trap49.omega_z / TWO_PI) <= freqs[1]

    def test_stability_guard(self, cavity260, trap49):
        ens = single_site_pi4(trap49.omega_z)
        drive = DriveParams(n_max=1.0, delta_pc=0.0)
        with pytest.raises(ValueError):
            ring_up(ens, cavity260, drive, duration=1e-4,
                    dt=TWO_PI / (10 * trap49.omega_z))

    def test_energy_conservation_cycle_averaged(self, cavity260, trap49):
        # undamped, adiabatic, constant nbar, full nonlinear force: the
        # combined static+probe potential conserves energy; velocity Verlet
        # keeps the cycle-averaged energy flat at the default step
        ens = single_site_pi4(trap49.omega_z)
        nbar = 6.5
        drive = DriveParams(n_max=nbar, delta_pc=0.0)
        period = TWO_PI / trap49.omega_z
        trace = ring_up(ens, cavity260, drive, duration=100 * period,
                        profile=flat_profile(), record_sites=[0])
        d = trace.displacements[:, 0]
        v = trace.velocities[:, 0]
        m = CONSTANTS.m_rb87
        energy = (0.5 * m * v**2 + 0.5 * m * trap49.omega_z**2 * d**2
                  + probe_potential(np.pi / 4, d, nbar, cavity260))
        per_period = len(d) // 100
        e_first = energy[:per_period].mean()
        e_last = energy[-per_period:].mean()
        scale = 0.5 * m * np.max(v**2) + 1e-300
        assert abs(e_last - e_first) / scale < 1e-6

    def test_instantaneous_energy_bounded(self, cavity260, trap49):
        ens = single_site_pi4(trap49.omega_z)
        drive = DriveParams(n_max=3.0, delta_pc=0.0)
        period = TWO_PI / trap49.omega_z
        trace = ring_up(ens, cavity260, drive, duration=50 * period,
                        profile=flat_profile(), record_sites=[0])
        d = trace.displacements[:, 0]
        v = trace.velocities[:, 0]
        m = CONSTANTS.m_rb87
        energy = (0.5 * m * v**2 + 0.5 * m * trap49.omega_z**2 * d**2
                  + probe_potential(np.pi / 4, d, 3.0, cavity260))
        scale = 0.5 * m * np.max(v**2)
        # bounded O((w dt)^2) oscillation, no secular growth
        assert np.max(np.abs(energy - energy[0])) / scale < 5e-4


class TestRingUpReferenceConfiguration:
    def test_switch_on_level_interpretation(self):
        cavity, trap, trace = run_ringup(6.5, "instantaneous", 0.25e-3)
        assert trace.nbar[0] == pytest.approx(6.5, rel=1e-3)

    def test_resonance_excursion_at_switch_on_6p5(self):
        cavity, trap, trace = run_ringup(6.5, "instantaneous", 0.25e-3)
        excursion = (trace.delta_n.max() - trace.delta_n.min()) / cavity.kappa
        # expected modulation of order 2*beta ~= 0.75 half-linewidths
        assert 0.4 <= excursion <= 1.1
        # photon-number variation of order unity
        assert 0.4 <= trace.nbar.max() - trace.nbar.min() <= 3.5

    def test_representative_well_displacement_at_nmax_6p5(self):
        cavity, trap, trace = run_ringup(6.5, "nmax", 0.25e-3, tracer_pi4=True,
                                         record_sites=[-1])
        tracer = trace.displacements[:, 0]
        pp_nm = (tracer.max() - tracer.min()) * 1e9
        assert 0.4 <= pp_nm <= 1.6    # ~0.8 nm peak-to-peak

    def test_trace_shift_consistent_with_displacements(self):
        # spot-check: the recorded deltaN reproduces the collective shift
        # of the recorded displacements at every tenth sample
        from cavkerr import collective_shift_from_displacements
        cavity, trap, profile, ensemble = ringup_context(tracer_pi4=False)
        drive = ringup_drive(6.5, "nmax", profile)
        trace = ring_up(ensemble, cavity, drive, duration=0.2e-3,
                        profile=profile, record_sites=range(len(ensemble)))
        for k in range(0, len(trace.time), 10):
            dn = collective_shift_from_displacements(
                ensemble, trace.displacements[k], cavity)
            assert dn == pytest.approx(trace.delta_n[k], rel=1e-12)

    def test_weak_drive_modulation_at_trap_frequency(self):
        # small photon number: optical-spring pull negligible, transmission
        # is modulated at omega_z within one spectral bin
        cavity, trap, trace = run_ringup(0.2, "instantaneous", 1.0e-3)
        ac = trace.nbar - trace.nbar.mean()
        freqs = np.fft.rfftfreq(len(ac), trace.time[1] - trace.time[0])
        peak = freqs[1 + np.argmax(np.abs(np.fft.rfft(ac))[1:])]
        assert abs(peak - trap.omega_z / TWO_PI) <= freqs[1]

    def test_optical_spring_stiffens_collective_mode(self):
        # the cavity feedback adds restoring force on the blue side of the
        # dressed resonance: at nbar = 6.5 the collective mode runs ~10%
        # above omega_z (the weak-drive run above shows no such shift)
        cavity, trap, trace = run_ringup(6.5, "instantaneous", 1.0e-3)
        ac = trace.nbar - trace.nbar.mean()
        n = len(ac)
        freqs = np.fft.rfftfreq(8 * n, trace.time[1] - trace.time[0])
        peak = freqs[1 + np.argmax(np.abs(np.fft.rfft(ac, n=8 * n))[1:])]
        f_z = trap.omega_z / TWO_PI
        assert 1.05 * f_z < peak < 1.20 * f_z


class TestRecording:
    @staticmethod
    def _ring(record_every=1, **kwargs):
        cavity, trap, profile, ensemble = ringup_context(tracer_pi4=True)
        drive = ringup_drive(6.5, "instantaneous", profile)
        return ring_up(ensemble, cavity, drive, duration=0.1e-3,
                       profile=profile, record_every=record_every, **kwargs)

    @pytest.mark.parametrize("backaction, field_model", [
        (True, CavityFieldMode.ADIABATIC),
        (False, CavityFieldMode.ADIABATIC),
        (False, CavityFieldMode.FIRST_ORDER_FILTER),
    ])
    def test_sparse_record_is_every_second_sample(self, backaction,
                                                  field_model):
        # recording every second step samples the same trajectory: the
        # shift computed only at samples equals the one computed each step
        common = dict(backaction=backaction, field_model=field_model,
                      record_sites=[0, -1])
        dense = self._ring(1, **common)
        sparse = self._ring(2, **common)
        assert len(sparse.time) == (len(dense.time) + 1) // 2
        for name in ("time", "delta_n", "nbar", "displacements",
                     "velocities"):
            assert np.array_equal(getattr(sparse, name),
                                  getattr(dense, name)[::2]), name

    def test_chosen_sites_match_the_full_record(self):
        n = len(ringup_context(tracer_pi4=True)[3])
        full = self._ring(record_sites=range(n))
        assert full.displacements.shape == (len(full.time), n)
        for j in (0, 17, -1):
            one = self._ring(record_sites=[j])
            assert one.sites == (j % n,)
            assert np.array_equal(one.displacements[:, 0],
                                  full.displacements[:, j])
            assert np.array_equal(one.velocities[:, 0], full.velocities[:, j])
            assert np.array_equal(one.delta_n, full.delta_n)

    def test_default_trace_holds_no_site_arrays(self):
        trace = self._ring()
        assert trace.sites == ()
        assert trace.displacements is None and trace.velocities is None


class TestClosedFormOracle:
    # linearized, one-way, undamped: each row is a driven oscillator under
    # the constant switch-on force F_j = f1 sin(2 theta_j) nbar0, so
    # d_j(t) = F_j/(m w_j^2) (1 - cos w_j t) exactly.  The bound pins the
    # error measured at 200 steps per period, 1.07e-3 kappa
    BOUND_KAPPA = 1.1e-3

    @staticmethod
    def _error_kappa(steps_per_period):
        cavity = reference_cavity(delta_ca=-TWO_PI * 260e9)
        trap = reference_trap(omega_z=TWO_PI * 49e3)
        profile = ResponseProfile.from_cavity(cavity)
        ensemble = build_lattice(
            20, 5e4, trap.omega_z, omega_z_spread=TWO_PI * 2e3, seed=5,
            k_ratio=cavity.k_probe / cavity.k_trap, subensembles=2)
        ensemble = ensemble.scaled_to_shift(RINGUP_DELTA_N0, cavity)
        drive = ringup_drive(6.5, "instantaneous", profile)
        trace = ring_up(ensemble, cavity, drive, duration=1e-3,
                        dt=TWO_PI / (steps_per_period * trap.omega_z),
                        profile=profile, backaction=False,
                        linearized_force=True)
        w = ensemble.omega_z
        f1 = -CONSTANTS.hbar * cavity.g0**2 * cavity.k_probe / cavity.delta_ca
        d_eq = (f1 * np.sin(2 * ensemble.theta) * trace.nbar[0]
                / (CONSTANTS.m_rb87 * w**2))
        d = d_eq * (1.0 - np.cos(np.outer(trace.time, w)))
        s = np.sin(ensemble.theta + cavity.k_probe * d)
        exact = (s * s) @ ensemble.population * cavity.g0**2 / cavity.delta_ca
        return np.max(np.abs(trace.delta_n - exact)) / cavity.kappa

    def test_delta_n_matches_closed_form(self):
        assert self._error_kappa(200) < self.BOUND_KAPPA

    def test_second_order_in_dt(self):
        ratio = self._error_kappa(200) / self._error_kappa(400)
        assert ratio >= 3.5


class TestDephasing:
    def test_gaussian_spread_dephasing_time(self):
        # closed-form oracle: collective amplitude decays as
        # exp(-spread^2 t^2 / 2), 1/e time sqrt(2)/spread
        from cavkerr import decay_fit
        spread = np.sqrt(2.0) / 1.0e-3
        cavity, trap, trace = run_ringup(
            0.05, "instantaneous", 3.0e-3, omega_z_spread=spread,
            subensembles=10, seed=42)
        decay = windowed_fourier_amplitude(trace, trap.omega_z / TWO_PI,
                                           500e-6)
        fit = decay_fit(decay, model="gaussian")
        assert fit.reliable
        assert fit.tau == pytest.approx(1.0e-3, rel=0.05)

    def test_mode_locking_at_high_drive(self):
        # with full backaction the light-spring coupling exceeds the spread
        # and protects the collective mode: no dephasing decay at nbar=6.5
        spread = np.sqrt(2.0) / 1.0e-3
        cavity, trap, trace = run_ringup(
            6.5, "instantaneous", 2.0e-3, omega_z_spread=spread,
            subensembles=4, seed=42)
        decay = windowed_fourier_amplitude(trace, trap.omega_z / TWO_PI,
                                           500e-6)
        amps = decay.amplitudes
        assert amps[-1] > 0.5 * amps[0]

    def test_one_way_linearized_restores_free_dephasing(self):
        # no backaction + linearized force = independently driven
        # oscillators: the collective signal follows the closed-form
        # Gaussian envelope even at high drive
        spread = np.sqrt(2.0) / 1.0e-3
        cavity, trap, trace = run_ringup(
            6.5, "instantaneous", 2.0e-3, omega_z_spread=spread,
            subensembles=4, seed=42, backaction=False, linearized_force=True)
        decay = windowed_fourier_amplitude(trace, trap.omega_z / TWO_PI,
                                           500e-6)
        amps = decay.amplitudes
        expected = np.exp(-(spread * decay.window_centers) ** 2 / 2.0)
        assert amps[1] / amps[0] == pytest.approx(expected[1] / expected[0],
                                                  rel=0.08)

    def test_probe_lattice_broadening_speeds_up_decay(self):
        # with the full nonlinear force the frozen probe standing wave
        # shifts each well's curvature by a theta-dependent amount
        # (~ +-1.6% of omega_z at nbar = 6.5), which dominates a small
        # imposed spread and dephases the collective mode faster than the
        # free Gaussian envelope
        spread = np.sqrt(2.0) / 1.0e-3
        cavity, trap, trace = run_ringup(
            6.5, "instantaneous", 2.0e-3, omega_z_spread=spread,
            subensembles=4, seed=42, backaction=False)
        decay = windowed_fourier_amplitude(trace, trap.omega_z / TWO_PI,
                                           500e-6)
        amps = decay.amplitudes
        free = np.exp(-(spread * decay.window_centers) ** 2 / 2.0)
        assert amps[1] / amps[0] < 0.5 * free[1] / free[0]


class TestQuasiStaticConsistency:
    def test_slow_ramp_lands_on_stable_root(self):
        # ramp time >> 1/omega_z with weak viscous damping: the ensemble
        # settles on the self-consistent steady state of the lineshape
        # equation built from its own numerically measured Kerr coefficient
        cavity, trap, profile, ensemble = ringup_context()
        n_max = 12.0
        drive = DriveParams(n_max=n_max, delta_pc=-TWO_PI * 17e6,
                            atom_number=5e4)
        trace = ring_up(ensemble, cavity, drive, duration=3.0e-3,
                        profile=profile, ramp_time=1.0e-3,
                        damping_rate=6000.0)
        nbar_final = trace.nbar[-1]

        eps_eff = effective_kerr_numeric(ensemble, cavity, trap)
        beta = beta_parameter(RINGUP_DELTA_N0, eps_eff, n_max, cavity.kappa)
        delta0 = (drive.delta_pc - RINGUP_DELTA_N0) / cavity.kappa
        sol = steady_state_roots_profile(profile, delta0, beta)
        u_final = nbar_final / n_max
        nearest = min(sol.stable, key=lambda u: abs(u - u_final))
        assert u_final == pytest.approx(nearest, rel=0.01)


class TestCavityFieldModels:
    def test_filter_converges_to_adiabatic(self, trap49):
        import dataclasses
        damax = []
        ens = single_site_pi4(trap49.omega_z)
        for kappa_scale in (1.0, 4.0, 16.0):
            cav = dataclasses.replace(reference_cavity(-TWO_PI * 260e9),
                                      kappa=kappa_scale * TWO_PI * 0.66e6)
            profile = ResponseProfile.from_cavity(cav)
            drive = DriveParams(
                n_max=n_max_for_switch_on(2.0, profile, -2.0 * cav.kappa, 0.0),
                delta_pc=-2.0 * cav.kappa)
            common = dict(duration=0.3e-3, profile=profile)
            tr_a = ring_up(ens, cav, drive,
                           field_model=CavityFieldMode.ADIABATIC,
                           **common)
            tr_f = ring_up(ens, cav, drive,
                           field_model=CavityFieldMode.FIRST_ORDER_FILTER,
                           **common)
            # ignore the initial cavity fill (~1/2kappa)
            skip = np.searchsorted(tr_a.time, 5.0 / cav.kappa)
            damax.append(np.max(np.abs(tr_f.nbar[skip:] - tr_a.nbar[skip:])))
        assert damax[0] > damax[1] > damax[2]
        assert damax[2] < 1e-3


class TestQuasiStaticSweep:
    def test_below_threshold_directions_identical(self, cavity101):
        profile = ResponseProfile.from_cavity(cavity101)
        n_pts = 401
        lo, hi = -TWO_PI * 80e6, -TWO_PI * 64e6
        dn = -TWO_PI * 71.86e6
        res = {}
        for direction, ends in (("up", (lo, hi)), ("down", (hi, lo))):
            dpc, nbar = quasi_static_sweep(profile, 0.1,
                                           np.linspace(*ends, n_pts), 0.5,
                                           dn, direction)
            res[direction] = (dpc, nbar)
        up = res["up"][1]
        down = res["down"][1][::-1]
        assert np.allclose(up, down, rtol=1e-9, atol=1e-12)

    def test_beta_9p5_hysteresis_and_fold_jumps(self, cavity101, trap42):
        profile = ResponseProfile.from_cavity(cavity101)
        dn = collective_shift(7e4, cavity101.g0, cavity101.delta_ca)
        eps = kerr_coefficient(cavity101, trap42)
        beta = beta_parameter(dn, eps, 10.0, cavity101.kappa)
        lo = dn - 14 * cavity101.kappa
        hi = dn + 4 * cavity101.kappa
        n_pts = 1601
        out = {}
        for direction, ends in (("up", (lo, hi)), ("down", (hi, lo))):
            out[direction] = quasi_static_sweep(
                profile, beta, np.linspace(*ends, n_pts), 10.0, dn, direction)

        folds = fold_points(profile, beta)
        fold_dpc = sorted(f[0] * cavity101.kappa + dn for f in folds)
        step = (hi - lo) / (n_pts - 1)
        for direction in ("up", "down"):
            dpc, nbar = out[direction]
            i = np.argmax(np.abs(np.diff(nbar)))
            d_jump = dpc[i]
            assert min(abs(d_jump - f) for f in fold_dpc) <= step
        # the sweep toward the pulled resonance reaches a higher peak
        assert out["down"][1].max() > out["up"][1].max() + 1.0


class TestImpulseEstimates:
    def test_boundary_matches_reference_detuning(self, trap42):
        cavity = reference_cavity(-TWO_PI * 30e9)  # detuning irrelevant here
        boundary = impulse_boundary_detuning(cavity, trap42, 5e4)
        assert boundary == pytest.approx(TWO_PI * 15e9, rel=0.3)
        # modulation really does cross kappa there
        import dataclasses
        just_in = dataclasses.replace(cavity, delta_ca=-0.95 * boundary)
        just_out = dataclasses.replace(cavity, delta_ca=-1.05 * boundary)
        _, m_in = impulse_modulation_estimate(just_in, trap42, 5e4)
        _, m_out = impulse_modulation_estimate(just_out, trap42, 5e4)
        assert m_in > cavity.kappa > m_out

    def test_antinode_zero_impulse(self, cavity101, trap42):
        v, mod = impulse_modulation_estimate(cavity101, trap42, 5e4,
                                             theta=np.pi / 2)
        assert v == pytest.approx(0.0, abs=1e-20)
        assert mod == pytest.approx(0.0, abs=1e-10)

    def test_modulation_linear_in_atom_number(self, cavity101, trap42):
        _, m1 = impulse_modulation_estimate(cavity101, trap42, 2e4)
        _, m2 = impulse_modulation_estimate(cavity101, trap42, 4e4)
        assert m2 == pytest.approx(2 * m1, rel=1e-12)


class TestAtomLossDrift:
    def test_no_loss(self):
        assert AtomLossDrift(1e5, 0.0).atoms(123.0) == 1e5

    def test_one_over_e(self):
        assert AtomLossDrift(1e5, 2.0).atoms(0.5) == pytest.approx(1e5 / np.e)

    def test_shift_crossing_time_unique(self, cavity260):
        from scipy.optimize import brentq
        n0, rate = 1.2e5, 1.5
        target = -TWO_PI * 19e6

        def dn(t):
            return collective_shift(AtomLossDrift(n0, rate).atoms(t),
                                    cavity260.g0, cavity260.delta_ca)

        t_cross = brentq(lambda t: dn(t) - target, 0.0, 10.0)
        n_target = target * 2 * cavity260.delta_ca / cavity260.g0**2
        assert t_cross == pytest.approx(np.log(n0 / n_target) / rate, rel=1e-9)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            AtomLossDrift(1e5, -1.0)
