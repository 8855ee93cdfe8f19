import numpy as np
import pytest

from helpers import (impulse_modulation, probe_potential, run_ringup,
                     ringup_context, ringup_drive, stable_roots,
                     RINGUP_DELTA_N0)

from cavkerr import dynamics
from cavkerr import (
    CONSTANTS,
    DriveParams,
    ResponseProfile,
    beta_parameter,
    collective_shift,
    fold_points,
    kerr_coefficient,
    reference_cavity,
    reference_trap,
    profile_value,
)
from cavkerr.dynamics import (
    impulse_boundary_detuning,
    n_max_for_switch_on,
    quasi_static_sweep,
    ring_up,
)
from cavkerr.lattice import (
    LatticeEnsemble,
    build_lattice,
    effective_kerr_numeric,
)
from cavkerr.measure import windowed_fourier_amplitude

TWO_PI = 2 * np.pi


def flat_profile():
    """Effectively constant response: kappa so large that V = 1 on any
    detuning scale in play, giving a constant-force step drive."""
    return ResponseProfile(1e18)


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

    @pytest.mark.parametrize("name", ["damping_rate", "ramp_time",
                                      "duration", "dt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_argument_rejected(self, cavity260, trap49, name,
                                         value):
        # a NaN fails every comparison, so a plain "x < 0" check lets it in
        ens = single_site_pi4(trap49.omega_z)
        drive = DriveParams(n_max=1.0, delta_pc=0.0)
        args = {"duration": 1e-4, name: value}
        with pytest.raises(ValueError, match=name):
            ring_up(ens, cavity260, drive, profile=flat_profile(),
                    linearized_force=True, backaction=False, **args)

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
        from cavkerr.lattice import collective_shift_from_displacements
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
        (True, "adiabatic"),
        (False, "adiabatic"),
        (False, "filter"),
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
            assert np.array_equal(one.displacements[:, 0],
                                  full.displacements[:, j])
            assert np.array_equal(one.velocities[:, 0], full.velocities[:, j])
            assert np.array_equal(one.delta_n, full.delta_n)

    def test_default_trace_holds_no_site_arrays(self):
        trace = self._ring()
        for series in (trace.displacements, trace.velocities):
            assert series.shape == (len(trace.time), 0)
            assert series.nbytes == 0


class TestClosedFormOracle:
    # linearized, one-way, undamped: each row is a driven oscillator under
    # the constant switch-on force F_j = f1 sin(2 theta_j) nbar0, so
    # d_j(t) = F_j/(m w_j^2) (1 - cos w_j t) exactly.  The bound pins the
    # Verlet error measured at 200 steps per period, 1.07e-3 kappa
    BOUND_KAPPA = 1.1e-3

    @staticmethod
    def _context(level):
        cavity = reference_cavity(delta_ca=-TWO_PI * 260e9)
        trap = reference_trap(omega_z=TWO_PI * 49e3)
        profile = ResponseProfile.from_cavity(cavity)
        ensemble = build_lattice(
            20, 5e4, trap.omega_z, omega_z_spread=TWO_PI * 2e3, seed=5,
            k_ratio=cavity.k_probe / cavity.k_trap, subensembles=2,
            tracer_thetas=(np.pi / 4,))
        ensemble = ensemble.scaled_to_shift(RINGUP_DELTA_N0, cavity)
        drive = ringup_drive(level, "instantaneous", profile)
        return cavity, trap, profile, ensemble, drive

    @staticmethod
    def _exact(ensemble, cavity, time, nbar0):
        """Dense closed form at ``time``: (amplitudes, d, v, Delta_N)."""
        w = ensemble.omega_z
        f1 = -CONSTANTS.hbar * cavity.g0**2 * cavity.k_probe / cavity.delta_ca
        d_eq = (f1 * np.sin(2 * ensemble.theta) * nbar0
                / (CONSTANTS.m_rb87 * w**2))
        phase = np.outer(time, w)
        d = d_eq * (1.0 - np.cos(phase))
        s = np.sin(ensemble.theta + cavity.k_probe * d)
        delta_n = ((s * s) @ ensemble.population
                   * cavity.g0**2 / cavity.delta_ca)
        return d_eq, d, d_eq * w * np.sin(phase), delta_n

    @staticmethod
    def _verlet(ensemble, cavity, drive, profile, dt, record_every=1,
                sites=()):
        """The Verlet loop on the linearized one-way model, 1 ms."""
        return dynamics._integrate(
            ensemble, cavity, drive, profile=profile,
            time=dynamics.sample_times(1e-3, dt, record_every), dt=dt,
            record_every=record_every,
            sites=np.arange(len(ensemble))[list(sites)],
            field_model="adiabatic", damping_rate=0.0,
            linearized_force=True, ramp_time=0.0, backaction=False)

    @classmethod
    def _error_kappa(cls, steps_per_period):
        cavity, trap, profile, ensemble, drive = cls._context(6.5)
        trace = cls._verlet(ensemble, cavity, drive, profile,
                            TWO_PI / (steps_per_period * trap.omega_z))
        exact = cls._exact(ensemble, cavity, trace.time, trace.nbar[0])[3]
        return np.max(np.abs(trace.delta_n - exact)) / cavity.kappa

    def test_delta_n_matches_closed_form(self):
        assert self._error_kappa(200) < self.BOUND_KAPPA

    def test_second_order_in_dt(self):
        ratio = self._error_kappa(200) / self._error_kappa(400)
        assert ratio >= 3.5

    @pytest.mark.parametrize("level, strong", [(6.5, False), (400.0, True)])
    def test_ring_up_is_the_closed_form(self, level, strong):
        # ring_up solves this model without steps: it matches the dense
        # formula to rounding, at the 6.5-photon ring-up drive and where
        # 2 k_p A >= 1 needs many harmonics, on the Verlet sample times
        cavity, trap, profile, ensemble, drive = self._context(level)
        common = dict(duration=1e-3, profile=profile, backaction=False,
                      linearized_force=True, record_every=3,
                      record_sites=[-1, 0])
        trace = ring_up(ensemble, cavity, drive, **common)
        verlet = self._verlet(ensemble, cavity, drive, profile,
                              TWO_PI / (200 * np.max(ensemble.omega_z)),
                              record_every=3, sites=[-1, 0])
        assert trace.time.tobytes() == verlet.time.tobytes()
        d_eq, d, v, exact = self._exact(ensemble, cavity, trace.time,
                                        verlet.nbar[0])
        assert (2 * cavity.k_probe * np.max(np.abs(d_eq)) >= 1) == strong
        err = np.max(np.abs(trace.delta_n - exact)) / cavity.kappa
        assert err <= 1e-12
        for got, want in ((trace.displacements, d), (trace.velocities, v)):
            assert (np.max(np.abs(got - want[:, [-1, 0]]))
                    <= 1e-12 * np.max(np.abs(want)))
        assert trace.nbar == pytest.approx(
            drive.n_max * profile_value(profile,
                                        drive.delta_pc - trace.delta_n),
            rel=1e-12)

    def test_fft_points_are_the_aliasing_bound(self, monkeypatch):
        # K, the FFT points per row period, is the smallest power of two at
        # or above 2H + 2 for H kept harmonics: 16 at the 6.5-photon drive
        # (H = 6), 64 at the 400-photon one (H = 18)
        kept, points = [], []
        kept_harmonics, rfft = dynamics._kept_harmonics, np.fft.rfft

        def spy_kept(*args):
            kept.append(kept_harmonics(*args))
            return kept[-1]

        def spy_rfft(a, axis):
            points.append(a.shape[axis])
            return rfft(a, axis=axis)

        monkeypatch.setattr(dynamics, "_kept_harmonics", spy_kept)
        monkeypatch.setattr(np.fft, "rfft", spy_rfft)
        for level in (6.5, 400.0):
            cavity, trap, profile, ensemble, drive = self._context(level)
            ring_up(ensemble, cavity, drive, duration=1e-3, profile=profile,
                    backaction=False, linearized_force=True, record_every=3)
        assert (kept, points) == ([6, 18], [16, 64])
        for h, k in zip(kept, points):
            assert k // 2 < 2 * h + 2 <= k and k & (k - 1) == 0

    @pytest.mark.parametrize("spread, n_sites",
                             [(TWO_PI * 225.08, 300), (0.0, 200)],
                             ids=["spread", "no-spread"])
    def test_compressed_bands_are_the_closed_form(self, monkeypatch, spread,
                                                  n_sites):
        # the shipped ringdown scale (300 sites x 10 rows + tracer, 3 ms):
        # each harmonic band goes to a few Chebyshev frequencies; with no
        # spread (200 x 10 rows) each band is a single term
        cavity = reference_cavity(delta_ca=-TWO_PI * 260e9)
        profile = ResponseProfile.from_cavity(cavity)
        ensemble = build_lattice(
            n_sites, 5e4, TWO_PI * 49e3, omega_z_spread=spread, seed=7,
            k_ratio=cavity.k_probe / cavity.k_trap, subensembles=10,
            tracer_thetas=(np.pi / 4,)).scaled_to_shift(RINGUP_DELTA_N0,
                                                        cavity)
        drive = ringup_drive(6.5, "instantaneous", profile)
        shapes, band_terms = [], dynamics._band_terms

        def spy(w, coef, t_max, tol):
            freq, weight = band_terms(w, coef, t_max, tol)
            shapes.append((coef.shape, freq.size))
            return freq, weight

        monkeypatch.setattr(dynamics, "_band_terms", spy)
        trace = ring_up(ensemble, cavity, drive, duration=3e-3,
                        profile=profile, backaction=False,
                        linearized_force=True, record_every=2,
                        record_sites=[-1])
        [((rows, n_harm), n_terms)] = shapes
        assert rows == len(ensemble) and n_harm >= 1
        assert n_terms == n_harm if spread == 0 else n_terms < rows * n_harm

        # the dense formula in chunks of samples; at t = 0 it does not
        # depend on the switch-on photon number
        dn_0 = self._exact(ensemble, cavity, trace.time[:1], 0.0)[3][0]
        nbar0 = drive.n_max * profile_value(profile, drive.delta_pc - dn_0)
        parts = [self._exact(ensemble, cavity, trace.time[i:i + 500], nbar0)
                 for i in range(0, len(trace.time), 500)]
        exact = np.concatenate([p[3] for p in parts])
        assert np.max(np.abs(trace.delta_n - exact)) / cavity.kappa <= 1e-12
        for got, k in ((trace.displacements, 1), (trace.velocities, 2)):
            want = np.concatenate([p[k][:, -1:] for p in parts])
            assert (np.max(np.abs(got - want))
                    <= 1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("spread", [0.0, TWO_PI * 225.0],
                             ids=["no-spread", "spread"])
    def test_band_terms_are_the_row_sum(self, spread):
        # 60 rows, 4 harmonics, 3 ms: with a spread the low bands go to
        # Chebyshev nodes and the top ones keep their rows; with none each
        # band is one term at n w carrying sum_j D_jn.  Phases reach 3.7e3
        # rad, so rounding alone puts the two sums about 1e-12 apart
        rng = np.random.default_rng(3)
        w = TWO_PI * 49e3 + spread * rng.standard_normal(60)
        coef = rng.standard_normal((60, 4)) / [1.0, 2.0, 6.0, 24.0]
        freq, weight = dynamics._band_terms(w, coef, 3e-3, 1e-14)
        t = np.linspace(0.0, 3e-3, 2001)
        rows = np.cos(np.outer(t, (w[:, None] * np.arange(1, 5)).ravel()))
        assert (np.max(np.abs(np.cos(np.outer(t, freq)) @ weight
                              - rows @ coef.ravel())) <= 1e-11)
        if spread == 0:
            assert freq.tolist() == (w[0] * np.arange(1, 5)).tolist()
            assert weight == pytest.approx(coef.sum(axis=0), rel=1e-12)
        else:
            assert 60 < freq.size < 240

    @pytest.mark.parametrize("linearized", [True, False])
    def test_one_way_ramp_rejected(self, linearized):
        # the one-way force is the switch-on photon number, which a ramp
        # makes zero: the atoms would never move
        cavity, trap, profile, ensemble, drive = self._context(6.5)
        with pytest.raises(ValueError, match="ramp"):
            ring_up(ensemble, cavity, drive, duration=0.1e-3,
                    profile=profile, backaction=False, ramp_time=50e-6,
                    linearized_force=linearized)


class TestDephasing:
    def test_gaussian_spread_dephasing_time(self):
        # closed-form oracle: collective amplitude decays as
        # exp(-spread^2 t^2 / 2), 1/e time sqrt(2)/spread
        from cavkerr.measure import decay_fit
        spread = np.sqrt(2.0) / 1.0e-3
        cavity, trap, trace = run_ringup(
            0.05, "instantaneous", 3.0e-3, omega_z_spread=spread,
            subensembles=10, seed=42)
        decay = windowed_fourier_amplitude((trace.time, trace.nbar),
                                           trap.omega_z / TWO_PI, 500e-6)
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
        decay = windowed_fourier_amplitude((trace.time, trace.nbar),
                                           trap.omega_z / TWO_PI, 500e-6)
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
        decay = windowed_fourier_amplitude((trace.time, trace.nbar),
                                           trap.omega_z / TWO_PI, 500e-6)
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
        decay = windowed_fourier_amplitude((trace.time, trace.nbar),
                                           trap.omega_z / TWO_PI, 500e-6)
        amps = decay.amplitudes
        free = np.exp(-(spread * decay.window_centers) ** 2 / 2.0)
        assert amps[1] / amps[0] < 0.5 * free[1] / free[0]


class TestQuasiStaticConsistency:
    def test_slow_ramp_lands_on_stable_root(self):
        # ramp time >> 1/omega_z with weak viscous damping: the ensemble
        # settles on the self-consistent steady state of the lineshape
        # equation built from its own numerically measured Kerr coefficient
        cavity, _, profile, ensemble = ringup_context()
        n_max = 12.0
        drive = DriveParams(n_max=n_max, delta_pc=-TWO_PI * 17e6,
                            atom_number=5e4)
        trace = ring_up(ensemble, cavity, drive, duration=3.0e-3,
                        profile=profile, ramp_time=1.0e-3,
                        damping_rate=6000.0)
        nbar_final = trace.nbar[-1]

        eps_eff = effective_kerr_numeric(ensemble, cavity)
        beta = beta_parameter(RINGUP_DELTA_N0, eps_eff, n_max, cavity.kappa)
        delta0 = (drive.delta_pc - RINGUP_DELTA_N0) / cavity.kappa
        u_final = nbar_final / n_max
        nearest = min(stable_roots(profile, delta0, beta),
                      key=lambda u: abs(u - u_final))
        assert u_final == pytest.approx(nearest, rel=0.01)


class TestFieldModels:
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
                           field_model="adiabatic",
                           **common)
            tr_f = ring_up(ens, cav, drive,
                           field_model="filter",
                           **common)
            # ignore the initial cavity fill (~1/2kappa)
            skip = np.searchsorted(tr_a.time, 5.0 / cav.kappa)
            damax.append(np.max(np.abs(tr_f.nbar[skip:] - tr_a.nbar[skip:])))
        assert damax[0] > damax[1] > damax[2]
        assert damax[2] < 1e-3

    @pytest.mark.parametrize("field_model", ["Adiabatic", "first-order", ""])
    def test_other_field_model_raises_before_any_compute(self, field_model):
        # no ensemble, cavity or drive: the name is checked before any is read
        with pytest.raises(ValueError, match="field_model"):
            ring_up(None, None, None, field_model=field_model)


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
        m_in = impulse_modulation(just_in, trap42, 5e4)
        m_out = impulse_modulation(just_out, trap42, 5e4)
        assert m_in > cavity.kappa > m_out

