import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import chisquare, poisson

from cavkerr import (
    AtomLossDrift,
    DriveParams,
    ResponseProfile,
    SpectralDecay,
    averaged_counts,
    collective_shift,
    count_monte_carlo,
    decay_fit,
    profile_value,
    trigger_sequence,
    windowed_fourier_amplitude,
)

TWO_PI = 2 * np.pi


def flat_trace(nbar, duration=10e-3, dt=1e-6):
    t = np.arange(0.0, duration, dt)
    return t, np.full_like(t, nbar)


class TestCountMonteCarlo:
    def test_mean_detected_rate(self, cavity101):
        # nbar = 1, kappa = 2pi x 0.66 MHz, efficiency 0.05: 2*kappa*nbar*eta
        rec = count_monte_carlo(flat_trace(1.0, duration=0.2), cavity101,
                                0.05, 1e-5, seed=4)
        expected = 2 * cavity101.kappa * 1.0 * 0.05
        assert expected == pytest.approx(4.1e5, rel=0.02)
        assert rec.rates.mean() == pytest.approx(expected, rel=0.01)

    def test_poisson_mean_variance(self, cavity101):
        rec = count_monte_carlo(flat_trace(0.5, duration=0.5), cavity101,
                                0.05, 1e-5, seed=11)
        c = rec.counts.astype(float)
        ratio = c.var() / c.mean()
        # var/mean = 1 within 3 sigma (sigma ~ sqrt(2/N) for Poisson)
        assert abs(ratio - 1.0) < 3 * np.sqrt(2.0 / len(c))

    def test_chi_square_goodness_of_fit(self, cavity101):
        rec = count_monte_carlo(flat_trace(0.5, duration=0.1), cavity101,
                                0.05, 1e-5, seed=23)
        c = rec.counts
        mu = 2 * cavity101.kappa * 0.5 * 0.05 * 1e-5
        kmax = int(poisson.ppf(0.999, mu)) + 1
        observed = np.bincount(np.minimum(c, kmax), minlength=kmax + 1)
        expected = poisson.pmf(np.arange(kmax + 1), mu)
        expected[-1] += poisson.sf(kmax, mu)
        expected = expected * len(c)
        keep = expected > 5
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
        _, p = chisquare(observed, expected * observed.sum() / expected.sum())
        assert p > 0.01

    def test_zero_efficiency(self, cavity101):
        rec = count_monte_carlo(flat_trace(5.0), cavity101, 0.0, 1e-5, seed=0)
        assert np.all(rec.counts == 0)

    def test_seed_determinism(self, cavity101):
        a = count_monte_carlo(flat_trace(2.0), cavity101, 0.05, 1e-5, seed=7)
        b = count_monte_carlo(flat_trace(2.0), cavity101, 0.05, 1e-5, seed=7)
        assert np.array_equal(a.counts, b.counts)

    def test_bad_efficiency_rejected(self, cavity101):
        with pytest.raises(ValueError):
            count_monte_carlo(flat_trace(1.0), cavity101, 1.5, 1e-5, seed=0)

    def test_averaged_counts_determinism(self, cavity101):
        t, n = flat_trace(1.0, duration=5e-3)
        _, a = averaged_counts((t, n), cavity101, 0.05, 1e-5, 3, 10)
        _, b = averaged_counts((t, n), cavity101, 0.05, 1e-5, 3, 10)
        assert np.array_equal(a, b)

    def test_dark_counts(self, cavity101):
        rec = count_monte_carlo(flat_trace(0.0, duration=0.2), cavity101,
                                0.05, 1e-5, seed=6, dark_rate=1e4)
        assert rec.rates.mean() == pytest.approx(1e4, rel=0.05)

    def test_averaging_order_trace_vs_spectra(self, cavity101):
        # both orders are available; averaging traces first suppresses the
        # shot-noise floor, averaging spectra leaves it in place
        from cavkerr import repeated_measurement_decay
        t, n = flat_trace(1.0, duration=4.2e-3)   # no modulation: pure floor
        kwargs = dict(efficiency=0.05, bin_width=2e-6, seed=12, n_average=50,
                      frequency=50e3, window_length=1e-3)
        traces = repeated_measurement_decay((t, n), cavity101,
                                            order="traces", **kwargs)
        spectra = repeated_measurement_decay((t, n), cavity101,
                                             order="spectra", **kwargs)
        assert spectra.amplitudes.mean() > 3 * traces.amplitudes.mean()


class TestWindowedFourierAmplitude:
    def test_pure_sinusoid_amplitude(self):
        f0, amp = 50e3, 0.73
        t = np.arange(0, 4e-3, 1e-7)
        x = amp * np.sin(TWO_PI * f0 * t + 0.3)
        decay = windowed_fourier_amplitude((t, x), f0, 500e-6)
        assert len(decay.amplitudes) == 8
        assert decay.amplitudes == pytest.approx(amp, rel=0.01)

    def test_offset_invariance(self):
        f0 = 50e3
        t = np.arange(0, 2e-3, 1e-7)
        x = 0.4 * np.cos(TWO_PI * f0 * t)
        a = windowed_fourier_amplitude((t, x), f0, 500e-6).amplitudes
        b = windowed_fourier_amplitude((t, x + 17.0), f0, 500e-6).amplitudes
        assert b == pytest.approx(a, rel=1e-9)

    def test_linearity(self):
        f0 = 50e3
        t = np.arange(0, 2e-3, 1e-7)
        x = np.cos(TWO_PI * f0 * t) + 0.2 * np.cos(TWO_PI * 3 * f0 * t)
        a = windowed_fourier_amplitude((t, x), f0, 500e-6).amplitudes
        b = windowed_fourier_amplitude((t, 3.5 * x), f0, 500e-6).amplitudes
        assert b == pytest.approx(3.5 * a, rel=1e-12)

    def test_gaussian_dephased_ensemble_envelope(self):
        # independent oracle: sum of cosines with Gaussian-drawn frequencies
        # has envelope exp(-spread^2 t^2/2)
        rng = np.random.default_rng(2)
        f0 = 49e3
        spread = np.sqrt(2.0) / 1.0e-3
        omegas = TWO_PI * f0 + spread * rng.standard_normal(50_000)
        t = np.arange(0, 2e-3, 5e-7)
        x = np.zeros_like(t)
        for chunk in np.array_split(omegas, 10):
            x += np.cos(np.outer(t, chunk)).sum(axis=1)
        x /= len(omegas)
        decay = windowed_fourier_amplitude((t, x), f0, 500e-6)
        # the windowed amplitude measures the window average of the envelope
        for k, (c, amp) in enumerate(zip(decay.window_centers,
                                         decay.amplitudes)):
            tt = np.linspace(c - 250e-6, c + 250e-6, 501)
            env = np.mean(np.exp(-(spread * tt) ** 2 / 2))
            if env > 0.1:
                assert amp == pytest.approx(env, rel=0.05)

    def test_shot_noise_floor(self, cavity101):
        # white Poisson counts: mean window amplitude sqrt(pi K mu)/T,
        # scaling as 1/sqrt(counts per window)
        f0, bin_w, win = 50e3, 1e-6, 1e-3
        K = int(win / bin_w)

        def mean_amp(mu, seeds=100):
            amps = []
            for s in range(seeds):
                rng = np.random.default_rng(s)
                counts = rng.poisson(mu, size=K)
                t = (np.arange(K) + 0.5) * bin_w
                d = windowed_fourier_amplitude((t, counts / bin_w), f0, win)
                amps.append(d.amplitudes[0])
            return np.mean(amps)

        mu = 4.0
        expected = np.sqrt(np.pi * K * mu) / win
        m1 = mean_amp(mu)
        m4 = mean_amp(4 * mu)
        assert m1 == pytest.approx(expected, rel=0.15)
        assert m4 / m1 == pytest.approx(2.0, rel=0.15)
        # relative to the DC rate, the floor scales as 1/sqrt(counts)
        assert (m4 / (4 * mu / bin_w)) == pytest.approx(
            0.5 * m1 / (mu / bin_w), rel=0.15)

    def test_window_longer_than_record_rejected(self):
        t = np.arange(0, 1e-4, 1e-7)
        with pytest.raises(ValueError):
            windowed_fourier_amplitude((t, np.sin(t)), 50e3, 1e-3)

    def test_too_few_cycles_rejected(self):
        t = np.arange(0, 1e-2, 1e-5)
        with pytest.raises(ValueError):
            windowed_fourier_amplitude((t, np.sin(t)), 1e3, 2e-3)


class TestDecayFit:
    @staticmethod
    def synthetic(model, tau, amp=1.0, n_win=6):
        centers = (np.arange(n_win) + 0.5) * 500e-6
        if model == "exponential":
            amps = amp * np.exp(-centers / tau)
        else:
            amps = amp * np.exp(-((centers / tau) ** 2))
        return SpectralDecay(centers, amps)

    def test_exponential_self_consistency(self):
        fit = decay_fit(self.synthetic("exponential", 1.0e-3),
                        model="exponential")
        assert fit.reliable
        assert fit.tau == pytest.approx(1.0e-3, rel=0.02)
        assert fit.tau_exponential == pytest.approx(1.0e-3, rel=1e-6)

    def test_gaussian_self_consistency(self):
        fit = decay_fit(self.synthetic("gaussian", 1.0e-3), model="gaussian")
        assert fit.reliable
        assert fit.tau == pytest.approx(1.0e-3, rel=0.02)
        assert fit.tau_gaussian == pytest.approx(1.0e-3, rel=1e-6)

    def test_random_parameter_recovery(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            tau = rng.uniform(0.4e-3, 2.5e-3)
            amp = rng.uniform(0.1, 100.0)
            model = rng.choice(["exponential", "gaussian"])
            fit = decay_fit(self.synthetic(model, tau, amp, n_win=8),
                            model=model)
            assert fit.tau == pytest.approx(tau, rel=0.02)

    def test_both_models_reported(self):
        fit = decay_fit(self.synthetic("gaussian", 1.0e-3))
        assert np.isfinite(fit.tau_exponential)
        assert np.isfinite(fit.tau_gaussian)

    def test_non_decaying_flagged(self):
        centers = (np.arange(6) + 0.5) * 500e-6
        sd = SpectralDecay(centers, np.linspace(1.0, 2.0, 6))
        fit = decay_fit(sd)
        assert not fit.reliable

    def test_too_few_windows_rejected(self):
        sd = SpectralDecay(np.array([1e-4, 2e-4]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            decay_fit(sd)


class TestTriggerSequence:
    def setup_context(self, cavity260):
        drift = AtomLossDrift(n0=1.2e5, loss_rate=20.0)
        drive = DriveParams(n_max=6.5, delta_pc=-TWO_PI * 17e6,
                            atom_number=0.0)
        profile = ResponseProfile.from_cavity(cavity260)
        return drift, drive, profile

    def test_conditioned_shift_matches_crossing_oracle(self, cavity260):
        drift, drive, profile = self.setup_context(cavity260)
        threshold = 1.0e6      # detected counts/s
        result = trigger_sequence(drift, cavity260, drive, threshold,
                                  delay=10e-3, detection_level=6.5,
                                  profile=profile, horizon=0.3, seed=5)
        assert result.triggered

        def smooth_rate(t):
            dn = collective_shift(drift.atoms(t), cavity260.g0,
                                  cavity260.delta_ca)
            return (2 * cavity260.kappa * 0.05 * drive.n_max
                    * profile_value(profile, drive.delta_pc - dn))

        # bracket the rising edge: peak transmission is where the drifting
        # shift coincides with the probe detuning
        n_res = drive.delta_pc * 2 * cavity260.delta_ca / cavity260.g0**2
        t_peak = np.log(drift.n0 / n_res) / drift.loss_rate
        t_star = brentq(lambda t: smooth_rate(t) - threshold, 1e-4, t_peak)
        dn_star = collective_shift(drift.atoms(t_star), cavity260.g0,
                                   cavity260.delta_ca)
        # tolerance: drift of Delta_N over a few smoothing windows
        dn_rate = abs(dn_star) * drift.loss_rate
        assert abs(result.conditioned_delta_n - dn_star) < 5 * dn_rate * 100e-6

    def test_threshold_above_peak_never_triggers(self, cavity260):
        drift, drive, profile = self.setup_context(cavity260)
        peak_rate = 2 * cavity260.kappa * 0.05 * drive.n_max
        result = trigger_sequence(drift, cavity260, drive, 2 * peak_rate,
                                  delay=1e-3, detection_level=6.5,
                                  profile=profile, horizon=0.3, seed=5)
        assert not result.triggered
        assert result.trigger_time is None

    def test_zero_delay_detection_starts_at_trigger(self, cavity260):
        drift, drive, profile = self.setup_context(cavity260)
        result = trigger_sequence(drift, cavity260, drive, 1.0e6,
                                  delay=0.0, detection_level=3.0,
                                  profile=profile, horizon=0.3, seed=5)
        assert result.triggered
        assert result.probe_on_time == result.trigger_time
        assert result.detection_level == 3.0

    def test_smoothing_is_causal(self, cavity260):
        # The shorter record's counts are a prefix of the longer one's (same
        # seed), so the longer record only adds counts after the shorter
        # one's last bin i; a causal smoother leaves smoothed[:i+1] alone.
        drift, drive, profile = self.setup_context(cavity260)
        kwargs = dict(delay=1e-3, detection_level=6.5, profile=profile,
                      seed=9)
        short = trigger_sequence(drift, cavity260, drive, 1.0e9,
                                 horizon=0.05, **kwargs)
        long = trigger_sequence(drift, cavity260, drive, 1.0e9, horizon=0.1,
                                **kwargs)
        n = len(short.counts.counts)
        assert np.array_equal(long.counts.counts[:n], short.counts.counts)
        assert long.counts.counts[n:n + 10].sum() > 0
        assert np.array_equal(long.smoothed_rate[:n], short.smoothed_rate)

    def test_seed_determinism(self, cavity260):
        drift, drive, profile = self.setup_context(cavity260)
        kwargs = dict(delay=1e-3, detection_level=6.5, profile=profile,
                      horizon=0.3, seed=9)
        a = trigger_sequence(drift, cavity260, drive, 1.0e6, **kwargs)
        b = trigger_sequence(drift, cavity260, drive, 1.0e6, **kwargs)
        assert a.trigger_time == b.trigger_time
        assert np.array_equal(a.counts.counts, b.counts.counts)
