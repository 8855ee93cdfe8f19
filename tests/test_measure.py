import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import chisquare, poisson

from cavkerr import dynamics, measure
from cavkerr import (
    DriveParams,
    ResponseProfile,
    collective_shift,
    profile_value,
)
from cavkerr.measure import (
    CountRecord,
    SpectralDecay,
    averaged_counts,
    decay_fit,
    trigger_sequence,
    windowed_fourier_amplitude,
)

TWO_PI = 2 * np.pi


def flat_trace(nbar, duration=10e-3, dt=1e-6):
    t = np.arange(0.0, duration, dt)
    return t, np.full_like(t, nbar)


def single_draw(trace, cavity, efficiency, bin_width, seed):
    """One detection of a (time, nbar) trace as a record from its start."""
    _, counts = averaged_counts(trace, cavity, efficiency, bin_width, seed, 1)
    return CountRecord(bin_width, counts, t_start=trace[0][0])


def trailing_average(counts, n, bin_width):
    """Bin i: the counts of bins max(0, i-n+1)..i over n bin widths, each
    window summed on its own."""
    return np.array([counts[max(0, i - n + 1):i + 1].sum() / (n * bin_width)
                     for i in range(len(counts))])


class TestWholeBins:
    @pytest.mark.parametrize("span, bin_width, n", [
        # np.arange(0, 0.2, 1e-6) ends at 0.19999999999999998 s
        (np.arange(0.0, 0.2, 1e-6)[-1], 1e-5, 20_000),
        # a 3 ms ring-up at 46 kHz, dt = 2 pi / (200 omega_z), every 2nd
        # step recorded: it ends at 0.0029999999999999996 s
        (dynamics.sample_times(3e-3, TWO_PI / (200 * TWO_PI * 46e3), 2)[-1],
         2e-6, 1500),
    ])
    def test_span_one_ulp_short_keeps_its_last_bin(self, span, bin_width, n):
        assert span < n * bin_width
        assert math.floor(span / bin_width) == n - 1
        assert measure.whole_bins(span, bin_width) == n

    @pytest.mark.parametrize("k", [1, 7, 500])
    @pytest.mark.parametrize("bin_width", [2e-6, 1e-5])
    def test_span_short_of_a_bin_drops_it(self, k, bin_width):
        # 1e-6 of a bin is at least 2e-9 relative for k <= 500
        assert measure.whole_bins((k - 1e-6) * bin_width, bin_width) == k - 1

    @pytest.mark.parametrize("bin_width", [0.0, -1e-6, float("nan")])
    def test_nonpositive_bin_width_rejected(self, bin_width):
        with pytest.raises(ValueError, match="bin_width must be positive"):
            measure.whole_bins(1e-3, bin_width)


class TestCountRecord:
    @pytest.mark.parametrize("bin_width", [0.0, -1e-5, np.inf, np.nan])
    def test_bin_width_positive_and_finite(self, bin_width):
        with pytest.raises(ValueError, match="bin_width must be positive"):
            CountRecord(bin_width, np.array([1, 2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_float_counts_finite(self, bad):
        with pytest.raises(ValueError, match="counts must be finite"):
            CountRecord(1e-5, np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("counts", [np.array([1, -1]),
                                        np.array([0.5, -0.5])])
    def test_counts_nonnegative(self, counts):
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            CountRecord(1e-5, counts)

    def test_empty_record(self):
        assert CountRecord(1e-5, np.array([], dtype=np.int64)).times.size == 0


class TestCountMonteCarlo:
    def test_mean_detected_rate(self, cavity101):
        # nbar = 1, kappa = 2pi x 0.66 MHz, efficiency 0.05: 2*kappa*nbar*eta
        rec = single_draw(flat_trace(1.0, duration=0.2), cavity101,
                          0.05, 1e-5, seed=4)
        expected = 2 * cavity101.kappa * 1.0 * 0.05
        assert expected == pytest.approx(4.1e5, rel=0.02)
        assert rec.rates.mean() == pytest.approx(expected, rel=0.01)

    def test_poisson_mean_variance(self, cavity101):
        rec = single_draw(flat_trace(0.5, duration=0.5), cavity101,
                          0.05, 1e-5, seed=11)
        c = rec.counts.astype(float)
        ratio = c.var() / c.mean()
        # var/mean = 1 within 3 sigma (sigma ~ sqrt(2/N) for Poisson)
        assert abs(ratio - 1.0) < 3 * np.sqrt(2.0 / len(c))

    def test_chi_square_goodness_of_fit(self, cavity101):
        rec = single_draw(flat_trace(0.5, duration=0.1), cavity101,
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
        rec = single_draw(flat_trace(5.0), cavity101, 0.0, 1e-5, seed=0)
        assert np.all(rec.counts == 0)

    def test_seed_determinism(self, cavity101):
        a = single_draw(flat_trace(2.0), cavity101, 0.05, 1e-5, seed=7)
        b = single_draw(flat_trace(2.0), cavity101, 0.05, 1e-5, seed=7)
        assert np.array_equal(a.counts, b.counts)

    def test_bad_efficiency_rejected(self, cavity101):
        with pytest.raises(ValueError):
            averaged_counts(flat_trace(1.0), cavity101, 1.5, 1e-5, 0, 1)

    def test_averaged_counts_determinism(self, cavity101):
        t, n = flat_trace(1.0, duration=5e-3)
        _, a = averaged_counts((t, n), cavity101, 0.05, 1e-5, 3, 10)
        _, b = averaged_counts((t, n), cavity101, 0.05, 1e-5, 3, 10)
        assert np.array_equal(a, b)

    def test_averaged_counts_at_one_is_the_single_draw(self, cavity101):
        # the integer Poisson draw itself at the expected counts
        trace = flat_trace(0.8, duration=5e-3)
        _, counts = averaged_counts(trace, cavity101, 0.05, 1e-5, 9, 1)
        expected = measure._expected_counts(trace, cavity101, 0.05, 1e-5)
        draw = np.random.default_rng(9).poisson(expected.counts)
        assert np.issubdtype(counts.dtype, np.integer)
        assert np.array_equal(counts, draw)

    def test_averaged_counts_mean_and_variance(self, cavity101):
        # the mean of 50 Poisson(mu) detections has mean mu and variance
        # mu/50; 20 000 bins at seed 5, each within 4 standard errors
        n_avg = 50
        _, mean = averaged_counts(flat_trace(1.0, duration=0.2), cavity101,
                                  0.05, 1e-5, 5, n_avg)
        mu = 2 * cavity101.kappa * 1.0 * 0.05 * 1e-5
        n = len(mean)
        assert n == 20_000
        assert abs(mean.mean() - mu) < 4 * np.sqrt(mu / n_avg / n)
        assert abs(mean.var() / (mu / n_avg) - 1) < 4 * np.sqrt(2.0 / n)
        # a mean of 50 integers is a multiple of 1/50
        assert np.allclose(mean * n_avg, np.round(mean * n_avg), rtol=0,
                           atol=1e-9)

    def test_bad_n_average_rejected(self, cavity101):
        with pytest.raises(ValueError, match="n_average"):
            averaged_counts(flat_trace(1.0), cavity101, 0.05, 1e-5, 0, 0)

    def test_count_record_rejected(self, cavity101):
        # a record holds counts, not photon numbers: read as a rate series,
        # 100 bins of 3 counts at 10 us were 3e5 photons, 1.2e8 drawn counts
        record = CountRecord(1e-5, np.full(100, 3))
        with pytest.raises(TypeError, match="CountRecord"):
            averaged_counts(record, cavity101, 0.05, 1e-5, 0, 1)

    def test_averaging_order_trace_vs_spectra(self, cavity101):
        # averaging traces first suppresses the shot-noise floor, averaging
        # the spectra of single shots leaves it in place
        t, n = flat_trace(1.0, duration=4.2e-3)   # no modulation: pure floor
        centers, mean_counts = averaged_counts((t, n), cavity101, 0.05, 2e-6,
                                               12, 50)
        traces = windowed_fourier_amplitude((centers, mean_counts / 2e-6),
                                            50e3, 1e-3)
        spectra = np.mean([
            windowed_fourier_amplitude(
                single_draw((t, n), cavity101, 0.05, 2e-6, seed),
                50e3, 1e-3).amplitudes
            for seed in range(50)], axis=0)
        assert spectra.mean() > 3 * traces.amplitudes.mean()


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

    @pytest.mark.parametrize("duration, dt, frequency, window", [
        (1e-4, 1e-7, 50e3, 1e-3),        # longer than the record
        (1e-2, 1e-5, 1e3, 2e-3),         # 2 cycles of the frequency
        (4e-3, 400e-6, 49e3, 150e-6),    # under one sample: 0 per window
    ], ids=["longer-than-record", "too-few-cycles", "under-one-sample"])
    def test_bad_window_rejected(self, duration, dt, frequency, window):
        t = np.arange(0, duration, dt)
        with pytest.raises(ValueError):
            windowed_fourier_amplitude((t, np.sin(t)), frequency, window)

    @pytest.mark.parametrize("source", [
        pytest.param(CountRecord(2e-6, np.array([3])), id="one-bin-record"),
        pytest.param((np.array([0.0]), np.array([1.0])), id="one-sample-pair"),
    ])
    def test_one_sample_source_holds_no_window(self, source):
        # the window check comes before the sample spacing is read
        with pytest.raises(ValueError, match="no window"):
            windowed_fourier_amplitude(source, 49e3, 250e-6)

    @staticmethod
    def _loop_oracle(time, x, frequency, n_per):
        """The windows one at a time, each with its own mean and sum."""
        dt = time[1] - time[0]
        centers, amps = [], []
        for k in range(len(x) // n_per):
            tt = time[k * n_per:(k + 1) * n_per]
            seg = x[k * n_per:(k + 1) * n_per]
            seg = seg - np.mean(seg)
            z = np.sum(seg * np.exp(-2j * np.pi * frequency * tt)) * dt
            centers.append(np.mean(tt))
            amps.append(2.0 * np.abs(z) / (n_per * dt))
        return np.array(centers), np.array(amps)

    def test_windows_match_a_per_window_loop(self, cavity260):
        # a counted record and a sampled pair, each with a partial last
        # window; the record's window holds round(250 us / 2 us) bins
        t = np.arange(0, 1.3e-3, 1e-7)
        nbar = 3.0 + np.sin(TWO_PI * 49e3 * t) * np.exp(-t / 1e-3)
        rec = single_draw((t, nbar), cavity260, 0.05, 2e-6, seed=3)
        cases = [(rec, rec.times, rec.rates, 125),
                 ((t, nbar), t, nbar, round(250e-6 / (t[1] - t[0])))]
        for source, time, x, n_per in cases:
            decay = windowed_fourier_amplitude(source, 49e3, 250e-6)
            centers, amps = self._loop_oracle(time, x, 49e3, n_per)
            assert len(amps) == 5
            assert np.array_equal(decay.window_centers, centers)
            assert np.array_equal(decay.amplitudes, amps)

    @pytest.mark.parametrize("window, step, n_samples, grid", [
        (250e-6, 2e-6, 499, (125, 3)),
        (129.5e-6, 7e-6, 73, (18, 4)),   # a half-integer ratio rounds even
        (150e-6, 400e-6, 10, (0, 0)),    # shorter than half a sample
    ])
    def test_window_grid(self, window, step, n_samples, grid):
        assert measure.window_grid(n_samples, window, step) == grid


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
        drift = (1.2e5, 20.0)               # n0, loss_rate
        drive = DriveParams(n_max=6.5, delta_pc=-TWO_PI * 17e6,
                            atom_number=0.0)
        profile = ResponseProfile.from_cavity(cavity260)
        return drift, drive, profile

    def test_conditioned_shift_matches_crossing_oracle(self, cavity260):
        drift, drive, profile = self.setup_context(cavity260)
        threshold = 1.0e6      # detected counts/s
        n0, rate = drift
        result = trigger_sequence(n0, rate, cavity260, drive, threshold,
                                  horizon=0.3, seed=5)
        assert result.trigger_time is not None

        def smooth_rate(t):
            dn = collective_shift(n0 * np.exp(-rate * t), cavity260.g0,
                                  cavity260.delta_ca)
            return (2 * cavity260.kappa * 0.05 * drive.n_max
                    * profile_value(profile, drive.delta_pc - dn))

        # bracket the rising edge: peak transmission is where the drifting
        # shift coincides with the probe detuning
        n_res = drive.delta_pc * 2 * cavity260.delta_ca / cavity260.g0**2
        t_peak = np.log(n0 / n_res) / rate
        t_star = brentq(lambda t: smooth_rate(t) - threshold, 1e-4, t_peak)
        dn_star = collective_shift(n0 * np.exp(-rate * t_star), cavity260.g0,
                                   cavity260.delta_ca)
        # tolerance: drift of Delta_N over a few smoothing windows
        dn_rate = abs(dn_star) * rate
        assert abs(result.conditioned_delta_n - dn_star) < 5 * dn_rate * 100e-6

    def test_threshold_above_peak_never_triggers(self, cavity260):
        drift, drive, _ = self.setup_context(cavity260)
        peak_rate = 2 * cavity260.kappa * 0.05 * drive.n_max
        result = trigger_sequence(*drift, cavity260, drive, 2 * peak_rate,
                                  horizon=0.3, seed=5)
        assert result.trigger_time is None
        assert result.conditioned_delta_n is None

    def test_smoothing_is_causal(self, cavity260):
        # The shorter record's counts are a prefix of the longer one's (same
        # seed), so the longer record only adds counts after the shorter
        # one's last bin.  A threshold first reached near that bin fires at
        # the same time in both: the smoother reads no later counts.
        drift, drive, _ = self.setup_context(cavity260)
        short = trigger_sequence(*drift, cavity260, drive, 1.0e9,
                                 horizon=0.05, seed=9)
        n = len(short.counts.counts)
        average = trailing_average(short.counts.counts, 10, 1e-5)
        i = int(np.argmax(average))
        assert i > n - 500                     # the rate rises to the end
        runs = [trigger_sequence(*drift, cavity260, drive, average[i],
                                 horizon=horizon, seed=9)
                for horizon in (0.05, 0.1)]
        assert np.array_equal(runs[1].counts.counts[:n], short.counts.counts)
        assert runs[1].counts.counts[n:n + 10].sum() > 0
        assert runs[0].trigger_time == runs[1].trigger_time \
            == short.counts.times[i]

    @pytest.mark.parametrize("smoothing_time, n", [
        (0.0, 1), (100e-6, 10), (3e-3, 300), (0.2, 20_000)])
    def test_trigger_bin_is_the_first_trailing_sum_at_threshold(
            self, cavity260, smoothing_time, n):
        # bin i averages the counts of bins max(0, i-n+1)..i over n bin
        # widths, the first n - 1 bins included (20k bins > the 5k drawn);
        # the drift starts on resonance, so the first bins have counts.
        # Each threshold is a value that average takes, so the bin that
        # fires must be the first to reach it, bit for bit
        _, drive, _ = self.setup_context(cavity260)
        n_res = drive.delta_pc * 2 * cavity260.delta_ca / cavity260.g0**2
        drift = (n_res, 20.0)
        kwargs = dict(bin_width=10e-6, horizon=0.05, seed=9,
                      smoothing_time=smoothing_time)
        counts = trigger_sequence(*drift, cavity260, drive, np.inf,
                                  **kwargs).counts
        assert counts.counts[0] > 0
        average = trailing_average(counts.counts, n, 10e-6)
        levels = np.unique(average)
        for threshold in levels[[len(levels) // 4, len(levels) // 2, -1]]:
            first = np.flatnonzero(average >= threshold)[0]
            result = trigger_sequence(*drift, cavity260, drive, threshold,
                                      **kwargs)
            assert result.trigger_time == counts.times[first]

    @staticmethod
    def whole_array_shot(n0, loss_rate, cavity, drive, bin_width, n_bins,
                         seed, smoothing_time):
        """The shot in one piece: every bin's centre, drift, profile value
        and Poisson draw in one array each, then the cumsum window.  Returns
        (counts, centres, shifts, smoothed rates)."""
        centers = (np.arange(n_bins) + 0.5) * bin_width
        dn = collective_shift(n0 * np.exp(-loss_rate * centers), cavity.g0,
                              cavity.delta_ca)
        nbar = drive.n_max * profile_value(ResponseProfile.from_cavity(cavity),
                                           drive.delta_pc - dn)
        counts = np.random.default_rng(seed).poisson(
            2.0 * cavity.kappa * nbar * 0.05 * bin_width)
        n = max(1, int(round(smoothing_time / bin_width)))
        running = np.cumsum(counts)
        window = running.copy()
        window[n:] -= running[:-n]
        return counts, centers, dn, window / (n * bin_width)

    @pytest.mark.parametrize("n_bins, smoothing_time, fire", [
        (2 * 16384, 100e-6, "first"), (2 * 16384, 100e-6, 16384),
        (2 * 16384, 100e-6, "never"), (2 * 16384 + 1, 100e-6, 16384),
        (2 * 16384 + 20, 100e-6, 2 * 16384), (2 * 16384 + 20, 3e-3, "never"),
        (1, 100e-6, "first"), (1, 100e-6, "never"),
        (2 * 16384, 0.2, "first"), (2 * 16384, 0.2, 16384)])
    def test_blocks_equal_the_whole_array_shot(self, cavity260, n_bins,
                                               smoothing_time, fire):
        # blocks of 16384 bins: a last block of 20 takes the scalar profile
        # path, and a 0.2 s window (20 000 bins) is longer than a block.  An
        # int `fire` is a block's first bin: the shot fires within one window
        # of it, so the window reads running sums carried across the edge.
        # The shift crosses the line in about 8 bins, resonant at bin 0 or
        # just after the window that starts at `fire`, so the average rises
        # steeply through that window
        assert measure.TRIGGER_BLOCK == 16384
        _, drive, _ = self.setup_context(cavity260)
        n_res = drive.delta_pc * 2 * cavity260.delta_ca / cavity260.g0**2
        bin_width, loss_rate = 10e-6, 500.0
        n = max(1, round(smoothing_time / bin_width))
        t_res = (0.0 if isinstance(fire, str)
                 else (fire + min(n, 10) + 4) * bin_width)
        drift = (n_res * math.exp(loss_rate * t_res), loss_rate)
        for seed in (3, 4, 5):
            shot = dict(bin_width=bin_width, seed=seed,
                        smoothing_time=smoothing_time)
            counts, centers, dn, smoothed = self.whole_array_shot(
                *drift, cavity260, drive, n_bins=n_bins, **shot)
            if fire == "never":
                threshold = 2 * smoothed.max()
            elif fire == "first":
                threshold = smoothed[:8192].max()
            else:
                threshold = smoothed[fire + np.argmax(
                    smoothed[fire:] > smoothed[:fire].max())]
            above = np.flatnonzero(smoothed >= threshold)
            result = trigger_sequence(*drift, cavity260, drive, threshold,
                                      horizon=n_bins * bin_width, **shot)
            assert result.counts.counts.dtype == np.int64
            assert np.array_equal(result.counts.counts, counts)
            if fire == "never":
                assert above.size == 0
                assert result.trigger_time is None
                assert result.conditioned_delta_n is None
                continue
            first = above[0]
            low = 0 if fire == "first" else fire
            assert low <= first < low + (16384 if fire == "first" else n)
            assert result.trigger_time == centers[first]
            assert result.conditioned_delta_n == dn[first]

    def test_temporaries_do_not_grow_with_the_horizon(self, cavity260):
        # 100 000 and 400 000 bins: past the record's counts, a shot's peak
        # is its blocks' temporaries
        drift, drive, _ = self.setup_context(cavity260)
        trigger_sequence(*drift, cavity260, drive, 1.0e6, horizon=0.01)
        peaks = []
        tracemalloc.start()
        try:
            for horizon in (1.0, 4.0):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = trigger_sequence(*drift, cavity260, drive, 1.0e6,
                                          bin_width=10e-6, horizon=horizon)
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks.append(peak - result.counts.counts.nbytes)
                del result
        finally:
            tracemalloc.stop()
        assert peaks[1] == pytest.approx(peaks[0], rel=0.1)

    @pytest.mark.parametrize("horizon, bin_width, n_bins", [
        (1.0, 2e-6, 500_000), (1.0, 1e-5, 100_000), (0.3, 1e-5, 30_000),
        (1.000005, 1e-5, 100_001), (3e-6, 2e-6, 2)])
    def test_bins_cover_the_horizon(self, cavity260, horizon, bin_width,
                                    n_bins):
        drift, drive, _ = self.setup_context(cavity260)
        result = trigger_sequence(*drift, cavity260, drive, 1.0e9,
                                  bin_width=bin_width, horizon=horizon)
        assert len(result.counts.counts) == n_bins

    def test_trigger_time_is_a_bin_centre(self, cavity260):
        # at 1e-5 s bins (k + 0.5) * w and the midpoint of k * w and
        # (k + 1) * w differ by an ulp in about a third of the bins
        drift, drive, _ = self.setup_context(cavity260)
        result = trigger_sequence(*drift, cavity260, drive, 1.0e6,
                                  bin_width=1e-5, horizon=0.3, seed=0)
        assert result.trigger_time is not None
        times = result.counts.times
        assert np.count_nonzero(times == result.trigger_time) == 1

    def test_seed_determinism(self, cavity260):
        drift, drive, _ = self.setup_context(cavity260)
        kwargs = dict(horizon=0.3, seed=9)
        a = trigger_sequence(*drift, cavity260, drive, 1.0e6, **kwargs)
        b = trigger_sequence(*drift, cavity260, drive, 1.0e6, **kwargs)
        assert a.trigger_time == b.trigger_time
        assert np.array_equal(a.counts.counts, b.counts.counts)

    @pytest.mark.parametrize("efficiency", [1.5, -0.5])
    def test_efficiency_outside_unit_interval_rejected(self, cavity260,
                                                       efficiency):
        # the detected rate cannot exceed the emitted rate, nor be negative
        drift, drive, _ = self.setup_context(cavity260)
        with pytest.raises(ValueError, match="efficiency"):
            trigger_sequence(*drift, cavity260, drive, 1.0e6,
                             efficiency=efficiency, horizon=0.01)
        with pytest.raises(ValueError, match="efficiency"):
            averaged_counts(flat_trace(1.0), cavity260, efficiency, 1e-5, 0, 1)

    def test_efficiency_checked_before_the_profile_pass(self, cavity260,
                                                        monkeypatch):
        drift, drive, _ = self.setup_context(cavity260)

        def profile_pass(*args):
            pytest.fail("the profile pass ran before the efficiency check")

        monkeypatch.setattr(measure, "profile_value", profile_pass)
        with pytest.raises(ValueError, match="efficiency"):
            trigger_sequence(*drift, cavity260, drive, 1.0e6, efficiency=1.5)

    @pytest.mark.parametrize("n0, loss_rate", [
        (0.0, 20.0), (-5.0, 20.0), (1.2e5, -1.0), (np.nan, 20.0),
        (1.2e5, np.nan)])
    def test_drift_checked_before_the_profile_pass(self, cavity260,
                                                   monkeypatch, n0,
                                                   loss_rate):
        _, drive, _ = self.setup_context(cavity260)

        def profile_pass(*args):
            pytest.fail("the profile pass ran before the drift check")

        monkeypatch.setattr(measure, "profile_value", profile_pass)
        with pytest.raises(ValueError, match="n0 > 0 and loss_rate >= 0"):
            trigger_sequence(n0, loss_rate, cavity260, drive, 1.0e6)

    @pytest.mark.parametrize("name, value, message", [
        ("bin_width", 0.0, "positive and finite"),
        ("bin_width", -1e-5, "positive and finite"),
        ("bin_width", np.inf, "positive and finite"),
        ("bin_width", np.nan, "positive and finite"),
        ("horizon", 0.0, "positive and finite"),
        ("horizon", -1.0, "positive and finite"),
        ("horizon", np.inf, "positive and finite"),
        ("horizon", np.nan, "positive and finite"),
        ("smoothing_time", -1.0, "nonnegative and finite"),
        ("smoothing_time", np.inf, "nonnegative and finite"),
        ("smoothing_time", np.nan, "nonnegative and finite")])
    def test_grid_checked_before_the_profile_pass(self, cavity260,
                                                  monkeypatch, name, value,
                                                  message):
        drift, drive, _ = self.setup_context(cavity260)

        def profile_pass(*args):
            pytest.fail("the profile pass ran before the grid check")

        monkeypatch.setattr(measure, "profile_value", profile_pass)
        with pytest.raises(ValueError, match=f"{name} must be {message}"):
            trigger_sequence(*drift, cavity260, drive, 1.0e6, **{name: value})

    @pytest.mark.parametrize("threshold_rate", [0.0, -1.0, np.nan])
    def test_threshold_checked_before_the_profile_pass(self, cavity260,
                                                       monkeypatch,
                                                       threshold_rate):
        # a detected rate is >= 0, so a threshold <= 0 fires at the first bin
        drift, drive, _ = self.setup_context(cavity260)

        def profile_pass(*args):
            pytest.fail("the profile pass ran before the threshold check")

        monkeypatch.setattr(measure, "profile_value", profile_pass)
        with pytest.raises(ValueError, match="threshold_rate > 0"):
            trigger_sequence(*drift, cavity260, drive, threshold_rate)


class TestAtomLoss:
    # trigger_sequence's drift: N(t) = n0 exp(-loss_rate t) at each bin
    # centre t while the monitoring probe is on
    @staticmethod
    def fire(cavity260, n0, loss_rate):
        drive = DriveParams(n_max=6.5, delta_pc=-TWO_PI * 17e6)
        result = trigger_sequence(n0, loss_rate, cavity260, drive, 1.0e5,
                                  horizon=0.3, seed=5)
        assert result.trigger_time is not None
        return result

    def test_no_loss(self, cavity260):
        # the probe's resonant atom number, so a bin fires at a fixed shift
        n0 = -TWO_PI * 17e6 * 2 * cavity260.delta_ca / cavity260.g0**2
        result = self.fire(cavity260, n0, 0.0)
        assert result.conditioned_delta_n == collective_shift(
            n0, cavity260.g0, cavity260.delta_ca)

    def test_conditioned_shift_follows_the_exponential_loss(self, cavity260):
        n0, rate = 1.2e5, 20.0
        result = self.fire(cavity260, n0, rate)
        t = result.trigger_time
        assert t > 0.01                        # the loss moved the shift
        dn0 = collective_shift(n0, cavity260.g0, cavity260.delta_ca)
        # one bin moves the shift by 2e-4 relative: this is the firing bin's
        assert result.conditioned_delta_n == pytest.approx(
            dn0 * np.exp(-rate * t), rel=1e-12)

    def test_shift_crossing_time_unique(self, cavity260):
        n0, rate = 1.2e5, 1.5
        target = -TWO_PI * 19e6

        def dn(t):
            return collective_shift(n0 * np.exp(-rate * t), cavity260.g0,
                                    cavity260.delta_ca)

        t_cross = brentq(lambda t: dn(t) - target, 0.0, 10.0)
        n_target = target * 2 * cavity260.delta_ca / cavity260.g0**2
        assert t_cross == pytest.approx(np.log(n0 / n_target) / rate, rel=1e-9)
