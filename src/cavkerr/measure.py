"""Detection chain: photon counting, triggering, spectral decay analysis.

The cavity loses photons at 2*kappa*nbar; detection folds mirror geometry,
filter and counter losses into one end-to-end efficiency multiplying that
rate.  Counts are Poisson per time bin and reproducible from the seed.

The collective-motion signal is read out as the Fourier amplitude of the
transmission at the trap frequency over contiguous windows; the window
series decays with the motional coherence (Gaussian-in-time for a static
trap-frequency spread, exponential for viscous damping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TransientTrace
from .params import CavityParams, DriveParams, collective_shift
from .steady_state import ResponseProfile, profile_value

TWO_PI = 2.0 * np.pi


@dataclass
class CountRecord:
    """Binned photon counts; the first bin starts at ``t_start``."""

    bin_width: float
    counts: np.ndarray
    t_start: float = 0.0

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def times(self) -> np.ndarray:
        return self.t_start + (np.arange(len(self.counts)) + 0.5) * self.bin_width

    @property
    def rates(self) -> np.ndarray:
        return self.counts / self.bin_width


@dataclass
class SpectralDecay:
    """Per-window Fourier amplitudes at one frequency."""

    window_centers: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.amplitudes) < 0):
            raise ValueError("amplitudes must be nonnegative")


def _as_rate_series(source) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(source, CountRecord):
        return source.times, source.rates
    if isinstance(source, TransientTrace):
        return source.time, source.nbar
    t, x = source
    return np.asarray(t, dtype=float), np.asarray(x, dtype=float)


def _expected_counts(nbar_trace, cavity: CavityParams, efficiency: float,
                     bin_width: float, dark_rate: float = 0.0
                     ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean detected counts per bin, the trapezoid integral of the rate
    2*kappa*nbar*efficiency (plus the dark-count rate) over the bin.
    Returns (record start, bin centers, means).
    """
    if not (0.0 <= efficiency <= 1.0):
        raise ValueError("efficiency must lie in [0, 1]")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if dark_rate < 0:
        raise ValueError("dark_rate must be nonnegative")
    time, nbar = _as_rate_series(nbar_trace)
    rate = 2.0 * cavity.kappa * np.asarray(nbar) * efficiency + dark_rate
    n_bins = int(np.floor((time[-1] - time[0]) / bin_width))
    if n_bins < 1:
        raise ValueError("trace shorter than one bin")
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1])
                                           * np.diff(time))])
    edges = time[0] + np.arange(n_bins + 1) * bin_width
    centers = time[0] + (np.arange(n_bins) + 0.5) * bin_width
    return time[0], centers, np.diff(np.interp(edges, time, cum))


def count_monte_carlo(nbar_trace, cavity: CavityParams, efficiency: float,
                      bin_width: float, seed: int,
                      dark_rate: float = 0.0) -> CountRecord:
    """Poisson photon-count record of a transmission trace.

    The detected rate is r(t) = 2*kappa*nbar(t)*efficiency (plus the
    optional dark-count rate); each bin draws a Poisson count with mean
    equal to the rate integral over the bin.
    """
    t0, _, means = _expected_counts(nbar_trace, cavity, efficiency,
                                    bin_width, dark_rate)
    rng = np.random.default_rng(seed)
    return CountRecord(bin_width, rng.poisson(means), t_start=t0)


def averaged_counts(nbar_trace, cavity: CavityParams, efficiency: float,
                    bin_width: float, seed: int,
                    n_average: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean counts per bin over repeated detections of the same trace.

    Per-repetition generators are spawned from the master seed.  Returns
    (bin centers, mean counts, float-valued).
    """
    _, centers, means = _expected_counts(nbar_trace, cavity, efficiency,
                                         bin_width)
    master = np.random.default_rng(seed)
    acc = np.zeros(len(means))
    for child in master.spawn(n_average):
        acc += child.poisson(means)
    return centers, acc / n_average


def repeated_measurement_decay(nbar_trace, cavity: CavityParams,
                               efficiency: float, bin_width: float,
                               seed: int, n_average: int, frequency: float,
                               window_length: float,
                               order: str = "traces") -> "SpectralDecay":
    """Windowed spectral decay of repeated detections of one trace.

    ``order="traces"`` (default) sums the transmission records first and
    Fourier-analyses the average; ``order="spectra"`` analyses every record
    and averages the window amplitudes.  Trace-averaging suppresses the
    shot-noise floor by sqrt(n_average); spectra-averaging does not (the
    per-record noise amplitude is positive and survives the mean).
    """
    if order == "traces":
        centers, mean_counts = averaged_counts(nbar_trace, cavity, efficiency,
                                               bin_width, seed, n_average)
        return windowed_fourier_amplitude((centers, mean_counts / bin_width),
                                          frequency, window_length)
    if order != "spectra":
        raise ValueError("order must be 'traces' or 'spectra'")
    _, centers, means = _expected_counts(nbar_trace, cavity, efficiency,
                                         bin_width)
    master = np.random.default_rng(seed)
    acc = None
    for child in master.spawn(n_average):
        counts = child.poisson(means)
        sd = windowed_fourier_amplitude((centers, counts / bin_width),
                                        frequency, window_length)
        acc = sd.amplitudes if acc is None else acc + sd.amplitudes
    return SpectralDecay(sd.window_centers, acc / n_average)


@dataclass(frozen=True)
class AtomLossDrift:
    """Exponential atom-number decay used by the trigger simulation."""

    n0: float
    loss_rate: float

    def __post_init__(self):
        if self.n0 <= 0 or self.loss_rate < 0:
            raise ValueError("need n0 > 0 and loss_rate >= 0")

    def atoms(self, t):
        """N(t) = n0 exp(-loss_rate t); a float for scalar t."""
        out = self.n0 * np.exp(-self.loss_rate * np.asarray(t, dtype=float))
        return out if out.ndim else float(out)


@dataclass
class TriggerResult:
    triggered: bool
    trigger_time: float | None
    conditioned_delta_n: float | None
    probe_on_time: float | None      # trigger_time + delay
    detection_level: float
    counts: CountRecord
    smoothed_rate: np.ndarray


def trigger_sequence(drift: AtomLossDrift, cavity: CavityParams,
                     drive: DriveParams, threshold_rate: float,
                     delay: float, detection_level: float, *,
                     profile: ResponseProfile | None = None,
                     efficiency: float = 0.05, bin_width: float = 10e-6,
                     horizon: float = 1.0, seed: int = 0,
                     smoothing_time: float = 100e-6) -> TriggerResult:
    """Trigger / delay / detect sequencing on the atom-loss drift.

    As atoms are lost the collective shift drifts toward the probe and the
    monitored transmission rises.  Counts are low-pass filtered (trailing
    moving average over ``smoothing_time``) before the threshold comparison
    so a single dark-ish bin cannot false-trigger at nbar < 1.  On trigger the
    conditioned Delta_N is reported, the probe is scheduled off for
    ``delay`` and back on at ``detection_level``.
    """
    if profile is None:
        profile = ResponseProfile.from_cavity(cavity)
    edges = np.arange(0.0, horizon + bin_width, bin_width)
    centers = 0.5 * (edges[1:] + edges[:-1])
    dn = collective_shift(drift.atoms(centers), cavity.g0, cavity.delta_ca)
    nbar = drive.n_max * profile_value(profile, drive.delta_pc - dn)
    means = 2.0 * cavity.kappa * nbar * efficiency * bin_width
    rng = np.random.default_rng(seed)
    counts = rng.poisson(means)
    record = CountRecord(bin_width, counts)

    # trailing moving average: bin i sees bins i-n+1..i only, as a real
    # trigger does (zero counts before the record start)
    n_smooth = max(1, int(round(smoothing_time / bin_width)))
    total = np.concatenate([[0], np.cumsum(counts)])
    start = np.maximum(np.arange(1, len(counts) + 1) - n_smooth, 0)
    smoothed = (total[1:] - total[start]) / (n_smooth * bin_width)

    above = np.nonzero(smoothed >= threshold_rate)[0]
    if len(above) == 0:
        return TriggerResult(False, None, None, None, detection_level,
                             record, smoothed)
    i = int(above[0])
    t_trig = float(centers[i])
    dn_trig = collective_shift(drift.atoms(t_trig), cavity.g0, cavity.delta_ca)
    return TriggerResult(True, t_trig, dn_trig, t_trig + delay,
                         detection_level, record, smoothed)


def windowed_fourier_amplitude(source, frequency: float, window_length: float
                               ) -> SpectralDecay:
    """Fourier amplitude at one frequency over contiguous windows.

    Per window: A = (2/T) |sum (x - mean(x)) exp(-i 2 pi f t) dt|, so a pure
    sinusoid of amplitude A0 returns A0 and a constant offset contributes
    nothing.  Windows are non-overlapping and start at the record start.
    """
    time, x = _as_rate_series(source)
    if window_length * frequency < 5.0:
        raise ValueError("window must span at least 5 cycles of the frequency")
    dt = time[1] - time[0]
    n_per = int(round(window_length / dt))
    n_win = len(x) // n_per
    if n_win < 1:
        raise ValueError("window longer than the record")

    centers = np.empty(n_win)
    amps = np.empty(n_win)
    for k in range(n_win):
        seg = x[k * n_per:(k + 1) * n_per]
        tt = time[k * n_per:(k + 1) * n_per]
        seg = seg - np.mean(seg)
        z = np.sum(seg * np.exp(-2j * np.pi * frequency * tt)) * dt
        amps[k] = 2.0 * np.abs(z) / (n_per * dt)
        centers[k] = np.mean(tt)
    return SpectralDecay(centers, amps)


@dataclass
class DecayFit:
    """Envelope fit of a window-amplitude series."""

    tau: float                 # 1/e time: interpolated crossing of A0/e
    model: str                 # model used for A0 and the crossing abscissa
    tau_exponential: float
    tau_gaussian: float
    amplitude0: float
    reliable: bool


def _crossing(centers, amps, a0, model):
    """First interpolated crossing of a0/e, in the model's natural abscissa
    (t for exponential, t^2 for gaussian, so clean synthetics are exact)."""
    target = a0 / np.e
    xs = centers if model == "exponential" else centers ** 2
    if amps[0] < target:
        return float(centers[0])
    for i in range(1, len(amps)):
        if amps[i] < target <= amps[i - 1]:
            frac = np.log(amps[i - 1] / target) / np.log(amps[i - 1] / amps[i])
            x = xs[i - 1] + (xs[i] - xs[i - 1]) * frac
            return float(x if model == "exponential" else np.sqrt(x))
    return float("inf")


def decay_fit(decay: SpectralDecay, model: str = "gaussian",
              floor: float = 0.1) -> DecayFit:
    """Fit the window-amplitude envelope and return its 1/e time.

    Least squares on log-amplitude against both envelope models
    (exponential exp(-t/tau) and Gaussian-in-time exp(-(t/tau)^2), the
    static-spread dephasing form); windows below ``floor`` times the peak
    amplitude are excluded from the fit (finite-ensemble/shot floor).  The
    returned ``tau`` interpolates the crossing of the fitted amplitude(0)/e
    through the window series; non-decaying data is flagged unreliable.
    """
    if model not in ("gaussian", "exponential"):
        raise ValueError("model must be 'gaussian' or 'exponential'")
    c = np.asarray(decay.window_centers, dtype=float)
    a = np.asarray(decay.amplitudes, dtype=float)
    if len(a) < 4:
        raise ValueError("need at least 4 windows to fit a decay")

    keep = a > floor * np.max(a)
    keep &= a > 0
    cf, af = c[keep], a[keep]
    if len(af) < 2:
        return DecayFit(float("inf"), model, float("inf"), float("inf"),
                        float(a[0]), False)
    log_a = np.log(af)

    s_exp, i_exp = np.polyfit(cf, log_a, 1)
    tau_exp = -1.0 / s_exp if s_exp < 0 else float("inf")
    s_gau, i_gau = np.polyfit(cf ** 2, log_a, 1)
    tau_gau = 1.0 / np.sqrt(-s_gau) if s_gau < 0 else float("inf")

    a0 = float(np.exp(i_gau if model == "gaussian" else i_exp))
    tau = _crossing(c, a, a0, model)
    reliable = np.isfinite(tau) and (
        np.isfinite(tau_gau) if model == "gaussian" else np.isfinite(tau_exp))
    return DecayFit(tau, model, float(tau_exp), float(tau_gau), a0,
                    bool(reliable))
