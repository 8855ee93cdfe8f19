"""Detection chain: photon counting, triggering, spectral decay analysis.

The cavity loses photons at 2*kappa*nbar; detection folds mirror geometry,
filter and counter losses into one end-to-end efficiency in [0, 1]
multiplying that rate.  Counts are Poisson per time bin and reproducible
from the seed, and ``_draw`` is the one Poisson draw of every record.  The
mean per bin has two rules.  ``averaged_counts`` counts a ``(time, nbar)``
pair of arrays, e.g. ``(trace.time, trace.nbar)`` of a ring-up trace: the
trapezoid integral of the rate over each bin.  ``trigger_sequence`` decides
the trigger of a trigger / delay / detect sequence on an atom number n0
exp(-loss_rate t), its rate known in closed form: the rate at each bin
centre times the bin width.  Its caller schedules the rest.  A trace's
span holds ``whole_bins`` bins, and a trigger horizon the ceiling of the
same ratio, each to ``RATIO_TOL``.

The collective-motion signal is read out as the Fourier amplitude of the
transmission at the trap frequency over contiguous windows; the window
series decays with the motional coherence (Gaussian-in-time for a static
trap-frequency spread, exponential for viscous damping).  A window spans at
least ``MIN_CYCLES`` cycles, and a decay fit needs ``MIN_WINDOWS`` windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import CavityParams, DriveParams, collective_shift
from .steady_state import ResponseProfile, profile_value

RATIO_TOL = 1e-9    # relative slack of a span / bin_width ratio
MIN_CYCLES = 5.0    # cycles of the frequency in one Fourier window
MIN_WINDOWS = 4     # windows of one decay fit


def whole_bins(span: float, bin_width: float) -> int:
    """floor(span / bin_width), a ratio at most ``RATIO_TOL`` relative below
    an integer counting as that integer: the whole bins in ``span``."""
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    return math.floor(span / bin_width * (1.0 + RATIO_TOL))


def _bin_centers(t_start: float, bin_width: float, n_bins: int) -> np.ndarray:
    """Centre of bin k: t_start + (k + 0.5) * bin_width, the one bin grid
    of every count record (a counts file stores t_start, bin_width and k)."""
    return t_start + (np.arange(n_bins) + 0.5) * bin_width


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
        return _bin_centers(self.t_start, self.bin_width, len(self.counts))

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


def _check_efficiency(efficiency: float) -> None:
    """The detected rate can exceed neither the emitted rate nor zero."""
    if not (0.0 <= efficiency <= 1.0):
        raise ValueError("efficiency must lie in [0, 1]")


def _detected_rate(cavity: CavityParams, nbar, efficiency: float):
    """Detected photon rate 2*kappa*nbar*efficiency, the one form of it."""
    return 2.0 * cavity.kappa * nbar * efficiency


def _expected_counts(nbar_trace, cavity: CavityParams, efficiency: float,
                     bin_width: float) -> CountRecord:
    """Mean detected counts in the ``whole_bins`` of the trace's span from
    its start: the trapezoid integral of the detected rate over each bin."""
    time, nbar = (np.asarray(a, dtype=float) for a in nbar_trace)
    rate = _detected_rate(cavity, nbar, efficiency)
    n_bins = whole_bins(time[-1] - time[0], bin_width)
    if n_bins < 1:
        raise ValueError("trace shorter than one bin")
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1])
                                           * np.diff(time))])
    edges = time[0] + np.arange(n_bins + 1) * bin_width
    return CountRecord(bin_width, np.diff(np.interp(edges, time, cum)),
                       t_start=time[0])


def _draw(expected: CountRecord, seed: int) -> CountRecord:
    """One Poisson count per bin at the expected record's mean: the one
    draw of every count record."""
    counts = np.random.default_rng(seed).poisson(expected.counts)
    return CountRecord(expected.bin_width, counts, t_start=expected.t_start)


def averaged_counts(nbar_trace, cavity: CavityParams, efficiency: float,
                    bin_width: float, seed: int,
                    n_average: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts per bin of ``nbar_trace``, a (time, nbar) pair of arrays, over
    ``n_average`` independent detections, drawn as their sum: one Poisson
    draw per bin at n_average times the mean detected counts.  Returns (bin
    centers, counts): the integer draw itself at n_average 1, else the float
    mean, sum / n_average.  A ``CountRecord`` holds counts, not photon
    numbers, so it is a TypeError."""
    if n_average < 1:
        raise ValueError("n_average must be at least 1")
    _check_efficiency(efficiency)
    expected = _expected_counts(nbar_trace, cavity, efficiency, bin_width)
    expected.counts *= n_average
    total = _draw(expected, seed)
    return total.times, (total.counts if n_average == 1
                         else total.counts / n_average)


@dataclass
class TriggerResult:
    """The trigger decision: the centre of the bin that fired and the
    collective shift at that time (both None when no bin fired), and the
    counts it was made from."""

    trigger_time: float | None
    conditioned_delta_n: float | None
    counts: CountRecord


def trigger_sequence(n0: float, loss_rate: float, cavity: CavityParams,
                     drive: DriveParams, threshold_rate: float, *,
                     efficiency: float = 0.05, bin_width: float = 10e-6,
                     horizon: float = 1.0, seed: int = 0,
                     smoothing_time: float = 100e-6) -> TriggerResult:
    """The trigger of a trigger / delay / detect sequence on the atom-loss
    drift: when to fire, and the collective shift it conditions.

    While the monitoring probe is on, atoms are lost at ``loss_rate``: bin k
    sees N = n0 exp(-loss_rate t_k) at its centre t_k, so the collective
    shift drifts toward the probe and the transmission rises.  Counts are
    low-pass filtered (trailing moving average over ``smoothing_time``)
    before the threshold comparison so a single dark-ish bin cannot
    false-trigger at nbar < 1.  The first bin whose average reaches
    ``threshold_rate`` fires, and the conditioned shift is that bin's.  The
    delay and the detection level that follow are the caller's to schedule;
    the drift is not run on through the delay, so a ring-up conditioned on
    the trigger starts from the trigger-time shift.

    The record holds ceil(horizon / bin_width) bins, a ratio at most
    ``RATIO_TOL`` relative above an integer counting as that integer; the
    trigger time is the fired bin's centre, as ``CountRecord.times`` gives
    it.  An ``efficiency`` outside [0, 1], ``n0 <= 0``, a negative
    ``loss_rate`` or ``threshold_rate <= 0`` (NaN too) raises
    ``ValueError`` before any count is computed.
    """
    _check_efficiency(efficiency)
    if not (n0 > 0 and loss_rate >= 0 and threshold_rate > 0):
        raise ValueError("need n0 > 0 and loss_rate >= 0 and "
                         "threshold_rate > 0")
    profile = ResponseProfile.from_cavity(cavity)
    n_bins = math.ceil(horizon / bin_width * (1.0 - RATIO_TOL))
    centers = _bin_centers(0.0, bin_width, n_bins)
    dn = collective_shift(n0 * np.exp(-loss_rate * centers), cavity.g0,
                          cavity.delta_ca)
    nbar = drive.n_max * profile_value(profile, drive.delta_pc - dn)
    record = _draw(CountRecord(
        bin_width, _detected_rate(cavity, nbar, efficiency) * bin_width), seed)

    # trailing moving average: bin i sees bins i-n+1..i only, as a real
    # trigger does (zero counts before the record start)
    n_smooth = max(1, int(round(smoothing_time / bin_width)))
    running = np.cumsum(record.counts)
    window = running.copy()
    window[n_smooth:] -= running[:-n_smooth]
    smoothed = window / (n_smooth * bin_width)

    above = np.nonzero(smoothed >= threshold_rate)[0]
    if len(above) == 0:
        return TriggerResult(None, None, record)
    i = above[0]
    return TriggerResult(float(centers[i]), float(dn[i]), record)


def window_grid(n_samples: int, window_length: float,
                step: float) -> tuple[int, int]:
    """(samples per window, whole windows in ``n_samples``) for samples
    ``step`` apart: round(window_length / step) samples per window."""
    n_per = int(round(window_length / step))
    return n_per, n_samples // n_per if n_per else 0


def windowed_fourier_amplitude(source, frequency: float, window_length: float
                               ) -> SpectralDecay:
    """Fourier amplitude at one frequency over contiguous windows.

    Per window: A = (2/T) |sum (x - mean(x)) exp(-i 2 pi f t) dt|, so a pure
    sinusoid of amplitude A0 returns A0 and a constant offset contributes
    nothing; dt is the first sample spacing.  ``source`` is a
    ``CountRecord`` (its rates are transformed; integer or mean counts
    alike) or a (t, x) pair, e.g. (trace.time, trace.nbar).  Windows are
    contiguous from the record start, of ``window_grid`` samples for a step
    of the bin width (a ``CountRecord``) or dt (a pair); a record of fewer
    than two samples holds none.
    """
    binned = isinstance(source, CountRecord)
    time, x = ((source.times, source.rates) if binned
               else (np.asarray(a, dtype=float) for a in source))
    if window_length * frequency < MIN_CYCLES:
        raise ValueError(f"window must span at least {MIN_CYCLES:g} cycles "
                         "of the frequency")
    if len(x) < 2:
        raise ValueError("no window fits a record of fewer than two samples")
    dt = time[1] - time[0]
    step = source.bin_width if binned else dt
    n_per, n_win = window_grid(len(x), window_length, step)
    if n_win < 1:
        raise ValueError(f"no window of {n_per} samples fits the record")

    tt = time[:n_win * n_per].reshape(n_win, n_per)
    seg = x[:n_win * n_per].reshape(n_win, n_per)
    seg = seg - np.mean(seg, axis=1, keepdims=True)
    z = np.sum(seg * np.exp(-2j * np.pi * frequency * tt), axis=1) * dt
    return SpectralDecay(np.mean(tt, axis=1), 2.0 * np.abs(z) / (n_per * dt))


@dataclass
class DecayFit:
    """Envelope fit of a window-amplitude series."""

    tau: float                 # 1/e time: crossing of the model's A0/e
    tau_exponential: float
    tau_gaussian: float
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


def decay_fit(decay: SpectralDecay, model: str = "gaussian") -> DecayFit:
    """Fit the window-amplitude envelope and return its 1/e time.

    Least squares on log-amplitude against both envelope models
    (exponential exp(-t/tau) and Gaussian-in-time exp(-(t/tau)^2), the
    static-spread dephasing form); windows below a tenth of the peak
    amplitude are excluded from the fit (finite-ensemble/shot floor).  The
    returned ``tau`` interpolates the crossing of ``model``'s fitted
    amplitude(0)/e through the window series, in that model's abscissa;
    non-decaying data is flagged unreliable.
    """
    if model not in ("gaussian", "exponential"):
        raise ValueError("model must be 'gaussian' or 'exponential'")
    c = np.asarray(decay.window_centers, dtype=float)
    a = np.asarray(decay.amplitudes, dtype=float)
    if len(a) < MIN_WINDOWS:
        raise ValueError(f"need at least {MIN_WINDOWS} windows to fit a decay")

    keep = a > 0.1 * np.max(a)
    cf, af = c[keep], a[keep]
    if len(af) < 2:
        return DecayFit(float("inf"), float("inf"), float("inf"), False)
    log_a = np.log(af)

    s_exp, i_exp = np.polyfit(cf, log_a, 1)
    tau_exp = -1.0 / s_exp if s_exp < 0 else float("inf")
    s_gau, i_gau = np.polyfit(cf ** 2, log_a, 1)
    tau_gau = 1.0 / np.sqrt(-s_gau) if s_gau < 0 else float("inf")

    a0 = float(np.exp(i_gau if model == "gaussian" else i_exp))
    tau = _crossing(c, a, a0, model)
    reliable = np.isfinite(tau) and (
        np.isfinite(tau_gau) if model == "gaussian" else np.isfinite(tau_exp))
    return DecayFit(tau, float(tau_exp), float(tau_gau), bool(reliable))
