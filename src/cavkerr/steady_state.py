"""Steady states of the motional-Kerr cavity response.

The self-consistent photon number obeys ``u = V(kappa*(delta0 + beta*u))``
with ``u = nbar/n_max``, the reduced detuning ``delta0 = (delta_pc -
Delta_N)/kappa`` and the response profile V (unit peak): a Lorentzian, or
for the jitter-broadened cavity a Voigt profile (Lorentzian of half-width
kappa convolved with a Gaussian of rms sigma), evaluated as the Lorentzian
is, by the Voigt's small-width series at zero width.  For a Lorentzian it is
also the cubic beta^2 u^3 + 2 delta0 beta u^2 + (1 + delta0^2) u - 1 = 0,
kept as an independent oracle.

No search in u is needed: in the shifted detuning x = delta0 + beta*u the
curve is explicit, u = v(x) = V(kappa*x) and delta0 = F(x) = x - beta*v(x),
and a root is stable exactly when F' = 1 - beta*v' > 0.  For beta above the
threshold 1/max v' the two zeros of F' on x < 0 are the folds (where two
roots merge).  They split the curve into a lower stable, a middle unstable
and an upper stable segment, each monotone.  Only the stable segments are
solved: a stable root is the one zero of F - delta0 on its segment
(natural-parameter continuation; Allgower & Georg, SIAM 2003).  V is even,
so beta < 0 mirrors (-delta0, -beta).

A scan lays 129 sinh-spaced points over each stable segment of each drive
(cells about w/20 wide at the peak, w = 1 + sigma/kappa, and growing as |x|
beyond) and tabulates F at all of them in one call.  It brackets each root
by its cell and one more each side, and starts Newton by inverse linear
interpolation; one Newton solve takes every root of every segment and
drive, with beta per entry.  An entry stops when its step is within 4 ulp
of x, or |F(x) - delta0| within 8 ulp of |x| + beta*v + |delta0|, the
rounding floor of F, below which Newton cannot go.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ResponseProfile:
    """Normalized (unit-peak) cavity frequency response: Voigt exactly when
    sigma > 0, else Lorentzian: ``ResponseProfile(kappa)``."""

    kappa: float               # Lorentzian half-linewidth, rad/s
    sigma: float = 0.0         # Gaussian rms width, rad/s

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be nonnegative and finite")

    @property
    def kind(self) -> str:
        """"voigt" or "lorentzian", the name the threshold report gives."""
        return "voigt" if self.sigma > 0 else "lorentzian"

    @classmethod
    def from_cavity(cls, cavity) -> "ResponseProfile":
        """Voigt when the cavity records technical jitter, else Lorentzian."""
        return cls(cavity.kappa, cavity.sigma_jitter)

    @property
    def _narrow(self) -> bool:
        """Evaluated by the small-sigma series (see _series), sigma = 0 too."""
        return self.sigma <= _SERIES_MAX * self.kappa

    @cached_property
    def _voigt_peak(self):
        """Unnormalized value at zero detuning: the unit-peak scale."""
        if self._narrow:
            return _series(self, 0.0, 0)[0]
        return _faddeeva_parts(0.0, self._a)[0]

    @property
    def _a(self) -> float:             # v(x) = Re w(z)/peak at z = a(x + i)
        return float(self.kappa / (self.sigma * math.sqrt(2.0)))

    @cached_property
    def _slope_peak(self) -> tuple[float, float]:
        """(x, v'(x)) at the maximum of v' = d/dx V(kappa*x), on x < 0."""
        if not self.sigma:
            x = -1.0 / np.sqrt(3.0)
        else:
            # v'' changes sign once on x < 0, at the inflection point; the
            # profile is convex ten (Lorentzian plus Gaussian) widths out.
            # v' is flat there, so x to 1e-10 gives v' to ~1e-20, and a
            # tighter stop can stall on the rounding in v'' at small sigma
            far = -10.0 * (1.0 + self.sigma / self.kappa)
            x = _bracketed_root(lambda x: _curve(self, x, 3)[2:], 0.0, far,
                                xtol=1e-10)
        return float(x), float(_curve(self, x, 1)[1])


# Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z > 0 by Weideman's
# rational expansion with N = 36 terms (J. A. C. Weideman, SIAM J. Numer.
# Anal. 31, 1497 (1994)): w = d (2 p(Z) d + 1/sqrt(pi)), d = 1/(L - iz),
# Z = (L + iz) d = 2 L d - 1, L = sqrt(N/sqrt 2), and p a real polynomial of
# degree N - 1 whose coefficients are a cosine sum of exp(-t^2)(L^2 + t^2)
# at t = L tan(theta/2) on 4N points.  Against scipy.special.wofz, Re w is
# within 2.6e-13 relative for Im z in [0.05, 50] and |Re z| <= 60 Im z; the
# truncation at N terms, not rounding, sets that error.
_W_TERMS = 36
_W_L = math.sqrt(_W_TERMS / math.sqrt(2.0))
_W_RSQRTPI = 1.0 / math.sqrt(math.pi)
# Up to this many points a Python loop is faster: it costs about 4 us a
# point, a pass of NumPy calls 100-180 us up to ~50 points (2 vCPU Xeon).
_W_SCALAR_MAX = 32
# Longer inputs go in blocks on nine reused buffers (1.2 MB, inside a core's
# 2 MB L2): 100k points took 4.7-5.7 ms at this size, 4.6-5.8 at 24576,
# 5.6-7.4 at 8192 and 10.8-11.4 ms in one piece (fastest of 40 passes, at
# the alignment the heap gave; _cache_lines now sets it).
_W_BLOCK = 16384


def _weideman_coefficients() -> list[float]:
    """Coefficients of p, highest power first."""
    k = np.arange(1 - 2 * _W_TERMS, 2 * _W_TERMS)
    t = _W_L * np.tan(0.25 * np.pi * k / _W_TERMS)
    f = np.exp(-t * t) * (_W_L * _W_L + t * t)
    n = np.arange(_W_TERMS, 0, -1)
    return (np.cos(0.5 * np.pi * np.outer(n, k) / _W_TERMS) @ f
            / (4 * _W_TERMS)).tolist()


_W_COEF = _weideman_coefficients()


def _faddeeva_parts(x, y):
    """(Re w, Im w) at z = x + iy, y > 0, for floats (see _faddeeva_blocks).

    Only real +, -, * and / in one fixed order, which floats and NumPy arrays
    round alike, so a point gets the same bits alone or inside an array (a
    complex NumPy product may be fused (FMA) and would not).  p(Z) for real
    coefficients c_k runs the second-order recurrence b_k = c_k + 2 Re Z
    b_(k+1) - |Z|^2 b_(k+2), p = Z b_1 + c_0 - |Z|^2 b_2 (Knuth, TAOCP vol. 2,
    sec. 4.6.4): four real operations a term, against seven for Horner's
    rule in complex Z.
    """
    s = _W_L + y
    r = 1.0 / (s * s + x * x)
    dr, di = s * r, x * r                       # d
    zr, zi = 2.0 * _W_L * dr - 1.0, 2.0 * _W_L * di
    twice_re, norm = 2.0 * zr, zr * zr + zi * zi
    b1, b2 = _W_COEF[0], 0.0
    for c in _W_COEF[1:-1]:
        b1, b2 = twice_re * b1 - norm * b2 + c, b1
    pr, pi = zr * b1 + (_W_COEF[-1] - norm * b2), zi * b1
    tr, ti = 2.0 * (pr * dr - pi * di) + _W_RSQRTPI, 2.0 * (pi * dr + pr * di)
    return tr * dr - ti * di, ti * dr + tr * di


def _cache_lines(rows: int, n: int) -> np.ndarray:
    """An empty (rows, n) float array, each row starting on a 64-byte
    boundary: a cache line, and one AVX-512 vector.  The heap aligns arrays
    to 16 bytes only, and 100k points took 5.6 ms with the buffers at 16
    mod 64 against 3.8 ms aligned (fastest of 200, 2 vCPU Xeon); which a
    run got followed the heap's history, so any change could move it."""
    width = -(-n // 8) * 8
    raw = np.empty(rows * width + 7)
    start = -raw.__array_interface__["data"][0] % 64 // 8
    return raw[start:start + rows * width].reshape(rows, width)[:, :n]


def _faddeeva_blocks(x, y, both=True):
    """_faddeeva_parts over a 1-d float array x, y a float or an array like
    x: its operations in its order, so its bits, block by block into nine
    buffers that every step and block reuse.  Im w is None unless both."""
    s, mul, add, sub = _W_L + y, np.multiply, np.add, np.subtract
    out = _cache_lines(2 if both else 1, x.size)
    re, im = out[0], out[1] if both else None
    buf = _cache_lines(9, min(x.size, _W_BLOCK))
    for i in range(0, x.size, _W_BLOCK):
        part = slice(i, i + _W_BLOCK)
        xb, sb = x[part], s[part] if np.ndim(s) else s
        dr, di, zr, zi, tw, nm, b1, b2, t = buf[:, :xb.size]
        r = np.divide(1.0, add(sb * sb, mul(xb, xb, out=t), out=t), out=t)
        mul(sb, r, out=dr)
        mul(xb, r, out=di)
        sub(mul(2.0 * _W_L, dr, out=zr), 1.0, out=zr)
        mul(2.0 * _W_L, di, out=zi)
        mul(2.0, zr, out=tw)
        add(mul(zr, zr, out=nm), mul(zi, zi, out=t), out=nm)
        b1.fill(_W_COEF[0])
        b2.fill(0.0)
        for c in _W_COEF[1:-1]:
            add(sub(mul(tw, b1, out=t), mul(nm, b2, out=b2), out=t), c, out=t)
            b1, b2, t = t, b1, b2
        sub(_W_COEF[-1], mul(nm, b2, out=b2), out=b2)
        pr, pi = add(mul(zr, b1, out=t), b2, out=t), mul(zi, b1, out=b1)
        tr = sub(mul(pr, dr, out=zr), mul(pi, di, out=zi), out=zr)
        add(mul(2.0, tr, out=tr), _W_RSQRTPI, out=tr)
        ti = add(mul(pi, dr, out=zi), mul(pr, di, out=b2), out=zi)
        mul(2.0, ti, out=ti)
        if both:
            add(mul(ti, dr, out=t), mul(tr, di, out=b1), out=im[part])
        sub(mul(tr, dr, out=dr), mul(ti, di, out=di), out=re[part])
    return re, im


# Up to sigma = 0.1 kappa the derivatives of w cancel at large |z| (v''' is
# off by 4e-8 of its peak at 0.1, by 1e-2 at 0.01, and w overflows at a
# subnormal sigma).  There the Voigt is the Lorentzian under the heat kernel
# exp((s^2/2) d^2/dx^2), s = sigma/kappa: v is Re sum_n (-1)^n (2n-1)!!
# s^(2n) / (1 - ix)^(2n+1) up to the peak scale, and the terms fall below
# 1e-21 of the first by n = 40 at s <= 0.1.
_SERIES_MAX, _SERIES_TERMS = 0.1, 40


def _series(profile: ResponseProfile, x, order: int) -> list:
    """Unnormalized [v, ..., v^(order)], summed to the first zero term (one at
    sigma = 0); d^m/dx^m (1 - ix)^-k = i^m k...(k+m-1) (1 - ix)^-(k+m)."""
    r = 1.0 / (1.0 - 1j * np.asarray(x, dtype=float))
    s2 = (profile.sigma / profile.kappa) ** 2
    out = []
    for m in range(order + 1):
        c, k, total = 1.0, 1, 0.0
        while c and k < 2 * _SERIES_TERMS:
            total = total + c * math.prod(range(k, k + m)) * r ** (k + m)
            c *= -k * s2
            k += 2
        out.append((1j ** m * total).real)
    return out


def profile_value(profile: ResponseProfile, delta):
    """Profile value V(delta) in (0, 1], V(0) = 1, even in delta."""
    out = _curve(profile, np.asarray(delta, dtype=float) / profile.kappa, 0)[0]
    return out if out.ndim else float(out)


def _curve(profile: ResponseProfile, x, order: int) -> list:
    """[v, v', ..., v^(order)] of v(x) = V(kappa*x), order <= 3, in x's shape.

    Up to sigma = 0.1 kappa the series (see _series); at zero width it is the
    Lorentzian, v^(n) = Re n! i^n / (1 - ix)^(n+1).  Wider: v = Re w(z)/peak
    at z = a(x + i), in real arithmetic in one fixed order (_voigt_orders),
    so a point gets the same bits alone as inside an array.  With Weideman's
    w at a = 0.42 (the reference cavity), v, v' and v'' stay within 3e-14 of
    their maxima of the wofz-based values for |x| <= 20, and within 2e-13 for
    |x| <= 60.
    """
    x = np.asarray(x, dtype=float)
    if profile._narrow:
        return [t / profile._voigt_peak for t in _series(profile, x, order)]
    a, shape = profile._a, x.shape
    x = x.ravel() * a                                   # Re z
    if x.size > _W_SCALAR_MAX:
        v = _voigt_orders(profile, x, *_faddeeva_blocks(x, a, order > 0), order)
    else:                                               # floats, point by point
        v = np.array([_voigt_orders(profile, u, *_faddeeva_parts(u, a), order)
                      for u in x.tolist()]).reshape(-1, order + 1).T
    return [t.reshape(shape) for t in v]


def _voigt_orders(profile: ResponseProfile, x, wr, wi, order: int) -> list:
    """[v, ..., v^(order)] at z = x + ia from w(z) = wr + i wi, floats or
    arrays alike: w' = -2zw + 2i/sqrt(pi) and w^(n) = -2z w^(n-1) - 2(n-1)
    w^(n-2) on (Re, Im) pairs; each order cancels more at large |z|."""
    a, w = profile._a, [(wr, wi)]
    if order:
        c, k = -2.0 * x, -2.0 * a                       # -2z = c + ik
        w.append((c * wr - k * wi, c * wi + k * wr + 2.0 * _W_RSQRTPI))
    for n in range(2, order + 1):
        (pr, pi), (qr, qi), m = w[-1], w[-2], 2.0 * (n - 1)
        w.append((c * pr - k * pi - m * qr, c * pi + k * pr - m * qi))
    scale = (1.0, a, a * a, a * a * a)
    return [s * t / profile._voigt_peak for s, (t, _) in zip(scale, w)]


def _bracketed_root(f, neg, pos, *data, x=None,
                    xtol=4.0 * np.finfo(float).eps):
    """Zeros of f between neg and pos (either side), elementwise, where
    f(neg) <= 0 <= f(pos).

    ``f(x, *data)`` returns (value, derivative); each array in ``data``
    holds one value per entry and reaches ``f`` sliced like ``x``, to the
    entries not yet converged.  Iteration starts at ``x``, else midway.  A
    Newton step is taken if it is below tolerance, or stays in the shrinking
    bracket and is under half the step before or follows a bisection (so a
    root next to a bracket end is not bisected toward); otherwise it
    bisects.  An entry is done once its step is within xtol*(1 + |x|).
    """
    shape = np.shape(neg)
    neg, pos = (np.array(e, dtype=float).ravel() for e in (neg, pos))
    x = 0.5 * (neg + pos) if x is None else np.array(x, dtype=float).ravel()
    step, bisected = pos - neg, np.ones(x.size, dtype=bool)
    out, live = x.copy(), np.arange(x.size)
    for _ in range(200):
        if not live.size:
            break
        fx, dfx = f(x, *data)
        tol = xtol * (1.0 + np.abs(x))
        below = fx < 0.0
        neg, pos = np.where(below, x, neg), np.where(below, pos, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - fx / dfx
        dx = np.abs(newton - x)
        fast = (((newton - neg) * (newton - pos) < 0.0)
                & ((dx < 0.5 * np.abs(step)) | bisected))
        bisected = ~fast & (dx > tol)
        new = np.where(bisected, 0.5 * (neg + pos), newton)
        x, step = new, new - x
        done = np.abs(step) <= tol
        if done.any():                          # converged entries leave
            out[live[done]] = x[done]
            keep = ~done
            live, x, step, neg, pos, bisected = (
                a[keep] for a in (live, x, step, neg, pos, bisected))
            data = tuple(a[keep] for a in data)
    out[live] = x
    return out.reshape(shape)


def steady_state_roots_lorentzian(delta0: float, beta: float
                                  ) -> tuple[tuple[float, bool], ...]:
    """All real roots of the Lorentzian response cubic at (delta0, beta),
    as (u, stable) pairs ascending in u = nbar/n_max, each u in (0, 1].

    Closed-form discriminant classification (trigonometric form for three
    real roots, Cardano otherwise) followed by one Newton polish per root;
    robust at near-fold double roots.
    """
    if not np.isfinite(delta0) or not np.isfinite(beta):
        raise ValueError("delta0 and beta must be finite")
    if beta == 0.0:
        return ((1.0 / (1.0 + delta0 ** 2), True),)

    a = beta ** 2
    b = 2.0 * delta0 * beta
    c = 1.0 + delta0 ** 2
    d = -1.0

    # depressed cubic t^3 + P t + Q with u = t - b/(3a)
    p = b / a
    q = c / a
    r = d / a
    shift = p / 3.0
    P = q - p * p / 3.0
    Q = 2.0 * p ** 3 / 27.0 - p * q / 3.0 + r

    disc = -4.0 * P ** 3 - 27.0 * Q ** 2
    if disc > 0.0:
        # three real roots (trig method); P < 0 guaranteed here
        m = 2.0 * np.sqrt(-P / 3.0)
        phi = np.arccos(np.clip(3.0 * Q / (P * m), -1.0, 1.0)) / 3.0
        ts = m * np.cos(phi - np.array([0.0, 1.0, 2.0]) * 2.0 * np.pi / 3.0)
        roots = ts - shift
    else:
        # one real root (plus a conjugate pair, or a double root at disc=0)
        if abs(Q) < 1e-300 and abs(P) < 1e-300:
            roots = np.array([-shift])
        else:
            s = np.sqrt(np.maximum(Q ** 2 / 4.0 + P ** 3 / 27.0, 0.0))
            t1 = np.cbrt(-Q / 2.0 + s) + np.cbrt(-Q / 2.0 - s)
            roots = np.array([t1 - shift])
            if disc == 0.0 and P != 0.0:
                roots = np.append(roots, 3.0 * Q / P - shift)  # double root

    # Newton polish against the original cubic; steps that do not reduce
    # the residual are rejected (keeps double roots where the closed form
    # put them instead of letting f' ~ 0 throw them away)
    def f(u):
        return ((a * u + b) * u + c) * u + d

    def fp(u):
        return (3.0 * a * u + 2.0 * b) * u + c

    polished = []
    for u in np.real(roots):
        for _ in range(3):
            slope = fp(u)
            if slope == 0.0:
                break
            u_new = u - f(u) / slope
            if abs(f(u_new)) >= abs(f(u)):
                break
            u = u_new
        polished.append(float(u))

    out = []
    stab_tol = 1e-6 * (1.0 + delta0 ** 2)
    for u in sorted(polished):
        if not (0.0 < u <= 1.0 + 1e-12):
            continue
        u = min(u, 1.0)
        if out and abs(u - out[-1][0]) < 3e-7:
            continue  # double root at a fold: report once
        stable = bool(fp(u) > stab_tol)   # d/du of the cubic > 0: stable
        out.append((u, stable))
    return tuple(out)


def _folds(profile: ResponseProfile, beta: float) -> list[tuple[float, float]]:
    """(x, F(x)) at the folds x_a < x_b < 0 for beta > 0; none below threshold."""
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    x_pk, slope = profile._slope_peak
    if beta * slope <= 1.0:
        return []

    # F' stops at its rounding floor, as F does in the scan.  From w' =
    # -2zw + 2i/sqrt(pi), v' sums terms up to |2zw| a/peak < 2a/peak, which
    # cancel far out: at beta 1e4 Newton jittered 65 floors out without them
    terms = 0.0 if profile._narrow else 2.0 * profile._a / profile._voigt_peak

    def dF(x):
        _, v1, v2 = _curve(profile, x, 2)
        r = 1.0 - beta * v1
        r[np.abs(r) <= _ULPS * (1.0 + beta * (np.abs(v1) + terms))] = 0.0
        return r, -beta * v2

    # v' rises on x < x_pk and integrates there to v(x_pk) <= 1, so
    # beta*v'(x_pk - beta) < 1: F' > 0 at both outer ends, F' < 0 at x_pk
    x = _bracketed_root(dF, [x_pk, x_pk], [x_pk - beta, 0.0])
    return list(zip(x.tolist(), (x - beta * _curve(profile, x, 0)[0]).tolist()))


def _segments(profile: ResponseProfile, beta: float) -> list:
    """Stable pieces of the curve, where F rises, as pairs of (x, F(x)) ends,
    ascending in x: one below threshold, else two that end at the folds."""
    ends = [(-np.inf, -np.inf), *_folds(profile, beta), (np.inf, np.inf)]
    return list(zip(ends[::2], ends[1::2]))


_TABLE, _ULPS = 129, 8.0 * np.finfo(float).eps     # see the module docstring


def _branches(profile: ResponseProfile, betas, grids) -> list[np.ndarray]:
    """The stable branches of each beta >= 0 over its delta0 grid: per beta
    a (segments, points) array of u, a row per stable segment ascending in
    x, inf where that segment has no root.  A segment is open at its fold
    ends, where F' = 0 is not stable.

    Every segment of every beta is solved at once: one table of F, one
    Newton solve with beta as per-entry data, one v at the entries that
    moved.  Each entry's arithmetic is the same as when solved alone.
    """
    w = 1.0 + profile.sigma / profile.kappa
    out, jobs = [], []      # a job: (branch row, mask, beta, delta0, table)
    for beta, grid in zip(betas, grids):
        segments = _segments(profile, beta)
        out.append(np.full((len(segments), grid.size), np.inf))
        for row, ((x_lo, f_lo), (x_hi, f_hi)) in zip(out[-1], segments):
            has = (f_lo < grid) & (grid < f_hi)
            d = grid[has]
            if not d.size:                      # no root on this segment
                continue
            # a root has u in (0, 1], so x in (delta0, delta0 + beta]
            lo, hi = max(x_lo, d.min()), min(x_hi, d.max() + beta)
            t = w * np.sinh(np.linspace(*np.arcsinh([lo / w, hi / w]), _TABLE))
            t[[0, -1]] = lo, hi
            jobs.append((row, has, beta, d, t))
    if not jobs:
        return out
    rows, masks, job_betas, ds, tables = zip(*jobs)
    t_all = np.concatenate(tables)
    F_all = t_all - np.repeat(job_betas, _TABLE) * _curve(profile, t_all, 0)[0]
    neg, pos, start = [], [], []
    for d, t, F in zip(ds, tables, F_all.reshape(-1, _TABLE)):   # F rises
        j = np.clip(np.searchsorted(F, d), 1, _TABLE - 1)
        # the cells either side keep a step past a root by a cell end in bounds
        neg.append(t[np.maximum(j - 2, 0)])
        pos.append(t[np.minimum(j + 1, _TABLE - 1)])
        start.append(np.interp(d, F, t))
    sizes = [d.size for d in ds]
    delta0, beta = np.concatenate(ds), np.repeat(job_betas, sizes)

    # g keeps each entry's last x and v: an entry that stops on a zero step
    # returns the x it was last evaluated at, and that v is its u
    seen_x, seen_v = np.full(delta0.shape, np.nan), np.empty(delta0.shape)

    def g(x, d, beta, i):
        v, v1 = _curve(profile, x, 1)
        seen_x[i], seen_v[i] = x, v
        r = x - beta * v - d
        r[np.abs(r) <= _ULPS * (np.abs(x) + beta * v + np.abs(d))] = 0.0
        return r, 1.0 - beta * v1

    x = _bracketed_root(g, np.concatenate(neg), np.concatenate(pos), delta0,
                        beta, np.arange(delta0.size), x=np.concatenate(start))
    moved = np.flatnonzero(x != seen_x)
    if moved.size:
        seen_v[moved] = _curve(profile, x[moved], 0)[0]
    for row, has, u in zip(rows, masks, np.split(seen_v, np.cumsum(sizes))):
        row[has] = u
    return out


def fold_points(profile: ResponseProfile, beta: float) -> list[tuple[float, float]]:
    """Fold (root-merging) points [(delta0, u), ...] for given beta.

    A fold is a zero of F'(x) = 1 - beta*v'(x), solved directly, so folds
    resolve arbitrarily close to threshold.  Empty below threshold in
    |beta|; beta < 0 mirrors (-delta0, -beta).  A non-finite beta raises
    ValueError.
    """
    sign = -1.0 if beta < 0.0 else 1.0
    return sorted((sign * f, float(_curve(profile, x, 0)[0]))
                  for x, f in _folds(profile, sign * beta))


def bistability_threshold(profile: ResponseProfile) -> float:
    """Smallest beta with folds, in closed form: 1/(kappa*max|V'|).

    8*sqrt(3)/9 for a Lorentzian; broadening raises it (the reference
    cavity's Voigt profile gives ~3.69).
    """
    return 1.0 / profile._slope_peak[1]


def lineshape_scan(profile: ResponseProfile, beta, delta0_grid,
                   direction: str = "up") -> np.ndarray:
    """Quasi-static branch-following scan over a detuning grid.

    The scan starts on the stable branch nearest the linear response and
    stays on it until that branch ends at a fold, then jumps to the other
    stable branch: the hysteretic jump.  ``direction`` "both" is the "up"
    scan followed by the "down" one over the same grid reversed; the
    branches are solved once for both.  Returns the (delta0, u) rows in
    traversal order, an (n, 2) float array; every u is within 1e-10 of
    V(kappa*(delta0 + beta*u)).

    ``beta`` may be a 1-d array of drives, scanned over the same grid:
    then the rows of drive k are ``[k]`` of a (len(beta), n, 2) array, the
    branches of every drive solved at once, each with the same bits as
    alone.  A non-finite beta, or a grid that is not 1-d and finite, raises
    ValueError before any compute.
    """
    if direction not in ("up", "down", "both"):
        raise ValueError("direction must be 'up', 'down' or 'both'")
    betas = np.asarray(beta, dtype=float)
    if betas.ndim > 1 or not np.isfinite(betas).all():
        raise ValueError("beta must be finite, a number or a 1-d array")
    grid = np.asarray(delta0_grid, dtype=float)
    if grid.ndim != 1 or not np.isfinite(grid).all():
        raise ValueError("delta0_grid must be a 1-d array of finite values")
    grid = np.sort(grid)
    up, down = slice(None), slice(None, None, -1)
    runs = {"up": [up], "down": [down], "both": [up, down]}[direction]
    out = np.empty((betas.size, len(runs) * grid.size, 2))
    if grid.size:
        # the stable branches (at most two) of each drive, inf where one
        # has no root.  V is even, so beta < 0 mirrors (-delta0, -beta)
        signs = np.where(betas.ravel() < 0.0, -1.0, 1.0)
        branches = _branches(profile, signs * betas.ravel(),
                             [sign * grid for sign in signs])
        for scan, b_all in zip(out, branches):
            for rows, run in zip(np.split(scan, len(runs)), runs):
                pts, b = grid[run], b_all[:, run]
                u_lin = profile_value(profile, profile.kappa * pts[0])
                k = np.argmin(np.abs(b[:, 0] - u_lin))
                # in the sweep's direction a branch's roots end only at its
                # fold
                rows[:, 0] = pts
                rows[:, 1] = np.where(np.isfinite(b[k]), b[k], b[-1 - k])
    return out.reshape(betas.shape + out.shape[1:])
