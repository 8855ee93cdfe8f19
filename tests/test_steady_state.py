import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import wofz

import cavkerr
from cavkerr import (
    ResponseProfile,
    bistability_threshold,
    cli,
    fold_points,
    lineshape_scan,
    params,
    profile_value,
    steady_state,
    steady_state_roots_lorentzian,
)
from helpers import stable_roots

TWO_PI = 2 * np.pi
KAPPA = TWO_PI * 0.66e6
SIGMA = TWO_PI * 1.1e6
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def brute_force_root_count(beta, delta0, n=100_000):
    """Independent oracle: dense sign scan of u - 1/(1+(d0+beta*u)^2)."""
    u = np.linspace(1e-9, 1.0, n)
    g = u * (1.0 + (delta0 + beta * u) ** 2) - 1.0
    signs = np.sign(g)
    crossings = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    roots = []
    for i in crossings:
        lo, hi = u[i], u[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (g[i] < 0) == (mid * (1 + (delta0 + beta * mid) ** 2) - 1.0 < 0):
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


class TestProfileValue:
    def test_lorentzian_half_width(self):
        p = ResponseProfile(KAPPA)
        assert profile_value(p, KAPPA) == pytest.approx(0.5, rel=1e-14)

    def test_lorentzian_peak(self):
        p = ResponseProfile(KAPPA)
        assert profile_value(p, 0.0) == 1.0

    def test_voigt_dual_method_oracle(self):
        # complex-error-function form vs direct numerical quadrature of the
        # Lorentzian (x) Gaussian convolution
        p = ResponseProfile(KAPPA, SIGMA)

        def conv(delta):
            def integrand(t):
                lor = (KAPPA / np.pi) / (KAPPA**2 + (delta - t) ** 2)
                gau = np.exp(-t**2 / (2 * SIGMA**2)) / (SIGMA * np.sqrt(TWO_PI))
                return lor * gau
            lo, hi = -14 * SIGMA, 14 * SIGMA
            total = 0.0
            for a, b in ((lo, min(max(delta, lo), hi)),
                         (min(max(delta, lo), hi), hi)):
                v, _ = quad(integrand, a, b, limit=400, epsabs=1e-18,
                            epsrel=1e-13)
                total += v
            return total

        peak = conv(0.0)
        for d_mhz in (0.3, 1.1, 2.0, 5.0, 20.0):   # up to ~30 half-linewidths
            delta = TWO_PI * d_mhz * 1e6
            assert profile_value(p, delta) == pytest.approx(
                conv(delta) / peak, abs=1e-8)

    def test_voigt_properties(self):
        p = ResponseProfile(KAPPA, SIGMA)
        deltas = np.linspace(0, 50 * KAPPA, 200)
        vals = profile_value(p, deltas)
        assert vals[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(vals > 0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0)          # monotone falloff
        assert profile_value(p, -3 * KAPPA) == pytest.approx(
            profile_value(p, 3 * KAPPA), rel=1e-12)   # even

    def test_a_point_alone_gets_the_bits_it_gets_in_an_array(self):
        # dynamics._integrate evaluates scalars, _one_way_exact arrays; the
        # Lorentzian's old 1/(1 + (delta/kappa)^2) rounded (delta/kappa)^2
        # differently for a scalar at 2 of these 5000 points
        rng = np.random.default_rng(3)
        for p in (ResponseProfile(KAPPA),
                  ResponseProfile(KAPPA, 0.05 * KAPPA),
                  ResponseProfile(KAPPA, SIGMA)):
            delta = KAPPA * rng.uniform(-50.0, 50.0, 5000)
            alone = [profile_value(p, d) for d in delta.tolist()]
            assert all(type(v) is float for v in alone)
            assert np.array_equal(np.array(alone).view(np.int64),
                                  profile_value(p, delta).view(np.int64))

    def test_every_curve_order_of_a_point_alone_is_its_bits_in_an_array(self):
        # one point takes the float path, 5000 the blocks; complex NumPy
        # products rounded v'' and v''' differently alone at 2299 and 3647
        # of these points on the reference Voigt
        rng = np.random.default_rng(3)
        for p in (ResponseProfile(KAPPA),
                  ResponseProfile(KAPPA, 0.05 * KAPPA),
                  ResponseProfile(KAPPA, SIGMA)):
            x = rng.uniform(-50.0, 50.0, 5000)
            whole = steady_state._curve(p, x, 3)
            alone = np.array([steady_state._curve(p, v, 3)
                              for v in x.tolist()]).T
            for n in range(4):
                assert np.array_equal(alone[n].view(np.int64),
                                      whole[n].view(np.int64)), (p, n)

    def test_zero_sigma_is_the_lorentzian(self):
        # a Voigt needs sigma > 0: at 0 the profile is the Lorentzian, and
        # below it the width is rejected by name
        assert ResponseProfile(KAPPA, 0.0) == ResponseProfile(KAPPA)
        assert ResponseProfile(KAPPA, 0.0).kind == "lorentzian"
        assert ResponseProfile(KAPPA, SIGMA).kind == "voigt"
        with pytest.raises(ValueError, match="sigma"):
            ResponseProfile(KAPPA, -SIGMA)

    @pytest.mark.parametrize("kappa, sigma, name", [
        (float("nan"), 0.0, "kappa"), (float("inf"), 0.0, "kappa"),
        (0.0, 0.0, "kappa"), (KAPPA, float("inf"), "sigma"),
        (KAPPA, float("nan"), "sigma"), (KAPPA, -SIGMA, "sigma")])
    def test_rejects_nonfinite_or_nonpositive_widths(self, kappa, sigma, name):
        with pytest.raises(ValueError, match=name):
            ResponseProfile(kappa, sigma)


class TestFaddeeva:
    """Weideman's expansion against scipy.special.wofz, the independent oracle."""

    def test_matches_wofz(self):
        for y in np.geomspace(0.05, 50.0, 40):
            x = np.linspace(-60.0 * y, 60.0 * y, 1201)
            re, im = steady_state._faddeeva_blocks(x, y)
            w, ref = re + 1j * im, wofz(x + 1j * y)
            assert np.max(np.abs(w.real - ref.real) / ref.real) <= 5e-13
            assert np.max(np.abs(w - ref) / np.abs(ref)) <= 5e-13

    def test_curve_derivatives_match_wofz(self):
        # v, v', v'' at the reference cavity's a = kappa/(sigma sqrt 2)
        p = ResponseProfile(KAPPA, SIGMA)
        a = KAPPA / (SIGMA * np.sqrt(2.0))
        x = np.linspace(-20.0, 20.0, 2001)
        z = a * (x + 1j)
        w = wofz(z)
        w1 = -2.0 * z * w + 2j / np.sqrt(np.pi)
        peak = wofz(1j * a).real
        ref = [w.real, (a * w1).real, (a * a * (-2.0 * z * w1 - 2.0 * w)).real]
        for got, exp in zip(steady_state._curve(p, x, 2), ref):
            exp = exp / peak
            assert np.max(np.abs(got - exp)) <= 2e-13 * np.max(np.abs(exp))

    @pytest.mark.parametrize("rows, n", [(9, steady_state._W_BLOCK),
                                         (2, 3603), (9, 33)])
    def test_buffers_start_on_cache_lines(self, rows, n):
        # the kernel's speed must not follow the heap's 16-byte alignment
        buf = steady_state._cache_lines(rows, n)
        assert buf.shape == (rows, n)
        assert all(row.flags.c_contiguous for row in buf)
        assert [row.__array_interface__["data"][0] % 64 for row in buf] \
            == [0] * rows

    @pytest.mark.parametrize("size", [steady_state._W_BLOCK - 1,
                                      steady_state._W_BLOCK + 1,
                                      2 * steady_state._W_BLOCK + 1])
    def test_scalar_and_array_paths_bit_identical(self, size):
        # the array pass carries its buffers from block to block; each part
        # of each point must be the one-point path's, bit for bit
        rng = np.random.default_rng(size)
        x = rng.uniform(-40.0, 40.0, size)
        for y in (float(rng.uniform(0.05, 5.0)), rng.uniform(0.05, 5.0, size)):
            ys = np.broadcast_to(y, x.shape).tolist()
            alone = [steady_state._faddeeva_parts(u, v)
                     for u, v in zip(x.tolist(), ys)]
            re, im = steady_state._faddeeva_blocks(x, y)
            re_only, none = steady_state._faddeeva_blocks(x, y, both=False)
            assert none is None
            exp_re, exp_im = np.array(alone).T
            for got, exp in ((re, exp_re), (im, exp_im), (re_only, exp_re)):
                assert np.array_equal(got.view(np.int64), exp.view(np.int64))


class TestZeroWidthSeries:
    def test_series_at_zero_width_is_the_lorentzian(self):
        # the closed form _curve took for sigma = 0 before the series did
        p = ResponseProfile(KAPPA)
        x = np.random.default_rng(17).uniform(-50.0, 50.0, 100_000)
        r = 1.0 / (1.0 - 1j * x)
        oracle = [t.real for t in (r, 1j * r * r, -2.0 * r ** 3, -6j * r ** 4)]
        for got in (steady_state._series(p, x, 3),
                    steady_state._curve(p, x, 3)):
            for n in range(4):
                assert np.array_equal(got[n].view(np.int64),
                                      oracle[n].view(np.int64)), n

    def test_zero_width_sums_one_term_per_order(self, monkeypatch):
        # math.prod is called once per term summed
        lorentzian = ResponseProfile(KAPPA)
        narrow = ResponseProfile(KAPPA, 0.05 * KAPPA)
        calls = []

        def counted(terms):
            calls.append(1)
            return math.prod(terms)

        monkeypatch.setattr(steady_state, "math",
                            types.SimpleNamespace(prod=counted))
        x = np.linspace(-5.0, 5.0, 11)
        steady_state._series(lorentzian, x, 3)
        assert len(calls) == 4
        calls.clear()
        steady_state._series(narrow, x, 0)
        assert len(calls) == steady_state._SERIES_TERMS


class TestLorentzianRoots:
    def test_bare_cavity_on_resonance(self):
        sol = steady_state_roots_lorentzian(0.0, 0.0)
        assert sol == ((1.0, True),)

    def test_exact_fold_factorization(self):
        # beta=2, delta0=-2: cubic factors as (u-1)(2u-1)^2
        sol = steady_state_roots_lorentzian(-2.0, 2.0)
        us = [u for u, _ in sol]
        assert len(us) == 2
        assert us[0] == pytest.approx(0.5, abs=1e-6)
        assert us[1] == pytest.approx(1.0, abs=1e-12)
        assert sol[1][1] is True

    def test_single_root_instance(self):
        # frozen from a bracketed root-find on 4u^3 - 4u^2 + 2u - 1
        sol = steady_state_roots_lorentzian(-1.0, 2.0)
        assert len(sol) == 1
        assert sol[0][0] == pytest.approx(0.7718445063460382, abs=1e-10)
        assert sol[0][1] is True

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            beta = rng.uniform(0.0, 12.0)
            delta0 = rng.uniform(-15.0, 5.0)
            sol = steady_state_roots_lorentzian(delta0, beta)
            expected = brute_force_root_count(beta, delta0, n=20_000)
            assert len(sol) == len(expected)
            for (u, _), ue in zip(sol, expected):
                assert u == pytest.approx(ue, abs=1e-6)

    def test_three_root_structure(self):
        sol = steady_state_roots_lorentzian(-3.0, 3.0)
        assert len(sol) == 3
        stable = [s for _, s in sol]
        assert stable == [True, False, True]   # outer stable, middle unstable

    @given(st.floats(min_value=0.01, max_value=12.0),
           st.floats(min_value=-15.0, max_value=5.0))
    @settings(max_examples=200, deadline=None)
    def test_root_count_one_or_three(self, beta, delta0):
        sol = steady_state_roots_lorentzian(delta0, beta)
        assert len(sol) in (1, 2, 3)    # 2 only at fold boundaries
        us = [u for u, _ in sol]
        assert all(0 < u <= 1 for u in us)
        assert us == sorted(us)
        # residual of the defining cubic
        for u in us:
            res = u * (1 + (delta0 + beta * u) ** 2) - 1.0
            assert abs(res) < 1e-8

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=-12.0, max_value=12.0))
    @settings(max_examples=200, deadline=None)
    def test_joint_flip_symmetry(self, beta, delta0):
        a = steady_state_roots_lorentzian(delta0, beta)
        b = steady_state_roots_lorentzian(-delta0, -beta)
        assert len(a) == len(b)
        for (ua, sa), (ub, sb) in zip(a, b):
            assert ua == pytest.approx(ub, rel=1e-9)
            assert sa == sb


def cubic_stable_roots(delta0, beta):
    """The stable roots u of the Lorentzian cubic, ascending."""
    sol = steady_state_roots_lorentzian(delta0, beta)
    return tuple(u for u, s in sol if s)


class TestStableRoots:
    def test_matches_cubic_for_lorentzian(self):
        p = ResponseProfile(KAPPA)
        rng = np.random.default_rng(11)
        for _ in range(100):
            beta = rng.uniform(0.0, 12.0)
            delta0 = rng.uniform(-15.0, 5.0)
            a = cubic_stable_roots(delta0, beta)
            b = stable_roots(p, delta0, beta)
            assert len(a) == len(b)
            for ua, ub in zip(a, b):
                assert ub == pytest.approx(ua, abs=1e-8)

    def test_beta_zero_is_linear_response(self):
        p = ResponseProfile(KAPPA, SIGMA)
        assert stable_roots(p, 2.5, 0.0) == [steady_state._curve(p, 2.5, 0)[0]]

    def test_voigt_beta_9p5_has_bistable_region(self):
        p = ResponseProfile(KAPPA, SIGMA)
        folds = fold_points(p, 9.5)
        assert len(folds) == 2
        d_lo, d_hi = sorted(f[0] for f in folds)
        mid = 0.5 * (d_lo + d_hi)
        assert len(stable_roots(p, mid, 9.5)) == 2

    def test_residuals(self):
        p = ResponseProfile(KAPPA, SIGMA)
        for d0 in (-9.0, -7.0, -2.0):
            for u in stable_roots(p, d0, 9.5):
                res = u - profile_value(p, KAPPA * (d0 + 9.5 * u))
                assert abs(res) < 1e-10


class TestFoldPoints:
    def test_exact_instance_and_partner(self):
        p = ResponseProfile(KAPPA)
        folds = fold_points(p, 2.0)
        assert len(folds) == 2
        # frozen from 16u^3(1-u) = 1 and delta0 = -2u - sqrt(1/u - 1)
        assert folds[1][0] == pytest.approx(-2.0, abs=1e-9)
        assert folds[1][1] == pytest.approx(0.5, abs=1e-9)
        assert folds[0][0] == pytest.approx(-2.134884497736246, abs=1e-8)
        assert folds[0][1] == pytest.approx(0.9196433776070801, abs=1e-8)

    def test_below_threshold_empty(self):
        p = ResponseProfile(KAPPA)
        assert fold_points(p, 1.0) == []

    def test_folds_merge_at_threshold(self):
        p = ResponseProfile(KAPPA)
        thr = 8 * np.sqrt(3) / 9
        near = fold_points(p, thr * (1 + 1e-4))
        far = fold_points(p, thr * 1.5)
        assert len(near) == 2
        gap_near = abs(near[0][0] - near[1][0])
        gap_far = abs(far[0][0] - far[1][0])
        assert gap_near < 0.05 * gap_far

    def test_large_beta_folds_stop_at_the_rounding_floor(self, monkeypatch):
        # far out the terms of v' cancel, and F' jittered above a floor of
        # 1 + beta|v'| for 55 point evaluations at beta 1e4 (13 at beta 9.5)
        p, beta = ResponseProfile(KAPPA, SIGMA), 1e4
        p._slope_peak                       # cached before counting
        curve, points = steady_state._curve, []

        def counted(profile, x, order):
            points.append(np.size(x))
            return curve(profile, x, order)

        monkeypatch.setattr(steady_state, "_curve", counted)
        folds = steady_state._folds(p, beta)
        assert len(folds) == 2 and sum(points) <= 30
        _, v1 = curve(p, np.array([x for x, _ in folds]), 1)
        terms = np.abs(v1) + 2.0 * p._a / p._voigt_peak
        assert np.all(np.abs(1.0 - beta * v1)
                      <= steady_state._ULPS * (1.0 + beta * terms))

    def test_fold_is_double_root(self):
        # at a fold detuning, the two merging roots coincide
        p = ResponseProfile(KAPPA)
        for d0, u in fold_points(p, 3.0):
            res = u * (1 + (d0 + 3.0 * u) ** 2) - 1.0
            slope = 1 + d0**2 + 4 * 3.0 * d0 * u + 3 * 9.0 * u**2
            assert abs(res) < 1e-9
            assert abs(slope) < 1e-5

    @pytest.mark.parametrize("profile", [ResponseProfile(KAPPA),
                                         ResponseProfile(KAPPA, SIGMA)])
    def test_negative_beta_mirrors_the_folds(self, profile):
        # V is even: the folds of -beta are those of beta at -delta0, bit
        # for bit, and ascending in delta0 again
        thr = bistability_threshold(profile)
        for b in (thr * (1 + 1e-4), 2.0 * thr, 9.5, 50.0):
            folds = fold_points(profile, b)
            assert len(folds) == 2
            assert fold_points(profile, -b) == [(-d, u)
                                                for d, u in reversed(folds)]
        assert fold_points(profile, 0.0) == []
        assert fold_points(profile, -thr * (1 - 1e-9)) == []


class TestSlopePeak:
    @pytest.mark.parametrize("ratio", [0.1, 1.0, 1.67, 10.0])
    def test_third_derivative_is_the_slope_of_the_second(self, ratio):
        # v''' against a central difference of v'', both profile kinds
        h = 1e-4
        x = np.linspace(-8.0, 8.0, 161)
        for p in (ResponseProfile(KAPPA, ratio * KAPPA),
                  ResponseProfile(KAPPA)):
            v3 = steady_state._curve(p, x, 3)[3]
            diff = (steady_state._curve(p, x + h, 2)[2]
                    - steady_state._curve(p, x - h, 2)[2]) / (2 * h)
            assert np.max(np.abs(v3 - diff)) <= 1e-6 * np.max(np.abs(v3))

    @pytest.mark.parametrize("ratio", [0.05, 0.1, 0.178, 0.316, 0.562, 1.0,
                                       1.67, 10.0, 50.0])
    def test_voigt_slope_peak_by_newton(self, ratio, monkeypatch):
        # the maximum of v' on x < 0, against a refined dense grid, found
        # in a few curve evaluations (bisecting v'' took 55), also where
        # rounding in v'' keeps Newton from 4 ulp in x (0.178 - 0.562)
        curve, calls = steady_state._curve, []

        def counted(*args):
            calls.append(args[2])
            return curve(*args)

        monkeypatch.setattr(steady_state, "_curve", counted)
        p = ResponseProfile(KAPPA, ratio * KAPPA)
        x_pk, slope = p._slope_peak
        assert len(calls) <= 15
        x = np.linspace(-10.0 * (1.0 + ratio), 0.0, 20001)
        i = np.argmax(curve(p, x, 1)[1])
        fine = np.linspace(x[i - 1], x[i + 1], 20001)
        v1 = curve(p, fine, 1)[1]
        j = np.argmax(v1)
        # v' is flat at its peak, so rounding in v' moves the grid maximum
        # by up to 2e-7 at small sigma
        assert x_pk == pytest.approx(fine[j], abs=1e-6)
        assert slope == pytest.approx(v1[j], rel=1e-12)


class TestBistabilityThreshold:
    def test_lorentzian_exact(self):
        p = ResponseProfile(KAPPA)
        assert abs(bistability_threshold(p) - 8 * np.sqrt(3) / 9) < 1e-6

    def test_voigt_reference_value(self):
        p = ResponseProfile(KAPPA, SIGMA)
        assert bistability_threshold(p) == pytest.approx(3.7, abs=0.1)

    def test_voigt_degenerates_to_lorentzian(self):
        thr = [bistability_threshold(ResponseProfile(KAPPA, s * KAPPA))
               for s in (0.5, 0.1, 0.02)]
        lor = 8 * np.sqrt(3) / 9
        assert all(a > b for a, b in zip(thr, thr[1:]))   # shrinking sigma
        assert thr[-1] == pytest.approx(lor, rel=2e-3)

    @pytest.mark.parametrize("ratio", [1e-2, 1e-4, 1e-8, 1e-300])
    def test_narrow_voigt_tends_to_the_lorentzian(self, ratio):
        # the Gaussian raises the threshold by about 2.9 (sigma/kappa)^2;
        # w itself lost v' to cancellation here (1.5868 at 1e-4) and
        # overflowed at 1e-300
        p = ResponseProfile(KAPPA, ratio * KAPPA)
        lor = ResponseProfile(KAPPA)
        thr, thr_lor = bistability_threshold(p), bistability_threshold(lor)
        assert -1e-15 <= thr / thr_lor - 1 <= 3 * ratio ** 2 + 1e-15
        for (d, u), (d_lor, u_lor) in zip(fold_points(p, 7.0),
                                          fold_points(lor, 7.0)):
            assert d == pytest.approx(d_lor, rel=10 * ratio ** 2 + 1e-12)
            assert u == pytest.approx(u_lor, rel=10 * ratio ** 2 + 1e-12)

    def test_series_meets_faddeeva_at_the_crossover(self):
        # sigma = 0.1 kappa takes the series, a hair above takes w
        series = ResponseProfile(KAPPA, 0.1 * KAPPA)
        faddeeva = ResponseProfile(KAPPA, 0.1 * KAPPA * (1 + 1e-15))
        assert series._narrow and not faddeeva._narrow
        assert bistability_threshold(series) == pytest.approx(
            bistability_threshold(faddeeva), rel=1e-12)
        d = np.linspace(-30, 30, 601) * KAPPA
        assert np.max(np.abs(profile_value(series, d)
                             - profile_value(faddeeva, d))) < 1e-13

    def test_threshold_independent_of_kappa_scale(self):
        a = bistability_threshold(ResponseProfile(1.0))
        b = bistability_threshold(ResponseProfile(1e7))
        assert a == pytest.approx(b, rel=1e-6)


class TestLineshapeScan:
    def test_below_threshold_scans_identical(self):
        p = ResponseProfile(KAPPA)
        grid = np.linspace(-8, 4, 400)
        up = lineshape_scan(p, 1.0, grid, "up")
        down = lineshape_scan(p, 1.0, grid, "down")
        u_up = {d: u for d, u in up}
        u_down = {d: u for d, u in down}
        for d in u_up:
            assert u_up[d] == pytest.approx(u_down[d], abs=1e-9)

    def test_scans_jump_at_the_folds(self):
        # Lorentzian beta=2: the upper branch terminates at the fold
        # delta0 = -2.1349 (down-sweep drops there); the lower branch
        # terminates at delta0 = -2 (up-sweep jumps there)
        p = ResponseProfile(KAPPA)
        grid = np.linspace(-4, 0, 801)
        step = grid[1] - grid[0]

        def jump_location(scan):
            ds = np.array([d for d, _ in scan])
            us = np.array([u for _, u in scan])
            jumps = np.nonzero(np.abs(np.diff(us)) > 0.2)[0]
            assert len(jumps) == 1
            return ds[jumps[0]]

        d_down = jump_location(lineshape_scan(p, 2.0, grid, "down"))
        assert d_down == pytest.approx(-2.134884497736246, abs=2 * step)
        d_up = jump_location(lineshape_scan(p, 2.0, grid, "up"))
        assert d_up == pytest.approx(-2.0, abs=2 * step)

    def test_hysteresis_area(self):
        p = ResponseProfile(KAPPA)
        grid = np.linspace(-8, 2, 1000)
        for beta, expect_area in ((1.0, False), (3.0, True)):
            up = np.array([u for _, u in lineshape_scan(p, beta, grid, "up")])
            down = np.array([u for _, u in lineshape_scan(p, beta, grid, "down")])[::-1]
            area = np.trapezoid(np.abs(up - down), grid)
            assert area >= 0
            assert (area > 1e-3) == expect_area

    @pytest.mark.parametrize("points", [7, 0])
    def test_rows_are_one_float_array(self, points):
        # (delta0, u) rows in traversal order, as one (n, 2) float64 array
        p = ResponseProfile(KAPPA, SIGMA)
        grid = np.linspace(-12.0, -3.0, points)
        up, down, both = (lineshape_scan(p, 9.5, grid, direction)
                          for direction in ("up", "down", "both"))
        for scan, rows in ((up, points), (down, points), (both, 2 * points)):
            assert isinstance(scan, np.ndarray) and scan.dtype == np.float64
            assert scan.shape == (rows, 2)
        assert np.array_equal(up[:, 0], grid)
        assert np.array_equal(down[:, 0], grid[::-1])
        assert np.array_equal(both, np.concatenate([up, down]))

    def test_toward_resonance_sweep_attains_higher_peak(self):
        # Voigt beta=9.5: the Kerr pull puts the dressed resonance near
        # delta0 = -beta, so the down-sweep approaches it from the
        # bare-cavity side and rides it to the top; the opposite sweep
        # jumps past it from the lower branch (hysteresis hallmark)
        p = ResponseProfile(KAPPA, SIGMA)
        grid = np.linspace(-14, -2, 1200)
        toward = lineshape_scan(p, 9.5, grid, "down")
        away = lineshape_scan(p, 9.5, grid, "up")
        assert max(u for _, u in toward) > max(u for _, u in away) + 0.1


def cubic_oracle_scan(beta, grid):
    """Branch following driven by the closed-form cubic: the stable root
    nearest the previous pick, starting from the one nearest the linear
    response.  On a grid this fine it jumps only at the folds, as the scan
    does; fold_rule_oracle covers coarse grids."""
    out, u_prev = [], None
    for d0 in grid:
        sol = steady_state_roots_lorentzian(float(d0), beta)
        stable = (tuple(u for u, s in sol if s)
                  or tuple(u for u, _ in sol))
        ref = 1.0 / (1.0 + d0 ** 2) if u_prev is None else u_prev
        u_prev = min(stable, key=lambda u: abs(u - ref))
        out.append(u_prev)
    return np.array(out)


def fold_rule_oracle(beta, traversal):
    """u along a run that starts outside the bistable band, from the
    closed-form cubic.  Outside the band there is one stable root.  Inside
    it, for beta > 0, a run that enters from below keeps the smallest stable
    root and one that enters from above the largest; beta < 0 mirrors
    (-delta0, -beta), so there the two sides swap."""
    smallest = (traversal[-1] > traversal[0]) == (beta > 0)
    out = []
    for d0 in traversal:
        stable = [u for u, s in steady_state_roots_lorentzian(float(d0), beta)
                  if s]
        assert out or len(stable) == 1         # the run starts outside
        out.append(min(stable) if smallest else max(stable))
    return np.array(out)


def jump_indices(us):
    return np.nonzero(np.abs(np.diff(us)) > 0.05)[0].tolist()


class TestParametricCore:
    @pytest.mark.parametrize("beta, grid", [
        (2.0, np.linspace(-4.0, 0.0, 801)),
        (9.5, np.linspace(-14.0, 2.0, 1601)),
    ])
    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_lorentzian_scan_matches_cubic_branch_following(self, beta, grid,
                                                            direction):
        p = ResponseProfile(KAPPA)
        scan = lineshape_scan(p, beta, grid, direction)
        traversal = grid if direction == "up" else grid[::-1]
        assert [d for d, _ in scan] == traversal.tolist()
        us = np.array([u for _, u in scan])
        expected = cubic_oracle_scan(beta, traversal)
        assert np.max(np.abs(us - expected)) <= 1e-12
        assert jump_indices(us) == jump_indices(expected)
        assert len(jump_indices(us)) == 1

    @pytest.mark.parametrize("profile", [ResponseProfile(KAPPA),
                                         ResponseProfile(KAPPA, SIGMA)])
    def test_closed_form_threshold_brackets_the_folds(self, profile):
        thr = bistability_threshold(profile)
        assert fold_points(profile, thr * (1 - 1e-9)) == []
        assert len(fold_points(profile, thr * (1 + 1e-9))) == 2

    def test_lorentzian_threshold_to_round_off(self):
        thr = bistability_threshold(ResponseProfile(KAPPA))
        assert thr == pytest.approx(8 * np.sqrt(3) / 9, rel=1e-14)

    def test_voigt_scan_residuals(self):
        p = ResponseProfile(KAPPA, SIGMA)
        grid = np.linspace(-16.0, 4.0, 1500)
        for direction in ("up", "down"):
            scan = np.array(lineshape_scan(p, 9.5, grid, direction))
            d0, u = scan[:, 0], scan[:, 1]
            res = np.abs(u - profile_value(p, KAPPA * (d0 + 9.5 * u)))
            assert np.max(res) <= 1e-10

    @pytest.mark.parametrize("profile", [ResponseProfile(KAPPA),
                                         ResponseProfile(KAPPA, SIGMA)])
    def test_negative_beta_mirrors_positive(self, profile):
        grid = np.linspace(-3.0, 15.0, 600)
        for direction, flipped in (("up", "down"), ("down", "up")):
            neg = lineshape_scan(profile, -9.5, grid, direction)
            pos = lineshape_scan(profile, 9.5, -grid, flipped)
            assert np.array_equal(neg, [(-d, u) for d, u in pos])
        # V is even: the roots at (-d0, 9.5) solve the beta = -9.5 equation
        # at d0, and a one-point scan picks one of them
        for d0 in (-2.0, 6.0, 7.5, 9.0, 12.0):
            us = stable_roots(profile, -d0, 9.5)
            for u in us:
                res = u - profile_value(profile, KAPPA * (d0 - 9.5 * u))
                assert abs(res) <= 1e-10
            [(_, u)] = lineshape_scan(profile, -9.5, [d0])
            assert u in us

    def test_negative_beta_matches_cubic(self):
        p = ResponseProfile(KAPPA)
        rng = np.random.default_rng(5)
        for _ in range(100):
            beta = -rng.uniform(0.0, 12.0)
            delta0 = rng.uniform(-5.0, 15.0)
            a = cubic_stable_roots(delta0, beta)
            b = stable_roots(p, delta0, beta)
            assert len(a) == len(b)
            for ua, ub in zip(a, b):
                assert ub == pytest.approx(ua, abs=1e-8)


class TestFoldRule:
    # a run leaves its branch only where the branch ends at a fold; a walk
    # to the nearest root jumps before the fold on a coarse grid
    @pytest.mark.parametrize("beta, grid, direction", [
        # folds at delta0 = -10.025 and -3.878: a down run enters the band
        # from above, so at -6 it still rides the upper branch
        (10.0, [-6.0, -2.0], "down"),
        (-10.0, [2.0, 6.0], "up")])             # the mirror image
    def test_two_point_run_keeps_the_branch_it_entered_on(self, beta, grid,
                                                          direction):
        scan = lineshape_scan(ResponseProfile(1.0), beta, grid, direction)
        expected = fold_rule_oracle(beta, scan[:, 0])
        assert np.max(np.abs(scan[:, 1] - expected)) <= 1e-12
        # the cubic's upper stable root at |delta0| = 6 (the lower is 0.0298)
        assert scan[1, 1] == pytest.approx(0.6701562118716424, abs=1e-12)

    def test_coarse_grids_across_the_band(self):
        # five points from outside the band to anywhere past its near fold,
        # either way and for either sign of beta
        p = ResponseProfile(1.0)
        rng = np.random.default_rng(23)
        for _ in range(200):
            beta = rng.uniform(2.0, 12.0)
            (d_lo, _), (d_hi, _) = fold_points(p, beta)
            grid = np.linspace(d_lo - rng.uniform(0.05, 3.0),
                               rng.uniform(d_lo, d_hi + 3.0), 5)
            direction = "up"
            if rng.integers(2):                 # enter from above instead
                grid, direction = d_lo + d_hi - grid, "down"
            if rng.integers(2):
                beta, grid = -beta, -grid
                direction = {"up": "down", "down": "up"}[direction]
            scan = lineshape_scan(p, beta, grid, direction)
            expected = fold_rule_oracle(beta, scan[:, 0])
            assert np.max(np.abs(scan[:, 1] - expected)) <= 1e-12

    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    @pytest.mark.parametrize("profile", [ResponseProfile(KAPPA),
                                         ResponseProfile(KAPPA, SIGMA)])
    def test_nonfinite_beta_rejected(self, profile, beta):
        for scan in (lambda: lineshape_scan(profile, beta, [-5.0, 0.0]),
                     lambda: lineshape_scan(profile, -beta, [], "both"),
                     lambda: fold_points(profile, beta),
                     lambda: fold_points(profile, -beta)):
            with pytest.raises(ValueError, match="beta must be finite"):
                scan()


def config_scans(name):
    """(profile, [(beta, reduced detuning grid), ...]) of a shipped sweep or
    lineshape config, as the CLI computes them."""
    cfg = cli.load_config(CONFIGS / f"{name}.yaml")
    system, dn = cli._system(cfg)
    kappa = system.cavity.kappa
    profile = ResponseProfile.from_cavity(system.cavity)
    if cfg["scenario"] == "sweep":
        sec = cli._resolve(cfg, "sweep")
        betas = [system.beta(delta_n=dn)]
    else:
        sec = cli._resolve(cfg, "lineshape")
        betas = [params.beta_parameter(dn, system.kerr_coefficient(), n, kappa)
                 for n in sec["n_max"]]
    grid = (np.linspace(sec["delta_pc_start"], sec["delta_pc_stop"],
                        sec["points"]) - dn) / kappa
    return profile, [(beta, grid) for beta in betas]


class SolverWork:
    """Records each _branches call's root solve: its _bracketed_root calls,
    its _curve calls (all of them, and the size of each Newton evaluation,
    order 1, one a iteration), and not the fold solves of _segments."""

    def __init__(self, monkeypatch):
        self.solves = []
        curve, branches = steady_state._curve, steady_state._branches
        root, segments = steady_state._bracketed_root, steady_state._segments

        def counting():
            """The solve being recorded: None outside _branches and inside
            its _segments."""
            solve = self.solves[-1] if self.solves else None
            return solve if solve and solve["open"] else None

        def counted_curve(p, x, order):
            if solve := counting():
                solve["calls"] += 1
                if order == 1:
                    solve["newton"].append(np.size(x))
            return curve(p, x, order)

        def counted_root(*args, **kwargs):
            if solve := counting():
                solve["roots"] += 1
            return root(*args, **kwargs)

        def uncounted_segments(*args):
            solve = counting()
            if solve:
                solve["open"] = False
            try:
                return segments(*args)
            finally:
                if solve:
                    solve["open"] = True

        def counted_branches(*args):
            self.solves.append({"open": True, "calls": 0, "roots": 0,
                                "newton": []})
            try:
                return branches(*args)
            finally:
                self.solves[-1]["open"] = False

        monkeypatch.setattr(steady_state, "_curve", counted_curve)
        monkeypatch.setattr(steady_state, "_bracketed_root", counted_root)
        monkeypatch.setattr(steady_state, "_segments", uncounted_segments)
        monkeypatch.setattr(steady_state, "_branches", counted_branches)

    def entry_iterations(self):
        """Newton evaluations of every entry: the live set only shrinks, so
        n_k - n_(k+1) entries take exactly k."""
        out = []
        for solve in self.solves:
            sizes = solve["newton"] + [0]
            for k in range(len(sizes) - 1):
                out += [k + 1] * (sizes[k] - sizes[k + 1])
        return out


def root_count(profile, beta, grid):
    """The finite roots of every stable segment at beta over the grid."""
    [branches] = steady_state._branches(profile, [beta], [grid])
    return int(np.isfinite(branches).sum())


class TestSolverWork:
    # Before the table start and the rounding-floor stop, single entries
    # took up to 54 evaluations on fig_hysteresis and 27 on fig_lineshapes,
    # bisecting after the rest had converged in about 3.
    @pytest.mark.parametrize("name", ["fig_hysteresis", "fig_lineshapes"])
    def test_every_entry_takes_a_few_newton_steps(self, name, monkeypatch):
        profile, scans = config_scans(name)
        work = SolverWork(monkeypatch)
        for beta, grid in scans:
            work.solves.clear()
            scan = np.array(lineshape_scan(profile, beta, grid, "up"))
            iterations = work.entry_iterations()
            assert max(iterations) <= 8
            # the table, the Newton steps and u at the roots
            assert max(s["calls"] for s in work.solves) <= 10
            # every root of every stable segment is counted once
            assert len(iterations) == root_count(profile, beta, grid)
            d0, u = scan.T
            res = np.abs(u - profile_value(profile, KAPPA * (d0 + beta * u)))
            assert np.max(res) <= 1e-13

    def test_every_drive_and_segment_in_one_newton_solve(self, monkeypatch):
        # the three drives, the last with two stable segments, were five
        # tables and five Newton solves, one per segment
        profile, scans = config_scans("fig_lineshapes")
        betas, grid = np.array([beta for beta, _ in scans]), scans[0][1]
        work = SolverWork(monkeypatch)
        scan = lineshape_scan(profile, betas, grid, "up")
        [solve] = work.solves
        assert solve["roots"] == 1
        assert max(work.entry_iterations()) <= 8
        # the table, the Newton steps and u at the roots
        assert solve["calls"] <= 10
        assert len(work.entry_iterations()) == sum(
            root_count(profile, beta, grid) for beta in betas) == 3603
        d0, u = scan[..., 0], scan[..., 1]
        x = d0 + betas[:, None] * u
        res = np.abs(u - profile_value(profile, KAPPA * x))
        assert np.max(res) <= 1e-13

    @pytest.mark.parametrize("name, index, delta0, segment", [
        # F's terms are ~10, so F rounds at ~2e-15 and Newton's step stalls
        # above the 4-ulp stop in x; it needs F's rounding floor (took 10)
        ("fig_hysteresis", 0, -9.74, 1),
        # the root sits 9e-7 inside the old bracket's end delta0 + beta, and
        # Newton steps toward it were refused (took 21)
        ("fig_lineshapes", 0, -0.3935, 0),
    ])
    def test_rounding_floor_and_bracket_end_rows(self, name, index, delta0,
                                                 segment, monkeypatch):
        profile, scans = config_scans(name)
        beta = scans[index][0]
        work = SolverWork(monkeypatch)
        [u] = steady_state._branches(profile, [beta], [np.array([delta0])])
        assert len(work.solves[0]["newton"]) <= 8
        u = u[segment, 0]
        res = abs(u - profile_value(profile, KAPPA * (delta0 + beta * u)))
        assert res <= 1e-13


def per_point_scan(profile, beta, grid, direction):
    """The branch pick point by point, as one Python loop: start on the
    stable root nearest the linear response, keep to its branch while that
    branch has a root, and from the first point where it has none keep to
    the other branch."""
    grid = np.sort(np.asarray(grid, dtype=float))
    if direction == "both":
        return (per_point_scan(profile, beta, grid, "up")
                + per_point_scan(profile, beta, grid, "down"))
    if beta < 0.0:
        flipped = "down" if direction == "up" else "up"
        return [(-d, u) for d, u in per_point_scan(profile, -beta, -grid,
                                                   flipped)]
    if direction == "down":
        grid = grid[::-1]
    branches = steady_state._branches(profile, [beta], [grid])[0].tolist()
    u_lin = profile_value(profile, profile.kappa * grid[0])
    k = min(range(len(branches)), key=lambda k: abs(branches[k][0] - u_lin))
    out = []
    for i, d0 in enumerate(grid.tolist()):
        if not math.isfinite(branches[k][i]):
            k = len(branches) - 1 - k
        out.append((d0, branches[k][i]))
    return out


def pick_cases(n_per_kind=24, seed=13):
    """(profile, beta, grid, direction, first) with first None for a beta
    of either sign, else (beta > 0, a point where one pass of the scan
    starts): in the bistable band for half of them, and next to it, where
    one branch is missing, for the other half.  beta < 0 mirrors those."""
    rng = np.random.default_rng(seed)
    profiles = [ResponseProfile(KAPPA),
                ResponseProfile(KAPPA, SIGMA)]
    cases = []
    for kind in ("any", "inside", "missing"):
        for i in range(n_per_kind):
            profile = profiles[i % 2]
            direction = ("up", "down", "both")[i % 3]
            thr = bistability_threshold(profile)
            size = int(rng.integers(2, 400))
            if kind == "any":
                beta = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 3.0 * thr)
                lo = rng.uniform(-abs(beta) - 8.0, 4.0)
                grid = rng.uniform(lo, lo + rng.uniform(0.1, 20.0), size)
                cases.append((profile, beta, grid, direction, None))
                continue
            beta = rng.uniform(1.2 * thr, 4.0 * thr)
            (d_lo, _), (d_hi, _) = fold_points(profile, beta)
            if kind == "inside":
                first = rng.uniform(d_lo, d_hi)
            else:
                first = rng.choice([d_lo - rng.uniform(0.1, 5.0),
                                    d_hi + rng.uniform(0.1, 5.0)])
            # the lowest point starts an up pass, the highest a down pass
            away = 1.0 if direction != "down" else -1.0
            grid = np.append(first + away * rng.uniform(0.0, 15.0, size - 1),
                             first)
            cases.append((profile, beta, grid, direction, (beta, first)))
            if i % 2:
                flipped = {"up": "down", "down": "up"}.get(direction,
                                                           direction)
                cases[-1] = (profile, -beta, -grid, flipped, (beta, first))
    return cases


class TestBranchPick:
    def test_vectorized_pick_equals_the_per_point_rule(self):
        cases = pick_cases()
        starts = []
        for profile, beta, grid, direction, first in cases:
            assert np.array_equal(
                lineshape_scan(profile, beta, grid, direction),
                per_point_scan(profile, beta, grid, direction))
            if first is not None:
                b, d0 = first
                starts.append(root_count(profile, b, np.array([d0])))
        assert len(cases) >= 60
        assert any(beta < 0 for _, beta, *_ in cases)
        # both branches at the start of 24 scans, one at the other 24
        assert starts == [2] * 24 + [1] * 24


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestOneSolve:
    # one scan over an array of betas solves every drive and segment at
    # once; each drive's rows must keep the bits of its own scan
    @pytest.mark.parametrize("case", ["fig_lineshapes", "fig_hysteresis",
                                      "fig_subphoton", "missing_segment",
                                      "empty_grid"])
    @pytest.mark.parametrize("direction", ["up", "down", "both"])
    def test_array_beta_keeps_each_drives_bits(self, case, direction):
        profile, scans = config_scans(
            case if case.startswith("fig_") else "fig_lineshapes")
        if case.startswith("fig_"):
            # the config's drives, the last mirrored, zero and one below
            # threshold, over the config's grid
            grid, betas = scans[0][1], [beta for beta, _ in scans]
            betas += [-betas[-1], 0.0, 0.5 * bistability_threshold(profile)]
        elif case == "missing_segment":
            # the lower segment at beta 9.5 ends at delta0 -6.03, below the
            # grid, so it has no root
            grid, betas = np.linspace(-2.0, 6.0, 401), [9.5, -9.5, 0.0, 2.0]
        else:
            grid, betas = np.array([]), [9.5, -9.5, 0.0]
        scan = lineshape_scan(profile, np.array(betas), grid, direction)
        rows = grid.size * (2 if direction == "both" else 1)
        assert scan.shape == (len(betas), rows, 2)
        for k, beta in enumerate(betas):
            alone = lineshape_scan(profile, beta, grid, direction)
            assert alone.shape == (rows, 2)
            assert np.array_equal(bits(scan[k]), bits(alone))

    def test_missing_segment_case_has_one(self):
        profile, _ = config_scans("fig_lineshapes")
        grid = np.linspace(-2.0, 6.0, 401)
        [branches] = steady_state._branches(profile, [9.5], [grid])
        assert np.isfinite(branches).sum(axis=1).tolist() == [0, 401]

    def test_sweep_takes_a_drive_per_row(self):
        from cavkerr.dynamics import quasi_static_sweep
        profile, scans = config_scans("fig_lineshapes")
        betas = np.array([beta for beta, _ in scans])
        n_max = np.array([0.06, 0.20, 0.56])
        dpc = np.linspace(-165e6, -135e6, 301) * TWO_PI
        dn = -TWO_PI * 148e6
        both = quasi_static_sweep(profile, betas, dpc, n_max, dn, "down")
        for k in range(betas.size):
            alone = quasi_static_sweep(profile, betas[k], dpc, n_max[k], dn,
                                       "down")
            for a, b in zip(both, alone):
                assert np.array_equal(bits(a[k]), bits(b))


class TestScanInputs:
    @pytest.mark.parametrize("grid", [[np.nan], [np.inf], [0.0, -np.inf],
                                      [[0.0, 1.0]], 0.5])
    def test_grid_must_be_1d_and_finite(self, grid, monkeypatch):
        # [nan] returned [[nan, inf]], [inf] [[inf, inf]], and [[0, 1]] one
        # row [[0, 1, u(0), u(1)]]; now nothing is computed
        def no_compute(*args):
            raise AssertionError("computed before the input check")

        monkeypatch.setattr(steady_state, "_curve", no_compute)
        with pytest.raises(ValueError, match="delta0_grid"):
            lineshape_scan(ResponseProfile(1.0, 1.6667), 1.0, grid)

    @pytest.mark.parametrize("beta", [[1.0, np.nan], [[1.0, 2.0]]])
    def test_betas_must_be_finite_and_1d(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            lineshape_scan(ResponseProfile(1.0, 1.6667), beta, [0.0, 1.0])


def test_import_leaves_out_scipy():
    # SciPy is a test dependency only: `import scipy.special` added about
    # 0.3 s and 18 MB to every run (2 vCPU Xeon, SciPy 1.17)
    src = Path(cavkerr.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, cavkerr.cli; print(sorted(m for m in sys.modules if "
            "m == 'scipy' or m.startswith(('scipy.', 'numpy.fft'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
