import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavkerr import (
    CavityParams,
    DriveParams,
    SystemParams,
    TrapParams,
    beta_parameter,
    collective_shift,
    critical_numbers,
    kerr_coefficient,
    nonlinear_photon_threshold,
    reference_cavity,
    reference_trap,
    recoil_frequency,
)

TWO_PI = 2 * np.pi


class TestRecoilFrequency:
    def test_rb87_probe_recoil(self):
        k = TWO_PI / 780e-9
        w = recoil_frequency(k)
        assert w / TWO_PI == pytest.approx(3.77e3, rel=5e-3)

    def test_zero_wavenumber_rejected(self):
        with pytest.raises(ValueError):
            recoil_frequency(0.0)

    def test_quadratic_scaling(self):
        k = TWO_PI / 780e-9
        assert recoil_frequency(2 * k) == pytest.approx(
            4 * recoil_frequency(k), rel=1e-14)


class TestCollectiveShift:
    def test_fig2b_parameters(self):
        dn = collective_shift(7e4, TWO_PI * 14.4e6, -TWO_PI * 101e9)
        assert dn / TWO_PI / 1e6 == pytest.approx(-71.9, rel=2e-3)

    def test_empty_cavity(self):
        assert collective_shift(0.0, TWO_PI * 14.4e6, -TWO_PI * 101e9) == 0.0

    def test_odd_in_detuning(self):
        a = collective_shift(1e4, 1e8, -2e11)
        b = collective_shift(1e4, 1e8, 2e11)
        assert a == -b

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            collective_shift(1e4, 1e8, 0.0)


class TestKerrCoefficient:
    def test_fig2a_value(self, cavity30, trap42):
        eps = kerr_coefficient(cavity30, trap42, multi_well=True)
        assert eps == pytest.approx(-0.0295, rel=3e-3)

    def test_multi_well_is_half_single_well(self, cavity30, trap42):
        single = kerr_coefficient(cavity30, trap42, multi_well=False)
        multi = kerr_coefficient(cavity30, trap42, multi_well=True)
        assert multi == single / 2

    def test_sign_flips_with_detuning(self, trap42):
        red = kerr_coefficient(reference_cavity(-TWO_PI * 30e9), trap42)
        blue = kerr_coefficient(reference_cavity(TWO_PI * 30e9), trap42)
        assert red == -blue
        assert red < 0

    def test_recoil_form_equivalent(self, cavity30, trap42):
        # eps = 4 w_rec g0^2 / (delta_ca omega_z^2) in the single-well form
        w_rec = recoil_frequency(cavity30.k_probe)
        expected = 4 * w_rec * cavity30.g0**2 / (
            cavity30.delta_ca * trap42.omega_z**2)
        assert kerr_coefficient(cavity30, trap42, multi_well=False) == \
            pytest.approx(expected, rel=1e-12)


class TestBetaParameter:
    def test_fig2a_betas(self, cavity30, trap42):
        eps = kerr_coefficient(cavity30, trap42)
        dn = -TWO_PI * 148e6
        assert beta_parameter(dn, eps, 0.56, cavity30.kappa) == pytest.approx(3.72, rel=0.02)
        assert beta_parameter(dn, eps, 0.20, cavity30.kappa) == pytest.approx(1.33, rel=0.02)
        assert beta_parameter(dn, eps, 0.06, cavity30.kappa) == pytest.approx(0.37, rel=0.10)

    def test_fig2b_beta(self, cavity101, trap42):
        dn = collective_shift(7e4, cavity101.g0, cavity101.delta_ca)
        eps = kerr_coefficient(cavity101, trap42)
        assert beta_parameter(dn, eps, 10.0, cavity101.kappa) == pytest.approx(9.5, rel=0.03)

    def test_no_drive(self):
        assert beta_parameter(-1e8, -0.03, 0.0, 1e6) == 0.0

    def test_red_detuned_sign_discipline(self, trap42):
        for d_ghz in (10, 30, 101, 260):
            cav = reference_cavity(delta_ca=-TWO_PI * d_ghz * 1e9)
            dn = collective_shift(5e4, cav.g0, cav.delta_ca)
            eps = kerr_coefficient(cav, trap42)
            assert dn < 0 and eps < 0
            assert beta_parameter(dn, eps, 1.0, cav.kappa) > 0

    def test_bad_kappa(self):
        with pytest.raises(ValueError):
            beta_parameter(1.0, 1.0, 1.0, 0.0)


class TestNonlinearPhotonThreshold:
    def make(self, cavity, trap, n):
        return SystemParams(cavity, trap, DriveParams(1.0, 0.0, n))

    def test_limiting_value(self):
        # minimum trap frequency omega_z = 2 w_rec and delta_ca -> 0
        cav = reference_cavity(delta_ca=-1e-6)   # effectively zero vs sqrt(N) g0
        w_rec = recoil_frequency(cav.k_probe)
        trap = reference_trap(omega_z=2 * w_rec)
        n_nl = nonlinear_photon_threshold(self.make(cav, trap, 5e4))
        assert 0.8e-4 <= n_nl <= 1.2e-4

    def test_consistent_with_beta_inversion(self, cavity101, trap42):
        # for |delta_ca| >> sqrt(N) g0 the threshold is where beta = 1
        system = self.make(cavity101, trap42, 7e4)
        n_nl = nonlinear_photon_threshold(system)
        dn = collective_shift(7e4, cavity101.g0, cavity101.delta_ca)
        eps = kerr_coefficient(cavity101, trap42)
        n_beta1 = cavity101.kappa / (dn * eps)
        assert n_nl == pytest.approx(n_beta1, rel=0.01)

    def test_monotone_in_detuning(self, trap42):
        vals = [nonlinear_photon_threshold(
            self.make(reference_cavity(-TWO_PI * g * 1e9), trap42, 7e4))
            for g in (10, 30, 101, 260)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_no_atoms_rejected(self, cavity101, trap42):
        with pytest.raises(ValueError):
            nonlinear_photon_threshold(self.make(cavity101, trap42, 0.0))


class TestCriticalNumbers:
    def test_reference_values(self, cavity30):
        atom, photon = critical_numbers(cavity30)
        assert atom == pytest.approx(0.019, abs=5e-4)
        assert photon == pytest.approx(0.022, abs=5e-4)
        assert round(atom, 2) == 0.02 and round(photon, 2) == 0.02

    def test_inverse_square_in_g0(self, cavity30):
        import dataclasses
        doubled = dataclasses.replace(cavity30, g0=2 * cavity30.g0)
        a1, p1 = critical_numbers(cavity30)
        a2, p2 = critical_numbers(doubled)
        assert a2 == pytest.approx(a1 / 4) and p2 == pytest.approx(p1 / 4)

    def test_lossless_atom_limit(self, cavity30):
        import dataclasses
        lossless = dataclasses.replace(cavity30, gamma_atom=1e-30)
        atom, photon = critical_numbers(lossless)
        assert atom == pytest.approx(0.0, abs=1e-30)
        assert photon == pytest.approx(0.0, abs=1e-30)


@st.composite
def red_configs(draw):
    g0 = draw(st.floats(min_value=1e6, max_value=1e9))
    kappa = draw(st.floats(min_value=1e4, max_value=1e8))
    dca = -draw(st.floats(min_value=1e9, max_value=1e13))
    wz = draw(st.floats(min_value=1e3, max_value=1e7))
    return g0, kappa, dca, wz


class TestScalingProperties:
    @given(red_configs(), st.floats(min_value=1.1, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_beta_invariant_under_common_frequency_scaling(self, cfg, s):
        # beta and the critical numbers are dimensionless: scaling every
        # frequency (including the recoil frequency, via k -> sqrt(s) k)
        # by a common factor leaves them unchanged
        g0, kappa, dca, wz = cfg

        def numbers(g0, kappa, dca, wz, kscale):
            cav = CavityParams(kappa=kappa, g0=g0, gamma_atom=kappa,
                               delta_ca=dca,
                               k_probe=kscale * TWO_PI / 780e-9,
                               k_trap=kscale * TWO_PI / 850e-9)
            trap = TrapParams(omega_z=wz)
            dn = collective_shift(1e4, g0, dca)
            eps = kerr_coefficient(cav, trap)
            return (beta_parameter(dn, eps, 0.3, kappa),
                    critical_numbers(cav))

        b1, crit1 = numbers(g0, kappa, dca, wz, 1.0)
        b2, crit2 = numbers(s * g0, s * kappa, s * dca, s * wz, np.sqrt(s))
        assert b2 == pytest.approx(b1, rel=1e-9)
        assert crit2 == pytest.approx(crit1, rel=1e-9)

    @given(red_configs())
    @settings(max_examples=50, deadline=None)
    def test_purity(self, cfg):
        g0, kappa, dca, wz = cfg
        cav = CavityParams(kappa=kappa, g0=g0, gamma_atom=kappa, delta_ca=dca,
                           k_probe=TWO_PI / 780e-9, k_trap=TWO_PI / 850e-9)
        trap = TrapParams(omega_z=wz)
        assert kerr_coefficient(cav, trap) == kerr_coefficient(cav, trap)
        assert collective_shift(123.0, g0, dca) == collective_shift(123.0, g0, dca)


class TestValidation:
    def test_cavity_rejects_equal_wavenumbers(self):
        with pytest.raises(ValueError):
            CavityParams(kappa=1.0, g0=1.0, gamma_atom=1.0, delta_ca=-1.0,
                         k_probe=5.0, k_trap=5.0)

    def test_cavity_rejects_zero_delta_ca(self):
        # Delta_N = N g0^2/(2 delta_ca): the dispersive regime needs delta_ca != 0
        with pytest.raises(ValueError, match="delta_ca"):
            CavityParams(kappa=1.0, g0=1.0, gamma_atom=1.0, delta_ca=0.0,
                         k_probe=5.0, k_trap=6.0)

    def test_trap_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            TrapParams(omega_z=0.0)

    def test_drive_rejects_negative_photon_number(self):
        with pytest.raises(ValueError):
            DriveParams(n_max=-1.0, delta_pc=0.0)

    def test_cavity_rejects_nan_kappa(self):
        # kappa <= 0 is False for NaN, so the sign check alone lets it pass
        with pytest.raises(ValueError, match="kappa"):
            CavityParams(kappa=float("nan"), g0=1.0, gamma_atom=1.0,
                         delta_ca=-1.0, k_probe=5.0, k_trap=6.0)

    def test_trap_rejects_infinite_omega_z(self):
        with pytest.raises(ValueError, match="omega_z"):
            TrapParams(omega_z=float("inf"))

    @pytest.mark.parametrize("field", ["n_max", "atom_number"])
    def test_drive_rejects_non_finite(self, field):
        kwargs = dict(n_max=1.0, delta_pc=0.0, atom_number=1.0)
        kwargs[field] = float("nan") if field == "n_max" else float("inf")
        with pytest.raises(ValueError, match=field):
            DriveParams(**kwargs)
