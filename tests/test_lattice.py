import numpy as np
import pytest

from helpers import probe_potential

from cavkerr import CONSTANTS, collective_shift, kerr_coefficient
from cavkerr.lattice import (
    LatticeEnsemble,
    build_lattice,
    collective_shift_from_displacements,
    effective_kerr_numeric,
    optical_acceleration,
)

TWO_PI = 2 * np.pi
WZ = TWO_PI * 42e3


def random_phase_lattice(num_sites, total_atoms, omega_z, seed):
    """Evenly populated sites at uniformly drawn probe phases."""
    theta = np.random.default_rng(seed).uniform(0.0, np.pi, num_sites)
    return LatticeEnsemble(theta, np.full(num_sites, total_atoms / num_sites),
                           np.full(num_sites, omega_z))


def test_phase_walk_equidistributes():
    ens = build_lattice(300, 1e5, WZ, k_ratio=850.0 / 780.0)
    s = np.sort(ens.theta) / np.pi
    dev = np.max(np.abs(s - (np.arange(1, 301) - 0.5) / 300))
    assert dev < 0.05


def test_single_well_pi_over_4():
    ens = build_lattice(1, 1e4, WZ, tracer_thetas=())
    # the one-site builder starts the walk at theta=0; the illustrative
    # single-well model uses an explicit pi/4 site instead
    ens_pi4 = build_lattice(1, 0.0, WZ, tracer_thetas=(np.pi / 4,))
    assert ens.theta[0] == 0.0
    assert ens_pi4.theta[-1] == pytest.approx(np.pi / 4)


def test_seed_determinism():
    a = build_lattice(200, 1e4, WZ, omega_z_spread=0.01 * WZ, seed=99)
    b = build_lattice(200, 1e4, WZ, omega_z_spread=0.01 * WZ, seed=99)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.omega_z, b.omega_z)


def test_invalid_spread_rejected():
    for spread in (-1.0, np.nan):
        with pytest.raises(ValueError, match="omega_z_spread"):
            build_lattice(10, 1e3, WZ, omega_z_spread=spread)


@pytest.mark.parametrize("name", ["theta", "population", "omega_z"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_entry_rejected(name, bad):
    rows = {"theta": [0.3, 1.0], "population": [1.0, 2.0],
            "omega_z": [WZ, WZ]}
    rows[name][1] = bad
    with pytest.raises(ValueError, match=name):
        LatticeEnsemble(**rows)


class TestCollectiveShiftFromDisplacements:
    def test_uniform_phases_average(self, cavity101):
        ens = build_lattice(20000, 7e4, WZ)
        dn = collective_shift_from_displacements(
            ens, np.zeros(len(ens)), cavity101)
        expected = collective_shift(7e4, cavity101.g0, cavity101.delta_ca)
        assert dn == pytest.approx(expected, rel=0.01)

    def test_antinode_and_node(self, cavity101):
        g0, dca = cavity101.g0, cavity101.delta_ca
        anti = build_lattice(1, 0.0, WZ, tracer_thetas=(np.pi / 2,))
        anti = type(anti)(anti.theta[-1:], np.array([1e4]), anti.omega_z[-1:])
        assert collective_shift_from_displacements(anti, [0.0], cavity101) == \
            pytest.approx(1e4 * g0**2 / dca)
        node = type(anti)(np.array([0.0]), np.array([1e4]), np.array([WZ]))
        assert collective_shift_from_displacements(node, [0.0], cavity101) == 0.0

    def test_length_mismatch_rejected(self, cavity101):
        ens = build_lattice(10, 1e3, WZ)
        with pytest.raises(ValueError):
            collective_shift_from_displacements(ens, np.zeros(9), cavity101)

    def test_permutation_invariance(self, cavity101):
        ens = random_phase_lattice(50, 1e3, WZ, seed=3)
        dn = collective_shift_from_displacements(ens, np.zeros(50), cavity101)
        perm = np.random.default_rng(0).permutation(50)
        shuffled = type(ens)(ens.theta[perm], ens.population[perm],
                             ens.omega_z[perm])
        dn2 = collective_shift_from_displacements(shuffled, np.zeros(50),
                                                  cavity101)
        assert dn2 == pytest.approx(dn, rel=1e-12)


def per_site_force(theta, displacement, nbar, cavity):
    """The probe force (N) on one row: m nbar optical_acceleration."""
    return CONSTANTS.m_rb87 * nbar * optical_acceleration(theta, displacement,
                                                         cavity)


class TestPerSiteForce:
    def test_pi_over_4_magnitude_and_direction(self, cavity101):
        f = per_site_force(np.pi / 4, 0.0, 1.0, cavity101)
        expected = CONSTANTS.hbar * cavity101.g0**2 * cavity101.k_probe / abs(
            cavity101.delta_ca)
        assert abs(f) == pytest.approx(expected, rel=1e-12)
        # delta_ca < 0 pulls toward the antinode (increasing theta)
        assert f > 0

    def test_antinode_zero(self, cavity101):
        assert per_site_force(np.pi / 2, 0.0, 5.0, cavity101) == pytest.approx(
            0.0, abs=1e-30)

    def test_dark_cavity(self, cavity101):
        assert per_site_force(0.3, 0.0, 0.0, cavity101) == 0.0

    def test_force_is_negative_potential_gradient(self, cavity101):
        rng = np.random.default_rng(5)
        h = 1e-12
        for _ in range(100):
            theta = rng.uniform(0, np.pi)
            d = rng.uniform(-50e-9, 50e-9)
            nbar = rng.uniform(0.1, 10)
            f = per_site_force(theta, d, nbar, cavity101)
            du = (probe_potential(theta, d + h, nbar, cavity101)
                  - probe_potential(theta, d - h, nbar, cavity101)) / (2 * h)
            scale = CONSTANTS.hbar * cavity101.g0**2 * cavity101.k_probe \
                * nbar / abs(cavity101.delta_ca)
            assert f == pytest.approx(-du, abs=1e-6 * scale)

    def test_displacement_increases_coupling_red_detuned(self, cavity101):
        # every per-photon equilibrium displacement raises sin^2(theta + kp d)
        ens = random_phase_lattice(500, 1e4, WZ, seed=8)
        f = per_site_force(ens.theta, np.zeros(len(ens)), 1e-3, cavity101)
        d = f / (CONSTANTS.m_rb87 * ens.omega_z**2)
        before = np.sin(ens.theta) ** 2
        after = np.sin(ens.theta + cavity101.k_probe * d) ** 2
        assert np.all(after >= before - 1e-18)


class TestEffectiveKerr:
    def test_multi_well_halving(self, cavity101, trap42):
        ens = build_lattice(20000, 7e4, trap42.omega_z)
        eps_eff = effective_kerr_numeric(ens, cavity101)
        eps_half = kerr_coefficient(cavity101, trap42, multi_well=False) / 2
        assert eps_eff == pytest.approx(eps_half, rel=5e-3)

    def test_single_site_at_pi_over_4(self, cavity101, trap42):
        ens = LatticeEnsemble(np.array([np.pi / 4]), np.array([1e4]),
                              np.array([trap42.omega_z]))
        eps_eff = effective_kerr_numeric(ens, cavity101)
        eps_single = kerr_coefficient(cavity101, trap42, multi_well=False)
        assert eps_eff == pytest.approx(eps_single, rel=1e-3)

    def test_scales_inverse_square_omega_z(self, cavity101, trap42):
        ens1 = build_lattice(5000, 1e4, trap42.omega_z)
        ens2 = build_lattice(5000, 1e4, 2 * trap42.omega_z)
        e1 = effective_kerr_numeric(ens1, cavity101)
        e2 = effective_kerr_numeric(ens2, cavity101)
        assert e2 == pytest.approx(e1 / 4, rel=1e-3)

    def test_halving_across_random_seeds(self, cavity101, trap42):
        eps_half = kerr_coefficient(cavity101, trap42, multi_well=False) / 2
        for seed in (1, 2, 3):
            ens = random_phase_lattice(20000, 7e4, trap42.omega_z, seed)
            eps_eff = effective_kerr_numeric(ens, cavity101)
            assert eps_eff == pytest.approx(eps_half, rel=0.03)

    def test_all_nodes_rejected(self, cavity101, trap42):
        ens = LatticeEnsemble(np.zeros(3), np.full(3, 10.0),
                              np.full(3, trap42.omega_z))
        with pytest.raises(ValueError):
            effective_kerr_numeric(ens, cavity101)


def test_scaled_to_shift(cavity260):
    ens = build_lattice(300, 5e4, TWO_PI * 49e3)
    target = -TWO_PI * 19e6
    scaled = ens.scaled_to_shift(target, cavity260)
    dn = collective_shift_from_displacements(scaled, np.zeros(len(scaled)),
                                             cavity260)
    assert dn == pytest.approx(target, rel=1e-12)
