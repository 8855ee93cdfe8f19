"""Multi-well intracavity medium: site phases, populations, the probe force.

Atoms sit at the minima of the trapping standing wave (spacing pi/k_t),
while their coupling to the probe mode varies as g(z) = g0 sin(k_p z).
Because k_p != k_t, consecutive wells sample the probe phase
theta_j = j*pi*k_p/k_t (mod pi) -- an incommensurate walk that
equidistributes over [0, pi).  Each site (or sub-ensemble of a site) is
one collective coordinate: its displacement from the bare trap minimum.

Probe light pulls every site toward higher coupling when delta_ca < 0
(toward lower coupling when delta_ca > 0), which is the microscopic origin
of the collective Kerr shift.  optical_acceleration is the one definition
of that pull: the ring-up integrator, its closed form and the ensemble Kerr
coefficient all read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import CONSTANTS, CavityParams, force_per_photon


@dataclass(frozen=True)
class LatticeEnsemble:
    """Immutable per-site arrays; one row per (site, omega_z sub-ensemble)."""

    theta: np.ndarray
    population: np.ndarray
    omega_z: np.ndarray

    def __post_init__(self):
        for name in ("theta", "population", "omega_z"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        n = len(self.theta)
        if len(self.population) != n or len(self.omega_z) != n:
            raise ValueError("per-site arrays must have equal length")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta must be finite")
        if not np.all(np.isfinite(self.population) & (self.population >= 0)):
            raise ValueError("population must be finite and nonnegative")
        if not np.all(np.isfinite(self.omega_z) & (self.omega_z > 0)):
            raise ValueError("omega_z must be finite and positive")

    def __len__(self) -> int:
        return len(self.theta)

    def scaled_to_shift(self, delta_n: float, cavity: CavityParams) -> "LatticeEnsemble":
        """Rescale populations so the zero-displacement shift is delta_n."""
        current = collective_shift_from_displacements(
            self, np.zeros(len(self)), cavity)
        if current == 0.0:
            raise ValueError("ensemble couples to no light; cannot rescale")
        return LatticeEnsemble(self.theta, self.population * (delta_n / current),
                               self.omega_z)


def build_lattice(num_sites: int, total_atoms: float, omega_z_mean: float,
                  omega_z_spread: float = 0.0, seed: int | None = None, *,
                  k_ratio: float = 850.0 / 780.0, subensembles: int = 1,
                  tracer_thetas=()) -> LatticeEnsemble:
    """Build the multi-well ensemble.

    Site j sits at the deterministic incommensurate probe phase
    theta_j = j*pi*k_ratio mod pi (k_ratio = k_p/k_t) and holds
    total_atoms/num_sites atoms.  Each of the ``subensembles`` rows per
    site draws its own omega_z from N(mean, spread^2).  ``tracer_thetas``
    appends zero-population probe sites whose motion is integrated but which
    do not pull the cavity.  Reproducible from seed.
    """
    if num_sites < 1:
        raise ValueError("num_sites must be >= 1")
    if not omega_z_spread >= 0:
        raise ValueError("omega_z_spread must be nonnegative")
    if subensembles < 1:
        raise ValueError("subensembles must be >= 1")
    theta = np.repeat(np.mod(np.arange(num_sites) * np.pi * k_ratio, np.pi),
                      subensembles)
    pop = np.full(len(theta), total_atoms / num_sites / subensembles)
    rng = np.random.default_rng(seed)
    omega = omega_z_mean + omega_z_spread * rng.standard_normal(len(theta))
    if np.any(omega <= 0):
        raise ValueError("omega_z_spread too large: drew a nonpositive frequency")

    tracer = np.mod(np.asarray(tracer_thetas, dtype=float), np.pi)
    if tracer.size:
        theta = np.append(theta, tracer)
        pop = np.append(pop, np.zeros(tracer.size))
        omega = np.append(omega, np.full(tracer.size, omega_z_mean))

    return LatticeEnsemble(theta, pop, omega)


def collective_shift_from_displacements(ensemble: LatticeEnsemble,
                                        displacements,
                                        cavity: CavityParams) -> float:
    """Delta_N for given site displacements (m):
    sum_j N_j g0^2 sin^2(theta_j + k_p d_j) / delta_ca."""
    d = np.asarray(displacements, dtype=float)
    if d.shape != ensemble.theta.shape:
        raise ValueError("need exactly one displacement per site")
    s = np.sin(ensemble.theta + cavity.k_probe * d)
    return float(np.sum(ensemble.population * s * s) * cavity.g0 ** 2
                 / cavity.delta_ca)


def optical_acceleration(theta, displacement, cavity: CavityParams):
    """Probe dipole acceleration per photon (m/s^2) of a collective
    coordinate at probe phase theta displaced by d: (f1/m) sin(2(theta +
    k_p d)), f1 from params.force_per_photon.  Times m nbar it is the force
    -d/dd of hbar nbar Delta_N, the row's AC-Stark potential."""
    return (force_per_photon(cavity) / CONSTANTS.m_rb87
            * np.sin(2.0 * (theta + cavity.k_probe * displacement)))


def effective_kerr_numeric(ensemble: LatticeEnsemble,
                           cavity: CavityParams) -> float:
    """Small-signal Kerr coefficient of the ensemble, in closed form.

    Row j, with a_j its optical_acceleration at d = 0, moves by its
    linearized equilibrium shift d_j = a_j nbar/omega_zj^2, and Delta_N has
    the slope b_j = -(m/hbar) N_j a_j in d_j, so to first order
    epsilon_eff = -(dDelta_N/Delta_N)/nbar
    = (m/hbar) sum_j N_j a_j^2/omega_zj^2 /Delta_N.  For uniform-phase
    statistics this reproduces half the single-well coefficient at pi/4.
    """
    zero = np.zeros(len(ensemble))
    dn0 = collective_shift_from_displacements(ensemble, zero, cavity)
    if dn0 == 0.0:
        raise ValueError("degenerate ensemble: all sites at nodes")
    a = optical_acceleration(ensemble.theta, 0.0, cavity)
    return float(CONSTANTS.m_rb87 / CONSTANTS.hbar
                 * np.sum(ensemble.population * a ** 2 / ensemble.omega_z ** 2)
                 / dn0)
