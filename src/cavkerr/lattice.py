"""Multi-well intracavity medium: site phases, populations, forces.

Atoms sit at the minima of the trapping standing wave (spacing pi/k_t),
while their coupling to the probe mode varies as g(z) = g0 sin(k_p z).
Because k_p != k_t, consecutive wells sample the probe phase
theta_j = j*pi*k_p/k_t (mod pi) -- an incommensurate walk that
equidistributes over [0, pi).  Each site (or sub-ensemble of a site) is
one collective coordinate: its displacement from the bare trap minimum.

Probe light pulls every site toward higher coupling when delta_ca < 0
(toward lower coupling when delta_ca > 0), which is the microscopic origin
of the collective Kerr shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import CONSTANTS, CavityParams, PhysicalConstants, TrapParams


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
        if np.any(self.population < 0):
            raise ValueError("populations must be nonnegative")
        if np.any(self.omega_z <= 0):
            raise ValueError("omega_z must be positive")

    def __len__(self) -> int:
        return len(self.theta)

    @property
    def total_atoms(self) -> float:
        return float(np.sum(self.population))

    def scaled_to_shift(self, delta_n: float, cavity: CavityParams) -> "LatticeEnsemble":
        """Rescale populations so the zero-displacement shift is delta_n."""
        current = collective_shift_from_displacements(
            self, np.zeros(len(self)), cavity)
        if current == 0.0:
            raise ValueError("ensemble couples to no light; cannot rescale")
        return LatticeEnsemble(self.theta, self.population * (delta_n / current),
                               self.omega_z)


def build_lattice(num_sites: int, total_atoms: float, omega_z_mean: float,
                  omega_z_spread: float = 0.0, population_model: str = "uniform",
                  seed: int | None = None, *, phase_model: str = "walk",
                  k_ratio: float = 850.0 / 780.0, subensembles: int = 1,
                  tracer_thetas=()) -> LatticeEnsemble:
    """Build the multi-well ensemble.

    phase_model "walk" assigns the deterministic incommensurate sequence
    theta_j = j*pi*k_ratio mod pi (k_ratio = k_p/k_t); "random" draws
    uniform phases.  Populations are "uniform" or "gaussian" (axial density
    profile with rms num_sites/4).  Each of the ``subensembles`` rows per
    site draws its own omega_z from N(mean, spread^2).  ``tracer_thetas``
    appends zero-population probe sites whose motion is integrated but which
    do not pull the cavity.  Reproducible from seed.
    """
    if num_sites < 1:
        raise ValueError("num_sites must be >= 1")
    if omega_z_spread < 0:
        raise ValueError("omega_z_spread must be nonnegative")
    if subensembles < 1:
        raise ValueError("subensembles must be >= 1")
    rng = np.random.default_rng(seed)

    if phase_model == "walk":
        theta = np.mod(np.arange(num_sites) * np.pi * k_ratio, np.pi)
    elif phase_model == "random":
        theta = rng.uniform(0.0, np.pi, size=num_sites)
    else:
        raise ValueError(f"unknown phase_model {phase_model!r}")

    if population_model == "uniform":
        pop = np.full(num_sites, total_atoms / num_sites)
    elif population_model == "gaussian":
        j = np.arange(num_sites) - (num_sites - 1) / 2.0
        w = np.exp(-0.5 * (j / (num_sites / 4.0)) ** 2)
        pop = total_atoms * w / np.sum(w)
    else:
        raise ValueError(f"unknown population_model {population_model!r}")

    theta = np.repeat(theta, subensembles)
    pop = np.repeat(pop / subensembles, subensembles)
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


def per_site_force(theta, displacement, nbar: float, cavity: CavityParams,
                   constants: PhysicalConstants = CONSTANTS):
    """Probe dipole force (N) on one collective coordinate:
    -hbar g0^2 k_p sin(2(theta + k_p d)) nbar / delta_ca."""
    phase = 2.0 * (np.asarray(theta, dtype=float)
                   + cavity.k_probe * np.asarray(displacement, dtype=float))
    out = (-constants.hbar * cavity.g0 ** 2 * cavity.k_probe * np.sin(phase)
           * nbar / cavity.delta_ca)
    return out if out.ndim else float(out)


def probe_potential(theta, displacement, nbar: float, cavity: CavityParams,
                    constants: PhysicalConstants = CONSTANTS):
    """AC-Stark potential (J) whose negative gradient is per_site_force."""
    phase = (np.asarray(theta, dtype=float)
             + cavity.k_probe * np.asarray(displacement, dtype=float))
    out = (constants.hbar * cavity.g0 ** 2 * np.sin(phase) ** 2 * nbar
           / cavity.delta_ca)
    return out if out.ndim else float(out)


def effective_kerr_numeric(ensemble: LatticeEnsemble, cavity: CavityParams,
                           trap: TrapParams,
                           constants: PhysicalConstants = CONSTANTS) -> float:
    """Small-signal Kerr coefficient of the ensemble, computed numerically.

    Displaces each site by its linearized equilibrium shift
    f_j/(m omega_zj^2) per photon, recomputes the collective shift and
    returns epsilon_eff = -(dDelta_N/Delta_N)/nbar in the nbar -> 0 limit
    (evaluated at nbar = 1e-3 and 5e-4, Richardson-extrapolated).  For
    uniform-phase statistics this reproduces half the single-well
    coefficient at pi/4.
    """
    zero = np.zeros(len(ensemble))
    dn0 = collective_shift_from_displacements(ensemble, zero, cavity)
    if dn0 == 0.0:
        raise ValueError("degenerate ensemble: all sites at nodes")
    m = constants.m_rb87

    def eps_at(nbar):
        f = per_site_force(ensemble.theta, zero, nbar, cavity, constants)
        d = f / (m * ensemble.omega_z ** 2)
        dn = collective_shift_from_displacements(ensemble, d, cavity)
        return -((dn - dn0) / dn0) / nbar

    e1 = eps_at(1e-3)
    e2 = eps_at(5e-4)
    return 2.0 * e2 - e1   # cancels the O(nbar) error
