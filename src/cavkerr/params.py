"""Physical parameters and closed-form derived quantities.

Conventions used throughout the package:

* every "frequency" field is an *angular* frequency in rad/s (the CLI layer
  converts from ordinary Hz on input),
* detunings are signed: ``delta_ca = omega_cavity - omega_atom`` and
  ``delta_pc = omega_probe - omega_bare_cavity``,
* wavenumbers are in rad/m, masses in kg, energies in J.

The dispersive medium shifts the cavity resonance by the collective shift
``Delta_N = N g0^2 / (2 delta_ca)`` (the 1/2 is the standing-wave average
over many lattice wells).  Probe light displaces the trapped atoms, which
feeds back on ``Delta_N``; the strength of that feedback per intracavity
photon is the dimensionless Kerr coefficient ``epsilon``.  The product
``beta = Delta_N * epsilon * n_max / kappa`` measures the maximum nonlinear
resonance pull in units of the cavity half-linewidth and is the single knob
controlling lineshape asymmetry and bistability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class _Constants:
    """CODATA constants; CONSTANTS is the one instance every formula reads."""

    hbar: float = 1.054571817e-34      # J s
    m_rb87: float = 1.4431609e-25      # kg (86.909180531 u)


CONSTANTS = _Constants()


def _require_finite(params) -> None:
    for f in fields(params):
        if not math.isfinite(getattr(params, f.name)):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class CavityParams:
    """Cavity, coupling and probe-mode parameters (angular frequencies)."""

    kappa: float               # resonance half-linewidth, rad/s
    g0: float                  # antinode atom-cavity coupling, rad/s
    gamma_atom: float          # atomic half-linewidth, rad/s
    delta_ca: float            # cavity-atom detuning, rad/s, signed
    k_probe: float             # probe wavenumber, rad/m
    k_trap: float              # trap wavenumber, rad/m
    sigma_jitter: float = 0.0  # rms Gaussian technical broadening, rad/s

    def __post_init__(self):
        _require_finite(self)
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.g0 <= 0:
            raise ValueError("g0 must be positive")
        if self.gamma_atom <= 0:
            raise ValueError("gamma_atom must be positive")
        if self.delta_ca == 0:
            raise ValueError("delta_ca must be nonzero in the dispersive regime")
        if self.k_probe <= 0 or self.k_trap <= 0:
            raise ValueError("wavenumbers must be positive")
        if self.k_probe == self.k_trap:
            raise ValueError("probe and trap wavenumbers must differ")
        if self.sigma_jitter < 0:
            raise ValueError("sigma_jitter must be nonnegative")


@dataclass(frozen=True)
class TrapParams:
    """Optical-lattice trap parameters."""

    omega_z: float             # axial trap frequency, rad/s
    num_sites: int = 1         # occupied lattice sites

    def __post_init__(self):
        _require_finite(self)
        if self.omega_z <= 0:
            raise ValueError("omega_z must be positive")
        if self.num_sites < 1:
            raise ValueError("num_sites must be >= 1")


@dataclass(frozen=True)
class DriveParams:
    """Probe drive: resonant photon number, detuning, atom number.

    The atom number is a float on purpose: only products N*g0^2 enter any
    formula, and loss/drift models need fractional N.
    """

    n_max: float               # resonant intracavity photon number
    delta_pc: float            # probe - bare-cavity detuning, rad/s
    atom_number: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if self.atom_number < 0:
            raise ValueError("atom_number must be nonnegative")


@dataclass(frozen=True)
class SystemParams:
    """Bundle of all physical inputs for one configuration."""

    cavity: CavityParams
    trap: TrapParams
    drive: DriveParams

    def collective_shift(self) -> float:
        return collective_shift(self.drive.atom_number, self.cavity.g0,
                                self.cavity.delta_ca)

    def kerr_coefficient(self, multi_well: bool = True) -> float:
        return kerr_coefficient(self.cavity, self.trap, multi_well)

    def beta(self, delta_n: float) -> float:
        """beta of the drive at the collective shift ``delta_n``."""
        return beta_parameter(delta_n, self.kerr_coefficient(),
                              self.drive.n_max, self.cavity.kappa)


def recoil_frequency(k: float) -> float:
    """Single-photon recoil frequency hbar*k^2/(2m) of 87Rb at wavenumber
    ``k``, rad/s."""
    if k <= 0:
        raise ValueError("recoil frequency needs k > 0")
    return CONSTANTS.hbar * k * k / (2.0 * CONSTANTS.m_rb87)


def collective_shift(n_atoms: float, g0: float, delta_ca: float) -> float:
    """Dispersive cavity shift Delta_N = N g0^2 / (2 delta_ca).

    Uses the multi-well averaged coupling <g^2> = g0^2/2.  Sign follows the
    sign of ``delta_ca``.
    """
    if delta_ca == 0:
        raise ValueError("delta_ca must be nonzero in the dispersive regime")
    return n_atoms * g0 * g0 / (2.0 * delta_ca)


def kerr_coefficient(cavity: CavityParams, trap: TrapParams,
                     multi_well: bool = True) -> float:
    """Dimensionless Kerr coefficient epsilon.

    Single well (probe phase pi/4):  epsilon = 2 hbar k_p^2 g0^2 /
    (m delta_ca omega_z^2), equivalently 4 w_rec g0^2/(delta_ca omega_z^2).
    With ``multi_well`` the value is halved to account for averaging over
    the many differently-phased wells.
    """
    eps = (2.0 * CONSTANTS.hbar * cavity.k_probe ** 2 * cavity.g0 ** 2
           / (CONSTANTS.m_rb87 * cavity.delta_ca * trap.omega_z ** 2))
    return eps / 2.0 if multi_well else eps


def force_per_photon(cavity: CavityParams) -> float:
    """f1 = -hbar g0^2 k_p / delta_ca, N per photon: the probe dipole force
    on a collective coordinate at probe phase phi is f1 sin(2 phi) nbar."""
    return -CONSTANTS.hbar * cavity.g0 ** 2 * cavity.k_probe / cavity.delta_ca


def beta_parameter(delta_n: float, epsilon: float, n_max: float,
                   kappa: float) -> float:
    """Nonlinearity parameter beta = Delta_N * epsilon * n_max / kappa.

    beta is the maximum nonlinear shift of the cavity resonance in units of
    the half-linewidth.  Delta_N = N g0^2/(2 delta_ca) and epsilon both
    carry the sign of delta_ca, so beta >= 0 at either detuning; it is
    negative only for a Delta_N of the other sign (a set override).
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return delta_n * epsilon * n_max / kappa


def nonlinear_photon_threshold(params: SystemParams) -> float:
    """Photon number where the nonlinear shift reaches one half-linewidth.

    n_nl = 4 (omega_z^2 kappa / (w_rec g0^2)) *
           (N g0^2/2 + (delta_ca/2)^2) / (N g0^2)

    Spatial averaging over the lattice is included.  The delta_ca -> 0 limit
    is finite and equals 2 omega_z^2 kappa / (w_rec g0^2).
    """
    n = params.drive.atom_number
    if n <= 0:
        raise ValueError("atom number must be positive for n_nl")
    cav, trap = params.cavity, params.trap
    w_rec = recoil_frequency(cav.k_probe)
    ng2 = n * cav.g0 ** 2
    return (4.0 * trap.omega_z ** 2 * cav.kappa / (w_rec * cav.g0 ** 2)
            * (ng2 / 2.0 + (cav.delta_ca / 2.0) ** 2) / ng2)


def critical_numbers(cavity: CavityParams) -> tuple[float, float]:
    """Critical atom and photon numbers (2*Gamma*kappa/g0^2, Gamma^2/2g0^2)."""
    if cavity.g0 <= 0:
        raise ValueError("g0 must be positive")
    g2 = cavity.g0 ** 2
    return (2.0 * cavity.gamma_atom * cavity.kappa / g2,
            cavity.gamma_atom ** 2 / (2.0 * g2))


def reference_cavity(delta_ca: float = -TWO_PI * 30e9) -> CavityParams:
    """Cavity parameters of the reference experiment at a given detuning."""
    return CavityParams(
        kappa=TWO_PI * 0.66e6,
        g0=TWO_PI * 14.4e6,
        gamma_atom=TWO_PI * 3e6,
        delta_ca=delta_ca,
        k_probe=TWO_PI / 780e-9,
        k_trap=TWO_PI / 850e-9,
        sigma_jitter=TWO_PI * 1.1e6,
    )


def reference_trap(omega_z: float = TWO_PI * 42e3) -> TrapParams:
    """Trap parameters of the reference experiment."""
    return TrapParams(omega_z=omega_z, num_sites=300)
