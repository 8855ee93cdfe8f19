"""The benchmark's workloads: seeded inputs, one pass through the public CLI
entry point ``cavkerr.cli.main``, and the correctness checks on its outputs.

Each workload's base config lives in ``configs/`` next to this file, so a
change to the repository's own ``configs/`` cannot change a workload.  A
pass is the unit that is timed: the ``cli.main`` calls of one scenario
chain, from config load to the last output file written.

The checks use the tolerances the repository already pins (docstrings and
acceptance criteria); the one tolerance chosen here is ``ORACLE_TOL_KAPPA``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from cavkerr import cli, lattice, params, steady_state

CONFIGS = Path(__file__).resolve().parent / "configs"
TWO_PI = 2.0 * np.pi

RESIDUAL_TOL = 1e-10          # steady_state_roots_profile docstring bound
LORENTZ_THRESHOLD = 8.0 * np.sqrt(3.0) / 9.0
THRESHOLD_TOL = 1e-6          # acceptance criterion 1
VOIGT_THRESHOLD, VOIGT_TOL = 3.7, 0.1      # acceptance criterion 2
TAU_RANGE_S = (0.85e-3, 1.15e-3)           # acceptance criterion 11
TRIGGER_DN_MHZ, TRIGGER_DN_TOL = -19.0, 1.5  # TestTriggerScenario
# The linearized one-way undamped ring-up has an exact solution; velocity
# Verlet at 200 steps per period is about 2.5e-3 kappa off it.  A failure
# here means the integrator is wrong, not merely coarse.
ORACLE_TOL_KAPPA = 1e-2
# Consecutive sweep points on one branch differ by well under a photon;
# a hysteretic jump at a fold is several photons.
JUMP_MIN_PHOTONS = 1.0


class CheckError(Exception):
    """A workload pass produced output that fails a correctness check."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config_file: str
    make_config: Callable[[dict, int, int], dict]   # (base, seed, pass) -> cfg
    steps: Callable[[Path, Path], list[list[str]]]  # (cfg path, dir) -> argvs
    check: Callable[[dict, Path], dict]             # (cfg, dir) -> accuracy
    per_pass_inputs: bool = False   # True when pass i has its own inputs

    def base_config(self) -> dict:
        return yaml.safe_load((CONFIGS / self.config_file).read_text())

    def config(self, seed: int, index: int = 0) -> dict:
        return self.make_config(self.base_config(), seed, index)

    def input_key(self, index: int) -> int:
        """Passes with equal keys get identical inputs at a given seed."""
        return index if self.per_pass_inputs else 0


def seed_fraction(seed: int) -> float:
    """A fraction in [0, 1) that depends only on the seed."""
    return float(np.random.default_rng(seed).random())


def shot_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _shift_window(section: dict, seed: int) -> None:
    """Shift the detuning window by a seed-derived fraction of a grid step."""
    start = cli.parse_frequency(section["delta_pc_start"]) / TWO_PI
    stop = cli.parse_frequency(section["delta_pc_stop"]) / TWO_PI
    step = (stop - start) / (int(section["points"]) - 1)
    shift = seed_fraction(seed) * step
    section["delta_pc_start"] = start + shift
    section["delta_pc_stop"] = stop + shift


def _window_config(base: dict, seed: int, index: int, section: str) -> dict:
    cfg = copy.deepcopy(base)
    cfg["seed"] = seed
    _shift_window(cfg[section], seed)
    return cfg


def _tracer_config(base: dict, seed: int, index: int) -> dict:
    """Seed the phase of the ring-up's tracer site.

    The tracer has no atoms: it is integrated with the ensemble but does not
    pull the cavity, so Delta_N and the decay fit are the config seed's.
    Seeding the lattice and the counts instead moves the fitted 1/e time by
    about 0.05 ms (counting noise of 50 repetitions), which takes it out of
    the pinned [0.85, 1.15] ms for some seeds (1.19 ms at seed 3).
    """
    cfg = copy.deepcopy(base)
    cfg["ringdown"]["tracer_theta"] = np.pi * seed_fraction(seed)
    return cfg


def _shot_config(base: dict, seed: int, index: int) -> dict:
    cfg = copy.deepcopy(base)
    cfg["seed"] = shot_seed(seed, index)
    return cfg


def run_pass(workload: Workload, cfg: dict, workdir: Path) -> tuple[float, float]:
    """Write the pass's config and run its ``cli.main`` calls.

    Returns the wall and CPU seconds of those calls.
    """
    cfg_path = workdir / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    argvs = workload.steps(cfg_path, workdir)
    sink = io.StringIO()
    wall = cpu = 0.0
    with contextlib.redirect_stdout(sink):
        for argv in argvs:
            t0, c0 = time.perf_counter(), time.process_time()
            code = cli.main(argv)
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            if code != 0:
                raise CheckError(f"cli.main {' '.join(argv[2:])} exited {code}")
    return wall, cpu


# ---------------------------------------------------------------------------
# checks

def _delta_n(cfg: dict, system: params.SystemParams) -> float:
    """Collective shift the CLI uses: the config override, else N from the
    drive section (zero without atoms)."""
    override = cfg["params"]["drive"].get("delta_n")
    if override is not None:
        return cli.parse_frequency(override)
    if system.drive.atom_number == 0:
        return 0.0
    return system.collective_shift()


def _csv_columns(path: Path) -> dict:
    _, names, rows = cli.read_csv(path)
    if not rows:
        raise CheckError(f"{path.name}: no data rows")
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def steady_state_residual(profile, beta, delta0, u) -> np.ndarray:
    """|u - V(kappa*(delta0 + beta*u))| per point."""
    u = np.asarray(u, dtype=float)
    delta = profile.kappa * (np.asarray(delta0, dtype=float) + beta * u)
    return np.abs(u - steady_state.profile_value(profile, delta))


def _checked_residual(res: np.ndarray, what: str) -> float:
    if not np.all(np.isfinite(res)):
        raise CheckError(f"{what}: non-finite steady-state point")
    worst = float(np.max(res))
    if worst > RESIDUAL_TOL:
        raise CheckError(f"{what}: max residual {worst:.3g} > {RESIDUAL_TOL}")
    return worst


def check_lineshape(cfg: dict, workdir: Path) -> dict:
    system = cli.build_system(cfg)
    profile = steady_state.ResponseProfile.from_cavity(system.cavity)
    dn = _delta_n(cfg, system)
    eps = system.kerr_coefficient()
    sec = cfg["lineshape"]
    n_list = [float(n) for n in sec["n_max"]]

    derived = json.loads((workdir / "derived.json").read_text())
    if set(derived.get("beta_per_n_max", {})) != {str(n) for n in sec["n_max"]}:
        raise CheckError("derived: beta_per_n_max does not list every n_max")

    col = _csv_columns(workdir / "lineshape.csv")
    if len(col["nbar"]) != len(n_list) * int(sec["points"]):
        raise CheckError("lineshape: wrong number of rows")
    n_max = np.asarray(col["n_max"])
    beta = np.array([params.beta_parameter(dn, eps, n, system.cavity.kappa)
                     for n in n_max])
    delta0 = (TWO_PI * np.asarray(col["deltaPC_Hz"]) - dn) / profile.kappa
    u = np.asarray(col["nbar"]) / n_max
    res = steady_state_residual(profile, beta, delta0, u)
    return {"max_residual": _checked_residual(res, "lineshape")}


def hysteresis_jumps(dpc_hz, nbar) -> list[float]:
    """Detunings (Hz) of the last point before each hysteretic jump."""
    steps = np.abs(np.diff(np.asarray(nbar, dtype=float)))
    return [float(dpc_hz[i]) for i in np.nonzero(steps > JUMP_MIN_PHOTONS)[0]]


def check_hysteresis(cfg: dict, workdir: Path) -> dict:
    system = cli.build_system(cfg)
    profile = steady_state.ResponseProfile.from_cavity(system.cavity)
    dn = _delta_n(cfg, system)
    beta = system.beta(delta_n=dn)
    n_max = system.drive.n_max
    sec = cfg["sweep"]
    points = int(sec["points"])
    lo, hi = sorted((float(sec["delta_pc_start"]), float(sec["delta_pc_stop"])))
    step_hz = (hi - lo) / (points - 1)

    report = json.loads((workdir / "threshold.json").read_text())
    threshold_err = float(abs(report["lorentzian_threshold"] - LORENTZ_THRESHOLD))
    if threshold_err > THRESHOLD_TOL:
        raise CheckError(f"Lorentzian threshold off by {threshold_err:.3g}")
    if abs(report["profile_threshold"] - VOIGT_THRESHOLD) > VOIGT_TOL:
        raise CheckError(f"Voigt threshold {report['profile_threshold']:.4f} "
                         f"not {VOIGT_THRESHOLD} +- {VOIGT_TOL}")
    folds_hz = [f["deltaPC_Hz"] for f in report.get("folds", [])]
    if len(folds_hz) != 2:
        raise CheckError(f"expected 2 folds at beta={beta:.3f}, "
                         f"got {len(folds_hz)}")

    col = _csv_columns(workdir / "sweep.csv")
    dirs = np.asarray(col["direction"])
    dpc = np.asarray(col["deltaPC_Hz"])
    nbar = np.asarray(col["nbar"])
    worst = 0.0
    for direction in ("up", "down"):
        sel = dirs == direction
        if int(np.sum(sel)) != points:
            raise CheckError(f"sweep {direction}: wrong number of rows")
        delta0 = (TWO_PI * dpc[sel] - dn) / profile.kappa
        res = steady_state_residual(profile, beta, delta0, nbar[sel] / n_max)
        worst = max(worst, _checked_residual(res, f"sweep {direction}"))
        jumps = hysteresis_jumps(dpc[sel], nbar[sel])
        if len(jumps) != 1:
            raise CheckError(f"sweep {direction}: {len(jumps)} jumps, "
                             "expected exactly 1")
        miss = min(abs(jumps[0] - f) for f in folds_hz)
        if miss > step_hz * (1.0 + 1e-9):
            raise CheckError(f"sweep {direction}: jump {miss:.1f} Hz from the "
                             f"nearest fold (grid step {step_hz:.1f} Hz)")
    return {"max_residual": worst, "threshold_err": threshold_err}


def ringdown_oracle(cfg: dict, time_s, nbar0: float) -> np.ndarray:
    """Exact Delta_N(t) of the linearized, one-way, undamped ring-up.

    Each site row j starts at rest under the constant force
    F_j = f1 sin(2 theta_j) nbar0, so d_j(t) = F_j/(m w_j^2)(1 - cos w_j t).
    """
    system = cli.build_system(cfg)
    cav = system.cavity
    sec = cfg["ringdown"]
    if (sec.get("backaction", True) or not sec.get("linearized", False)
            or float(sec.get("damping_rate", 0.0)) != 0.0
            or cli.parse_time(sec.get("ramp_time", 0.0)) != 0.0
            or sec.get("field_model", "adiabatic") != "adiabatic"):
        raise ValueError("the oracle needs a linearized, one-way, undamped, "
                         "instantaneous, adiabatic ring-up")
    tracer = sec.get("tracer_theta")
    ensemble = lattice.build_lattice(
        num_sites=system.trap.num_sites,
        total_atoms=max(system.drive.atom_number, 1.0),
        omega_z_mean=system.trap.omega_z,
        omega_z_spread=cli.parse_frequency(sec.get("omega_z_spread", 0.0)),
        seed=int(cfg["seed"]), k_ratio=cav.k_probe / cav.k_trap,
        subensembles=int(sec.get("subensembles", 1)),
        tracer_thetas=() if tracer is None else (float(tracer),))
    ensemble = ensemble.scaled_to_shift(_delta_n(cfg, system), cav)

    const = params.CONSTANTS
    f1 = -const.hbar * cav.g0 ** 2 * cav.k_probe / cav.delta_ca
    w = ensemble.omega_z
    d_eq = f1 * np.sin(2.0 * ensemble.theta) * nbar0 / (const.m_rb87 * w ** 2)
    t = np.asarray(time_s, dtype=float)
    out = np.empty(t.size)
    for lo in range(0, t.size, 512):           # bounded temporary memory
        tt = t[lo:lo + 512, None]
        s = np.sin(ensemble.theta + cav.k_probe * d_eq * (1.0 - np.cos(w * tt)))
        out[lo:lo + 512] = (s * s) @ ensemble.population
    return out * cav.g0 ** 2 / cav.delta_ca


def oracle_error_kappa(cfg: dict, time_s, delta_n, nbar0: float) -> float:
    """max |Delta_N_sim - Delta_N_exact| / kappa over the samples."""
    exact = ringdown_oracle(cfg, time_s, nbar0)
    kappa = cli.build_system(cfg).cavity.kappa
    return float(np.max(np.abs(np.asarray(delta_n) - exact)) / kappa)


def check_ringdown(cfg: dict, workdir: Path) -> dict:
    summary = json.loads((workdir / "ringdown_summary.json").read_text())
    tau = summary["fitted_tau_s"]
    if not summary["fit_reliable"]:
        raise CheckError("ringdown: decay fit flagged unreliable")
    if not TAU_RANGE_S[0] <= tau <= TAU_RANGE_S[1]:
        raise CheckError(f"ringdown: tau {tau * 1e3:.4f} ms outside "
                         f"[{TAU_RANGE_S[0] * 1e3}, {TAU_RANGE_S[1] * 1e3}] ms")
    for part in ("counts", "windows"):
        if not (workdir / f"ringdown_{part}.csv").is_file():
            raise CheckError(f"ringdown: no {part} file")
    return {"oracle_err_kappa": check_oracle(cfg, workdir)}


def check_oracle(cfg: dict, workdir: Path) -> float:
    """Oracle error of the written Delta_N trace, in kappa."""
    col = _csv_columns(workdir / "ringdown_trace.csv")
    err = oracle_error_kappa(cfg, col["time_s"], col["deltaN_rad_s"],
                             col["nbar"][0])
    if not err <= ORACLE_TOL_KAPPA:
        raise CheckError(f"ringdown: Delta_N off the exact solution by "
                         f"{err:.3g} kappa > {ORACLE_TOL_KAPPA}")
    return err


def check_trigger(cfg: dict, workdir: Path) -> dict:
    summary = json.loads((workdir / "trigger_summary.json").read_text())
    if not summary["triggered"]:
        raise CheckError("trigger: threshold never crossed")
    dn = summary["conditioned_deltaN_2pi_MHz"]
    if abs(dn - TRIGGER_DN_MHZ) > TRIGGER_DN_TOL:
        raise CheckError(f"trigger: conditioned Delta_N {dn:.3f} MHz not "
                         f"{TRIGGER_DN_MHZ} +- {TRIGGER_DN_TOL}")
    delay = cli.parse_time(cfg["trigger"]["delay"])
    if abs(summary["probe_on_time_s"] - summary["trigger_time_s"] - delay) > 1e-9:
        raise CheckError("trigger: probe-on time is not trigger time + delay")
    sec = cfg["trigger"]
    bins = round(cli.parse_time(sec["horizon"]) / cli.parse_time(sec["bin_width"]))
    lines = (workdir / "trigger_counts.csv").read_bytes().splitlines()
    rows = sum(1 for line in lines if not line.startswith(b"#")) - 1
    if not bins <= rows <= bins + 1:        # the last edge may round over
        raise CheckError(f"trigger: {rows} count rows for {bins} bins")
    return {}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "lineshape",
            "mostly single-root steady-state scans (3 x 1201 points); "
            "bypasses dynamics, lattice and measure",
            "lineshape.yaml",
            lambda base, seed, i: _window_config(base, seed, i, "lineshape"),
            lambda cfg, d: [
                ["--config", str(cfg), "--scenario", "derived",
                 "--out", str(d / "derived.json")],
                ["--config", str(cfg), "--scenario", "lineshape",
                 "--out", str(d / "lineshape.csv")]],
            check_lineshape),
        Workload(
            "hysteresis",
            "the same steady-state layer in its three-root band: a jump per "
            "sweep direction at the folds, fold and threshold searches",
            "hysteresis.yaml",
            lambda base, seed, i: _window_config(base, seed, i, "sweep"),
            lambda cfg, d: [
                ["--config", str(cfg), "--scenario", "sweep",
                 "--out", str(d / "sweep.csv")],
                ["--config", str(cfg), "--scenario", "bistability-threshold",
                 "--out", str(d / "threshold.json")]],
            check_hysteresis),
        Workload(
            "ringdown",
            "collective ring-up of 3001 site rows: dynamics and lattice do "
            "the work and set peak memory",
            "ringdown.yaml",
            _tracer_config,
            lambda cfg, d: [["--config", str(cfg), "--out", str(d / "ringdown")]],
            check_ringdown),
        Workload(
            "trigger_shots",
            "seeded trigger/delay/detect shots of 100k bins: the detection "
            "chain and the CSV writer do the work",
            "trigger.yaml",
            _shot_config,
            lambda cfg, d: [["--config", str(cfg), "--out", str(d / "trigger")]],
            check_trigger,
            per_pass_inputs=True),
    )
}
