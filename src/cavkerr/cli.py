"""Command-line front end: config-driven scenarios with CSV/JSON output.

Configs are YAML with strict schemas (unknown keys are rejected).  All
frequency-like fields accept a plain number (ordinary Hz) or a string with
a unit suffix ("0.66 MHz", "-101 GHz", "49 kHz"); they are converted to
angular rad/s internally, following the lab convention of quoting angular
frequencies as 2*pi x ordinary frequency.  Times, lengths and temperatures
take s/ms/us/ns, m/mm/um/nm and K/mK/uK/nK suffixes.

Every output file starts with comment lines embedding the resolved config
and the seed, so a run is reproducible from its own output.  Exit codes:
0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np
import yaml

from . import dynamics, lattice, measure, params, steady_state

TWO_PI = 2.0 * np.pi


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# unit parsing

_NUM_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([^\s]*)\s*$")

_FREQ = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
_LEN = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}
_TEMP = {"k": 1.0, "mk": 1e-3, "uk": 1e-6, "nk": 1e-9}


def _split(value, key):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value), ""
    if isinstance(value, str):
        m = _NUM_RE.match(value)
        if m:
            return float(m.group(1)), m.group(2).lower()
    raise ConfigError(f"{key}: cannot parse value {value!r}")


def parse_frequency(value, key="frequency") -> float:
    """Ordinary frequency (Hz or suffixed) -> angular rad/s."""
    num, unit = _split(value, key)
    if unit and unit not in _FREQ:
        raise ConfigError(f"{key}: unknown frequency unit {unit!r}")
    return TWO_PI * num * _FREQ.get(unit, 1.0)


def parse_chirp(value, key="chirp") -> float:
    """Chirp rate like '6 MHz/ms' -> ordinary Hz/s."""
    num, unit = _split(value, key)
    if not unit:
        return num
    if "/" not in unit:
        raise ConfigError(f"{key}: chirp unit must look like 'MHz/ms'")
    fu, tu = unit.split("/", 1)
    if fu not in _FREQ or tu not in _TIME:
        raise ConfigError(f"{key}: unknown chirp unit {unit!r}")
    return num * _FREQ[fu] / _TIME[tu]


def parse_time(value, key="time") -> float:
    num, unit = _split(value, key)
    if unit and unit not in _TIME:
        raise ConfigError(f"{key}: unknown time unit {unit!r}")
    return num * _TIME.get(unit, 1.0)


def parse_length(value, key="length") -> float:
    num, unit = _split(value, key)
    if unit and unit not in _LEN:
        raise ConfigError(f"{key}: unknown length unit {unit!r}")
    return num * _LEN.get(unit, 1.0)


def parse_temperature(value, key="temperature") -> float:
    num, unit = _split(value, key)
    if unit and unit not in _TEMP:
        raise ConfigError(f"{key}: unknown temperature unit {unit!r}")
    return num * _TEMP.get(unit, 1.0)


# ---------------------------------------------------------------------------
# schema

_SCHEMA = {
    "scenario": None,
    "seed": None,
    "out": None,
    "params": {
        "cavity": {"kappa", "g0", "gamma_atom", "delta_ca", "probe_wavelength",
                   "trap_wavelength", "sigma_jitter", "waist", "finesse"},
        "trap": {"omega_z", "omega_radial", "trap_depth", "temperature",
                 "num_sites"},
        "drive": {"n_max", "delta_pc", "atom_number", "delta_n"},
    },
    "lineshape": {"delta_pc_start", "delta_pc_stop", "points", "n_max",
                  "direction"},
    "sweep": {"chirp_rate", "delta_pc_start", "delta_pc_stop", "points"},
    "threshold": {"beta"},
    "ringdown": {"duration", "level", "level_mode", "omega_z_spread",
                 "subensembles", "tracer_theta", "efficiency", "bin_width",
                 "window_length", "n_average", "damping_rate", "backaction",
                 "linearized", "dt_per_period", "record_every", "fit_model",
                 "field_model", "ramp_time", "use_trigger"},
    "trigger": {"n0", "loss_rate", "threshold_rate", "delay",
                "detection_level", "bin_width", "horizon", "smoothing_time",
                "efficiency"},
}

SCENARIOS = ("derived", "lineshape", "bistability-threshold", "sweep",
             "ringdown", "trigger")


def _check_keys(cfg: dict, schema: dict, path="") -> None:
    for key, val in cfg.items():
        here = f"{path}{key}"
        if key not in schema:
            raise ConfigError(f"unknown key: {here}")
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{here}: expected a mapping")
            _check_keys(val, sub, here + ".")
        elif isinstance(sub, set):
            if not isinstance(val, dict):
                raise ConfigError(f"{here}: expected a mapping")
            for k in val:
                if k not in sub:
                    raise ConfigError(f"unknown key: {here}.{k}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    _check_keys(cfg, _SCHEMA)
    return cfg


def _require(cfg, section, key):
    try:
        return cfg[section][key]
    except (KeyError, TypeError):
        raise ConfigError(f"missing key: {section}.{key}") from None


def build_system(cfg: dict) -> params.SystemParams:
    p = cfg.get("params")
    if not isinstance(p, dict):
        raise ConfigError("missing section: params")
    cav = p.get("cavity", {})
    trap = p.get("trap", {})
    drive = p.get("drive", {})
    try:
        cavity = params.CavityParams(
            kappa=parse_frequency(_require(p, "cavity", "kappa"), "params.cavity.kappa"),
            g0=parse_frequency(_require(p, "cavity", "g0"), "params.cavity.g0"),
            gamma_atom=parse_frequency(_require(p, "cavity", "gamma_atom"),
                                       "params.cavity.gamma_atom"),
            delta_ca=parse_frequency(_require(p, "cavity", "delta_ca"),
                                     "params.cavity.delta_ca"),
            k_probe=TWO_PI / parse_length(_require(p, "cavity", "probe_wavelength"),
                                          "params.cavity.probe_wavelength"),
            k_trap=TWO_PI / parse_length(_require(p, "cavity", "trap_wavelength"),
                                         "params.cavity.trap_wavelength"),
            sigma_jitter=parse_frequency(cav.get("sigma_jitter", 0.0),
                                         "params.cavity.sigma_jitter"),
            waist=parse_length(cav.get("waist", 0.0), "params.cavity.waist"),
            finesse=float(cav.get("finesse", 0.0)),
        )
        trap_p = params.TrapParams(
            omega_z=parse_frequency(_require(p, "trap", "omega_z"),
                                    "params.trap.omega_z"),
            omega_radial=parse_frequency(trap.get("omega_radial", 0.0),
                                         "params.trap.omega_radial"),
            trap_depth=(params.CONSTANTS.kB
                        * parse_temperature(trap.get("trap_depth", 0.0),
                                            "params.trap.trap_depth")),
            temperature=parse_temperature(trap.get("temperature", 0.0),
                                          "params.trap.temperature"),
            num_sites=int(trap.get("num_sites", 1)),
        )
        drive_p = params.DriveParams(
            n_max=float(_require(p, "drive", "n_max")),
            delta_pc=parse_frequency(_require(p, "drive", "delta_pc"),
                                     "params.drive.delta_pc"),
            atom_number=float(drive.get("atom_number", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params.SystemParams(cavity, trap_p, drive_p)


def _delta_n(cfg, system) -> float:
    override = cfg.get("params", {}).get("drive", {}).get("delta_n")
    if override is not None:
        return parse_frequency(override, "params.drive.delta_n")
    if system.drive.atom_number == 0:
        return 0.0
    return system.collective_shift()


# ---------------------------------------------------------------------------
# output helpers

def _meta(cfg, seed) -> dict:
    return {"config": json.dumps(cfg, sort_keys=True, default=str),
            "seed": seed}


def write_csv(path, colnames, columns, meta) -> None:
    rows = list(zip(*columns))
    with open(path, "w") as fh:
        for k, v in meta.items():
            fh.write(f"# {k}: {v}\n")
        fh.write(",".join(colnames) + "\n")
        for row in rows:
            cells = [cell if isinstance(cell, str) else format(cell, ".17g")
                     for cell in row]
            fh.write(",".join(cells) + "\n")


def read_csv(path):
    """Read back a write_csv file -> (meta, colnames, list of row tuples)."""
    meta, colnames, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                k, v = line[2:].split(":", 1)
                meta[k] = v.strip()
            elif colnames is None:
                colnames = line.split(",")
            elif line:
                cells = []
                for cell in line.split(","):
                    try:
                        cells.append(float(cell))
                    except ValueError:
                        cells.append(cell)
                rows.append(tuple(cells))
    return meta, colnames, rows


def _emit_json(report, out, meta) -> None:
    report = dict(report, **{f"_{k}": v for k, v in meta.items()})
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# scenarios

def cmd_derived(cfg, out, seed) -> int:
    system = build_system(cfg)
    cav, trap, drive = system.cavity, system.trap, system.drive
    dn = _delta_n(cfg, system)
    eps_multi = system.kerr_coefficient(multi_well=True)
    crit_atom, crit_photon = params.critical_numbers(cav)
    report = {
        "recoil_frequency_2pi_Hz": system.recoil_frequency() / TWO_PI,
        "collective_shift_2pi_MHz": dn / TWO_PI / 1e6,
        "kerr_coefficient_single_well": system.kerr_coefficient(multi_well=False),
        "kerr_coefficient_multi_well": eps_multi,
        "beta": params.beta_parameter(dn, eps_multi, drive.n_max, cav.kappa),
        "critical_atom_number": crit_atom,
        "critical_photon_number": crit_photon,
        "units": "angular quantities reported as ordinary frequency (value/2pi)",
    }
    if system.drive.atom_number > 0:
        report["nonlinear_photon_threshold"] = params.nonlinear_photon_threshold(system)
    else:
        report["nonlinear_photon_threshold"] = "undefined"
    nmax_list = cfg.get("lineshape", {}).get("n_max")
    if nmax_list:
        report["beta_per_n_max"] = {
            str(n): params.beta_parameter(dn, eps_multi, float(n), cav.kappa)
            for n in nmax_list}
    _emit_json(report, out, _meta(cfg, seed))
    return 0


def cmd_lineshape(cfg, out, seed) -> int:
    system = build_system(cfg)
    sec = cfg.get("lineshape")
    if not sec:
        raise ConfigError("missing section: lineshape")
    points = int(sec.get("points", 801))
    if points < 2:
        raise ConfigError("lineshape.points: grid is empty")
    start = parse_frequency(_require(cfg, "lineshape", "delta_pc_start"),
                            "lineshape.delta_pc_start")
    stop = parse_frequency(_require(cfg, "lineshape", "delta_pc_stop"),
                           "lineshape.delta_pc_stop")
    n_max_list = [float(n) for n in sec.get("n_max", [system.drive.n_max])]
    direction = sec.get("direction", "up")
    if direction not in ("up", "down"):
        raise ConfigError("lineshape.direction must be 'up' or 'down'")

    profile = steady_state.ResponseProfile.from_cavity(system.cavity)
    dn = _delta_n(cfg, system)
    eps = system.kerr_coefficient()
    grid = (np.linspace(start, stop, points) - dn) / profile.kappa

    if not out:
        raise ConfigError("lineshape needs --out (or 'out' in the config)")
    trace_col, nmax_col, dpc_col, nbar_col = [], [], [], []
    for i, n_max in enumerate(n_max_list):
        beta = params.beta_parameter(dn, eps, n_max, system.cavity.kappa)
        scan = steady_state.lineshape_scan(profile, beta, grid, direction)
        for d0, u in scan:
            trace_col.append(float(i))
            nmax_col.append(n_max)
            dpc_col.append((d0 * profile.kappa + dn) / TWO_PI)
            nbar_col.append(u * n_max)
    write_csv(out, ["trace", "n_max", "deltaPC_Hz", "nbar"],
              [trace_col, nmax_col, dpc_col, nbar_col], _meta(cfg, seed))
    return 0


def cmd_sweep(cfg, out, seed) -> int:
    system = build_system(cfg)
    sec = cfg.get("sweep")
    if not sec:
        raise ConfigError("missing section: sweep")
    chirp = parse_chirp(_require(cfg, "sweep", "chirp_rate"), "sweep.chirp_rate")
    if chirp == 0:
        raise ConfigError("sweep.chirp_rate must be nonzero")
    start = parse_frequency(_require(cfg, "sweep", "delta_pc_start"),
                            "sweep.delta_pc_start")
    stop = parse_frequency(_require(cfg, "sweep", "delta_pc_stop"),
                           "sweep.delta_pc_stop")
    points = int(sec.get("points", 1201))
    if points < 2:
        raise ConfigError("sweep.points must be at least 2")
    profile = steady_state.ResponseProfile.from_cavity(system.cavity)
    dn = _delta_n(cfg, system)
    beta = system.beta(delta_n=dn)

    if not out:
        raise ConfigError("sweep needs --out (or 'out' in the config)")
    lo, hi = min(start, stop), max(start, stop)
    dir_col, dpc_col, nbar_col = [], [], []
    for direction, chirp_signed in (("up", abs(chirp)), ("down", -abs(chirp))):
        cfg_sweep = dynamics.SweepConfig(
            chirp_rate=chirp_signed,
            delta_pc_start=lo if direction == "up" else hi,
            delta_pc_end=hi if direction == "up" else lo,
            n_max=system.drive.n_max)
        dpc, nbar = dynamics.quasi_static_sweep(cfg_sweep, profile, beta, dn,
                                                points)
        dir_col.extend([direction] * len(dpc))
        dpc_col.extend((dpc / TWO_PI).tolist())
        nbar_col.extend(nbar.tolist())
    write_csv(out, ["direction", "deltaPC_Hz", "nbar"],
              [dir_col, dpc_col, nbar_col], _meta(cfg, seed))
    return 0


def cmd_threshold(cfg, out, seed) -> int:
    system = build_system(cfg)
    profile = steady_state.ResponseProfile.from_cavity(system.cavity)
    lor = steady_state.ResponseProfile.lorentzian(system.cavity.kappa)
    report = {
        "lorentzian_threshold": steady_state.bistability_threshold(lor),
        "profile_kind": profile.kind.value,
        "profile_threshold": steady_state.bistability_threshold(profile),
    }
    dn = _delta_n(cfg, system)
    beta = cfg.get("threshold", {}).get("beta")
    if beta is None and (dn != 0 or system.drive.atom_number > 0):
        beta = system.beta(delta_n=dn)   # same beta the sweep scenario uses
    if beta is not None and beta > 0:
        folds = steady_state.fold_points(profile, float(beta))
        report["beta"] = float(beta)
        report["folds"] = [
            {"delta0": d0, "u": u,
             "deltaPC_Hz": (d0 * profile.kappa + dn) / TWO_PI}
            for d0, u in folds]
    _emit_json(report, out, _meta(cfg, seed))
    return 0


def _out_base(out):
    if out is None:
        raise ConfigError("scenario needs --out (or 'out' in the config)")
    return out[:-4] if out.endswith(".csv") else out


def cmd_ringdown(cfg, out, seed) -> int:
    system = build_system(cfg)
    sec = cfg.get("ringdown")
    if not sec:
        raise ConfigError("missing section: ringdown")
    cav, trap = system.cavity, system.trap
    profile = steady_state.ResponseProfile.from_cavity(cav)

    dn0 = _delta_n(cfg, system)
    if cfg.get("trigger") and sec.get("use_trigger", False):
        trig = _run_trigger(cfg, system, seed)
        if not trig.triggered:
            raise RuntimeError("trigger threshold never crossed within horizon")
        dn0 = trig.conditioned_delta_n

    duration = parse_time(sec.get("duration", "1 ms"), "ringdown.duration")
    level = float(sec.get("level", system.drive.n_max))
    level_mode = sec.get("level_mode", "instantaneous")
    if level_mode == "instantaneous":
        n_max = dynamics.n_max_for_switch_on(level, profile,
                                             system.drive.delta_pc, dn0)
    elif level_mode == "nmax":
        n_max = level
    else:
        raise ConfigError("ringdown.level_mode must be 'instantaneous' or 'nmax'")

    spread = parse_frequency(sec.get("omega_z_spread", 0.0),
                             "ringdown.omega_z_spread")
    tracer = sec.get("tracer_theta")
    ensemble = lattice.build_lattice(
        num_sites=trap.num_sites,
        total_atoms=max(system.drive.atom_number, 1.0),
        omega_z_mean=trap.omega_z, omega_z_spread=spread,
        seed=seed, k_ratio=cav.k_probe / cav.k_trap,
        subensembles=int(sec.get("subensembles", 1)),
        tracer_thetas=() if tracer is None else (float(tracer),))
    ensemble = ensemble.scaled_to_shift(dn0, cav)

    drive = params.DriveParams(n_max=n_max, delta_pc=system.drive.delta_pc,
                               atom_number=system.drive.atom_number)
    mode = dynamics.CavityFieldMode(sec.get("field_model", "adiabatic"))
    dt = TWO_PI / (float(sec.get("dt_per_period", 200)) * trap.omega_z)
    trace = dynamics.ring_up(
        ensemble, cav, trap, drive, dynamics.CavityFieldModel(mode),
        damping_rate=float(sec.get("damping_rate", 0.0)),
        duration=duration, dt=dt, profile=profile,
        ramp_time=parse_time(sec.get("ramp_time", 0.0), "ringdown.ramp_time"),
        backaction=bool(sec.get("backaction", True)),
        linearized_force=bool(sec.get("linearized", False)),
        record_every=int(sec.get("record_every", 1)))

    efficiency = float(sec.get("efficiency", 0.05))
    bin_width = parse_time(sec.get("bin_width", "2 us"), "ringdown.bin_width")
    n_average = int(sec.get("n_average", 1))
    window = parse_time(sec.get("window_length", "500 us"),
                        "ringdown.window_length")

    if n_average > 1:
        centers, mean_counts = measure.averaged_counts(
            trace, cav, efficiency, bin_width, seed, n_average)
        counts_cols = [centers.tolist(), (mean_counts / bin_width).tolist()]
        counts_names = ["time_s", "mean_rate_s"]
        spectral_src = (centers, mean_counts / bin_width)
    else:
        rec = measure.count_monte_carlo(trace, cav, efficiency, bin_width, seed)
        counts_cols = [rec.times.tolist(), rec.counts.astype(float).tolist()]
        counts_names = ["time_s", "counts"]
        spectral_src = rec

    decay = measure.windowed_fourier_amplitude(spectral_src,
                                               trap.omega_z / TWO_PI, window)
    fit = measure.decay_fit(decay, model=sec.get("fit_model", "gaussian"))

    base = _out_base(out)
    meta = _meta(cfg, seed)
    write_csv(base + "_trace.csv", ["time_s", "deltaN_rad_s", "nbar"],
              [trace.time.tolist(), trace.delta_n.tolist(),
               trace.nbar.tolist()], meta)
    write_csv(base + "_counts.csv", counts_names, counts_cols, meta)
    write_csv(base + "_windows.csv", ["window_center_s", "amplitude"],
              [decay.window_centers.tolist(), decay.amplitudes.tolist()], meta)

    summary = {
        "n_max": n_max, "switch_on_nbar": float(trace.nbar[0]),
        "delta_n0_2pi_MHz": dn0 / TWO_PI / 1e6,
        "excursion_half_linewidths":
            float((trace.delta_n.max() - trace.delta_n.min()) / cav.kappa),
        "fitted_tau_s": fit.tau, "fit_model": fit.model,
        "tau_exponential_s": fit.tau_exponential,
        "tau_gaussian_s": fit.tau_gaussian, "fit_reliable": fit.reliable,
    }
    if trace.displacements is not None and tracer is not None:
        tr = trace.displacements[:, -1]
        summary["tracer_pp_displacement_nm"] = float((tr.max() - tr.min()) * 1e9)
    with open(base + "_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _run_trigger(cfg, system, seed) -> measure.TriggerResult:
    sec = cfg.get("trigger")
    if not sec:
        raise ConfigError("missing section: trigger")
    drift = measure.AtomLossDrift(float(sec["n0"]), float(sec["loss_rate"]))
    return measure.trigger_sequence(
        drift, system.cavity, system.drive,
        threshold_rate=float(sec["threshold_rate"]),
        delay=parse_time(sec.get("delay", "10 ms"), "trigger.delay"),
        detection_level=float(sec.get("detection_level", system.drive.n_max)),
        efficiency=float(sec.get("efficiency", 0.05)),
        bin_width=parse_time(sec.get("bin_width", "10 us"), "trigger.bin_width"),
        horizon=parse_time(sec.get("horizon", "1 s"), "trigger.horizon"),
        seed=seed,
        smoothing_time=parse_time(sec.get("smoothing_time", "100 us"),
                                  "trigger.smoothing_time"))


def cmd_trigger(cfg, out, seed) -> int:
    system = build_system(cfg)
    result = _run_trigger(cfg, system, seed)
    report = {
        "triggered": result.triggered,
        "trigger_time_s": result.trigger_time,
        "conditioned_deltaN_2pi_MHz":
            None if result.conditioned_delta_n is None
            else result.conditioned_delta_n / TWO_PI / 1e6,
        "probe_on_time_s": result.probe_on_time,
        "detection_level": result.detection_level,
    }
    if out:
        base = _out_base(out)
        write_csv(base + "_counts.csv", ["time_s", "counts"],
                  [result.counts.times.tolist(),
                   result.counts.counts.astype(float).tolist()],
                  _meta(cfg, seed))
        with open(base + "_summary.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


_DISPATCH = {
    "derived": cmd_derived,
    "lineshape": cmd_lineshape,
    "bistability-threshold": cmd_threshold,
    "sweep": cmd_sweep,
    "ringdown": cmd_ringdown,
    "trigger": cmd_trigger,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cavkerr",
        description="Kerr-cavity simulator: lineshapes, bistability, ring-up")
    parser.add_argument("--config", required=True, help="YAML config path")
    parser.add_argument("--out", default=None, help="output path (or base)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--scenario", default=None, choices=SCENARIOS,
                        help="override the config scenario")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        scenario = args.scenario or cfg.get("scenario")
        if scenario not in _DISPATCH:
            raise ConfigError(f"unknown scenario: {scenario!r}")
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        out = args.out or cfg.get("out")
        return _DISPATCH[scenario](cfg, out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric/runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
