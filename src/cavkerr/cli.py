"""Command-line front end: config-driven scenarios with CSV/JSON output.

FIELDS is the one config table: each key's parser (unit and range check)
and its default, or the mark that it is required.  Unknown keys are
rejected, and a scenario parses every section it reads before it computes.
Frequencies are ordinary Hz, bare or suffixed ("0.66 MHz"), held as angular
rad/s; docs/formats.md lists the keys and units.

Every output embeds the config and the seed (CSV comment lines, JSON
``_config``/``_seed`` keys), so a run is reproducible from its own output.
Exit codes: 0 success, 2 config error (naming the key), 3 numeric failure.

Only ``params`` and ``steady_state`` are imported with this module; each
scenario imports the other layers it runs, inside the function that runs
them, so a ``derived`` or ``bistability-threshold`` run never loads them.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import params, steady_state
from .params import TWO_PI


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# value parsing: each takes the raw YAML value and the dotted key it came from

_NUM_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([^\s]*)\s*$")

_FREQ = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
_LEN = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}
_TEMP = {"k": 1.0, "mk": 1e-3, "uk": 1e-6, "nk": 1e-9}
_CHIRP = {f"{f}/{t}": _FREQ[f] / _TIME[t] for f in _FREQ for t in _TIME}


def _parse_unit(value, key, units, scale=1.0) -> float:
    """A number, or a string with a suffix from ``units``, times ``scale``.

    The result must be finite; a bare number takes the unit factor 1.
    """
    match = _NUM_RE.match(value) if isinstance(value, str) else None
    if match:
        num, unit = float(match.group(1)), match.group(2).lower()
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        num, unit = float(value), ""
    else:
        raise ConfigError(f"{key}: cannot parse value {value!r}")
    if unit and unit not in units:
        raise ConfigError(f"{key}: unknown unit {unit!r}")
    out = scale * num * units.get(unit, 1.0)
    if not math.isfinite(out):
        raise ConfigError(f"{key}: value {value!r} is not finite")
    return out


def parse_frequency(value, key="frequency") -> float:
    """Ordinary frequency (Hz or suffixed) -> angular rad/s."""
    return _parse_unit(value, key, _FREQ, TWO_PI)


def parse_chirp(value, key="chirp") -> float:
    """Chirp rate like '6 MHz/ms' (a bare number is Hz/s) -> ordinary Hz/s."""
    return _parse_unit(value, key, _CHIRP)


def parse_time(value, key="time") -> float:
    return _parse_unit(value, key, _TIME)


def parse_length(value, key="length") -> float:
    return _parse_unit(value, key, _LEN)


def parse_temperature(value, key="temperature") -> float:
    return _parse_unit(value, key, _TEMP)


def _number(value, key) -> float:
    return _parse_unit(value, key, {})


def _numbers(value, key) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a list of numbers")
    return [_number(v, f"{key}[{i}]") for i, v in enumerate(value)]


def _check(ok, what, parse=None):
    """A parser that applies ``parse`` (when given), then demands ``ok``."""
    def parse_checked(value, key):
        x = value if parse is None else parse(value, key)
        if not ok(x):
            raise ConfigError(f"{key} must be {what}, not {value!r}")
        return x
    return parse_checked


def _one_of(*choices):
    return _check(lambda v: v in choices, "one of " + ", ".join(choices))


def _at_least(lo):
    return _check(lambda n: n >= lo, f"at least {lo}", _integer)


def _positive(parse):
    return _check(lambda x: x > 0, "positive", parse)


def _nonnegative(parse):
    return _check(lambda x: x >= 0, "nonnegative", parse)


def _nonzero(parse):
    return _check(lambda x: x != 0, "nonzero", parse)


_integer = _check(lambda v: isinstance(v, int) and not isinstance(v, bool),
                  "an integer")
_flag = _check(lambda v: isinstance(v, bool), "true or false")
_text = _check(lambda v: isinstance(v, str), "a string")
_fraction = _check(lambda x: 0.0 <= x <= 1.0, "in [0, 1]", _number)


# ---------------------------------------------------------------------------
# the config table: dotted key -> (parser, default).  A default is parsed
# like a config value; ... marks a required key, and None means "unset" (the
# comment says what unset stands for).  A key marked "recorded only" is
# checked and kept in every output's config, but sets nothing.

class Field(NamedTuple):
    parse: Callable
    default: object = ...


SCENARIOS = ("derived", "lineshape", "bistability-threshold", "sweep",
             "ringdown", "trigger")

FIELDS = {
    "scenario": Field(_one_of(*SCENARIOS), None),
    "seed": Field(_integer, 0),
    "out": Field(_text, None),
    "params.cavity.kappa": Field(_positive(parse_frequency)),
    "params.cavity.g0": Field(_positive(parse_frequency)),
    "params.cavity.gamma_atom": Field(_positive(parse_frequency)),
    "params.cavity.delta_ca": Field(_nonzero(parse_frequency)),
    "params.cavity.probe_wavelength": Field(_positive(parse_length)),
    "params.cavity.trap_wavelength": Field(_positive(parse_length)),
    "params.cavity.sigma_jitter": Field(_nonnegative(parse_frequency), 0.0),
    "params.cavity.waist": Field(parse_length, 0.0),            # recorded only
    "params.cavity.finesse": Field(_number, 0.0),               # recorded only
    "params.trap.omega_z": Field(_positive(parse_frequency)),
    "params.trap.omega_radial": Field(parse_frequency, 0.0),    # recorded only
    "params.trap.trap_depth": Field(parse_temperature, 0.0),    # recorded only
    "params.trap.temperature": Field(parse_temperature, 0.0),   # recorded only
    "params.trap.num_sites": Field(_at_least(1), 1),
    "params.drive.n_max": Field(_nonnegative(_number)),
    "params.drive.delta_pc": Field(parse_frequency),
    "params.drive.atom_number": Field(_nonnegative(_number), 0.0),
    "params.drive.delta_n": Field(parse_frequency, None),  # N g0^2/(2 delta_ca)
    "lineshape.delta_pc_start": Field(parse_frequency),
    "lineshape.delta_pc_stop": Field(parse_frequency),
    "lineshape.points": Field(_at_least(2), 801),
    "lineshape.n_max": Field(_check(lambda xs: xs and min(xs) >= 0,
                                    "a nonempty list of nonnegative numbers",
                                    _numbers), None),  # [params.drive.n_max]
    "lineshape.direction": Field(_one_of("up", "down"), "up"),
    "sweep.chirp_rate": Field(_nonzero(parse_chirp)),   # sets nothing
    "sweep.delta_pc_start": Field(parse_frequency),
    "sweep.delta_pc_stop": Field(parse_frequency),
    "sweep.points": Field(_at_least(2), 1201),
    "ringdown.duration": Field(_nonnegative(parse_time), "1 ms"),
    "ringdown.level": Field(_nonnegative(_number), None),  # params.drive.n_max
    "ringdown.level_mode": Field(_one_of("instantaneous", "nmax"),
                                 "instantaneous"),
    "ringdown.omega_z_spread": Field(_nonnegative(parse_frequency), 0.0),
    "ringdown.subensembles": Field(_at_least(1), 1),
    "ringdown.tracer_theta": Field(_number, None),  # no tracer site
    "ringdown.efficiency": Field(_fraction, 0.05),
    "ringdown.bin_width": Field(_positive(parse_time), "2 us"),
    "ringdown.window_length": Field(_positive(parse_time), "500 us"),
    "ringdown.n_average": Field(_at_least(1), 1),
    "ringdown.damping_rate": Field(_nonnegative(_number), 0.0),
    "ringdown.backaction": Field(_flag, True),
    "ringdown.linearized": Field(_flag, False),
    "ringdown.dt_per_period": Field(_positive(_number), 200),
    "ringdown.record_every": Field(_at_least(1), 1),
    "ringdown.fit_model": Field(_one_of("gaussian", "exponential"), "gaussian"),
    "ringdown.field_model": Field(_one_of("adiabatic", "filter"),
                                  "adiabatic"),  # ring_up's field_model
    "ringdown.ramp_time": Field(_nonnegative(parse_time), 0.0),
    "ringdown.use_trigger": Field(_flag, False),
    "trigger.n0": Field(_positive(_number)),
    "trigger.loss_rate": Field(_nonnegative(_number)),
    "trigger.threshold_rate": Field(_positive(_number)),
    "trigger.delay": Field(_nonnegative(parse_time), "10 ms"),
    "trigger.detection_level": Field(_nonnegative(_number),
                                     None),  # params.drive.n_max
    "trigger.bin_width": Field(_positive(parse_time), "10 us"),
    "trigger.horizon": Field(_positive(parse_time), "1 s"),
    "trigger.smoothing_time": Field(_nonnegative(parse_time), "100 us"),
    "trigger.efficiency": Field(_fraction, 0.05),
}

# the sections: "params", "params.cavity", ..., "lineshape", ...
_MAPPINGS = {k.rsplit(".", n)[0] for k in FIELDS for n in (1, 2) if "." in k}


def _by_section(fields: dict) -> dict[str, list[tuple[str, Field]]]:
    """{section: [(key, Field)]} in table order; top-level keys are in ""."""
    out = {}
    for name, field in fields.items():
        parent, _, key = name.rpartition(".")
        out.setdefault(parent, []).append((key, field))
    return out


_SECTION_FIELDS = _by_section(FIELDS)


def _reject_unknown(raw: dict, path="") -> None:
    for key, value in raw.items():
        name = f"{path}{key}"
        if name in _MAPPINGS:
            if not isinstance(value, dict):
                raise ConfigError(f"{name}: expected a mapping")
            _reject_unknown(value, name + ".")
        elif name not in FIELDS:
            raise ConfigError(f"unknown key: {name}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader",  # libyaml
                                               yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    _reject_unknown(cfg)
    return cfg


def _resolve(cfg: dict, section: str, keys=None) -> dict:
    """Parse one section of the raw config through FIELDS; absent or null
    keys take their default.  ``keys`` limits the parsing to those keys."""
    raw = cfg
    for part in filter(None, section.split(".")):
        raw = raw.get(part, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"{section}: expected a mapping")
    out = {}
    for key, field in _SECTION_FIELDS.get(section, ()):
        if keys is not None and key not in keys:
            continue
        name = f"{section}.{key}" if section else key
        value = field.default if raw.get(key) is None else raw[key]
        if value is ...:
            raise ConfigError(f"missing key: {name}")
        out[key] = None if value is None else field.parse(value, name)
    return out


_RECORDED_ONLY = ("waist", "finesse", "omega_radial", "trap_depth",
                  "temperature")


def build_system(cfg: dict) -> params.SystemParams:
    cav, trap, drive = (
        {k: v for k, v in _resolve(cfg, f"params.{name}").items()
         if k not in _RECORDED_ONLY}
        for name in ("cavity", "trap", "drive"))
    del drive["delta_n"]                                # read by _system
    probe_wl, trap_wl = cav.pop("probe_wavelength"), cav.pop("trap_wavelength")
    if probe_wl == trap_wl:
        raise ConfigError("params.cavity.probe_wavelength and "
                          "params.cavity.trap_wavelength must differ")
    try:
        return params.SystemParams(
            params.CavityParams(k_probe=TWO_PI / probe_wl,
                                k_trap=TWO_PI / trap_wl, **cav),
            params.TrapParams(**trap), params.DriveParams(**drive))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _system(cfg: dict) -> tuple[params.SystemParams, float]:
    """The system and its collective shift: the ``params.drive.delta_n``
    override, else N g0^2/(2 delta_ca) (zero without atoms)."""
    system = build_system(cfg)
    dn = _resolve(cfg, "params.drive", ("delta_n",))["delta_n"]
    if dn is None:
        dn = 0.0 if system.drive.atom_number == 0 else system.collective_shift()
    return system, dn


# ---------------------------------------------------------------------------
# output helpers

def _meta(cfg, seed) -> dict:
    return {"config": json.dumps(cfg, sort_keys=True, default=str),
            "seed": seed}


def write_csv(path, colnames, columns, meta) -> None:
    """Write the ``#`` meta lines, the header row and the columns' rows.

    Each cell is byte for byte what Python writes for it, by its column's
    NumPy dtype: text as is, an integer as %d, a float as %.17g; a column
    of any other dtype (a None, an int beyond 64 bits), or a list made
    float whose int would print rounded, is a ValueError naming it, raised
    before the first row.  The rows are rendered in NumPy (``csvrows``,
    which also says which float cells take Python's own %.17g), one binary
    write a block."""
    from . import csvrows
    with open(path, "w") as fh:
        for k, v in meta.items():
            fh.write(f"# {k}: {v}\n")
        fh.write(",".join(colnames) + "\n")
        fh.flush()
        csvrows.write(fh.buffer, colnames, columns)


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


def _write_counts(path, record, meta) -> None:
    """A count record on its implicit time grid: an integer ``bin`` column,
    and ``t0_s`` and ``bin_width_s`` in the header, so bin k is centred at
    t0_s + (k + 0.5) * bin_width_s, bit for bit ``record.times``.  Integer
    counts are written as ``counts``, mean counts as ``mean_rate_s``."""
    if np.issubdtype(record.counts.dtype, np.integer):
        name, values = "counts", record.counts
    else:
        name, values = "mean_rate_s", record.rates
    grid = {"t0_s": "%.17g" % record.t_start,
            "bin_width_s": "%.17g" % record.bin_width}
    write_csv(path, ["bin", name], [np.arange(len(values)), values],
              dict(meta, **grid))


def _emit_json(report, path, meta=None) -> None:
    """Print the report as JSON and, with a path, write it there too."""
    report = dict(report, **{f"_{k}": v for k, v in (meta or {}).items()})
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# scenarios

def cmd_derived(cfg, out, seed) -> int:
    nmax_list = _resolve(cfg, "lineshape", ("n_max",))["n_max"]
    system, dn = _system(cfg)
    cav, drive = system.cavity, system.drive
    eps_multi = system.kerr_coefficient(multi_well=True)
    crit_atom, crit_photon = params.critical_numbers(cav)
    report = {
        "recoil_frequency_2pi_Hz": params.recoil_frequency(cav.k_probe) / TWO_PI,
        "collective_shift_2pi_MHz": dn / TWO_PI / 1e6,
        "kerr_coefficient_single_well": system.kerr_coefficient(multi_well=False),
        "kerr_coefficient_multi_well": eps_multi,
        "beta": params.beta_parameter(dn, eps_multi, drive.n_max, cav.kappa),
        "critical_atom_number": crit_atom,
        "critical_photon_number": crit_photon,
        "units": "angular quantities reported as ordinary frequency (value/2pi)",
        "nonlinear_photon_threshold":
            params.nonlinear_photon_threshold(system)
            if drive.atom_number > 0 else "undefined",
    }
    if nmax_list:
        report["beta_per_n_max"] = {
            str(n): params.beta_parameter(dn, eps_multi, n, cav.kappa)
            for n in nmax_list}
    _emit_json(report, out, _meta(cfg, seed))
    return 0


def cmd_lineshape(cfg, out, seed) -> int:
    from . import dynamics
    sec = _resolve(cfg, "lineshape")
    system, dn = _system(cfg)
    if not out:
        raise ConfigError("lineshape needs --out (or 'out' in the config)")
    n_max_list = ([system.drive.n_max] if sec["n_max"] is None
                  else sec["n_max"])

    profile = steady_state.ResponseProfile.from_cavity(system.cavity)
    eps = system.kerr_coefficient()
    grid = np.linspace(sec["delta_pc_start"], sec["delta_pc_stop"],
                       sec["points"])

    betas = [params.beta_parameter(dn, eps, n_max, system.cavity.kappa)
             for n_max in n_max_list]
    # one scan solves every drive; a row of dpc and nbar per n_max
    dpc, nbar = dynamics.quasi_static_sweep(profile, np.array(betas), grid,
                                            np.array(n_max_list), dn,
                                            sec["direction"])
    rows = dpc.shape[1]
    write_csv(out, ["trace", "n_max", "deltaPC_Hz", "nbar"],
              [np.repeat(np.arange(len(n_max_list)), rows),
               np.repeat(n_max_list, rows), dpc.ravel() / TWO_PI,
               nbar.ravel()], _meta(cfg, seed))
    return 0


def cmd_sweep(cfg, out, seed) -> int:
    from . import dynamics
    sec = _resolve(cfg, "sweep")
    system, dn = _system(cfg)
    if not out:
        raise ConfigError("sweep needs --out (or 'out' in the config)")
    profile = steady_state.ResponseProfile.from_cavity(system.cavity)
    beta = system.beta(delta_n=dn)

    lo, hi = sorted((sec["delta_pc_start"], sec["delta_pc_stop"]))
    # one branch solve; the down rows visit the up detunings reversed
    dpc, nbar = dynamics.quasi_static_sweep(
        profile, beta, np.linspace(lo, hi, sec["points"]),
        system.drive.n_max, dn, "both")
    write_csv(out, ["direction", "deltaPC_Hz", "nbar"],
              [np.repeat(["up", "down"], sec["points"]), dpc / TWO_PI, nbar],
              _meta(cfg, seed))
    return 0


def cmd_threshold(cfg, out, seed) -> int:
    system, dn = _system(cfg)
    profile = steady_state.ResponseProfile.from_cavity(system.cavity)
    lor = steady_state.ResponseProfile(system.cavity.kappa)
    report = {
        "lorentzian_threshold": steady_state.bistability_threshold(lor),
        "profile_kind": profile.kind,
        "profile_threshold": steady_state.bistability_threshold(profile),
    }
    if dn != 0:     # the drive n_max at which |beta| is the threshold
        report["threshold_n_max"] = abs(report["profile_threshold"]
                                        * profile.kappa
                                        / (dn * system.kerr_coefficient()))
        report["beta"] = system.beta(delta_n=dn)         # as in sweep
        report["folds"] = [
            {"delta0": d0, "u": u, "nbar": u * system.drive.n_max,
             "deltaPC_Hz": (d0 * profile.kappa + dn) / TWO_PI}
            for d0, u in steady_state.fold_points(profile, report["beta"])]
    _emit_json(report, out, _meta(cfg, seed))
    return 0


def _out_base(out):
    if out is None:
        raise ConfigError("scenario needs --out (or 'out' in the config)")
    return out[:-4] if out.endswith(".csv") else out


def _check_ringdown(sec, omega_z, dt) -> None:
    """Reject the ringdown settings that would only fail after the ring-up:
    a ramp without backaction, and windows the decay fit cannot use (below
    measure's MIN_CYCLES trap periods or MIN_WINDOWS in the record)."""
    from . import dynamics, measure
    if sec["ramp_time"] > 0 and not sec["backaction"]:
        raise ConfigError("ringdown.ramp_time needs ringdown.backaction: "
                          "true; the one-way force is fixed at switch-on, "
                          "where a ramped drive is zero")
    if sec["window_length"] * (omega_z / TWO_PI) < measure.MIN_CYCLES:
        raise ConfigError("ringdown.window_length must span at least "
                          f"{measure.MIN_CYCLES:g} trap periods")
    t_end = dynamics.sample_times(sec["duration"], dt,
                                  sec["record_every"])[-1]
    _, n_windows = measure.window_grid(
        measure.whole_bins(t_end, sec["bin_width"]), sec["window_length"],
        sec["bin_width"])
    if n_windows < measure.MIN_WINDOWS:
        raise ConfigError(
            f"ringdown.window_length: {n_windows} windows fit in the "
            f"{t_end * 1e3:.6g} ms record (ringdown.duration); the decay "
            f"fit needs at least {measure.MIN_WINDOWS}")


def cmd_ringdown(cfg, out, seed) -> int:
    """The probe switch-on ring-up at the config's collective shift, or
    with ``ringdown.use_trigger`` at the shift of the bin that fired.  The
    atom-loss drift runs only while the monitoring probe is on, so
    ``trigger.delay`` moves no ring-up row; only the ``trigger`` scenario
    reports it."""
    from . import dynamics, lattice, measure
    sec = _resolve(cfg, "ringdown")
    trig_sec = _resolve(cfg, "trigger") if sec["use_trigger"] else None
    system, dn0 = _system(cfg)
    base = _out_base(out)
    cav, trap = system.cavity, system.trap
    dt = TWO_PI / (sec["dt_per_period"] * trap.omega_z)
    _check_ringdown(sec, trap.omega_z, dt)
    profile = steady_state.ResponseProfile.from_cavity(cav)
    tracer = sec["tracer_theta"]
    try:
        ensemble = lattice.build_lattice(
            num_sites=trap.num_sites,
            total_atoms=max(system.drive.atom_number, 1.0),
            omega_z_mean=trap.omega_z, omega_z_spread=sec["omega_z_spread"],
            seed=seed, k_ratio=cav.k_probe / cav.k_trap,
            subensembles=sec["subensembles"],
            tracer_thetas=() if tracer is None else (tracer,))
    except ValueError as exc:    # the spread drew a nonpositive frequency
        raise ConfigError(f"ringdown.omega_z_spread: {exc}") from exc
    dt_max = dynamics.max_stable_dt(ensemble.omega_z)
    if dt > dt_max:
        need = TWO_PI / (dt_max * trap.omega_z)
        raise ConfigError(
            "ringdown.dt_per_period must be at least "
            f"{math.ceil(100.0 * need) / 100.0:g} for the fastest drawn trap "
            "frequency (the ring-up stability guard)")

    if trig_sec is not None:
        trig = _run_trigger(trig_sec, system, seed)
        if trig.trigger_time is None:
            raise RuntimeError("trigger threshold never crossed within horizon")
        dn0 = trig.conditioned_delta_n

    n_max = system.drive.n_max if sec["level"] is None else sec["level"]
    if sec["level_mode"] == "instantaneous":
        n_max = dynamics.n_max_for_switch_on(n_max, profile,
                                             system.drive.delta_pc, dn0)

    ensemble = ensemble.scaled_to_shift(dn0, cav)

    drive = params.DriveParams(n_max=n_max, delta_pc=system.drive.delta_pc)
    trace = dynamics.ring_up(
        ensemble, cav, drive,
        field_model=sec["field_model"],
        damping_rate=sec["damping_rate"],
        duration=sec["duration"], dt=dt, profile=profile,
        ramp_time=sec["ramp_time"], backaction=sec["backaction"],
        linearized_force=sec["linearized"],
        record_every=sec["record_every"],
        record_sites=() if tracer is None else (-1,))

    _, counts = measure.averaged_counts(
        (trace.time, trace.nbar), cav, sec["efficiency"], sec["bin_width"],
        seed, sec["n_average"])
    record = measure.CountRecord(sec["bin_width"], counts,
                                 t_start=float(trace.time[0]))

    decay = measure.windowed_fourier_amplitude(
        record, trap.omega_z / TWO_PI, sec["window_length"])
    fit = measure.decay_fit(decay, model=sec["fit_model"])

    meta = _meta(cfg, seed)
    write_csv(base + "_trace.csv", ["time_s", "deltaN_rad_s", "nbar"],
              [trace.time, trace.delta_n, trace.nbar], meta)
    _write_counts(base + "_counts.csv", record, meta)
    write_csv(base + "_windows.csv", ["window_center_s", "amplitude"],
              [decay.window_centers, decay.amplitudes], meta)

    summary = {
        "n_max": n_max, "switch_on_nbar": float(trace.nbar[0]),
        "delta_n0_2pi_MHz": dn0 / TWO_PI / 1e6,
        "excursion_half_linewidths":
            float((trace.delta_n.max() - trace.delta_n.min()) / cav.kappa),
        "fitted_tau_s": fit.tau, "fit_model": sec["fit_model"],
        "tau_exponential_s": fit.tau_exponential,
        "tau_gaussian_s": fit.tau_gaussian, "fit_reliable": fit.reliable,
    }
    if tracer is not None:
        tr = trace.displacements[:, 0]
        summary["tracer_pp_displacement_nm"] = float((tr.max() - tr.min()) * 1e9)
    _emit_json(summary, base + "_summary.json", meta)
    return 0


def _run_trigger(sec, system, seed):
    """The ``measure.TriggerResult`` of a resolved ``trigger`` section."""
    from . import measure
    return measure.trigger_sequence(
        sec["n0"], sec["loss_rate"], system.cavity, system.drive,
        threshold_rate=sec["threshold_rate"],
        efficiency=sec["efficiency"], bin_width=sec["bin_width"],
        horizon=sec["horizon"], seed=seed,
        smoothing_time=sec["smoothing_time"])


def cmd_trigger(cfg, out, seed) -> int:
    """The library decides the trigger; the probe-on time (the trigger time
    plus ``trigger.delay``) and the detection level are the section's."""
    sec = _resolve(cfg, "trigger")
    system = build_system(cfg)
    result = _run_trigger(sec, system, seed)
    base = _out_base(out) if out else None
    meta = _meta(cfg, seed)
    t, level = result.trigger_time, sec["detection_level"]
    report = {
        "triggered": t is not None,
        "trigger_time_s": t,
        "conditioned_deltaN_2pi_MHz":
            None if t is None else result.conditioned_delta_n / TWO_PI / 1e6,
        "probe_on_time_s": None if t is None else t + sec["delay"],
        "detection_level": system.drive.n_max if level is None else level,
    }
    if base:
        _write_counts(base + "_counts.csv", result.counts, meta)
    _emit_json(report, base and base + "_summary.json", meta)
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
        run = _resolve(cfg, "")
        scenario = args.scenario or run["scenario"]
        if scenario is None:
            raise ConfigError("missing key: scenario")
        seed = args.seed if args.seed is not None else run["seed"]
        return _DISPATCH[scenario](cfg, args.out or run["out"], seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric/runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
