import contextlib
import io
import json
import math
import os
import re
import string
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cavkerr
from cavkerr import cli, csvrows, measure
from cavkerr.cli import (ConfigError, main, parse_chirp, parse_frequency,
                         parse_time, read_csv)
from helpers import stable_roots

TWO_PI = 2 * np.pi
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
BENCH_CONFIGS = ROOT / "perfbench" / "configs"
TRIGGER = {"n0": 120000, "loss_rate": 20.0, "threshold_rate": 1.0e6,
           "delay": "10 ms", "detection_level": 6.5, "horizon": "0.3 s"}
FIELD_MODELS = ("adiabatic", "filter")      # ring_up's field_model names


def run_cli(*args):
    return main([str(a) for a in args])


class TestUnitParsing:
    def test_frequency_suffixes(self):
        assert parse_frequency("0.66 MHz") == pytest.approx(TWO_PI * 0.66e6)
        assert parse_frequency("-101 GHz") == pytest.approx(-TWO_PI * 101e9)
        assert parse_frequency("49 kHz") == pytest.approx(TWO_PI * 49e3)
        assert parse_frequency(660000) == pytest.approx(TWO_PI * 6.6e5)

    def test_chirp(self):
        assert parse_chirp("6 MHz/ms") == pytest.approx(6e9)
        assert parse_chirp("-6 MHz/ms") == pytest.approx(-6e9)

    def test_time(self):
        assert parse_time("500 us") == pytest.approx(500e-6)

    def test_bad_unit(self):
        with pytest.raises(ConfigError):
            parse_frequency("3 parsec")


# (parser, its suffixes with their factors, the scale of every value)
UNIT_PARSERS = {
    "frequency": (cli.parse_frequency, cli._FREQ, TWO_PI),
    "time": (cli.parse_time, cli._TIME, 1.0),
    "length": (cli.parse_length, cli._LEN, 1.0),
    "temperature": (cli.parse_temperature, cli._TEMP, 1.0),
    "chirp": (cli.parse_chirp, cli._CHIRP, 1.0),
}


@pytest.mark.parametrize("kind", sorted(UNIT_PARSERS))
class TestUnitProperties:
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_every_suffix_scales_the_number(self, kind, x):
        parse, units, scale = UNIT_PARSERS[kind]
        for unit in units:
            expected = scale * x * units[unit]
            if math.isfinite(expected):
                assert parse(f"{x!r} {unit}", "a.key") == expected
            else:
                with pytest.raises(ConfigError, match=r"^a\.key: .* not finite"):
                    parse(f"{x!r} {unit}", "a.key")

    def test_overflow_names_the_key(self, kind):
        parse, units, _ = UNIT_PARSERS[kind]
        unit = max(units, key=units.get)
        value = "1e308 GHz" if kind == "frequency" else f"1e309 {unit}"
        with pytest.raises(ConfigError, match=r"^a\.key: .* not finite"):
            parse(value, "a.key")

    @given(unit=st.text(string.ascii_letters + "/%", min_size=1, max_size=6))
    def test_unknown_unit_names_the_key(self, kind, unit):
        parse, units, _ = UNIT_PARSERS[kind]
        assume(unit.lower() not in units)
        with pytest.raises(ConfigError, match=r"^a\.key: unknown unit"):
            parse(f"1.5 {unit}", "a.key")


class TestDerived:
    def test_fig2a_betas_in_report(self, tmp_path, capsys):
        out = tmp_path / "derived.json"
        rc = run_cli("--config", CONFIGS / "derived.yaml", "--out", out)
        assert rc == 0
        report = json.loads(out.read_text())
        betas = report["beta_per_n_max"]
        assert betas["0.56"] == pytest.approx(3.72, rel=0.02)
        assert betas["0.2"] == pytest.approx(1.33, rel=0.02)
        assert betas["0.06"] == pytest.approx(0.37, rel=0.10)
        assert report["critical_atom_number"] == pytest.approx(0.019, abs=1e-3)

    def test_zero_atoms_reports_undefined(self, tmp_path, capsys):
        cfg = yaml.safe_load((CONFIGS / "derived.yaml").read_text())
        del cfg["params"]["drive"]["delta_n"]
        cfg["params"]["drive"]["atom_number"] = 0
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out.json"
        assert run_cli("--config", path, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["collective_shift_2pi_MHz"] == 0.0
        assert report["nonlinear_photon_threshold"] == "undefined"


class TestConfigErrors:
    def test_unknown_key_named_and_exit_2(self, tmp_path, capsys):
        cfg = yaml.safe_load((CONFIGS / "derived.yaml").read_text())
        cfg["params"]["cavity"]["frobnicator"] = 1.0
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert run_cli("--config", path) == 2
        err = capsys.readouterr().err
        assert "frobnicator" in err

    def test_threshold_section_is_unknown(self, tmp_path, capsys):
        # bistability-threshold reads the drive's beta and no section of
        # its own
        cfg = yaml.safe_load((CONFIGS / "fig_hysteresis.yaml").read_text())
        cfg["threshold"] = {"beta": 5.0}
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert run_cli("--config", path, "--scenario",
                       "bistability-threshold") == 2
        assert "unknown key: threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("path", sorted(
        [*CONFIGS.glob("*.yaml"), *BENCH_CONFIGS.glob("*.yaml")]),
        ids=lambda p: str(p.relative_to(ROOT)))
    def test_config_loads_the_same_with_either_yaml_loader(self, path):
        text = path.read_text()
        expected = yaml.load(text, Loader=yaml.SafeLoader)
        assert cli.load_config(path) == expected
        if hasattr(yaml, "CSafeLoader"):
            assert yaml.load(text, Loader=yaml.CSafeLoader) == expected

    def test_malformed_yaml_exit_2(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("scenario: [unclosed\n")
        assert run_cli("--config", path) == 2

    def test_missing_required_key_exit_2(self, tmp_path):
        cfg = yaml.safe_load((CONFIGS / "derived.yaml").read_text())
        del cfg["params"]["cavity"]["kappa"]
        path = tmp_path / "missing.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert run_cli("--config", path) == 2

    @pytest.mark.parametrize("config, section, key, value", [
        ("fig_lineshapes.yaml", "lineshape", "delta_pc_start", None),
        ("fig_lineshapes.yaml", "lineshape", "delta_pc_stop", None),
        ("fig_lineshapes.yaml", "lineshape", "direction", "sideways"),
        ("fig_hysteresis.yaml", "sweep", "delta_pc_start", None),
        ("fig_hysteresis.yaml", "sweep", "delta_pc_stop", None),
        ("fig_hysteresis.yaml", "sweep", "chirp_rate", None),
        ("fig_hysteresis.yaml", "sweep", "chirp_rate", "0 MHz/ms"),
        ("fig_hysteresis.yaml", "sweep", "points", 0),
        ("fig_hysteresis.yaml", "sweep", "points", 1),
    ])
    def test_bad_steady_state_key_named_and_exit_2(self, tmp_path, capsys,
                                                   config, section, key,
                                                   value):
        # None deletes the key
        cfg = yaml.safe_load((CONFIGS / config).read_text())
        if value is None:
            del cfg[section][key]
        else:
            cfg[section][key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out.csv"
        assert run_cli("--config", path, "--out", out) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, scenario, key, value", [
        ("fig_ringdown.yaml", "trigger", "trigger.threshold_rate", None),
        ("fig_ringdown.yaml", "trigger", "trigger.n0", None),
        ("fig_ringdown.yaml", "trigger", "trigger.n0", "lots"),
        ("fig_ringdown.yaml", "ringdown", "trigger.threshold_rate", None),
        ("derived.yaml", "derived", "seed", "abc"),
        ("derived.yaml", "derived", "params.cavity.kappa", float("nan")),
        ("derived.yaml", "derived", "params.drive.n_max", float("nan")),
        ("derived.yaml", "derived", "params.drive.atom_number", float("inf")),
        ("derived.yaml", "derived", "params.cavity.delta_ca", 0),
        ("derived.yaml", "derived", "params.cavity.kappa", "-0.66 MHz"),
        ("derived.yaml", "derived", "params.cavity.g0", 0),
        ("derived.yaml", "derived", "params.cavity.gamma_atom", "-3 MHz"),
        ("derived.yaml", "derived", "params.cavity.sigma_jitter", "-1 MHz"),
        ("derived.yaml", "derived", "params.cavity.probe_wavelength",
         "-780 nm"),
        # equal to the probe wavelength: the message names both keys
        ("derived.yaml", "derived", "params.cavity.trap_wavelength",
         "780 nm"),
        ("derived.yaml", "derived", "params.trap.omega_z", 0),
        ("derived.yaml", "derived", "params.trap.num_sites", 0),
        ("derived.yaml", "derived", "params.drive.n_max", -1),
        ("derived.yaml", "derived", "params.drive.atom_number", -1),
        ("fig_ringdown.yaml", "ringdown", "params.cavity.delta_ca", "0 GHz"),
        ("fig_ringdown.yaml", "ringdown", "ringdown.field_model", "bogus"),
        ("fig_ringdown.yaml", "ringdown", "ringdown.fit_model", "bogus"),
        ("fig_ringdown.yaml", "ringdown", "ringdown.record_every", 0),
        ("fig_ringdown.yaml", "ringdown", "ringdown.subensembles", "ten"),
        ("fig_ringdown.yaml", "ringdown", "ringdown.n_average", 0),
        ("fig_ringdown.yaml", "ringdown", "ringdown.efficiency", 2.0),
        ("fig_ringdown.yaml", "ringdown", "ringdown.backaction", "false"),
        ("fig_ringdown.yaml", "ringdown", "ringdown.subensembles", 0),
        ("fig_ringdown.yaml", "ringdown", "ringdown.dt_per_period", 0),
        ("fig_ringdown.yaml", "ringdown", "ringdown.dt_per_period", -200),
        # over 1/50 of the fastest drawn trap period: the ring-up's
        # stability guard, checked once the lattice is drawn
        ("fig_ringdown.yaml", "ringdown", "ringdown.dt_per_period", 50.5),
        ("fig_ringdown.yaml", "ringdown", "ringdown.dt_per_period", 5),
        ("fig_ringdown.yaml", "ringdown", "ringdown.bin_width", 0),
        ("fig_ringdown.yaml", "ringdown", "ringdown.window_length", "-5 us"),
        ("fig_ringdown.yaml", "trigger", "trigger.bin_width", 0),
        ("fig_ringdown.yaml", "ringdown", "ringdown.damping_rate", -1),
        ("fig_ringdown.yaml", "ringdown", "ringdown.level", -1),
        ("fig_ringdown.yaml", "ringdown", "ringdown.ramp_time", "-1 us"),
        ("fig_ringdown.yaml", "trigger", "trigger.loss_rate", -1),
        ("fig_ringdown.yaml", "trigger", "trigger.horizon", 0),
        ("fig_ringdown.yaml", "trigger", "trigger.smoothing_time", -1),
        ("fig_ringdown.yaml", "trigger", "trigger.delay", "-5 ms"),
        # a ramp without backaction: the one-way force stays zero
        ("fig_ringdown.yaml", "ringdown", "ringdown.ramp_time", "0.5 ms"),
        # under 5 trap periods; 3 windows in the 3 ms record
        ("fig_ringdown.yaml", "ringdown", "ringdown.window_length", "50 us"),
        ("fig_ringdown.yaml", "ringdown", "ringdown.window_length", "1 ms"),
        ("fig_lineshapes.yaml", "lineshape", "lineshape.n_max", ["a"]),
        ("fig_ringdown.yaml", "ringdown", "ringdown.omega_z_spread", "-1 Hz"),
        # a spread this wide draws a nonpositive trap frequency
        ("fig_ringdown.yaml", "ringdown", "ringdown.omega_z_spread",
         "100 kHz"),
        ("fig_ringdown.yaml", "trigger", "trigger.n0", 0),
        ("fig_lineshapes.yaml", "lineshape", "lineshape.n_max", [-0.5, 0.2]),
        # an empty list would write a header-only CSV, and derived would
        # drop beta_per_n_max
        ("fig_lineshapes.yaml", "lineshape", "lineshape.n_max", []),
        ("fig_lineshapes.yaml", "derived", "lineshape.n_max", []),
        ("fig_ringdown.yaml", "ringdown", "ringdown.duration", "-1 ms"),
    ])
    def test_bad_key_exit_2_before_any_output(self, tmp_path, capsys, config,
                                              scenario, key, value):
        # None deletes the key; the trigger section is added for the
        # trigger scenario and for a ringdown with use_trigger set
        cfg = yaml.safe_load((CONFIGS / config).read_text())
        cfg["scenario"] = scenario
        if key.startswith("trigger."):
            cfg["trigger"] = dict(TRIGGER)
            cfg["ringdown"]["use_trigger"] = True
        *path, name = key.split(".")
        section = cfg
        for part in path:
            section = section[part]
        if value is None:
            del section[name]
        else:
            section[name] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli("--config", path, "--out", out / "run") == 2
        assert key in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_spread_draw_checked_before_the_trigger(self, tmp_path, capsys,
                                                    monkeypatch):
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg["trigger"] = dict(TRIGGER)
        cfg["ringdown"].update(use_trigger=True, omega_z_spread="100 kHz")
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        monkeypatch.setattr(cli, "_run_trigger",
                            lambda *args: pytest.fail("the trigger ran"))
        assert run_cli("--config", path, "--out", tmp_path / "run") == 2
        assert "ringdown.omega_z_spread" in capsys.readouterr().err

    def test_step_checked_before_the_trigger(self, tmp_path, capsys,
                                             monkeypatch):
        # dt comes from the mean trap frequency, the guard reads the
        # fastest drawn row, which needs 50.8 steps per mean period here
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg["trigger"] = dict(TRIGGER)
        cfg["ringdown"].update(use_trigger=True, duration="0.6 ms",
                               window_length="120 us", n_average=2,
                               dt_per_period=50.5)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        monkeypatch.setattr(cli, "_run_trigger",
                            lambda *args: pytest.fail("the trigger ran"))
        assert run_cli("--config", path, "--out", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert "ringdown.dt_per_period must be at least 50.8 " in err
        assert not list(tmp_path.glob("run*"))

    @pytest.mark.parametrize("overrides, code, n_windows", [
        # 1 ms is 9800 steps: recording every 3rd step ends the trace at
        # 0.9998 ms, which holds only 3 windows of 250 us; every 2nd, 4
        (dict(duration="1 ms", window_length="250 us", record_every=3), 2,
         3),
        (dict(duration="1 ms", window_length="250 us", record_every=2), 0,
         4),
        # 73 bins of 7 us; a 129.5 us window is 18.5 bins, which rounds to
        # 18 (4 windows), not to 19 (3 windows)
        (dict(duration="0.512 ms", bin_width="7 us",
              window_length="129.5 us"), 0, 4),
    ])
    def test_window_count_uses_the_recorded_span(self, tmp_path, capsys,
                                                 overrides, code, n_windows):
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg["ringdown"].update(subensembles=1, n_average=2, **overrides)
        path = tmp_path / "short.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli("--config", path, "--out", out / "run") == code
        if code == 2:
            err = capsys.readouterr().err
            assert f"ringdown.window_length: {n_windows} windows" in err
            assert not any(out.iterdir())
        else:
            _, _, rows = read_csv(out / "run_windows.csv")
            assert len(rows) == n_windows

    @pytest.mark.parametrize("window_length, n_windows", [("500 us", 6),
                                                          ("750 us", 4)])
    def test_span_one_ulp_short_keeps_its_last_bin(self, tmp_path,
                                                   window_length, n_windows):
        # at 46 kHz the 3 ms trace ends at 0.0029999999999999996 s, a ratio
        # of 1499.9999999999998 bins of 2 us: 1500 whole bins, so 6 windows
        # of 500 us or 4 of 750 us
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg["params"]["trap"]["omega_z"] = "46 kHz"
        cfg["ringdown"]["window_length"] = window_length
        path = tmp_path / "k46.yaml"
        path.write_text(yaml.safe_dump(cfg))
        base = tmp_path / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("--config", path, "--out", base) == 0
        assert len(read_csv(f"{base}_counts.csv")[2]) == 1500
        assert len(read_csv(f"{base}_windows.csv")[2]) == n_windows

    def test_numeric_failure_exit_3(self, tmp_path, capsys):
        # a threshold above the peak detected rate is never crossed
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg["trigger"] = dict(TRIGGER, threshold_rate=1.0e7)
        cfg["ringdown"]["use_trigger"] = True
        path = tmp_path / "untriggered.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert run_cli("--config", path, "--out", tmp_path / "x") == 3
        assert "trigger threshold never crossed" in capsys.readouterr().err


# params.* key -> (unit, lowest and highest valid magnitude, rule); a
# "nonzero" or "any" value takes either sign
PARAM_RANGES = {
    "params.cavity.kappa": ("MHz", 0.05, 20.0, "positive"),
    "params.cavity.g0": ("MHz", 0.5, 50.0, "positive"),
    "params.cavity.gamma_atom": ("MHz", 0.5, 20.0, "positive"),
    "params.cavity.delta_ca": ("GHz", 1.0, 500.0, "nonzero"),
    "params.cavity.probe_wavelength": ("nm", 400.0, 1100.0, "positive"),
    "params.cavity.trap_wavelength": ("nm", 400.0, 1100.0, "positive"),
    "params.cavity.sigma_jitter": ("MHz", 0.0, 5.0, "nonnegative"),
    "params.cavity.waist": ("um", 1.0, 100.0, "any"),
    "params.cavity.finesse": ("", 1e3, 1e6, "any"),
    "params.trap.omega_z": ("kHz", 1.0, 500.0, "positive"),
    "params.trap.omega_radial": ("kHz", 0.1, 10.0, "any"),
    "params.trap.trap_depth": ("mK", 0.01, 10.0, "any"),
    "params.trap.temperature": ("uK", 1.0, 100.0, "any"),
    "params.trap.num_sites": ("", 1, 5000, "count"),
    "params.drive.n_max": ("", 0.0, 50.0, "nonnegative"),
    "params.drive.delta_pc": ("MHz", 0.0, 500.0, "any"),
    "params.drive.atom_number": ("", 0.0, 1e6, "nonnegative"),
    "params.drive.delta_n": ("MHz", 0.0, 100.0, "any"),
}
# trigger.* key -> the same, for runs of at most 20 ms
TRIGGER_RANGES = {
    "trigger.n0": ("", 1e3, 1e6, "positive"),
    "trigger.loss_rate": ("", 0.0, 100.0, "nonnegative"),
    "trigger.threshold_rate": ("", 1.0, 1e7, "positive"),
    "trigger.delay": ("ms", 0.0, 50.0, "nonnegative"),
    "trigger.detection_level": ("", 0.0, 20.0, "nonnegative"),
    "trigger.bin_width": ("us", 1.0, 1000.0, "positive"),
    "trigger.horizon": ("ms", 0.01, 20.0, "positive"),
    "trigger.smoothing_time": ("us", 0.0, 1000.0, "nonnegative"),
    "trigger.efficiency": ("", 0.0, 1.0, "fraction"),
}
# the steady-state scenarios' sections: a "list" is one to three numbers in
# the range, and a "choice" one of its two ends
LINESHAPE_RANGES = {
    "lineshape.delta_pc_start": ("MHz", 0.0, 500.0, "any"),
    "lineshape.delta_pc_stop": ("MHz", 0.0, 500.0, "any"),
    "lineshape.points": ("", 2, 2000, "count"),
    "lineshape.n_max": ("", 0.0, 50.0, "list"),
    "lineshape.direction": ("", "up", "down", "choice"),
}
SWEEP_RANGES = {
    "sweep.chirp_rate": ("MHz/ms", 0.01, 100.0, "nonzero"),
    "sweep.delta_pc_start": ("MHz", 0.0, 500.0, "any"),
    "sweep.delta_pc_stop": ("MHz", 0.0, 500.0, "any"),
    "sweep.points": ("", 2, 2000, "count"),
}
# ringdown.* keys, for records of at most 1 ms on a 20-site lattice; a
# "flag" is true or false.  The rules across keys are in ringdown_rules
RINGDOWN_RANGES = {
    "ringdown.duration": ("ms", 0.0, 1.0, "nonnegative"),
    "ringdown.level": ("", 0.0, 20.0, "nonnegative"),
    "ringdown.level_mode": ("", "instantaneous", "nmax", "choice"),
    "ringdown.omega_z_spread": ("Hz", 0.0, 2000.0, "nonnegative"),
    "ringdown.subensembles": ("", 1, 3, "count"),
    "ringdown.tracer_theta": ("", 0.0, 3.2, "any"),
    "ringdown.efficiency": ("", 0.0, 1.0, "fraction"),
    "ringdown.bin_width": ("us", 0.5, 20.0, "positive"),
    "ringdown.window_length": ("us", 50.0, 400.0, "positive"),
    "ringdown.n_average": ("", 1, 100, "count"),
    "ringdown.damping_rate": ("", 0.0, 1e4, "nonnegative"),
    "ringdown.backaction": ("", False, True, "flag"),
    "ringdown.linearized": ("", False, True, "flag"),
    "ringdown.dt_per_period": ("", 40.0, 120.0, "positive"),
    "ringdown.record_every": ("", 1, 5, "count"),
    "ringdown.fit_model": ("", "gaussian", "exponential", "choice"),
    "ringdown.field_model": ("", *FIELD_MODELS, "choice"),
    "ringdown.ramp_time": ("us", 0.0, 200.0, "nonnegative"),
}
# values no rule accepts: an unknown unit, text, a bool (but for a flag)
_NEVER_VALID = ("1.5 parsec", "lots", True, False)
_RULE_INVALID = {"positive": (0, -1.5, "-2 MHz"), "nonnegative": (-1.5,),
                 "nonzero": (0, "0 GHz"), "count": (0, -3, 2.5),
                 "fraction": (-0.5, 1.5), "any": (),
                 "list": ([-0.5], ["lots"], 2.0, []), "choice": ("sideways",),
                 "flag": (0, 1, "true")}


@st.composite
def drawn_values(draw, ranges):
    """{key: (value, valid)} for one to four keys of ``ranges``."""
    keys = draw(st.lists(st.sampled_from(sorted(ranges)), min_size=1,
                         max_size=4, unique=True))
    out = {}
    for key in keys:
        unit, lo, hi, rule = ranges[key]
        if draw(st.booleans()):
            bad = [v for v in _NEVER_VALID + _RULE_INVALID[rule]
                   if rule != "flag" or not isinstance(v, bool)]
            out[key] = (draw(st.sampled_from(bad)), False)
            continue
        if rule == "count":
            out[key] = (draw(st.integers(lo, hi)), True)
            continue
        if rule == "list":
            out[key] = (draw(st.lists(st.floats(lo, hi), min_size=1,
                                      max_size=3)), True)
            continue
        if rule in ("choice", "flag"):
            out[key] = (draw(st.sampled_from([lo, hi])), True)
            continue
        x = draw(st.floats(lo, hi))
        if rule in ("nonzero", "any") and draw(st.booleans()):
            x = -x
        out[key] = (f"{x!r} {unit}" if unit else x, True)
    return out


def ringdown_rules(cfg) -> tuple[list[str], int, int]:
    """The keys named by each rule across ringdown keys that ``cfg``
    breaks, and the bins and windows its record holds.

    A ramp needs backaction.  A window spans at least 5 trap periods, and
    the record holds at least 4: round(duration/dt) steps of dt, sampled
    every record_every-th, in whole bins of bin_width (a ratio at most 1e-9
    relative below an integer counting as that integer) and windows of
    round(window_length/bin_width) bins.  And dt is at most 1/50 of the
    period of the fastest drawn trap frequency, mean + spread * N(0, 1) a
    row, a tracer row at the mean.
    """
    sec = cli._resolve(cfg, "ringdown")
    trap = cli._resolve(cfg, "params.trap")
    omega_z = trap["omega_z"]
    broken = []
    if sec["ramp_time"] > 0 and not sec["backaction"]:
        broken += ["ringdown.ramp_time", "ringdown.backaction"]
    dt = TWO_PI / (sec["dt_per_period"] * omega_z)
    every = sec["record_every"]
    t_end = round(sec["duration"] / dt) // every * every * dt
    n_bins = math.floor(t_end / sec["bin_width"] * (1 + 1e-9))
    n_per = round(sec["window_length"] / sec["bin_width"])
    n_windows = n_bins // n_per if n_per else 0
    if sec["window_length"] * omega_z / TWO_PI < 5 or n_windows < 4:
        broken += ["ringdown.window_length", "ringdown.duration"]
    z = np.random.default_rng(cfg["seed"]).standard_normal(
        trap["num_sites"] * sec["subensembles"])
    fastest = omega_z + sec["omega_z_spread"] * max(
        z.max(), -np.inf if sec["tracer_theta"] is None else 0.0)
    if dt > TWO_PI / (50.0 * fastest):
        broken.append("ringdown.dt_per_period")
    return broken, n_bins, n_windows


def _boundary_run(cfg, values, tmp_path_factory, *args):
    """Set each drawn value in ``cfg`` and run the CLI on it, with an empty
    output directory -> (exit code, stderr, the files written)."""
    for key, (value, _) in values.items():
        *path, name = key.split(".")
        section = cfg
        for part in path:
            section = section[part]
        section[name] = value
    path = tmp_path_factory.mktemp("boundary") / "boundary.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = path.parent / "out"
    out.mkdir()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run_cli("--config", path, "--out", out / "run", *args)
    return code, err.getvalue(), sorted(out.iterdir())


class TestConfigBoundary:
    @settings(max_examples=60, deadline=None)
    @given(values=drawn_values(PARAM_RANGES),
           scenario=st.sampled_from(["derived", "bistability-threshold"]))
    def test_params_exit_0_or_name_the_key(self, tmp_path_factory, values,
                                           scenario):
        # never exit 3: a bad value is a config error naming its key, and
        # every value in its sane range runs
        cfg = yaml.safe_load((CONFIGS / "fig_hysteresis.yaml").read_text())
        code, err, _ = _boundary_run(cfg, values, tmp_path_factory,
                                     "--scenario", scenario)
        invalid = [k for k, (_, valid) in values.items() if not valid]
        probe, trap = (cfg["params"]["cavity"][f"{k}_wavelength"]
                       for k in ("probe", "trap"))
        if not invalid and cli.parse_length(probe) == cli.parse_length(trap):
            invalid.append("params.cavity.probe_wavelength")  # must differ
        if invalid:
            assert code == 2, err
            assert any(k in err for k in invalid), err
        else:
            assert code == 0, err

    @settings(max_examples=60, deadline=None)
    @given(values=drawn_values(TRIGGER_RANGES),
           horizon_ms=st.floats(0.01, 20.0))
    def test_trigger_writes_its_bins_or_names_the_key(
            self, tmp_path_factory, values, horizon_ms):
        # a valid section writes one count row per bin of the horizon; an
        # invalid one exits 2 naming its key before it writes anything
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg.update(scenario="trigger",
                   trigger=dict(TRIGGER, horizon=f"{horizon_ms!r} ms"))
        code, err, files = _boundary_run(cfg, values, tmp_path_factory)
        invalid = [k for k, (_, valid) in values.items() if not valid]
        if invalid:
            assert code == 2, err
            assert any(k in err for k in invalid), err
            assert files == []
            return
        assert code == 0, err
        assert [f.name for f in files] == ["run_counts.csv",
                                           "run_summary.json"]
        meta, _, rows = read_csv(files[0])
        ratio = (parse_time(cfg["trigger"]["horizon"])
                 / float(meta["bin_width_s"]))
        # the record covers the horizon (to 1e-9 relative) with no spare
        # bin, and meets the benchmark's check_trigger bound
        assert len(rows) - 1 < ratio <= len(rows) / (1 - 1e-9)
        assert round(ratio) <= len(rows) <= round(ratio) + 1

    @settings(max_examples=80, deadline=None)
    @given(values=drawn_values(RINGDOWN_RANGES))
    def test_ringdown_writes_its_files_or_names_the_key(
            self, tmp_path_factory, values):
        # a valid section writes the trace, the counts (one row a bin), the
        # windows and the summary; a bad value, or a set that breaks a rule
        # across keys, exits 2 naming a key of it before it writes anything.
        # Never exit 3: use_trigger stays off, as a trigger that never
        # fires is a numeric failure
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg["params"]["trap"]["num_sites"] = 20
        cfg["ringdown"].update(duration="0.6 ms", window_length="120 us",
                               subensembles=1, n_average=2, dt_per_period=60)
        code, err, files = _boundary_run(cfg, values, tmp_path_factory)
        invalid = [k for k, (_, valid) in values.items() if not valid]
        if not invalid:
            invalid, n_bins, n_windows = ringdown_rules(cfg)
        if invalid:
            assert code == 2, err
            assert any(k in err for k in invalid), err
            assert files == []
            return
        assert code == 0, err
        assert [f.name for f in files] == [
            "run_counts.csv", "run_summary.json", "run_trace.csv",
            "run_windows.csv"]
        assert len(read_csv(files[0])[2]) == n_bins
        assert len(read_csv(files[3])[2]) == n_windows

    @pytest.mark.parametrize("config, ranges", [
        ("fig_lineshapes", LINESHAPE_RANGES),
        ("fig_hysteresis", SWEEP_RANGES)], ids=["lineshape", "sweep"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_scan_rows_are_steady_states_or_name_the_key(
            self, tmp_path_factory, config, ranges, data):
        # a valid section writes rows that each solve u = V(kappa*(delta0 +
        # beta*u)) to 1e-10; an invalid one exits 2 naming its key before
        # it writes anything
        values = data.draw(drawn_values(ranges))
        cfg = yaml.safe_load((CONFIGS / f"{config}.yaml").read_text())
        code, err, files = _boundary_run(cfg, values, tmp_path_factory)
        invalid = [k for k, (_, valid) in values.items() if not valid]
        if invalid:
            assert code == 2, err
            assert any(k in err for k in invalid), err
            assert files == []
            return
        assert code == 0, err
        assert [f.name for f in files] == ["run"]
        _, names, rows = read_csv(files[0])
        col = dict(zip(names, map(np.array, zip(*rows))))
        system, dn = cli._system(cfg)
        profile = cavkerr.ResponseProfile.from_cavity(system.cavity)
        kappa = system.cavity.kappa
        n_max = np.broadcast_to(col.get("n_max", system.drive.n_max),
                                len(rows))
        beta = cavkerr.beta_parameter(dn, system.kerr_coefficient(), n_max,
                                      kappa)
        nbar, delta0 = col["nbar"], (TWO_PI * col["deltaPC_Hz"] - dn) / kappa
        # u = nbar/n_max, 0 at n_max = 0; the bound is in photons, since
        # at a subnormal n_max nbar holds u only to its rounding
        u = np.divide(nbar, n_max, out=np.zeros(len(rows)), where=n_max > 0)
        v = cavkerr.profile_value(profile, kappa * (delta0 + beta * u))
        assert np.all(np.abs(nbar - n_max * v) <= 1e-10 * n_max + 5e-324)


class TestLineshape:
    def test_peaks_shift_and_steepen(self, tmp_path):
        out = tmp_path / "lines.csv"
        assert run_cli("--config", CONFIGS / "fig_lineshapes.yaml",
                       "--out", out) == 0
        meta, cols, rows = read_csv(out)
        data = np.array(rows, dtype=float)
        peaks = {}
        for trace_id in (0, 1, 2):
            sel = data[data[:, 0] == trace_id]
            i = np.argmax(sel[:, 3])
            peaks[sel[i, 1]] = sel[i, 2]
        # the Kerr pull drags the resonance to larger |deltaPC| (more
        # negative) as the drive grows
        assert peaks[0.56] < peaks[0.20] < peaks[0.06]
        # asymmetry of the strongest trace: steeper on the bare-cavity side
        sel = data[data[:, 0] == 2]
        i = np.argmax(sel[:, 3])
        d, n = sel[:, 2], sel[:, 3]
        left = np.max(np.abs(np.diff(n[: i + 1]) / np.diff(d[: i + 1])))
        right = np.max(np.abs(np.diff(n[i:]) / np.diff(d[i:])))
        assert right > 2 * left

    def test_round_trip_bit_exact(self, tmp_path):
        out = tmp_path / "lines.csv"
        run_cli("--config", CONFIGS / "fig_lineshapes.yaml", "--out", out)
        meta, cols, rows = read_csv(out)
        out2 = tmp_path / "rewrite.csv"
        from cavkerr.cli import write_csv
        write_csv(out2, cols, list(zip(*rows)),
                  {k: v for k, v in meta.items()})
        assert out.read_text().splitlines()[2:] == \
            out2.read_text().splitlines()[2:]


_I64, _U64 = np.iinfo(np.int64), np.iinfo(np.uint64)
_TENS = [v for k in range(19) for v in (10 ** k - 1, 10 ** k)]
_BLOCK = csvrows.BLOCK_ROWS
# all-integer NumPy columns: id -> columns, for write_csv's integer path
_INT_COLUMNS = {
    "dtypes": [np.array([0, -1, 127, -128, 5], np.int8),
               np.array([0, -7, 2 ** 31 - 1, -2 ** 31, 42], np.int32),
               np.array([0, _I64.min, _I64.max, -1, 10], np.int64),
               np.array([0, _U64.max, 1, 10, 99], np.uint64)],
    # every width on both sides of each power of ten, with and without sign
    "powers-of-ten": [np.array(_TENS, np.int64), -np.array(_TENS, np.int64),
                      np.array([v for k in range(1, 20)
                                for v in (10 ** k - 1, 10 ** k)], np.uint64)],
    "empty": [np.zeros(0, np.int64), np.zeros(0, np.uint64)],
    "one-row": [np.array([-3]), np.array([0], np.uint8)],
    **{f"block{d:+d}": [
        np.arange(_BLOCK + d),
        np.random.default_rng(d + 1).integers(-1000, 1000, _BLOCK + d),
        # a sign only in the last row, so only the last block has its slot
        np.where(np.arange(_BLOCK + d) == _BLOCK + d - 1, -5, 3)]
       for d in (-1, 0, 1)},
}


# float columns: id -> values, for write_csv's float path
_POWERS = 10.0 ** np.arange(-15, 46)
_FLOAT_COLUMNS = {
    # %g's switch points, each power of ten and its neighbours, signed
    "switch-points": [1e-4, 9.99999999999999999e-5, 1e16, 1e17,
                      99999999999999999.0, 1e-14, 1e23, 1e-5, 1e-11, 1e43,
                      1e44, 0.1, 1.0, 10.0]
    + [s * v for v in np.concatenate([np.nextafter(_POWERS, 0), _POWERS,
                                      np.nextafter(_POWERS, np.inf)])
       for s in (1.0, -1.0)],
    # exact 17-digit ties, which the slow route rounds half-even as Python
    # does, and values next to them
    "ties": [1e15 + 0.25, 1e15 + 0.75, -(1e15 + 0.25), 2.0 ** 53 + 0.5,
             0.5, 2.5, 1e16 + 2.0, 1e16 + 6.0, 1e-5 + 2.5e-21],
    # trailing zeros and the "." of fixed notation
    "round-numbers": [100.0, 100.5, 1000000.0, 123456789000.0, 0.25,
                      0.001, 0.00120, 1e16 - 2.0, 12.0, 120.0, 1.5e20,
                      -3.0, 7e-5, 7.5e-7],
    **{f"float-block{d:+d}": [
        np.random.default_rng(d + 7).choice([-1.0, 1.0], _BLOCK + d)
        * 10.0 ** np.random.default_rng(d + 8).uniform(-12, 45, _BLOCK + d),
        # a slow cell only in the last row, so only the last block has one
        np.where(np.arange(_BLOCK + d) == _BLOCK + d - 1, np.nan,
                 np.linspace(-1.0, 1.0, _BLOCK + d))]
       for d in (-1, 0, 1)},
}

# the long double's mantissa bits; with 63 (x87) or 112 (IEEE quad) the
# writer renders every float cell of exponent -11..43 whose y is not a
# half-integer
_NMANT = np.finfo(np.longdouble).nmant


def _long_y(x):
    """(e, y, ulp) of a finite nonzero float, in exact rationals: its
    decimal exponent e, and the long double y nearest |x| 10**(16-e)
    (round half even), of spacing ulp."""
    a = Fraction(abs(x))
    e = math.floor(math.log10(abs(x)))
    e += (Fraction(10) ** (e + 1) <= a) - (Fraction(10) ** e > a)
    exact = a * Fraction(10) ** (16 - e)
    m = exact.numerator.bit_length() - exact.denominator.bit_length()
    if Fraction(2) ** m > exact:
        m -= 1
    ulp = Fraction(2) ** (m - _NMANT)
    return e, round(exact / ulp) * ulp, ulp


def _near_half_integers(e, count=3000, ulps=4):
    """Of the ``count`` doubles from 1.2345 10**e up, those whose long
    double y is at most ``ulps`` of its ulps from a half-integer."""
    x = 1.2345 * 10.0 ** e
    cells = []
    for _ in range(count):
        _, y, ulp = _long_y(x)
        if abs(y - math.floor(y) - Fraction(1, 2)) <= ulps * ulp:
            cells.append(x)
        x = float(np.nextafter(x, np.inf))
    return cells


class TestWriteCsv:
    @staticmethod
    def _reference(meta, names, columns):
        """The file as written cell by cell: text as is, a Python int with
        %d, a float with format(v, ".17g")."""
        def cell(c):
            if isinstance(c, str):
                return c
            return "%d" % c if isinstance(c, int) else format(c, ".17g")
        lines = [f"# {k}: {v}\n" for k, v in meta.items()]
        lines.append(",".join(names) + "\n")
        for row in zip(*columns):
            lines.append(",".join(map(cell, row)) + "\n")
        return "".join(lines)

    @staticmethod
    def _assert_same_text(got, want):
        # name the first differing line: pytest's diff of a 100k-line text
        # takes minutes
        pairs = zip(got.splitlines(True), want.splitlines(True))
        bad = next((p for p in pairs if p[0] != p[1]), None)
        assert bad is None and len(got) == len(want), bad

    @pytest.mark.parametrize("columns", [
        [["up", "down", "up", "up", "down", "up", "up", "down", "up"],
         [-0.0, 1e-300, 1e300, float("nan"), float("inf"), -float("inf"),
          3.0, 0.1, -2.5e-7],
         [0, 1, -7, 2 ** 53 + 1, 10 ** 18, 42, 1, 2, 3],
         [1e6, 123456789.0, -1.0, 0.0, 5e-324, 1.7976931348623157e308,
          2.0 ** 60, 1 / 3, -2 / 3]],
        [[], []],
        # NumPy integer and float arrays side by side
        pytest.param([np.array([0, -7, 10 ** 18]),
                      np.array([0.1, -2.5e-7, 1e300])], id="int-float-arrays"),
    ] + [pytest.param(c, id=k) for k, c in _INT_COLUMNS.items()])
    def test_bytes_match_per_cell_format(self, tmp_path, columns):
        names = [f"c{i}" for i in range(len(columns))]
        meta = {"config": "{}", "seed": 3}
        path = tmp_path / "t.csv"
        cli.write_csv(path, names, columns, meta)
        cells = [c.tolist() if isinstance(c, np.ndarray) else c
                 for c in columns]
        self._assert_same_text(path.read_text(),
                               self._reference(meta, names, cells))

    @pytest.mark.parametrize("columns", [
        pytest.param([np.asarray(v, float)], id=k)
        for k, v in _FLOAT_COLUMNS.items()
        if not k.startswith("float-block")] + [
        pytest.param(_FLOAT_COLUMNS[k], id=k)
        for k in _FLOAT_COLUMNS if k.startswith("float-block")] + [
        # text, float and int columns in one file, with a NaN and a
        # 19-digit int among them
        pytest.param([["up", "down"] * 3, np.array([0.5, -1e-7, 2e20, np.nan,
                                                    3.0, 1.0 / 3]),
                       np.array([0, -5, 7, 10 ** 12, 1, 2], np.int64),
                       [1, 2, 10 ** 18, -3, 4, 5]], id="text-float-int"),
        # a wide row: twelve float fields with "0.000" slots
        pytest.param([np.linspace(-1e-3, 1e-3, 50) * (i + 1)
                      for i in range(12)], id="twelve-columns"),
    ])
    def test_float_bytes_match_17g(self, tmp_path, columns):
        names = [f"c{i}" for i in range(len(columns))]
        path = tmp_path / "f.csv"
        cli.write_csv(path, names, columns, {"seed": 1})
        cells = [c.tolist() if isinstance(c, np.ndarray) else c
                 for c in columns]
        self._assert_same_text(path.read_text(),
                               self._reference({"seed": 1}, names, cells))

    def test_column_kind_is_its_dtype(self, tmp_path):
        # a list of ints and floats is a float column, whatever its first
        # cell: no cell is cut to an int.  Text is UTF-8, from a list or an
        # array alike
        path = tmp_path / "k.csv"
        cli.write_csv(path, ["x", "t", "b", "n"],
                      [[1, 2.5, 3], ["up", "\u00e9", "down"],
                       np.array([b"a", b"bc", b""]), [True, False, True]], {})
        assert path.read_bytes() == ("x,t,b,n\n1,up,a,1\n2.5,\u00e9,bc,0\n"
                                     "3,down,,1\n").encode()

    @pytest.mark.parametrize("cells", [
        pytest.param([None, 1.0], id="none"),
        pytest.param([0, 10 ** 20], id="int-beyond-int64"),
        pytest.param(np.array([1j, 2.0]), id="complex"),
        pytest.param(["a", "b\0c"], id="text-with-nul"),
        # a list NumPy makes float, with an int cell a float would round
        pytest.param([1, 2 ** 63 + 1], id="int-rounded-by-int64-promotion"),
        pytest.param([0.5, 2 ** 53 + 1], id="int-rounded-among-floats")])
    def test_unwritable_column_raises_naming_it(self, tmp_path, cells):
        # no silent nan or text stand-in: the error names the column, and
        # the file ends at its header
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="'bad'"):
            cli.write_csv(path, ["ok", "bad"], [[1.0, 2.0], cells], {})
        assert path.read_text() == "ok,bad\n"

    def test_decimal_ties_round_half_even(self, tmp_path):
        # y = 10000000000000002.5 and ...7.5 are exact ties at 17 digits;
        # only Python's own %.17g decides them
        path = tmp_path / "t.csv"
        cli.write_csv(path, ["x"], [np.array([1e15 + 0.25, 1e15 + 0.75])], {})
        assert path.read_text().splitlines()[1:] == [
            "1000000000000000.2", "1000000000000000.8"]

    def test_python_writes_only_the_cells_it_must(self, tmp_path,
                                                   monkeypatch):
        # cells whose y is at or a few long-double ulps from a half-integer,
        # in the multiply branch (e <= 16) and the divide branch (e > 16),
        # and cells m 2**(e-17), m odd, whose exact y is one, of either
        # sign, among specials and random cells: each is its %.17g, and
        # Python's %.17g writes only zero, inf and nan, an exponent outside
        # [-11, 43], and a y that is exactly a half-integer
        near = [c for e in (-9, 3, 30, 43) for c in _near_half_integers(e)]
        exact = [math.ldexp(2 * math.floor(0.75 * 5 ** e * 2 ** 17) + 1,
                            e - 17) for e in (-7, 0, 10, 15)]
        assert len(near) >= 40
        for x in exact:
            e = _long_y(x)[0]
            assert (Fraction(x) * Fraction(10) ** (16 - e)).denominator == 2
        seen, python_17g = [], csvrows._python_17g

        def spy(x):
            seen.extend(x.tolist())
            return python_17g(x)

        monkeypatch.setattr(csvrows, "_python_17g", spy)
        rng = np.random.default_rng(11)
        ties = np.array(near + exact)
        cells = np.concatenate([
            ties, -ties,
            [0.0, -0.0, np.inf, -np.inf, np.nan, 9.9e-12, 1e44, 5e-324,
             -1.7976931348623157e308],
            rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-12, 45, 2000)])
        path = tmp_path / "s.csv"
        cli.write_csv(path, ["x"], [cells], {})
        self._assert_same_text(path.read_text(),
                               self._reference({}, ["x"], [cells.tolist()]))

        def python_route(x):
            if x == 0 or not math.isfinite(x):
                return True
            e, y, _ = _long_y(x)
            return (not -11 <= e <= 43 or _NMANT not in (63, 112)
                    or y - math.floor(y) == Fraction(1, 2))

        want = [x for x in cells.tolist() if python_route(x)]
        assert np.array(seen).tobytes() == np.array(want).tobytes(), (
            len(seen), len(want))
        if _NMANT in (63, 112):
            rendered = set(near) - set(want)
            assert min(rendered) < 1e16 and max(rendered) >= 1e17

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=40))
    @example(values=[float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
                     5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308])
    def test_any_float_is_its_17g(self, tmp_path_factory, values):
        path = tmp_path_factory.getbasetemp() / "hypothesis-floats.csv"
        cli.write_csv(path, ["x"], [np.array(values)], {})
        assert path.read_text() == self._reference({}, ["x"], [values])

    @pytest.mark.parametrize("config", [
        c for c in sorted(CONFIGS.glob("*.yaml"))
        + sorted(BENCH_CONFIGS.glob("*.yaml"))
        if yaml.safe_load(c.read_text())["scenario"] != "derived"],
        ids=lambda c: f"{c.parent.name}/{c.stem}")
    def test_shipped_files_are_their_own_cells(self, tmp_path, config):
        # every CSV a shipped config writes, through its own scenario, is
        # the per-cell text of the values it reads back as; below 1e17 an
        # integral value prints alike as int and as float
        assert run_cli("--config", config, "--out", tmp_path / "run.csv") == 0
        paths = sorted(tmp_path.glob("*.csv"))
        assert paths
        for path in paths:
            meta, names, rows = read_csv(path)
            assert rows, path.name
            self._assert_same_text(
                path.read_text(),
                self._reference(meta, names, list(zip(*rows))))
        if config.stem == "trigger":
            _, _, rows = read_csv(tmp_path / "run_counts.csv")
            assert len(rows) == 100_000
            assert all(v == int(v) for row in rows for v in row)

    def test_integral_values_print_alike_as_int_and_float(self):
        # below 1e17 an integral float's %.17g text is its integer's %d
        # text, so a counts column reads the same as an int column
        rng = np.random.default_rng(0)
        values = np.concatenate([np.arange(1000.0),
                                 [2.0 ** 53, 99999999999999984.0],
                                 np.floor(10.0 ** rng.uniform(3, 17, 1000))])
        for v in values:
            assert "%d" % int(v) == "%.17g" % v


class TestSweep:
    def test_hysteresis_loop_and_fold_match(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("--config", CONFIGS / "fig_hysteresis.yaml",
                       "--out", out) == 0
        meta, cols, rows = read_csv(out)
        ups = np.array([(r[1], r[2]) for r in rows if r[0] == "up"])
        downs = np.array([(r[1], r[2]) for r in rows if r[0] == "down"])
        # two distinct branches with different maxima
        assert downs[:, 1].max() > ups[:, 1].max() + 1.0

        # fold detunings reported by the threshold scenario coincide with
        # the sweep jumps
        outj = tmp_path / "thr.json"
        assert run_cli("--config", CONFIGS / "fig_hysteresis.yaml",
                       "--scenario", "bistability-threshold",
                       "--out", outj) == 0
        report = json.loads(outj.read_text())
        fold_dpc = [f["deltaPC_Hz"] for f in report["folds"]]
        step = abs(ups[1, 0] - ups[0, 0])
        for arr in (ups, downs):
            i = np.argmax(np.abs(np.diff(arr[:, 1])))
            assert min(abs(arr[i, 0] - f) for f in fold_dpc) <= step

    def test_bistable_below_one_photon(self, tmp_path):
        # the headline: folds and hysteresis jumps with the cavity holding
        # less than one photon (measured: folds at 0.456 and 0.107 photons
        # at beta 7.386; maxima 0.426 up and 0.477 down)
        config = CONFIGS / "fig_subphoton.yaml"
        n_max = yaml.safe_load(config.read_text())["params"]["drive"]["n_max"]
        outj = tmp_path / "thr.json"
        assert run_cli("--config", config, "--scenario",
                       "bistability-threshold", "--out", outj) == 0
        report = json.loads(outj.read_text())
        assert report["beta"] > report["profile_threshold"]
        assert len(report["folds"]) == 2
        assert all(f["u"] * n_max < 1 for f in report["folds"])

        out = tmp_path / "sweep.csv"
        assert run_cli("--config", config, "--out", out) == 0
        _, _, rows = read_csv(out)
        for direction in ("up", "down"):
            nbar = np.array([r[2] for r in rows if r[0] == direction])
            assert nbar.max() < 1
            # one jump: 0.34 photons up, 0.44 down; other steps stay < 0.01
            assert np.count_nonzero(np.abs(np.diff(nbar)) > 0.1) == 1

    def test_subphoton_report_in_photons(self, tmp_path):
        # each fold's photon number u * n_max, and the drive at which beta
        # reaches the threshold, threshold * kappa / (Delta_N * epsilon)
        config = CONFIGS / "fig_subphoton.yaml"
        n_max = yaml.safe_load(config.read_text())["params"]["drive"]["n_max"]
        outj = tmp_path / "thr.json"
        assert run_cli("--config", config, "--scenario",
                       "bistability-threshold", "--out", outj) == 0
        report = json.loads(outj.read_text())
        folds = report["folds"]
        assert [f["nbar"] for f in folds] == [f["u"] * n_max for f in folds]
        assert [f["nbar"] for f in folds] == pytest.approx([0.456, 0.107],
                                                           abs=5e-4)
        assert report["threshold_n_max"] == pytest.approx(0.238, abs=5e-4)
        # beta is linear in the drive
        assert report["beta"] * report["threshold_n_max"] / n_max == \
            pytest.approx(report["profile_threshold"], rel=1e-12)

    @pytest.mark.parametrize("drive", [
        {"atom_number": None},          # no atoms and no delta_n override
        {"delta_n": 0}], ids=["no-atoms", "zero-delta-n"])
    def test_zero_shift_reports_no_beta(self, tmp_path, drive):
        # at Delta_N = 0 the drive's beta is +-0: no fold and no threshold
        # drive to report, whether or not there are atoms
        cfg = yaml.safe_load((CONFIGS / "fig_hysteresis.yaml").read_text())
        cfg["params"]["drive"].update(drive)
        path = tmp_path / "flat.yaml"
        path.write_text(yaml.safe_dump(cfg))
        outj = tmp_path / "thr.json"
        assert run_cli("--config", path, "--scenario",
                       "bistability-threshold", "--out", outj) == 0
        report = json.loads(outj.read_text())
        assert sorted(k for k in report if not k.startswith("_")) == [
            "lorentzian_threshold", "profile_kind", "profile_threshold"]

    @pytest.mark.parametrize("name", ["fig_hysteresis", "fig_subphoton"])
    def test_down_pass_reverses_the_up_grid(self, name, tmp_path):
        # one branch solve serves both directions: the down rows visit the
        # up detunings reversed, and each direction still jumps once, within
        # a grid step of a fold
        config = CONFIGS / f"{name}.yaml"
        n_max = yaml.safe_load(config.read_text())["params"]["drive"]["n_max"]
        outj = tmp_path / "thr.json"
        assert run_cli("--config", config, "--scenario",
                       "bistability-threshold", "--out", outj) == 0
        folds = [f["deltaPC_Hz"] for f in json.loads(outj.read_text())["folds"]]
        out = tmp_path / "sweep.csv"
        assert run_cli("--config", config, "--out", out) == 0
        _, _, rows = read_csv(out)
        ups = np.array([(r[1], r[2]) for r in rows if r[0] == "up"])
        downs = np.array([(r[1], r[2]) for r in rows if r[0] == "down"])
        assert downs[:, 0].tolist() == ups[::-1, 0].tolist()
        step = ups[1, 0] - ups[0, 0]
        for arr in (ups, downs):
            jumps = np.flatnonzero(np.abs(np.diff(arr[:, 1])) > 0.1 * n_max)
            assert len(jumps) == 1
            assert min(abs(arr[jumps[0], 0] - f) for f in folds) <= step

    def test_coarse_down_pass_keeps_the_upper_branch(self, tmp_path):
        # at 4 points the -77 MHz row lies in the bistable band, [-78.32,
        # -75.85] MHz: the down pass enters it from above, so it stays on
        # the upper stable root until the branch ends at its fold
        cfg = yaml.safe_load((CONFIGS / "fig_hysteresis.yaml").read_text())
        cfg["sweep"]["points"] = 4
        path = tmp_path / "coarse.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "coarse.csv"
        assert run_cli("--config", path, "--out", out) == 0
        _, _, rows = read_csv(out)
        [(dpc, nbar)] = [(r[1], r[2]) for r in rows
                         if r[0] == "down" and r[1] == -77e6]
        system, dn = cli._system(cfg)
        profile = cavkerr.ResponseProfile.from_cavity(system.cavity)
        lo, hi = stable_roots(profile, (TWO_PI * dpc - dn) / profile.kappa,
                              system.beta(delta_n=dn))
        assert nbar == pytest.approx(hi * system.drive.n_max, rel=1e-12)
        assert nbar == pytest.approx(9.1029014388766498, rel=1e-12)

    def test_positive_shift_mirrors_the_folds(self, tmp_path):
        # a delta_n override of the other sign than delta_ca makes beta < 0:
        # the report gives that beta and the mirrored folds, and the sweep
        # jumps at them, as it does for beta > 0
        cfg = yaml.safe_load((CONFIGS / "fig_hysteresis.yaml").read_text())
        cfg["params"]["drive"].update(delta_n="19 MHz", delta_pc="72 MHz",
                                      n_max=30)
        cfg["sweep"].update(delta_pc_start="15 MHz", delta_pc_stop="30 MHz",
                            points=1601)
        path = tmp_path / "mirror.yaml"
        path.write_text(yaml.safe_dump(cfg))
        outj = tmp_path / "thr.json"
        assert run_cli("--config", path, "--scenario",
                       "bistability-threshold", "--out", outj) == 0
        report = json.loads(outj.read_text())
        assert report["beta"] == pytest.approx(-7.5856, abs=1e-4)
        assert report["threshold_n_max"] == pytest.approx(14.5905, abs=1e-4)
        folds = [f["deltaPC_Hz"] for f in report["folds"]]
        assert folds == pytest.approx([22.734e6, 24.203e6], abs=1e3)

        out = tmp_path / "sweep.csv"
        assert run_cli("--config", path, "--out", out) == 0
        _, _, rows = read_csv(out)
        ups = np.array([(r[1], r[2]) for r in rows if r[0] == "up"])
        downs = np.array([(r[1], r[2]) for r in rows if r[0] == "down"])
        step = ups[1, 0] - ups[0, 0]
        # beta < 0 puts the band above the resonance: the up pass jumps at
        # the upper fold, the down pass at the lower one
        for arr, fold in ((ups, folds[1]), (downs, folds[0])):
            jumps = np.flatnonzero(np.abs(np.diff(arr[:, 1])) > 3.0)
            assert len(jumps) == 1
            assert abs(arr[jumps[0], 0] - fold) <= step

    @pytest.mark.parametrize("scenario", ["sweep", "bistability-threshold"])
    def test_overflowing_beta_exit_3(self, tmp_path, capsys, scenario):
        # n_max 1e308 makes beta inf, or -inf at a positive shift: both
        # entries refuse it before a fold solve, rather than report NaN or
        # infinite folds
        for shift in ({}, {"delta_n": "19 MHz"}):
            cfg = yaml.safe_load((CONFIGS / "fig_hysteresis.yaml").read_text())
            cfg["params"]["drive"].update(shift, n_max=1.0e308)
            path = tmp_path / "overflow.yaml"
            path.write_text(yaml.safe_dump(cfg))
            assert run_cli("--config", path, "--scenario", scenario,
                           "--out", tmp_path / "out") == 3
            captured = capsys.readouterr()
            assert "error: beta must be finite" in captured.err
            assert "NaN" not in captured.out + captured.err
            assert not (tmp_path / "out").exists()

    def test_below_threshold_overlapping(self, tmp_path):
        cfg = yaml.safe_load((CONFIGS / "fig_hysteresis.yaml").read_text())
        cfg["params"]["drive"]["n_max"] = 0.5
        path = tmp_path / "weak.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "weak.csv"
        assert run_cli("--config", path, "--out", out) == 0
        _, _, rows = read_csv(out)
        ups = sorted((r[1], r[2]) for r in rows if r[0] == "up")
        downs = sorted((r[1], r[2]) for r in rows if r[0] == "down")
        for (du, nu), (dd, nd) in zip(ups, downs):
            assert nu == pytest.approx(nd, rel=1e-9)


class TestRingdown:
    @pytest.fixture(scope="class")
    @staticmethod
    def quick_cfg(tmp_path_factory):
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg["ringdown"]["duration"] = "1 ms"
        cfg["ringdown"]["subensembles"] = 2
        cfg["ringdown"]["omega_z_spread"] = 0
        cfg["ringdown"]["backaction"] = True
        cfg["ringdown"]["linearized"] = False
        cfg["ringdown"]["n_average"] = 10
        cfg["ringdown"]["window_length"] = "250 us"
        path = tmp_path_factory.mktemp("cfg") / "ring.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return path

    def test_spectral_peak_near_trap_frequency(self, tmp_path, quick_cfg):
        base = tmp_path / "ring"
        assert run_cli("--config", quick_cfg, "--out", base) == 0
        meta, cols, rows = read_csv(str(base) + "_counts.csv")
        assert cols == ["bin", "mean_rate_s"]
        rate = np.array([r[1] for r in rows])
        ac = rate - rate.mean()
        freqs = np.fft.rfftfreq(len(ac), float(meta["bin_width_s"]))
        peak = freqs[1 + np.argmax(np.abs(np.fft.rfft(ac))[1:])]
        # at nbar = 6.5 the optical spring sits ~10% above 49 kHz
        assert 44e3 < peak < 58e3
        summary = json.loads(Path(str(base) + "_summary.json").read_text())
        assert summary["switch_on_nbar"] == pytest.approx(6.5, rel=1e-2)

    def test_seed_reproducibility_byte_exact(self, tmp_path, quick_cfg):
        base1, base2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("--config", quick_cfg, "--out", base1, "--seed", 5) == 0
        assert run_cli("--config", quick_cfg, "--out", base2, "--seed", 5) == 0
        for suffix in ("_trace.csv", "_counts.csv", "_windows.csv",
                       "_summary.json"):
            a = Path(str(base1) + suffix).read_bytes()
            b = Path(str(base2) + suffix).read_bytes()
            assert a == b

    def test_no_probe_flat_counts(self, tmp_path, quick_cfg):
        cfg = yaml.safe_load(Path(quick_cfg).read_text())
        cfg["ringdown"]["level"] = 0.0
        cfg["ringdown"]["n_average"] = 1
        path = tmp_path / "dark.yaml"
        path.write_text(yaml.safe_dump(cfg))
        base = tmp_path / "dark"
        assert run_cli("--config", path, "--out", base) == 0
        _, cols, rows = read_csv(str(base) + "_counts.csv")
        assert cols == ["bin", "counts"]
        assert [r[0] for r in rows] == list(range(len(rows)))
        assert all(r[1] == 0 for r in rows)


class TestTriggeredRingdown:
    def test_trigger_conditions_the_shift(self, tmp_path):
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        del cfg["params"]["drive"]["delta_n"]
        cfg["trigger"] = {
            "n0": 120000, "loss_rate": 20.0, "threshold_rate": 1.0e6,
            "delay": "10 ms", "detection_level": 6.5, "horizon": "0.3 s",
        }
        cfg["ringdown"].update(use_trigger=True, duration="1.3 ms",
                               subensembles=2, n_average=5,
                               window_length="250 us")
        path = tmp_path / "chain.yaml"
        path.write_text(yaml.safe_dump(cfg))
        base = tmp_path / "chain"
        assert run_cli("--config", path, "--out", base) == 0
        summary = json.loads(Path(str(base) + "_summary.json").read_text())
        # the ring-up ran at the conditioned shift, near -19 MHz
        assert summary["delta_n0_2pi_MHz"] == pytest.approx(-19.0, abs=1.5)
        assert summary["switch_on_nbar"] == pytest.approx(6.5, rel=0.01)

    def test_delay_moves_no_ring_up_row(self, tmp_path):
        # the drift runs only while the monitoring probe is on: the ring-up
        # starts from the shift of the bin that fired, whatever the delay
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg["ringdown"].update(use_trigger=True, duration="1.3 ms",
                               subensembles=2, n_average=5,
                               window_length="250 us")
        runs = []
        for delay in ("2 ms", "10 ms"):
            cfg["trigger"] = dict(TRIGGER, delay=delay)
            path = tmp_path / "chain.yaml"
            path.write_text(yaml.safe_dump(cfg))
            base = str(tmp_path / delay.replace(" ", ""))
            assert run_cli("--config", path, "--out", base) == 0
            summary = json.loads(Path(base + "_summary.json").read_text())
            del summary["_config"]
            runs.append(([read_csv(f"{base}_{name}.csv")[1:]
                          for name in ("trace", "counts", "windows")],
                         summary))
        assert runs[0] == runs[1]
        cfg["scenario"] = "trigger"
        path.write_text(yaml.safe_dump(cfg))
        base = str(tmp_path / "trig")
        assert run_cli("--config", path, "--out", base) == 0
        trig = json.loads(Path(base + "_summary.json").read_text())
        assert runs[0][1]["delta_n0_2pi_MHz"] == \
            trig["conditioned_deltaN_2pi_MHz"]


class TestTriggerScenario:
    def test_trigger_summary(self, tmp_path):
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg["scenario"] = "trigger"
        cfg["trigger"] = {
            "n0": 120000, "loss_rate": 20.0, "threshold_rate": 1.0e6,
            "delay": "10 ms", "detection_level": 6.5, "horizon": "0.3 s",
        }
        path = tmp_path / "trig.yaml"
        path.write_text(yaml.safe_dump(cfg))
        base = tmp_path / "trig"
        assert run_cli("--config", path, "--out", base) == 0
        summary = json.loads(Path(str(base) + "_summary.json").read_text())
        assert summary["triggered"]
        assert summary["conditioned_deltaN_2pi_MHz"] == pytest.approx(
            -19.0, abs=1.5)
        assert summary["probe_on_time_s"] == pytest.approx(
            summary["trigger_time_s"] + 10e-3)

    @pytest.mark.parametrize("trigger, level, fires", [
        (dict(TRIGGER, delay=0, detection_level=3.0), 3.0, True),
        ({k: v for k, v in TRIGGER.items() if k != "detection_level"}, 6.5,
         True),
        (dict(TRIGGER, threshold_rate=1.0e7), 6.5, False)],
        ids=["zero-delay", "level-from-drive", "never-fires"])
    def test_summary_schedules_from_the_section(self, tmp_path, trigger,
                                                level, fires):
        # the probe comes back on trigger.delay after the trigger, at
        # trigger.detection_level, else params.drive.n_max; an untriggered
        # run has no times and no shift, and still reports the level
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg.update(scenario="trigger", trigger=trigger)
        path = tmp_path / "trig.yaml"
        path.write_text(yaml.safe_dump(cfg))
        base = tmp_path / "trig"
        assert run_cli("--config", path, "--out", base) == 0
        summary = json.loads(Path(str(base) + "_summary.json").read_text())
        assert summary["detection_level"] == level
        assert summary["triggered"] is fires
        t = summary["trigger_time_s"]
        if fires:
            assert summary["probe_on_time_s"] == t + parse_time(
                trigger["delay"])
        else:
            assert t is None
            assert summary["probe_on_time_s"] is None
            assert summary["conditioned_deltaN_2pi_MHz"] is None


    def test_negative_detection_level_exit_2(self, tmp_path, capsys):
        # a drive level, >= 0 as ringdown.level is
        cfg = yaml.safe_load((BENCH_CONFIGS / "trigger.yaml").read_text())
        cfg["trigger"]["detection_level"] = -3
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli("--config", path, "--out", out / "run") == 2
        assert "trigger.detection_level" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("threshold_rate", [-1.0, 0.0])
    def test_nonpositive_threshold_rate_exit_2(self, tmp_path, capsys,
                                               threshold_rate):
        # a detected rate is >= 0, so a threshold <= 0 would fire at once
        cfg = yaml.safe_load((BENCH_CONFIGS / "trigger.yaml").read_text())
        cfg["trigger"]["threshold_rate"] = threshold_rate
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli("--config", path, "--out", out / "run") == 2
        assert "trigger.threshold_rate" in capsys.readouterr().err
        assert not any(out.iterdir())


class TestCountsFile:
    """A counts file holds bin k; its centre t0_s + (k + 0.5) * bin_width_s
    is the in-memory ``CountRecord.times`` bit for bit."""

    @staticmethod
    def _read(path):
        meta, cols, rows = read_csv(path)
        k = np.array([r[0] for r in rows])
        assert np.array_equal(k, np.arange(len(rows)))
        times = float(meta["t0_s"]) + (k + 0.5) * float(meta["bin_width_s"])
        return cols, times, np.array([r[1] for r in rows])

    def test_trigger_counts_rebuild_the_record(self, tmp_path):
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg.update(scenario="trigger", trigger=TRIGGER)
        path = tmp_path / "trig.yaml"
        path.write_text(yaml.safe_dump(cfg))
        base = tmp_path / "trig"
        assert run_cli("--config", path, "--out", base) == 0
        cfg = cli.load_config(path)
        record = cli._run_trigger(cli._resolve(cfg, "trigger"),
                                  cli.build_system(cfg), cfg["seed"]).counts
        cols, times, counts = self._read(str(base) + "_counts.csv")
        assert cols == ["bin", "counts"]
        assert times.tobytes() == record.times.tobytes()
        assert np.array_equal(counts, record.counts)
        summary = json.loads(Path(str(base) + "_summary.json").read_text())
        assert np.count_nonzero(times == summary["trigger_time_s"]) == 1

    @pytest.mark.parametrize("n_average", [1, 2])
    def test_ringdown_counts_rebuild_the_record(self, tmp_path, n_average):
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg["ringdown"].update(duration="0.5 ms", subensembles=1,
                               n_average=n_average, window_length="120 us")
        path = tmp_path / "ring.yaml"
        path.write_text(yaml.safe_dump(cfg))
        base = tmp_path / "ring"
        assert run_cli("--config", path, "--out", base) == 0
        # the same counting of the trace as written
        _, _, rows = read_csv(str(base) + "_trace.csv")
        trace = (np.array([r[0] for r in rows]), np.array([r[2] for r in rows]))
        cav = cli.build_system(cli.load_config(path)).cavity
        eff = cfg["ringdown"]["efficiency"]
        bw = parse_time(cfg["ringdown"]["bin_width"])
        _, counts = measure.averaged_counts(trace, cav, eff, bw, cfg["seed"],
                                            n_average)
        record = measure.CountRecord(bw, counts, t_start=trace[0][0])
        if n_average == 1:
            name, values = "counts", record.counts
        else:
            name, values = "mean_rate_s", record.rates
        cols, times, column = self._read(str(base) + "_counts.csv")
        assert cols == ["bin", name]
        assert times.tobytes() == record.times.tobytes()
        assert column.tobytes() == values.astype(float).tobytes()


class TestSelfDescribingOutputs:
    # scenario -> (shipped config, --out name, {section: {key: value}}
    # overrides that shrink the run)
    CASES = {
        "derived": ("configs/derived.yaml", "run.json", {}),
        "lineshape": ("configs/fig_lineshapes.yaml", "run.csv",
                      {"lineshape": {"points": 41}}),
        "bistability-threshold": ("configs/fig_hysteresis.yaml", "run.json",
                                  {}),
        "sweep": ("configs/fig_hysteresis.yaml", "run.csv",
                  {"sweep": {"points": 41}}),
        "ringdown": ("configs/fig_ringdown.yaml", "run",
                     {"ringdown": {"duration": "0.5 ms", "subensembles": 1,
                                   "n_average": 2,
                                   "window_length": "120 us"}}),
        "trigger": ("perfbench/configs/trigger.yaml", "run",
                    {"trigger": {"horizon": "0.1 s"}}),
    }

    def _config(self, tmp_path, scenario):
        """The shrunk config, written to tmp_path; (config, path, --out)."""
        config, name, overrides = self.CASES[scenario]
        cfg = yaml.safe_load((ROOT / config).read_text())
        cfg["scenario"] = scenario
        for section, values in overrides.items():
            cfg[section].update(values)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        out.mkdir()
        return cfg, path, out / name

    @staticmethod
    def _embedded(f):
        """(config, seed) that the output file ``f`` records."""
        if f.suffix == ".json":
            report = json.loads(f.read_text())
            return json.loads(report["_config"]), report["_seed"]
        meta, _, _ = read_csv(f)
        return json.loads(meta["config"]), int(meta["seed"])

    @pytest.mark.parametrize("scenario", sorted(CASES))
    def test_every_output_embeds_config_and_seed(self, tmp_path, scenario):
        cfg, path, out = self._config(tmp_path, scenario)
        assert run_cli("--config", path, "--out", out) == 0
        files = sorted(out.parent.iterdir())
        assert files
        for f in files:
            assert self._embedded(f) == (cfg, cfg["seed"]), f.name

    @pytest.mark.parametrize("scenario", sorted(CASES))
    def test_run_reproduces_from_its_own_output(self, tmp_path, capsys,
                                                scenario):
        # YAML, not JSON text, carries the config back: PyYAML reads a
        # JSON number like 1e-05 as a string
        _, path, out = self._config(tmp_path, scenario)
        assert run_cli("--config", path, "--out", out) == 0
        stdout = capsys.readouterr().out
        files = sorted(out.parent.iterdir())
        cfg, seed = self._embedded(files[0])
        replay = tmp_path / "replay.yaml"
        replay.write_text(yaml.safe_dump(cfg))
        again = tmp_path / "again"
        again.mkdir()
        assert run_cli("--config", replay, "--out", again / out.name,
                       "--seed", seed) == 0
        assert capsys.readouterr().out == stdout
        assert sorted(f.name for f in again.iterdir()) == \
            [f.name for f in files]
        for f in files:
            assert (again / f.name).read_bytes() == f.read_bytes(), f.name

    @pytest.mark.parametrize("scenario", sorted(CASES))
    def test_runs_without_scipy(self, tmp_path, scenario):
        # SciPy is only a test dependency: every scenario runs with
        # `import scipy` failing
        _, path, out = self._config(tmp_path, scenario)
        code = ("import sys; sys.modules['scipy'] = None; "
                "from cavkerr.cli import main; sys.exit(main(sys.argv[1:]))")
        src = Path(cavkerr.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", code, "--config", str(path), "--out",
             str(out)], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert sorted(out.parent.iterdir())


CORE = ["cavkerr", "cavkerr.cli", "cavkerr.params", "cavkerr.steady_state"]


def loaded_cavkerr_modules(*args):
    """The cavkerr modules a fresh interpreter holds after building the
    system of config ``args[0]``, or after ``cli.main(args)`` exits 0."""
    code = ("import contextlib, io, sys\n"
            "from cavkerr import cli\n"
            "if sys.argv[2:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(sys.argv[1:]) == 0\n"
            "else:\n"
            "    cli.build_system(cli.load_config(sys.argv[1]))\n"
            "print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'cavkerr'))")
    src = Path(cavkerr.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestImportSet:
    # the package namespace and the config layer load only the params and
    # steady-state modules; a scenario adds the layers it runs
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")),
                             ids=lambda p: p.name)
    def test_building_the_system_loads_the_core(self, path):
        assert loaded_cavkerr_modules(path) == CORE

    @pytest.mark.parametrize("scenario, added", [
        ("derived", []), ("bistability-threshold", []),
        ("lineshape", ["cavkerr.csvrows", "cavkerr.dynamics",
                       "cavkerr.lattice"]),
        ("sweep", ["cavkerr.csvrows", "cavkerr.dynamics", "cavkerr.lattice"]),
        ("trigger", ["cavkerr.csvrows", "cavkerr.measure"]),
        ("ringdown", ["cavkerr.csvrows", "cavkerr.dynamics", "cavkerr.lattice",
                      "cavkerr.measure"]),
    ])
    def test_scenario_loads_only_its_layers(self, tmp_path, scenario, added):
        _, path, out = TestSelfDescribingOutputs()._config(tmp_path, scenario)
        assert loaded_cavkerr_modules("--config", path, "--out", out) == \
            sorted(CORE + added)


class TestConfigTable:
    def test_every_key_documented(self):
        text = (ROOT / "docs" / "formats.md").read_text()
        section = text.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `([\w.]+)` \|", section, re.M)
        assert sorted(documented) == sorted(cli.FIELDS)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml"))
                             + sorted((ROOT / "perfbench" / "configs").glob("*.yaml")),
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_shipped_config_resolves(self, path):
        cfg = cli.load_config(path)
        cli.build_system(cfg)
        cli._resolve(cfg, "")
        for section, raw in cfg.items():   # every value that is present
            if section in cli._MAPPINGS and section != "params":
                cli._resolve(cfg, section, keys=raw)
        if cfg["scenario"] in cfg:         # and the scenario's required keys
            cli._resolve(cfg, cfg["scenario"])

    @pytest.mark.parametrize("value", FIELD_MODELS)
    def test_field_model_parses_what_ring_up_runs(self, value):
        # the config's string is the one name ring_up takes for the model
        from cavkerr import dynamics, lattice
        assert cli.FIELDS["ringdown.field_model"].parse(value, "k") == value
        system = cli.build_system(cli.load_config(CONFIGS / "fig_ringdown.yaml"))
        ens = lattice.LatticeEnsemble(np.array([np.pi / 4]), np.array([1.0]),
                                      np.array([system.trap.omega_z]))
        trace = dynamics.ring_up(ens, system.cavity, system.drive,
                                 field_model=value, duration=1e-5)
        # the filter starts from an empty cavity, the adiabatic field full
        assert (trace.nbar[0] == 0) == (value == "filter")

    @settings(max_examples=40, deadline=None)
    @given(value=st.text(max_size=10))
    def test_field_model_other_string_exits_2_naming_the_key(
            self, tmp_path_factory, value):
        assume(value not in FIELD_MODELS)
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        values = {"ringdown.field_model": (value, False)}
        code, err, files = _boundary_run(cfg, values, tmp_path_factory)
        assert code == 2, err
        assert "ringdown.field_model" in err
        assert files == []
