import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from cavkerr import cli
from cavkerr.cli import main, parse_chirp, parse_frequency, parse_time, read_csv

TWO_PI = 2 * np.pi
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
TRIGGER = {"n0": 120000, "loss_rate": 20.0, "threshold_rate": 1.0e6,
           "delay": "10 ms", "detection_level": 6.5, "horizon": "0.3 s"}


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
        from cavkerr.cli import ConfigError
        with pytest.raises(ConfigError):
            parse_frequency("3 parsec")


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
        ("fig_ringdown.yaml", "ringdown", "ringdown.bin_width", 0),
        ("fig_ringdown.yaml", "ringdown", "ringdown.window_length", "-5 us"),
        ("fig_ringdown.yaml", "trigger", "trigger.bin_width", 0),
        ("fig_lineshapes.yaml", "lineshape", "lineshape.n_max", ["a"]),
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

    def test_numeric_failure_exit_3(self, tmp_path):
        cfg = yaml.safe_load((CONFIGS / "fig_ringdown.yaml").read_text())
        cfg["ringdown"]["dt_per_period"] = 5   # violates the stability guard
        cfg["ringdown"]["n_average"] = 1
        path = tmp_path / "unstable.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert run_cli("--config", path, "--out", tmp_path / "x") == 3


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
        _, _, rows = read_csv(str(base) + "_counts.csv")
        arr = np.array(rows, dtype=float)
        t, rate = arr[:, 0], arr[:, 1]
        ac = rate - rate.mean()
        freqs = np.fft.rfftfreq(len(ac), t[1] - t[0])
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
        _, _, rows = read_csv(str(base) + "_counts.csv")
        counts = np.array([r[1] for r in rows])
        assert np.all(counts == 0)


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

    @pytest.mark.parametrize("scenario", sorted(CASES))
    def test_every_output_embeds_config_and_seed(self, tmp_path, scenario):
        config, name, overrides = self.CASES[scenario]
        cfg = yaml.safe_load((ROOT / config).read_text())
        cfg["scenario"] = scenario
        for section, values in overrides.items():
            cfg[section].update(values)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli("--config", path, "--out", out / name) == 0
        files = sorted(out.iterdir())
        assert files
        for f in files:
            if f.suffix == ".json":
                report = json.loads(f.read_text())
                config_text, seed = report["_config"], report["_seed"]
            else:
                meta, _, _ = read_csv(f)
                config_text, seed = meta["config"], int(meta["seed"])
            assert json.loads(config_text) == cfg, f.name
            assert seed == cfg["seed"], f.name


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
