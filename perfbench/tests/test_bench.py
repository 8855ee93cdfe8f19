"""Tests of the benchmark itself: span arithmetic, the output checks, the
tracer's coverage, and refusal to run without the package sources.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import run
import tracing
import workloads
from cavkerr import cli

BENCH = Path(__file__).resolve().parent.parent


def _span(name, parent, start, end):
    return tracing.Span(name, parent, start, end)


def test_self_time_subtracts_child_spans():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("b", 0, 5.0, 9.0),
        _span("c", 2, 6.0, 7.0),
        _span("d", 2, 6.5, 8.0),      # overlaps c: covered once, not twice
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])


def test_self_time_of_a_slice_ignores_parents_outside_it():
    spans = [_span("outer", -1, 0.0, 10.0), _span("x", 0, 1.0, 5.0),
             _span("y", 1, 2.0, 3.0)]
    assert tracing.self_times(spans[1:], offset=1) == pytest.approx([3.0, 1.0])


def test_layer_metrics_count_at_boundaries():
    spans = [_span("steady_state.lineshape_scan", -1, 0.0, 1.0)]
    for i in range(4):
        s = _span("steady_state.steady_state_roots_profile", 0, 0.1 * i,
                  0.1 * i + 0.05)
        s.counts = {"roots": 1 + (i == 0)}
        spans.append(s)
        p = _span("steady_state.profile_value", len(spans) - 1,
                  0.1 * i, 0.1 * i + 0.01)
        p.counts = {"points": 2001}
        spans.append(p)
    metrics = tracing.layer_metrics(spans)
    assert metrics["steady_state.roots.calls"] == 4
    assert metrics["steady_state.profile.points"] == 4 * 2001
    assert metrics["steady_state.evals_per_point"] == 2001
    assert metrics["steady_state.roots_per_point"] == pytest.approx(1.25)
    assert metrics["steady_state.scan.self_s"] == pytest.approx(0.8)
    assert metrics["steady_state.roots.self_s"] == pytest.approx(0.16)
    assert set(metrics) == set(tracing.PER_LAYER) - {
        "steady_state.max_residual", "steady_state.threshold_err",
        "dynamics.oracle_err_kappa", "trace.overhead_s",
        "trace.count_mismatches"}


def _small_lineshape(tmp_path):
    cfg = workloads.WORKLOADS["lineshape"].config(seed=3)
    cfg["lineshape"]["points"] = 41
    workloads.run_pass(workloads.WORKLOADS["lineshape"], cfg, tmp_path)
    return cfg


def _perturb_csv(path, column, row, change):
    lines = path.read_text().splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    header = [line for line in lines if not line.startswith("#")][0]
    col = header.strip().split(",").index(column)
    cells = lines[data[row]].rstrip("\n").split(",")
    cells[col] = format(change(float(cells[col])), ".17g")
    lines[data[row]] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def test_residual_check_rejects_a_perturbed_row(tmp_path):
    cfg = _small_lineshape(tmp_path)
    acc = workloads.check_lineshape(cfg, tmp_path)
    assert 0.0 < acc["max_residual"] <= workloads.RESIDUAL_TOL
    _perturb_csv(tmp_path / "lineshape.csv", "nbar", 17,
                 lambda x: x * (1.0 + 1e-8))
    with pytest.raises(workloads.CheckError, match="max residual"):
        workloads.check_lineshape(cfg, tmp_path)


def _small_ringdown(tmp_path):
    cfg = workloads.WORKLOADS["ringdown"].config(seed=5)
    cfg["params"]["trap"]["num_sites"] = 20
    cfg["ringdown"].update(duration="0.6 ms", window_length="0.12 ms",
                           n_average=2)
    workloads.run_pass(workloads.WORKLOADS["ringdown"], cfg, tmp_path)
    return cfg


def test_oracle_check_rejects_a_perturbed_delta_n_sample(tmp_path):
    cfg = _small_ringdown(tmp_path)
    assert 0.0 < workloads.check_oracle(cfg, tmp_path) < 1e-2
    kappa = cli.build_system(cfg).cavity.kappa
    _perturb_csv(tmp_path / "ringdown_trace.csv", "deltaN_rad_s", 100,
                 lambda x: x + 0.05 * kappa)
    with pytest.raises(workloads.CheckError, match="exact solution"):
        workloads.check_oracle(cfg, tmp_path)


def test_hysteresis_jumps_found_at_large_steps_only():
    nbar = [0.1, 0.2, 0.4, 7.0, 7.1, 7.05]
    assert workloads.hysteresis_jumps([1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                                      nbar) == [3.0]


def test_tracer_patches_every_binding_and_restores_them():
    from cavkerr import dynamics, lattice, measure, steady_state

    before = (steady_state.profile_value, dynamics.profile_value,
              measure.profile_value, cli._DISPATCH["lineshape"])
    tracer = tracing.Tracer()
    patched = tracer.install()
    try:
        assert dynamics.profile_value is steady_state.profile_value
        assert measure.profile_value is steady_state.profile_value
        assert steady_state.profile_value is not before[0]
        assert cli._DISPATCH["lineshape"] is cli.cmd_lineshape
        assert patched["steady_state.profile_value"] >= 4
        assert (dynamics.collective_shift_from_displacements
                is lattice.collective_shift_from_displacements)
    finally:
        tracer.uninstall()
    assert (steady_state.profile_value, dynamics.profile_value,
            measure.profile_value, cli._DISPATCH["lineshape"]) == before


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_layer_function_records_a_call_on_its_workload(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.run_pass(workload, workload.config(seed=2), tmp_path)
    finally:
        tracer.uninstall()
    calls = defaultdict(int)
    for span in tracer.spans:
        calls[span.name] += 1
    expected = [f for f, w in tracing.EXERCISED_BY.items() if w == name]
    assert expected
    assert {f: calls[f] for f in expected if calls[f] < 1} == {}


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(1, 21))) == (50.0, 10)
    assert run.tail_percentile(list(range(1, 1001))) == (99.0, 990)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lineshape",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
