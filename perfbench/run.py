"""Benchmark of cavkerr's four paper scenarios through ``cavkerr.cli.main``.

    python3 perfbench/run.py --workload lineshape --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, then a summary

Run from the root of a source checkout; the package is imported from its
``src/``.  A run starts one child process that repeats the workload's pass
for ``--seconds`` and checks every pass's outputs, then measures set-up time
in fresh interpreters.  Processes run one at a time (a closed loop with one
client, within two cores).  With ``--trace 1`` every second pass runs with
every public cavkerr function wrapped in a span, and the run reports
per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names,
units and the reason for each workload are in GLOSSARY.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_DIR = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("lineshape", "hysteresis", "ringdown", "trigger_shots")
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0           # a run must end within 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
ACCURACY_NAMES = {"max_residual": "steady_state.max_residual",
                  "threshold_err": "steady_state.threshold_err",
                  "oracle_err_kappa": "dynamics.oracle_err_kappa"}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _run_child(argv: list[str], deadline: float) -> str:
    """Run a Python child to completion (killed at the deadline); stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                              env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {argv[0]} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"child {argv[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_times(workload: str, seed: int, deadline: float) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh interpreters on the workload's
    generated config."""
    import yaml

    import workloads
    cfg = workloads.WORKLOADS[workload].config(seed)
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return [float(_run_child([str(HERE / "setup_probe.py"), str(path)],
                                 deadline).strip().splitlines()[-1])
                for _ in range(SETUP_PROBES)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
        result = Path(tmp) / "result.json"
        _run_child([str(HERE / "child.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", repr(seconds),
                    "--trace", str(int(trace)), "--result", str(result)],
                   deadline)
        return json.loads(result.read_text())


def tail_percentile(values):
    """(p, value) for the highest of p99.9/p99/p90/p50 with at least ten
    samples beyond it (nearest rank), or None when there are too few."""
    xs = sorted(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(xs) * (1.0 - p / 100.0) >= 10:
            return p, xs[math.ceil(p / 100.0 * len(xs)) - 1]
    return None


def _fmt_row(name, unit, values) -> str:
    tail = tail_percentile(values)
    tail_txt = f"p{tail[0]:g} {tail[1]:.6g}" if tail else "p- (n<20)"
    return (f"  {name:<34} {unit:<6} median {statistics.median(values):<12.6g}"
            f" {tail_txt:<18} n={len(values)}")


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def _accuracy(passes) -> dict:
    """Worst value of each accuracy figure over the passes."""
    worst = {}
    for rec in passes:
        for k, v in (rec.get("accuracy") or {}).items():
            worst[k] = max(worst.get(k, v), v)
    return worst


def repeat_flags(workload: str, seed: int, passes, info: dict) -> list[str]:
    """Compare the repeatable counts of passes with identical inputs, within
    this run and against earlier traced runs at the same seed (kept in
    .perfbench_out/).  Returns one message per mismatch."""
    import tracing

    OUT.mkdir(exist_ok=True)
    path = OUT / f"counts-{workload}-seed{seed}.json"
    known = json.loads(path.read_text())["counts"] if path.exists() else {}
    flags = []
    for rec in filter(lambda rec: rec["ok"], passes):
        counts = {k: rec["layer"][k] for k in tracing.REPEATABLE}
        key = str(rec["key"])
        if key not in known:
            known[key] = counts
            continue
        for k, v in counts.items():
            if known[key].get(k) != v:
                flags.append(f"pass {rec['index']}: {k} = {v}, "
                             f"earlier {known[key].get(k)}")
    path.write_text(json.dumps({"machine": info, "counts": known}, indent=1))
    return flags


def _walls(passes) -> list[float]:
    return [rec["wall_s"] for rec in passes if "wall_s" in rec]


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints its report and returns the JSON result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    TMP_DIR.mkdir(exist_ok=True)
    child = run_workload(workload, seed, seconds, trace, deadline)
    passes = child["passes"]
    failed = [rec for rec in passes if not rec["ok"]]
    plain = [rec for rec in passes if not rec["traced"]]
    traced = [rec for rec in passes if rec["traced"]]
    info = dict(machine(), **child["versions"])
    if not _walls(plain) or (trace and not _walls(traced)):
        raise BenchError("no pass of the workload completed")

    print(f"workload {workload}  seed {seed}  run {seconds:g} s  "
          f"trace {int(trace)}")
    print("machine " + "  ".join(f"{k} {v}" for k, v in info.items()))
    for rec in failed:
        print(f"FAILED pass {rec['index']}: {rec['error']}")
    print(f"  {'fail_ratio':<34} {'1':<6} {len(failed)}/{len(passes)}")
    for name, value in sorted(_accuracy(passes).items()):
        print(f"  {name:<34} {'1':<6} worst {value:.6g}")

    if not trace:
        setup = setup_times(workload, seed, deadline)
        units = END_TO_END_UNITS
        metrics = {"wall_s": statistics.median(_walls(plain)),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": child["peak_rss_mb"]}
        print(_fmt_row("wall_s", "s", _walls(plain)))
        print(_fmt_row("cpu_s (of wall_s)", "s",
                       [rec["cpu_s"] for rec in plain if "cpu_s" in rec]))
        print(_fmt_row("setup_s", "s", setup))
        print(_fmt_row("peak_rss_mb", "MB", [child["peak_rss_mb"]]))
    else:
        import tracing

        units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
        layer = [rec["layer"] for rec in traced if rec["ok"]] or [
            rec["layer"] for rec in traced]
        metrics = {k: statistics.median(d[k] for d in layer) for k in layer[0]}
        acc = _accuracy(passes)
        for name, key in ACCURACY_NAMES.items():
            metrics[key] = acc.get(name, 0.0)
        metrics["trace.overhead_s"] = (statistics.median(_walls(traced))
                                       - statistics.median(_walls(plain)))
        flags = repeat_flags(workload, seed, traced, info)
        metrics["trace.count_mismatches"] = len(flags)
        for flag in flags:
            print(f"COUNT MISMATCH {flag}")
        print(f"  spans written to {child['spans_file']}")
        for name, value in metrics.items():
            print(f"  {name:<34} {units[name]:<6} median {value:.6g}")

    return {"correct": not failed, "attempted": len(passes),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, with a summary)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cavkerr" / "__init__.py").is_file():
        print(f"error: no cavkerr sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        if args.workload:
            result = bench(args.workload, args.seed, args.seconds,
                           bool(args.trace))
            print(json.dumps(result))
            return 0
        results = {}
        for name in WORKLOADS:
            results[name] = bench(name, args.seed, args.seconds,
                                  bool(args.trace))
            print()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print("summary")
    for name, r in results.items():
        cells = "  ".join(f"{k} {m['value']:.6g} {m['unit']}"
                          for k, m in r["metrics"].items()
                          if k in END_TO_END_UNITS)
        print(f"  {name:<14} {cells}  failed {r['failed']}/{r['attempted']}")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
