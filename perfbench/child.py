"""One benchmark child: repeat a workload's pass for a fixed time, check every
pass's outputs, and write what was measured as JSON.

    PYTHONPATH=src python3 perfbench/child.py --workload NAME --seed N \
        --seconds S --trace 0|1 --result PATH

``run.py`` starts one child per workload, so ``ru_maxrss`` is the peak of
that workload alone.  Passes run back to back (a closed loop with a single
client); a pass's outputs go to a fresh directory that is removed once they
are checked.  With ``--trace 1`` every second pass runs with the tracer
installed, so traced and untraced passes share the host's drift.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

import cavkerr
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
TMP_DIR = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"


def _digest(workdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        if path.name != "config.yaml":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _check(workload, cfg, workdir, key, checked) -> dict:
    """Check a pass's outputs.  A pass whose inputs repeat an earlier pass's
    must write the same bytes; it then has the same accuracy."""
    digest = _digest(workdir)
    if key in checked:
        if checked[key][0] != digest:
            raise workloads.CheckError(
                "outputs differ from an earlier pass with the same inputs")
        return checked[key][1]
    accuracy = workload.check(cfg, workdir)
    checked[key] = (digest, accuracy)
    return accuracy


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    if Path(cavkerr.__file__).resolve().parent != ROOT / "src" / "cavkerr":
        raise SystemExit(f"cavkerr imported from {cavkerr.__file__}, "
                         f"not from {ROOT / 'src'}")
    workload = workloads.WORKLOADS[workload_name]
    tracer = tracing.Tracer() if trace else None
    TMP_DIR.mkdir(exist_ok=True)

    passes, checked = [], {}
    t_begin = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - t_begin < seconds:
        cfg = workload.config(seed, index)
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=TMP_DIR))
        traced = trace and index % 2 == 1
        first = len(tracer.spans) if traced else 0
        rec = {"index": index, "key": workload.input_key(index),
               "traced": traced, "ok": False}
        try:
            if traced:
                tracer.request = index
                tracer.install()
            try:
                rec["wall_s"], rec["cpu_s"] = workloads.run_pass(workload, cfg,
                                                                 workdir)
            finally:
                if traced:
                    tracer.uninstall()
            rec["accuracy"] = _check(workload, cfg, workdir, rec["key"],
                                     checked)
            rec["ok"] = True
        except Exception as exc:     # a failed pass is counted; the run goes on
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if traced:
            rec["layer"] = tracing.layer_metrics(tracer.spans[first:], first)
        passes.append(rec)
        index += 1

    result = {
        "workload": workload_name, "seed": seed, "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "cavkerr": cavkerr.__version__},
    }
    if tracer:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload_name}-seed{seed}.csv"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
