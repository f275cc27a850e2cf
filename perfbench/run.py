"""pcut benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The launcher generates the workload's input
files from the seed, then runs fresh processes one after another, never
two at a time:

- ``--trace 0``: several set-up processes, then one measuring process. The
  end-to-end metrics are printed, ``setup_s`` as the median over all of
  them.
- ``--trace 1``: one process that runs each input through the package and
  through the traced mirror, checks that both agree, and prints the
  per-layer metrics. Its spans are written to ``.perfbench_work/traces/``.

The next-to-last line of output records the environment; the last line is
the result as one JSON object. The exit code is not 0 when the package
source is missing or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROCESSES = 4     # plus the measuring process, which also times set-up
CHILD_TIMEOUT_S = 170


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, instance: int) -> dict:
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            **{var: os.environ[var] for var in BLAS_VARS},
            "seed": seed, "instance": instance}


def _child(mode, name, instance, directory, seconds, trace_file) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, name, str(instance),
         str(directory), str(seconds), str(trace_file)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{mode} process for {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pcut" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'pcut'} not found", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    instance = args.seed % workloads.POOL

    run_dir = WORK / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    trace_file = WORK / "traces" / f"{w.name}-seed{args.seed}.json"
    if args.trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
    try:
        workloads.write_inputs(w, instance, run_dir)
        call = (w.name, instance, run_dir, args.seconds, trace_file)
        if args.trace:
            out = _child("trace", *call)
            metrics = out["metrics"]
        else:
            setups = [_child("setup", *call)["setup_s"] for _ in range(SETUP_PROCESSES)]
            out = _child("measure", *call)
            setups.append(out["setup_s"])
            metrics = {"setup_s": (statistics.median(setups), "s"), **out["metrics"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({"environment": environment(args.seed, instance),
                      "workload": w.name, "inputs": out["inputs"],
                      "passes": out["passes"], "trace": bool(args.trace)}))
    print(json.dumps({
        "correct": out["failed"] == 0, "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
