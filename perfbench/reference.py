"""Reference digests of the selected partitions, and the script that records them.

A digest covers one input's selected partition and its ``params()``. The
references in ``reference.json`` were recorded with the package at the
commit that introduced the benchmark; a run whose selected partition
differs from its reference counts that input as failed.

Record them again (only when a change is meant to alter selected
partitions) from the repository root with

    python3 perfbench/reference.py [WORKLOAD ...]
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def digest(selected) -> str:
    """Digest of a CandidateCut's partition and parameters."""
    import numpy as np  # loaded late, after the script pins the BLAS threads
    h = hashlib.sha256(np.ascontiguousarray(selected.partition.assignment,
                                            dtype=np.int64).tobytes())
    h.update(json.dumps(selected.params(), sort_keys=True).encode())
    return h.hexdigest()[:16]


def expected(name: str, instance: int) -> list:
    """Recorded digests of one workload instance, in input order."""
    return json.loads(REFERENCE.read_text())["workloads"][name][instance]


def _record(names):
    import child
    import run
    import workloads
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {
        "pool": workloads.POOL, "workloads": {}}
    scratch = run.WORK / "reference"
    for name in names or workloads.WORKLOADS:
        w = workloads.WORKLOADS[name]
        rows = []
        for instance in range(workloads.POOL):
            directory = scratch / f"{name}-{instance}"
            workloads.write_inputs(w, instance, directory)
            out = child.measure(w, instance, directory, 0.0, None)
            shutil.rmtree(directory)
            if out["failed"]:
                raise SystemExit(f"{name} instance {instance}: {out['failed']} inputs raised")
            rows.append(out["digests"])
            print(name, instance, {k: v[0] for k, v in out["metrics"].items()},
                  flush=True)
        table["workloads"][name] = rows
        REFERENCE.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    import run
    sys.path.insert(0, str(run.SRC))
    for var in run.BLAS_VARS:
        os.environ[var] = "1"
    _record(sys.argv[1:])
