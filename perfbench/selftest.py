"""Self-test of the benchmark on tiny inputs; takes a few seconds.

    python3 perfbench/selftest.py

Checks, on a block-model graph and a crescent set of 60 nodes each, one
semi-supervised crescent input and two dolphins samplings:

- the traced mirror reproduces the package on every input, and a mirror
  result that differs is caught by the parity guard;
- every metric printed carries the name and unit that BENCHMARK.json lists;
- an input whose reference digest is corrupted counts as failed;
- run.py exits with an error and prints no result without the package source.

Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))
for _var in run.BLAS_VARS:
    os.environ[_var] = "1"

import child  # noqa: E402
import mirror  # noqa: E402
import workloads  # noqa: E402

SEED = 3
_W = workloads.WORKLOADS
TINY = (
    dataclasses.replace(_W["sbm-net"], name="tiny-sbm",
                        params=dict(n=60, alpha=0.2, p1=0.5, q=0.05)),
    dataclasses.replace(_W["crescents-ssl"], name="tiny-crescents",
                        params=dict(n=60, noise=0.08), seeds_per_class=0,
                        config=dict(_W["crescents-ssl"].config, task="clustering")),
    dataclasses.replace(_W["crescents-ssl"], name="tiny-ssl",
                        params=dict(n=60, noise=0.08)),
    dataclasses.replace(_W["dolphins-small"], name="tiny-dolphins",
                        params=dict(removals=(4,), samplings=2)),
)

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def units(result) -> dict:
    return {name: unit for name, (_, unit) in result["metrics"].items()}


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == list(mirror.PER_LAYER), "BENCHMARK.json lists mirror.PER_LAYER")

    scratch = run.WORK / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    for w in TINY:
        directory = scratch / w.name
        workloads.write_inputs(w, SEED, directory)
        first = child.measure(w, SEED, directory, 0.0, None)
        reference = first["digests"]
        check(first["failed"] == 0 and None not in reference, f"{w.name}: no input raises")

        again = child.measure(w, SEED, directory, 0.0, reference)
        check(again["failed"] == 0 and again["metrics"]["match_frac"][0] == 1.0,
              f"{w.name}: every input matches its reference")
        check(units(again) | {"setup_s": "s"} == end_to_end,
              f"{w.name}: end-to-end metrics and units as in BENCHMARK.json")

        corrupted = ["0" * 16] + reference[1:]
        bad = child.measure(w, SEED, directory, 0.0, corrupted)
        check(bad["failed"] == 1 and bad["metrics"]["match_frac"][0] < 1.0,
              f"{w.name}: a corrupted reference digest counts as one failure")

        try:
            traced, _ = child.trace(w, SEED, directory, 0.0, reference)
        except mirror.ParityError as exc:
            check(False, f"{w.name}: mirror parity ({exc})")
            continue
        check(traced["failed"] == 0, f"{w.name}: mirror parity and reference on every input")
        check(units(traced) == per_layer,
              f"{w.name}: per-layer metrics and units as in BENCHMARK.json")

    from pcut import generate_candidates, pcut_select
    w = TINY[0]
    inp = workloads.load_inputs(w, scratch / w.name, mirror.NO_TRACE)[0]
    cfg = workloads.config(w, SEED)
    candidates = generate_candidates(inp.data, cfg, inp.labels)
    mirrored, selected = mirror.mirror_select(inp.data, cfg, inp.labels, mirror.NO_TRACE)
    shifted = [dataclasses.replace(mirrored[0], baseline_cut=mirrored[0].baseline_cut + 1.0)]
    try:
        mirror.check_parity(candidates, pcut_select(candidates),
                            shifted + mirrored[1:], selected)
        check(False, "parity guard catches a changed baseline cut")
    except mirror.ParityError:
        check(True, "parity guard catches a changed baseline cut")

    bare = scratch / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sbm-net",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py fails without output when the package source is missing")
    shutil.rmtree(scratch)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
