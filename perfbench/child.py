"""One fresh benchmark process: set-up, a measured run, or a traced run.

    python3 child.py setup|measure|trace WORKLOAD INSTANCE INPUT_DIR SECONDS TRACE_FILE

Every mode first imports pcut and parses the workload's input files, and
reports that time as ``setup_s``. The last line of standard output is one
JSON object. Run it through ``run.py``, which generates the inputs, pins the
BLAS thread counts and puts the package source on the path.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import mirror  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def _another_pass(start, passes, seconds):
    """Whether one more pass of the mean length so far still ends within
    `seconds`. The first pass always runs."""
    if not passes:
        return True
    elapsed = time.perf_counter() - start
    return elapsed * (passes + 1) / passes <= seconds


def measure(w, instance, directory, seconds, expected):
    """Closed loop of as many full passes over the inputs as fit in `seconds`.

    Each input is run only after the previous one finished. Every pass
    parses the input files again, so no pass reuses matrices that the
    package caches on the objects of an earlier pass. An input fails when
    it raises or its digest differs from `expected` (None: no reference).
    Returns the result dict of the end-to-end metrics other than setup_s,
    plus the digests of the first pass.
    """
    from pcut import clustering_error, generate_candidates, pcut_select
    cfg = workloads.config(w, instance)
    pass_walls, run_times, errors, digests = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while _another_pass(start, len(pass_walls), seconds):
        inputs = workloads.load_inputs(w, directory, mirror.NO_TRACE)
        wall = 0.0
        for i, inp in enumerate(inputs):
            attempted += 1
            t0 = time.perf_counter()
            try:
                best = pcut_select(generate_candidates(inp.data, cfg, inp.labels))
            except Exception:
                traceback.print_exc()
                best = None
            dt = time.perf_counter() - t0
            wall += dt
            run_times.append(dt)
            found = reference.digest(best) if best is not None else None
            if not pass_walls:
                digests.append(found)
            if found is None or (expected is not None and found != expected[i]):
                failed += 1
            else:
                errors.append(clustering_error(best.partition, inp.truth).error_rate)
        pass_walls.append(wall)
    metrics = {
        "wall_s": (statistics.median(pass_walls), "s"),
        "run_p50_s": (statistics.median(run_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "accuracy": (1.0 - statistics.fmean(errors) if errors else 0.0, "ratio"),
        "match_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return {"attempted": attempted, "failed": failed, "passes": len(pass_walls),
            "inputs": len(inputs), "metrics": metrics, "digests": digests}


def trace(w, instance, directory, seconds, expected):
    """Passes that run each input through the package and through the
    traced mirror, alternating which of the two goes first.

    Raises mirror.ParityError when the mirror disagrees with the package.
    Returns the result dict of per-layer metrics (medians over passes) and
    the tracers of every pass.
    """
    from pcut import generate_candidates, pcut_select
    cfg = workloads.config(w, instance)
    tracers, per_pass = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while _another_pass(start, len(tracers), seconds):
        tracer = mirror.Tracer()
        tracer.trace = "load"
        plain = workloads.load_inputs(w, directory, mirror.NO_TRACE)
        traced = workloads.load_inputs(w, directory, tracer)
        untraced_s = traced_s = 0.0
        for i, (a, b) in enumerate(zip(plain, traced)):
            attempted += 1
            tracer.trace = f"{len(tracers)}:{i}"

            def run_package():
                candidates = generate_candidates(a.data, cfg, a.labels)
                return candidates, pcut_select(candidates)

            def run_mirror():
                with tracer.span("engine.input"):
                    return mirror.mirror_select(b.data, cfg, b.labels, tracer)

            # alternate which side runs first, so that first-call costs do
            # not always land on the same side of trace.overhead_s
            order = [run_package, run_mirror]
            if (len(tracers) + i) % 2:
                order.reverse()
            done = {}
            for fn in order:
                t0 = time.perf_counter()
                done[fn] = fn(), time.perf_counter() - t0
            (candidates, selected), package_s = done[run_package]
            (mirrored, mirrored_selected), mirror_s = done[run_mirror]
            untraced_s += package_s
            traced_s += mirror_s
            mirror.check_parity(candidates, selected, mirrored, mirrored_selected)
            if reference.digest(selected) != expected[i]:
                failed += 1
        tracers.append(tracer)
        per_pass.append(mirror.layer_metrics(tracer, traced_s - untraced_s))
    metrics = {name: (statistics.median(p[name] for p in per_pass), unit)
               for name, unit, _ in mirror.PER_LAYER}
    return {"attempted": attempted, "failed": failed, "passes": len(tracers),
            "inputs": len(plain), "metrics": metrics}, tracers


def main(argv):
    mode, name, instance, directory, seconds, trace_file = argv
    w = workloads.WORKLOADS[name]
    instance, directory, seconds = int(instance), Path(directory), float(seconds)
    import pcut  # noqa: F401  (the package import is part of set-up)
    workloads.load_inputs(w, directory, mirror.NO_TRACE)
    out = {"setup_s": time.perf_counter() - _T0}
    if mode == "measure":
        out.update(measure(w, instance, directory, seconds,
                           reference.expected(name, instance)))
    elif mode == "trace":
        result, tracers = trace(w, instance, directory, seconds,
                                reference.expected(name, instance))
        out.update(result)
        Path(trace_file).write_text(json.dumps(
            {"workload": name, "instance": instance,
             "passes": [{"spans": t.spans, "counts": t.counts} for t in tracers]}))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
