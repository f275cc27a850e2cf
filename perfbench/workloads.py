"""The benchmark's workloads: how inputs are generated, written and parsed.

Inputs are generated from the workload seed with ``pcut.synth`` or the
bundled dolphins network and written as files with ``pcut.io``. The package
only ever sees what ``load_inputs`` parses back from those files.

This module imports ``pcut`` inside its functions, so that a process timing
its own set-up counts the package import.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Reference partitions are recorded for this many instances per workload;
# the workload seed selects instance seed % POOL.
POOL = 16

_LAMBDAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class Workload:
    """One workload: an input source and the pcut configuration run on it."""

    name: str
    source: str             # "sbm" | "crescents" | "dolphins"
    params: dict            # keyword arguments of the source generator
    config: dict            # PCutConfig fields; the seed is the instance
    seeds_per_class: int = 0   # labelled nodes per class when task="ssl"


@dataclass
class Input:
    """One parsed input with the ground truth used to score the result."""

    data: object            # WeightedGraph or (n, d) feature array
    truth: object           # pcut.Partition
    labels: object = None   # pcut.LabelSet for task="ssl"


# The block-model flavours match the package's block-model experiment
# presets; the network flavours match its real-network presets.
_SBM_FLAVOURS = dict(variant="ncut_normalized", extra_variants=("ncut_rw",))
_NETWORK_FLAVOURS = dict(variant="ncut_rw", extra_variants=("ncut_normalized",))

WORKLOADS = {w.name: w for w in (
    # One n = 1500 graph: the dense eigensolve dominates.
    Workload("sbm-net", "sbm",
             dict(n=1500, alpha=0.05, p1=0.0667, q=0.01),
             dict(K=2, modality="connectivity", delta=0.05, sweep_cuts=True,
                  **_SBM_FLAVOURS)),
    # 72 grid points on one n = 600 feature set, harmonic propagation and
    # no spectral work: graph building dominates. Sigma exponent -3 is left
    # out: on some instances its RBF weights underflow far enough that the
    # harmonic solve raises NumericError.
    Workload("crescents-ssl", "crescents",
             dict(n=600, noise=0.08),
             dict(K=3, task="ssl", modality="similarity", delta=0.05,
                  lambda_grid=_LAMBDAS, k_grid=(10, 30),
                  sigma_exponents=tuple(range(-2, 4))),
             seeds_per_class=5),
    # 90 small graphs: per-call overhead and k-means dominate.
    Workload("dolphins-small", "dolphins",
             dict(removals=(4, 8, 12), samplings=30),
             dict(K=2, modality="connectivity", delta=0.1, sweep_cuts=True,
                  **_NETWORK_FLAVOURS)),
)}


def config(w: Workload, instance: int):
    from pcut import PCutConfig
    return PCutConfig(seed=instance, **w.config)


def _generate(w: Workload, instance: int):
    """Yield (data, truth vector) for every input of one instance."""
    import pcut
    if w.source == "sbm":
        g, truth = pcut.sbm_generate(pcut.SbmSpec(
            equalize_degrees=True, seed=instance, **w.params))
        yield g, truth.assignment
    elif w.source == "crescents":
        f, truth = pcut.crescent_dataset(seed=instance, **w.params)
        yield f.x, truth
    else:
        from pcut.experiments import load_bundled_network
        from pcut.graph import largest_component_nodes
        from pcut.synth import stream
        g, truth = load_bundled_network("dolphins")
        small = np.flatnonzero(truth.assignment == 0)
        for r in w.params["removals"]:
            for s in range(w.params["samplings"]):
                rng = stream(instance, f"perfbench-dolphins-{r}-{s}")
                removed = rng.choice(small, size=r, replace=False)
                keep = np.setdiff1d(np.arange(g.n), removed)
                g_cut = g.subgraph(keep)
                giant = largest_component_nodes(g_cut)
                yield g_cut.subgraph(giant), truth.assignment[keep][giant]


def _draw_seeds(truth: np.ndarray, per_class: int, instance: int) -> dict:
    from pcut.synth import stream
    rng = stream(instance, "perfbench-ssl-seeds")
    seeds = {}
    for c in range(int(truth.max()) + 1):
        for node in rng.choice(np.flatnonzero(truth == c), per_class, replace=False):
            seeds[int(node)] = c
    return seeds


def write_inputs(w: Workload, instance: int, directory: Path) -> None:
    """Generate one instance and write it as files, one stem per input."""
    from pcut import io
    directory.mkdir(parents=True, exist_ok=True)
    for i, (data, truth) in enumerate(_generate(w, instance)):
        stem = directory / f"{i:03d}"
        if w.source == "crescents":
            io.write_features_csv(f"{stem}.features.csv", data)
        else:
            # an edge list cannot carry isolated nodes, so the parsed graph
            # would silently lose them
            if (data.degrees() == 0).any():
                raise RuntimeError(f"{w.name} instance {instance}: isolated node")
            io.write_edge_list(f"{stem}.edges", data)
        io.write_labels_csv(f"{stem}.truth.csv", truth)
        if w.seeds_per_class:
            io.write_labels_csv(f"{stem}.seeds.csv",
                                _draw_seeds(truth, w.seeds_per_class, instance))


def load_inputs(w: Workload, directory: Path, tracer) -> list[Input]:
    """Parse every input file through pcut.io, in input order.

    Each read is recorded on the tracer as an ``io.read`` span, and the
    bytes read as the ``io.bytes`` count.
    """
    from pcut import LabelSet, Partition, io

    def read(reader, path):
        with tracer.span("io.read"):
            out = reader(path)
        tracer.count("io.bytes", Path(path).stat().st_size)
        return out

    def vector(mapping):
        return np.asarray([mapping[i] for i in range(len(mapping))], dtype=np.int64)

    K = w.config["K"]
    inputs = []
    for truth_path in sorted(directory.glob("*.truth.csv")):
        stem = str(truth_path)[:-len(".truth.csv")]
        if w.source == "crescents":
            data = read(io.read_features_csv, f"{stem}.features.csv")
        else:
            data = read(io.read_edge_list, f"{stem}.edges")
        truth = Partition(assignment=vector(read(io.read_labels_csv, truth_path)), K=K)
        labels = None
        if w.seeds_per_class:
            seeds = read(io.read_labels_csv, f"{stem}.seeds.csv")
            labels = LabelSet(tuple(sorted(seeds.items())), K=K)
        inputs.append(Input(data, truth, labels))
    if not inputs:
        raise RuntimeError(f"no inputs in {directory}")
    return inputs
