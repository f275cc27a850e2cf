"""Inputs shared by the engine-level parity tests.

Each builder returns (inputs, config) for instance 0 of a benchmark workload
(perfbench/workloads.py; crescents_ssl takes any instance), generated without
the benchmark's file round trip; inputs is a list of (data, labels) pairs for
generate_candidates.
"""

import numpy as np

import pcut
from pcut.experiments import load_bundled_network
from pcut.graph import largest_component_nodes
from pcut.synth import stream


def candidate_bytes(candidates):
    return [(c.params(), c.feasible, c.min_cluster_size, c.baseline_cut.hex(),
             c.normalized_cut.hex(), c.index, c.partition.assignment.tobytes())
            for c in candidates]


def sbm_net():
    g, _ = pcut.sbm_generate(pcut.SbmSpec(n=1500, alpha=0.05, p1=0.0667,
                                          q=0.01, equalize_degrees=True, seed=0))
    cfg = pcut.PCutConfig(K=2, modality="connectivity", delta=0.05, sweep_cuts=True,
                          variant="ncut_normalized", extra_variants=("ncut_rw",))
    return [(g, None)], cfg


def crescents_ssl(instance=0):
    f, truth = pcut.crescent_dataset(n=600, noise=0.08, seed=instance)
    rng = stream(instance, "perfbench-ssl-seeds")
    seeds = []
    for c in range(3):
        seeds += [(int(v), c) for v in
                  rng.choice(np.flatnonzero(truth == c), 5, replace=False)]
    cfg = pcut.PCutConfig(K=3, task="ssl", modality="similarity", delta=0.05,
                          seed=instance, lambda_grid=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
                          k_grid=(10, 30), sigma_exponents=tuple(range(-2, 4)))
    return [(f.x, pcut.LabelSet(tuple(sorted(seeds)), K=3))], cfg


def dolphins_small():
    g, truth = load_bundled_network("dolphins")
    small = np.flatnonzero(truth.assignment == 0)
    inputs = []
    for r in (4, 8, 12):
        for s in range(30):
            removed = stream(0, f"perfbench-dolphins-{r}-{s}").choice(
                small, size=r, replace=False)
            g_cut = g.subgraph(np.setdiff1d(np.arange(g.n), removed))
            inputs.append((g_cut.subgraph(largest_component_nodes(g_cut)), None))
    cfg = pcut.PCutConfig(K=2, modality="connectivity", delta=0.1, sweep_cuts=True,
                          variant="ncut_rw", extra_variants=("ncut_normalized",))
    return inputs, cfg
