"""Parity of the grid-batched spectral stage with the per-grid-point loop.

The engine builds a chunk of grid graphs, reuses a bundle when a graph
equals the one before it, and clusters every embedding of the chunk with
one kmeans_batch call. reference_engine keeps the loop it replaced
verbatim: one spectral_bundle per grid point and one kmeans call per
(grid point, flavour). Every candidate must come out byte for byte the same,
under one worker and under two.
"""

import dataclasses

import pytest

import pcut
from pcut import engine

import reference_engine
from benchmark_instances import candidate_bytes, dolphins_small, sbm_net


def crescent_grid_k3():
    f, _ = pcut.crescent_dataset(n=600, noise=0.08, seed=0)
    cfg = pcut.PCutConfig(K=3, modality="similarity", delta=0.05, k_grid=(10, 30),
                          sigma_exponents=tuple(range(-3, 4)), variant="ncut_rw",
                          extra_variants=("ncut_normalized",))
    return [(f.x, None)], cfg


@pytest.mark.slow
@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("workload", (sbm_net, dolphins_small, crescent_grid_k3))
def test_generate_candidates_byte_identical(workload, workers, monkeypatch):
    inputs, cfg = workload()
    cfg = dataclasses.replace(cfg, workers=workers)
    new = [candidate_bytes(pcut.generate_candidates(data, cfg, labels))
           for data, labels in inputs]
    monkeypatch.setattr(engine, "_run_grid", reference_engine._run_grid)
    old = [candidate_bytes(pcut.generate_candidates(data, cfg, labels))
           for data, labels in inputs]
    assert new == old
