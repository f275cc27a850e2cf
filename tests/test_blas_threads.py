"""Candidates do not depend on the BLAS thread count.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when it loads, so each thread
count runs every case in its own child process, and the children's
candidate_bytes digests are compared.
"""

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcut
from pcut.experiments import load_bundled_network

from benchmark_instances import candidate_bytes, crescents_ssl


def dolphins_connectivity():
    g, _ = load_bundled_network("dolphins")
    cfg = pcut.PCutConfig(K=2, modality="connectivity", delta=0.1, sweep_cuts=True,
                          variant="ncut_rw", extra_variants=("ncut_normalized",))
    return g, cfg, None


def crescents_similarity_k3():
    # sigma exponent -3 underflows RBF weights, which sends graphs to the
    # dense fallbacks
    f, _ = pcut.crescent_dataset(n=600, noise=0.08, seed=0)
    cfg = pcut.PCutConfig(K=3, modality="similarity", delta=0.05,
                          lambda_grid=(0.0, 0.4, 0.8, 1.0), k_grid=(10, 30),
                          sigma_exponents=(-3, -2, 0, 2), variant="ncut_rw",
                          extra_variants=("ncut_normalized",))
    return f.x, cfg, None


def crescents_ssl_singular_point():
    # the grid point whose dense Cholesky fails under one BLAS thread and
    # succeeds under two
    [(x, labels)], cfg = crescents_ssl(instance=1)
    cfg = dataclasses.replace(cfg, lambda_grid=(0.6,), k_grid=(10,),
                              sigma_exponents=(-3,))
    return x, cfg, labels


CASES = {
    "dolphins-connectivity": dolphins_connectivity,
    "crescents-similarity-K3": crescents_similarity_k3,
    "crescents-ssl-singular-point": crescents_ssl_singular_point,
}


def digests() -> dict:
    out = {}
    for name, build in CASES.items():
        data, cfg, labels = build()
        try:
            outcome = candidate_bytes(pcut.generate_candidates(data, cfg, labels))
        except pcut.NumericError as exc:
            # a run whose every grid point is singular raises the first one's error
            outcome = f"NumericError: {exc}"
        out[name] = hashlib.sha256(repr(outcome).encode()).hexdigest()
    return out


@functools.cache
def child_digests(threads: int) -> dict:
    paths = [os.path.dirname(os.path.dirname(pcut.__file__)),
             str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(paths)}
    code = "import json, test_blas_threads as t; print(json.dumps(t.digests()))"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


@pytest.mark.parametrize("case", [
    "dolphins-connectivity",
    "crescents-similarity-K3",
    pytest.param("crescents-ssl-singular-point", marks=pytest.mark.xfail(
        strict=False,
        reason="the dense Cholesky that decides whether an ssl grid point is "
               "singular depends on the BLAS thread count: under one thread "
               "the only grid point is singular and the run raises "
               "NumericError, under two it gives 1 candidate (FOUND line on "
               "propagation.py in CHANGES.md; ROADMAP item 2)")),
])
def test_candidates_identical_across_blas_threads(case):
    assert child_digests(1)[case] == child_digests(2)[case]
