"""Parity of the batched k-means with the one-restart-at-a-time code it replaced.

reference_kmeans below is the replaced implementation, kept verbatim apart
from its name and docstring: a new Philox generator per restart,
Generator.choice for the k-means++ draws, a Lloyd loop with per-cluster
means, and one _wcss per restart. reference_kmeans_batch runs it once per
problem of a stack. Every comparison is byte for byte.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcut
from pcut import engine, spectral
from pcut.engine import mix_seed
from pcut.errors import ParameterError
from pcut.graph import Partition
from pcut.spectral import (_cluster_means, _kmeanspp, _rng, _sq_distances,
                           _wcss, kmeans, kmeans_batch)

from benchmark_instances import candidate_bytes, dolphins_small, sbm_net


def reference_kmeans(points: np.ndarray, K: int, restarts: int = 10,
                     max_iters: int = 100, seed: int = 0) -> Partition:
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if n < K:
        raise ParameterError(f"need at least K={K} points, got {n}")
    best_labels = None
    best_w = np.inf
    for restart in range(restarts):
        rng = _rng(seed, restart)
        centers = [points[int(rng.integers(n))]]
        while len(centers) < K:
            d2 = np.min([((points - c) ** 2).sum(axis=1) for c in centers], axis=0)
            total = float(d2.sum())
            if total <= 0.0:
                centers.append(points[int(rng.integers(n))])
                continue
            centers.append(points[int(rng.choice(n, p=d2 / total))])
        centers = np.asarray(centers)
        labels = None
        for _ in range(max_iters):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for k in range(K):
                mask = labels == k
                if mask.any():
                    centers[k] = points[mask].mean(axis=0)
                else:
                    centers[k] = points[int(d2.min(axis=1).argmax())]
        w = _wcss(points, labels, K)
        if w < best_w:
            best_w = w
            best_labels = labels
    return Partition(assignment=best_labels, K=K)


def reference_kmeans_batch(points, K, seeds, restarts=10, max_iters=100):
    return [reference_kmeans(p, K, restarts, max_iters, seed)
            for p, seed in zip(points, seeds)]


def reference_seeding(points, K, rng):
    """The k-means++ loop of reference_kmeans, returning its centres."""
    n = points.shape[0]
    centers = [points[int(rng.integers(n))]]
    while len(centers) < K:
        d2 = np.min([((points - c) ** 2).sum(axis=1) for c in centers], axis=0)
        total = float(d2.sum())
        if total <= 0.0:
            centers.append(points[int(rng.integers(n))])
            continue
        centers.append(points[int(rng.choice(n, p=d2 / total))])
    return np.asarray(centers)


def reference_lloyd_step(points, centers, K):
    """One Lloyd step of reference_kmeans: distances, labels, new centres."""
    centers = centers.copy()
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    for k in range(K):
        mask = labels == k
        if mask.any():
            centers[k] = points[mask].mean(axis=0)
        else:
            centers[k] = points[int(d2.min(axis=1).argmax())]
    return d2, labels, centers


def assert_same_partition(got, want):
    assert got.K == want.K
    assert got.assignment.dtype == want.assignment.dtype
    assert got.assignment.tobytes() == want.assignment.tobytes()


# Seeds at and above 2**63 lose low bits when Philox(key=[seed, r]) converts
# the key through float64, and those within about 1024 of 2**64 overflow the
# cast (numpy warns); the batched code must reproduce those streams as well.
EDGE_SEEDS = (0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2048, 2**64 - 600,
              2**64 - 1)


@pytest.mark.parametrize("seed", EDGE_SEEDS + tuple(mix_seed(7, i) for i in range(6)))
def test_seeding_draws_rng_streams(seed):
    # the index case (K distinct rows) draws integers where the others draw
    # uniforms, so both kinds of draw are taken from the restart's stream
    rng = np.random.default_rng(3)
    for points in (rng.normal(size=(40, 2)), rng.normal(size=(3, 2))[rng.integers(0, 3, 40)]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = _kmeanspp(points, 3, seed, range(10))
            want = [reference_seeding(points, 3, _rng(seed, r)) for r in range(10)]
        assert got.tobytes() == np.asarray(want).tobytes()


def _points(kind, n, dim, K, data_seed):
    rng = np.random.default_rng(data_seed)
    x = rng.normal(size=(n, dim)) * rng.uniform(0.01, 100.0)
    if kind == "zero rows":
        x[rng.random(n) < 0.3] = 0.0
    elif kind == "duplicate rows":
        x = x[rng.integers(0, max(1, n // 3), size=n)]
    elif kind == "constant":
        x[:] = x[0]
    elif kind == "K distinct rows":
        # every point sits on a centre once K are drawn: the index case
        x = x[rng.integers(0, K, size=n)]
    elif kind == "within rounding":
        # the squared differences underflow to zero, so the seeding meets the
        # index case although the points differ
        x = rng.normal(size=(n, dim)) * 1e-170
    elif kind == "integer grid":
        x = np.round(x)
    return x


@settings(max_examples=200, deadline=None)
@given(K=st.integers(1, 6), dim=st.integers(1, 12), extra=st.integers(0, 150),
       restarts=st.integers(1, 6),
       kind=st.sampled_from(("normal", "zero rows", "duplicate rows",
                             "K distinct rows", "within rounding")),
       data_seed=st.integers(0, 2**32 - 1))
def test_lloyd_step_matches_reference(K, dim, extra, restarts, kind, data_seed):
    # the distances and centres themselves, bit for bit: a last-bit
    # difference seldom changes a label, so the partitions alone can miss it
    points = _points(kind, K + extra, dim, K, data_seed)
    rng = np.random.default_rng(data_seed + 1)
    centres = points[rng.integers(0, points.shape[0], size=(restarts, K))]
    d2 = _sq_distances(points, centres)
    labels = d2.argmin(axis=1)
    means = _cluster_means(points, labels, d2, K)
    for r in range(restarts):
        want_d2, want_labels, want_means = reference_lloyd_step(points, centres[r], K)
        assert d2[r].T.tobytes() == want_d2.tobytes()
        assert np.array_equal(labels[r], want_labels)
        # -0.0 and 0.0 give the same distances; compare values, not bytes
        assert np.array_equal(means[r], want_means)


@settings(max_examples=200, deadline=None)
@given(K=st.integers(1, 6), dim=st.integers(1, 12), extra=st.integers(0, 100),
       restarts=st.integers(1, 11),
       kind=st.sampled_from(("normal", "duplicate rows", "constant",
                             "K distinct rows", "within rounding")),
       data_seed=st.integers(0, 2**32 - 1),
       seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)))
def test_seeding_matches_reference(K, dim, extra, restarts, kind, data_seed, seed):
    points = _points(kind, K + extra, dim, K, data_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = _kmeanspp(points, K, seed, range(restarts))
        want = [reference_seeding(points, K, _rng(seed, r)) for r in range(restarts)]
    assert got.tobytes() == np.asarray(want).tobytes()


@settings(max_examples=300, deadline=None)
@given(K=st.integers(1, 6), dim=st.integers(1, 10), extra=st.integers(0, 150),
       restarts=st.integers(1, 11), max_iters=st.sampled_from((1, 2, 3, 100)),
       kind=st.sampled_from(("normal", "zero rows", "duplicate rows", "constant",
                             "K distinct rows", "within rounding",
                             "integer grid")),
       one_d=st.booleans(), data_seed=st.integers(0, 2**32 - 1),
       seed=st.one_of(st.sampled_from(EDGE_SEEDS),
                      st.builds(mix_seed, st.integers(0, 2**63 - 1),
                                st.integers(0, 10**4))))
def test_matches_reference(K, dim, extra, restarts, max_iters, kind, one_d,
                           data_seed, seed):
    points = _points(kind, K + extra, dim, K, data_seed)
    if one_d and dim == 1:
        points = points[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = reference_kmeans(points, K, restarts, max_iters, seed)
        got = kmeans(points, K, restarts, max_iters, seed)
    assert_same_partition(got, want)


@pytest.mark.parametrize("n", (300, 1500))
def test_matches_reference_on_separated_blobs(n):
    rng = np.random.default_rng(n)
    points = np.vstack([rng.normal(size=(n // 2, 2)),
                        rng.normal(size=(n - n // 2, 2)) + 3.0])
    for seed in range(5):
        assert_same_partition(kmeans(points, 2, seed=seed),
                              reference_kmeans(points, 2, seed=seed))


def test_batches_of_restarts_match_reference(monkeypatch):
    # inputs too large for one batch run the restarts in several
    monkeypatch.setattr(spectral, "_KMEANS_BATCH_ELEMENTS", 3 * 200 * 3 * 3)
    points = np.random.default_rng(5).normal(size=(200, 3))
    assert_same_partition(kmeans(points, 3, restarts=10, seed=11),
                          reference_kmeans(points, 3, restarts=10, seed=11))


STACK_KINDS = ("normal", "zero rows", "duplicate rows", "constant",
               "K distinct rows", "within rounding", "integer grid")


@settings(max_examples=200, deadline=None)
@given(K=st.integers(1, 5), dim=st.integers(1, 10), extra=st.integers(0, 60),
       restarts=st.integers(1, 6), max_iters=st.sampled_from((1, 3, 100)),
       kinds=st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=5),
       data_seed=st.integers(0, 2**32 - 1),
       seeds=st.lists(st.one_of(st.sampled_from(EDGE_SEEDS),
                                st.integers(2**63, 2**64 - 1),
                                st.builds(mix_seed, st.integers(0, 2**63 - 1),
                                          st.integers(0, 10**4))),
                      min_size=5, max_size=5),
       rows_per_batch=st.integers(1, 31))
# zero and duplicate rows; the index case, whose rows replay their streams;
# nine columns, where distances sum pairwise; and restarts split across
# batches, with seeds at and above 2**63
@example(K=3, dim=9, extra=20, restarts=5, max_iters=100,
         kinds=["zero rows", "K distinct rows", "duplicate rows"], data_seed=1,
         seeds=[2**63, mix_seed(7, 3), 2**64 - 1, 0, 1], rows_per_batch=3)
@example(K=2, dim=2, extra=53, restarts=10, max_iters=100,
         kinds=["normal", "within rounding", "K distinct rows", "normal"],
         data_seed=2, seeds=[mix_seed(0, i) for i in range(5)], rows_per_batch=7)
def test_stacked_problems_match_reference(K, dim, extra, restarts, max_iters,
                                          kinds, data_seed, seeds,
                                          rows_per_batch):
    n = K + extra
    points = np.stack([_points(kind, n, dim, K, data_seed + p)
                       for p, kind in enumerate(kinds)])
    seeds = seeds[:len(kinds)]
    with warnings.catch_warnings(), mock.patch.object(
            spectral, "_KMEANS_BATCH_ELEMENTS", rows_per_batch * n * K * dim):
        warnings.simplefilter("ignore", RuntimeWarning)
        got = kmeans_batch(points, K, seeds, restarts, max_iters)
        want = reference_kmeans_batch(points, K, seeds, restarts, max_iters)
    assert len(got) == len(want)
    for ours, theirs in zip(got, want):
        assert_same_partition(ours, theirs)


def crescent_clusters():
    f, _ = pcut.crescent_dataset(n=400, noise=0.08, seed=0)
    cfg = pcut.PCutConfig(K=3, modality="similarity", delta=0.05,
                          lambda_grid=(0.0, 0.4, 0.8), k_grid=(10, 30),
                          sigma_exponents=(-1, 0, 1),
                          extra_variants=("ncut_normalized",))
    return [(f.x, None)], cfg


@pytest.mark.slow
@pytest.mark.parametrize("workload", (sbm_net, dolphins_small, crescent_clusters))
def test_generate_candidates_byte_identical(workload, monkeypatch):
    inputs, cfg = workload()
    new = [candidate_bytes(pcut.generate_candidates(data, cfg, labels))
           for data, labels in inputs]
    monkeypatch.setattr(engine, "kmeans_batch", reference_kmeans_batch)
    old = [candidate_bytes(pcut.generate_candidates(data, cfg, labels))
           for data, labels in inputs]
    assert new == old
