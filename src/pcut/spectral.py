"""Spectral clustering: Laplacians, eigenvectors, k-means, and sweep cuts.

Three embedding variants are supported:

- "rcut_unnormalized": eigenvectors of L = D - W.
- "ncut_normalized":   eigenvectors of L_sym with L2-normalized rows.
- "ncut_rw":           random-walk scaling D^{-1/2} of the L_sym eigenvectors
                       (the classic normalized-cut discretization).

Every variant embeds with the eigenvectors of one bundle
(``spectral_bundle``): "rcut_unnormalized" with those of L = D - W, the two
normalized variants and the sweep cut with those of L_sym. The
eigendecomposition runs on the positive-degree subgraph, remapped from the
graph's edge arrays; isolated nodes get an all-zero embedding row and join
whichever cluster k-means assigns.

Which eigensolver runs:

- Lanczos (ARPACK ``eigsh``, which="LA") runs for L_sym when K = 2, the
  positive-degree subgraph has more than SPARSE_MIN_NODES nodes, and it is
  connected. It finds the largest eigenpairs of the sparse normalized
  adjacency D^{-1/2} W D^{-1/2}; the L_sym eigenvalues are one minus those.
  The start vector is a fixed Philox draw, so results do not depend on
  ARPACK's own random state.
- When Lanczos does not converge within its restart cap, or an eigenpair
  fails the residual check against L_sym, the dense path runs instead.
  Nearly disconnected graphs (RBF weights that underflow at small
  bandwidths) have nearly repeated eigenvalues and end here. The cap is
  _LANCZOS_MAXITER restarts while the subgraph fits DENSE_MAX_NODES, so
  that the dense path stays at hand, and ten times that above the limit,
  where the dense path refuses the graph: on a 20 000-node block model
  (SbmSpec(n=20000, alpha=0.05, p1=0.005, q=0.00075, equalize_degrees=True,
  seed=0)) the lambda 1.0 graph missed 40 restarts and converged within
  400, in about 0.7 s.
- Every other case runs dense: a disconnected subgraph, whose repeated
  zero eigenvalue Lanczos can miss; a subgraph at or below the cutoff,
  where dense ``eigh`` is as fast or faster; L = D - W, always; and
  K >= 3. A Krylov space holds one vector per distinct eigenvalue, so on a
  connected graph whose smallest eigenvalues coincide to rounding Lanczos
  can return a later eigenpair in place of the repeated one, and the
  residual check passes. On the K = 3 and 4 crescent grids (n = 600) that
  changed candidates and one selection. K = 2 is exposed to the same miss.

scipy is imported on first use, inside the functions that need it: the
Lanczos branch of ``spectral_bundle`` counts components with
``graph.connected_components``, then builds ``normalized_adjacency``
(scipy.sparse) for a connected subgraph only and calls
``lanczos_eigenvectors`` (ARPACK). A run whose bundles all stay dense
loads none of them.

The dense path forms the n x n Laplacian and calls ``smallest_eigenvectors``.
Both solvers apply one sign rule, in one array pass over the columns
(``_fix_signs``): each column's first entry above 1e-12 in magnitude is
nonnegative. Sweep cuts add edge weights in edge order, so on weighted
graphs a cut can differ from a dense row sum in the last bit, and a tie
between prefix cuts can go either way.

``kmeans`` rounds an embedding: k-means++ seeding, then Lloyd iterations,
best of several restarts. It is the one-problem case of ``kmeans_batch``,
which the engine calls once per chunk of grid points with every
(grid point, flavour) embedding of that chunk. The restarts of all problems
form one row axis and advance together as array operations (``_kmeanspp``,
``_lloyd``), in batches of at most _KMEANS_BATCH_ELEMENTS elements; a row
whose labels stop changing is frozen. Every step is bit-identical to
running the restarts one after another: the same Philox streams, the same
draws, the same summation order in distances and means, and the same
winner.

- Seeding draws: ``_seeding_draws`` computes the first Philox4x64-10
  blocks of every row in one uint64 array pass (Philox is counter-based),
  and derives the first index and the uniforms from them as numpy's
  Generator does. A row whose first index Lemire's method rejects, or
  that meets the index case, replays its stream from a new
  ``_rng(seed, stream)`` instead.
- Assignment: ``_nearest`` takes each point's nearest centre by a running
  comparison over the K slices of the distances, ties to the lower index,
  as argmin does.
- Centres: ``_cluster_means`` sums each column with its own ``bincount``,
  which adds a cluster's points in point order, as the per-cluster mean
  does.
- Winner (``_winners``): the restart with the lowest within-cluster sum of
  squares, ties to the earlier restart. ``_wcss`` scores a partition the
  same under any labelling, so rounding in it cannot relabel a candidate.
  Only the first restart of each distinct partition is a contender, found
  by comparing first-occurrence labels as arrays. Every contender gets an
  array score, ``_array_wcss``, which adds the same terms as ``_wcss`` in
  another order; ``_wcss`` runs only where that score lies within a
  relative 4 * n * dim * eps of its problem's lowest, since both lie within
  about n * dim unit roundoffs of the exact sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, ParameterError, check_counts
from .graph import (DENSE_MAX_NODES, Partition, WeightedGraph, _dense_weights,
                    connected_components)

VARIANTS = ("rcut_unnormalized", "ncut_normalized", "ncut_rw")

# Positive-degree node count above which spectral_bundle tries Lanczos.
# Timed on a 2-core Xeon with one BLAS thread, with the restart cap below:
# on block-model graphs Lanczos wins from 250 nodes; on crescent k-NN RBF
# grids (k = 30, seven bandwidths) dense wins below 300 nodes, where the
# capped failures at small bandwidths cost more than Lanczos saves.
SPARSE_MIN_NODES = 300
# ARPACK restarts before Lanczos gives up and the dense path runs, for a
# subgraph that fits DENSE_MAX_NODES (ten times as many above it). Every
# graph of the 16 sbm-net instances (n = 1500) converged within 40; nearly
# disconnected RBF graphs take hundreds to thousands.
_LANCZOS_MAXITER = 40
# Philox key of the Lanczos start vector.
_V0_SEED = 0x5EED
# Cap on rows * K * n * dim for one batch of k-means rows, a row being one
# restart of one problem (see kmeans_batch); the engine sizes its grid chunks
# by it too. 2**17 is the smallest power of two that holds all 42 problems
# of a dolphins-small input (about 92k elements), and the batch temporaries
# stay near 1 MB of float64. Timed on a 2-core Xeon with one BLAS thread:
# sbm-net (n = 1500, about 60k elements per problem) ran 1% slower at 2**18,
# 5% at 2**20 and 7% at 2**22, where its peak RSS also grew by 18 MB. A
# single restart above the cap runs alone.
_KMEANS_BATCH_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class SpectralConfig:
    K: int
    variant: str = "ncut_normalized"
    kmeans_restarts: int = 10
    kmeans_max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        check_k_and_variants(self.K, (self.variant,))
        check_counts(**{"k-means restarts": self.kmeans_restarts,
                        "k-means iterations": self.kmeans_max_iters})


def check_variants(variants) -> None:
    """Raise ParameterError naming the first variant not in VARIANTS."""
    for v in variants:
        if v not in VARIANTS:
            raise ParameterError(f"variant must be one of {VARIANTS}, got {v!r}")


def check_k_and_variants(K: int, variants) -> None:
    """Raise ParameterError unless K >= 2 and every variant is in VARIANTS."""
    if K < 2:
        raise ParameterError(f"cluster count must be >= 2, got {K}")
    check_variants(variants)


def laplacian(g: WeightedGraph, variant: str = "rcut_unnormalized") -> np.ndarray:
    """Graph Laplacian; the normalized form puts 0 on isolated diagonals."""
    check_variants((variant,))
    return _laplacian(g.weight_matrix(), variant)


def _laplacian(w: np.ndarray, variant: str) -> np.ndarray:
    """The Laplacian of dense weights `w`; `variant` is one of VARIANTS."""
    d = w.sum(axis=1)
    if variant == "rcut_unnormalized":
        lap = -w.copy()
        np.fill_diagonal(lap, d)
        return lap
    inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    lap = -w * inv_sqrt[:, None] * inv_sqrt[None, :]
    np.fill_diagonal(lap, np.where(d > 0, 1.0, 0.0))
    return lap


def _fix_signs(vecs: np.ndarray) -> None:
    """Make each column's first component above 1e-12 in magnitude nonnegative."""
    big = np.abs(vecs) > 1e-12
    first = big.argmax(axis=0), np.arange(vecs.shape[1])
    flip = big[first] & (vecs[first] < 0)
    vecs[:, flip] = -vecs[:, flip]


def _check_residual(residual: np.ndarray, scale: float) -> None:
    if residual.size and residual.max() > 1e-8 * scale:
        raise NumericError(
            f"eigenpair residual {residual.max():.3e} exceeds 1e-8 * {scale:.3e}")


def smallest_eigenvectors(m: np.ndarray, K: int):
    """K eigenpairs with smallest eigenvalues of a symmetric matrix.

    Eigenvalues come back ascending; each eigenvector's first component with
    magnitude above 1e-12 is made nonnegative so signs are deterministic.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("expected a square matrix")
    if m.size and np.abs(m - m.T).max() > 1e-9:
        raise InputError("matrix is not symmetric to tolerance 1e-9")
    if not 1 <= K <= m.shape[0]:
        raise ParameterError(f"K must lie in [1, {m.shape[0]}], got {K}")
    sym = 0.5 * (m + m.T)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    vals = vals[:K]
    vecs = vecs[:, :K].copy()
    _fix_signs(vecs)
    scale = max(np.abs(vals).max() if vals.size else 0.0,
                np.abs(sym).max() if sym.size else 0.0, 1.0)
    _check_residual(np.linalg.norm(sym @ vecs - vecs * vals[None, :], axis=0),
                    scale)
    return vecs, vals


def normalized_adjacency(n: int, u, v, w, deg):
    """CSR matrix D^{-1/2} W D^{-1/2} of an edge list with positive degrees."""
    # imported here, so that runs that stay dense do not load scipy.sparse
    from scipy.sparse import csr_matrix
    inv_sqrt = 1.0 / np.sqrt(deg)
    x = w * inv_sqrt[u] * inv_sqrt[v]
    return csr_matrix((np.concatenate([x, x]),
                       (np.concatenate([u, v]), np.concatenate([v, u]))),
                      shape=(n, n))


def lanczos_eigenvectors(a, K: int):
    """K smallest eigenpairs of L_sym = I - a by Lanczos on a.

    `a` is a normalized adjacency (see normalized_adjacency); K must be
    below its order. Same contract as smallest_eigenvectors: ascending
    eigenvalues, the same sign rule, and NumericError when an eigenpair's
    residual against L_sym exceeds 1e-8 * scale or ARPACK does not converge
    within the restart cap: _LANCZOS_MAXITER when a's order fits
    DENSE_MAX_NODES, ten times that above it.
    """
    n = a.shape[0]
    if not 1 <= K < n:
        raise ParameterError(f"K must lie in [1, {n - 1}], got {K}")
    if abs(a - a.T).max() > 1e-9:
        raise InputError("matrix is not symmetric to tolerance 1e-9")
    # not sqrt(deg): that is an exact eigenvector, from which ARPACK restarts
    # with its own process-global random state
    v0 = _rng(_V0_SEED, 0).uniform(-1.0, 1.0, n)
    # imported here, so that runs that stay dense do not load ARPACK
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh
    maxiter = _LANCZOS_MAXITER * (1 if n <= DENSE_MAX_NODES else 10)
    try:
        alpha, vecs = eigsh(a, k=K, which="LA", v0=v0, maxiter=maxiter)
    except ArpackNoConvergence as exc:
        raise NumericError(f"Lanczos did not converge: {exc}") from exc
    order = np.argsort(-alpha, kind="stable")
    vals = 1.0 - alpha[order]
    vecs = vecs[:, order]
    _fix_signs(vecs)
    scale = max(np.abs(vals).max(), np.abs(a.data).max() if a.nnz else 0.0, 1.0)
    lap_vecs = vecs - a @ vecs  # L_sym @ vecs
    _check_residual(np.linalg.norm(lap_vecs - vecs * vals[None, :], axis=0), scale)
    return vecs, vals


def philox_key(seed: int, word: int) -> np.ndarray:
    """The two uint64 key words of the Philox stream of (seed, word).

    The pair converts as np.random.Philox(key=[seed, word]) converts a list,
    so every stream keeps the numbers it drew when built from one: with one
    entry of 2**63 or more and the other below it, the list becomes
    float64, which rounds away low bits, and an entry within about 1024 of
    2**64 overflows the cast (numpy warns). A word below 2**63 leaves the
    list's dtype to the seed, so the first key word depends on the seed
    alone.
    """
    return np.asarray([seed & (2**64 - 1), word]).astype(np.uint64)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=philox_key(seed, stream)))


# Philox4x64-10 as numpy's Philox computes it (Salmon et al., 2011). A
# round multiplies counter words 0 and 2, one multiplier each (one row each
# here), and round r keys with the key plus r Weyl increments.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_KEY_STEPS = np.array(
    [[[r * w % 2**64] for w in (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)]
     for r in range(10)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_PHILOX_M_LO = _PHILOX_M & _LOW32
_PHILOX_M_HI = _PHILOX_M >> _U32


def _philox_mulhi(x: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products _PHILOX_M * x, x of shape (2, count).

    Assembled from 32-bit halves as in Warren's mulhu (Hacker's Delight);
    no partial sum overflows uint64.
    """
    x_lo, x_hi = x & _LOW32, x >> _U32
    t = x_hi * _PHILOX_M_LO + ((x_lo * _PHILOX_M_LO) >> _U32)
    w = (t & _LOW32) + x_lo * _PHILOX_M_HI
    return x_hi * _PHILOX_M_HI + (t >> _U32) + (w >> _U32)


def _philox_words(key0: np.ndarray, key1: np.ndarray, blocks: int) -> np.ndarray:
    """The first 4 * blocks words of each row's Philox stream, (rows, 4 * blocks).

    Row i is keyed (key0[i], key1[i]). numpy's Philox increments its
    counter before it computes a block, so a new generator's first block is
    counter 1, then 2, and so on.
    """
    rows = key0.size
    # counter words (0, 2) and (1, 3), one column per (row, block)
    even = np.zeros((2, rows * blocks), dtype=np.uint64)
    even[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), rows)
    odd = np.zeros_like(even)
    keys = np.stack([np.repeat(key0, blocks), np.repeat(key1, blocks)]) + _PHILOX_KEY_STEPS
    for key in keys:
        even, odd = _philox_mulhi(even)[::-1] ^ odd ^ key, (even * _PHILOX_M)[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=1).reshape(rows, 4 * blocks)


def _seeding_draws(seeds, streams, n: int, K: int):
    """Each row's first k-means++ draws, computed as arrays.

    Row i takes the stream of _rng(seeds[i], streams[i]) and gets what
    Generator.integers(n) and then K - 1 calls of Generator.random() draw
    from it. Returns (first, uniform, fallback) of shapes (rows,),
    (rows, K - 1) and (rows,). integers(n) takes the low 32 bits w of word
    0 and returns (w * n) >> 32 (Lemire's method); each uniform is
    (word >> 11) * 2**-53 of words 1, 2, .... A row is flagged in
    `fallback`, its draws left unspecified, where Lemire's method rejects w
    and draws again, and every row is flagged unless 2 <= n < 2**32, where
    integers(n) takes another path. The key of each distinct seed is
    converted once.
    """
    rows = len(seeds)
    if not 2 <= n < 2**32:
        return (np.zeros(rows, dtype=np.int64), np.zeros((rows, K - 1)),
                np.ones(rows, dtype=bool))
    # a stream is a small nonnegative integer, so its row's first key word
    # is that of stream 0
    keys = {seed: philox_key(seed, 0)[0] for seed in set(seeds)}
    key0 = np.array([keys[seed] for seed in seeds], dtype=np.uint64)
    words = _philox_words(key0, np.asarray(streams, dtype=np.uint64), -(-K // 4))
    scaled = (words[:, 0] & _LOW32) * np.uint64(n)
    first = (scaled >> _U32).astype(np.int64)
    fallback = (scaled & _LOW32) < np.uint64((2**32 - n) % n)
    uniform = (words[:, 1:K] >> np.uint64(11)) * 2.0**-53
    return first, uniform, fallback


def _wcss(points, labels, K):
    """Within-cluster sum of squares, independent of the label order.

    The per-cluster terms are added with math.fsum (one rounding), so one
    partition under two labellings gets the same value and kmeans keeps the
    earlier restart. For K = 2 this equals the plain running sum. It decides
    between near ties only (see _winners).
    """
    terms = []
    for k in range(K):
        mask = labels == k
        if mask.any():
            center = points[mask].mean(axis=0)
            terms.append(float(((points[mask] - center) ** 2).sum()))
    return math.fsum(terms)


def _sq_distances(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Squared distances of shape (rows, K, n) from `centres` (rows, K, dim).

    `points` is one problem's (n, dim) array, shared by every row, or one
    (rows, n, dim) array per row. Each distance is
    ((point - centre) ** 2).sum() to the bit. Below eight columns
    ndarray.sum adds the terms left to right, as the loop over columns does
    without a reduction over a short inner axis; on sbm-net (n = 1500, two
    columns) the loop cuts the wall time by about 30%. From eight columns on
    ndarray.sum adds pairwise, so the loop would change the last bits there.
    """
    dim = points.shape[-1]
    if dim >= 8:
        return ((points[..., None, :, :] - centres[..., None, :]) ** 2).sum(axis=-1)
    d2 = (points[..., None, :, 0] - centres[..., 0, None]) ** 2
    for j in range(1, dim):
        d2 += (points[..., None, :, j] - centres[..., j, None]) ** 2
    return d2


def _kmeanspp(points: np.ndarray, K: int, seeds, streams) -> np.ndarray:
    """k-means++ centres of each row, shape (rows, K, dim).

    Row i is restart streams[i] of a problem with seed seeds[i] (or `seeds`
    for every row) and points points[i] (or `points` for every row). It draws
    from _rng(seed, stream) in the order that restart would alone: an index
    for the first centre, then per later centre a uniform that picks a point
    with probability proportional to its squared distance from the nearest
    chosen centre, as Generator.choice(n, p=...) does, or a fresh index when
    every point sits on a chosen centre. The index and the uniforms come
    from _seeding_draws for every row at once; a row it flags, and a row
    that meets the index case, replays its stream from a new _rng(seed, stream).
    """
    R = len(streams)
    points = np.broadcast_to(points, (R,) + points.shape[-2:])
    n, dim = points.shape[1:]
    if np.ndim(seeds) == 0:
        seeds = [seeds] * R
    first, uniform, fallback = _seeding_draws(seeds, streams, n, K)
    index = np.zeros((R, K - 1), dtype=np.int64)
    index_case = np.zeros((R, K - 1), dtype=bool)

    def draw(i):
        gen = _rng(seeds[i], streams[i])
        first[i] = gen.integers(n)
        for c in range(K - 1):
            if index_case[i, c]:
                index[i, c] = gen.integers(n)
            else:
                uniform[i, c] = gen.random()

    for i in np.flatnonzero(fallback):
        draw(i)
    rows = np.arange(R)
    centres = np.empty((R, K, dim))
    centres[:, 0] = points[rows, first]
    d2 = None
    for c in range(K - 1):
        dist = _sq_distances(points, centres[:, c:c + 1])[:, 0]
        d2 = dist if d2 is None else np.minimum(d2, dist)
        total = d2.sum(axis=1)
        if not np.isfinite(total).all():
            raise NumericError("squared distances overflow in k-means seeding")
        index_case[:, c] = total <= 0.0
        for i in np.flatnonzero(index_case[:, c]):
            draw(i)
        pick = index[:, c].copy()
        ok = ~index_case[:, c]
        cdf = (d2[ok] / total[ok, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        # the cdf rows are nondecreasing, so this count is
        # cdf.searchsorted(u, side="right"), the draw of Generator.choice
        pick[ok] = (cdf <= uniform[ok, c, None]).sum(axis=1)
        centres[:, c + 1] = points[rows, pick]
    return centres


def _means(points: np.ndarray, labels: np.ndarray, K: int):
    """Cluster centres (rows, K, dim) and sizes (rows, K) of each row's labels.

    `points` is shared by every row or given per row, as in _sq_distances.
    A centre is points[labels[r] == k].mean(axis=0) to the bit; an empty
    cluster's centre is 0.
    """
    A, n = labels.shape
    dim = points.shape[-1]
    points = np.broadcast_to(points, (A, n, dim))
    bins = (np.arange(A)[:, None] * K + labels).ravel()
    counts = np.bincount(bins, minlength=A * K).reshape(A, K)
    if dim == 1:
        # a one-column mean sums pairwise, which bincount does not reproduce
        means = np.zeros((A, K, 1))
        for a, k in zip(*np.nonzero(counts)):
            means[a, k] = points[a][labels[a] == k].mean(axis=0)
    else:
        # with two or more columns the mean sums row after row, in point
        # order, as bincount does
        sums = np.stack([np.bincount(bins, weights=points[..., j].ravel(),
                                     minlength=A * K)
                         for j in range(dim)], axis=1).reshape(A, K, dim)
        means = sums / np.maximum(counts, 1)[:, :, None]
    return means, counts


def _cluster_means(points: np.ndarray, labels: np.ndarray, d2: np.ndarray,
                   K: int) -> np.ndarray:
    """Centres of a Lloyd step for each row, shape (rows, K, dim).

    As _means, except that an empty cluster takes the point farthest from
    its nearest centre under `d2`, the step's (rows, K, n) squared distances.
    """
    means, counts = _means(points, labels, K)
    empty = counts == 0
    if empty.any():
        points = np.broadcast_to(points, labels.shape + points.shape[-1:])
        far = points[np.arange(labels.shape[0]), d2.min(axis=1).argmax(axis=1)]
        means = np.where(empty[:, :, None], far[:, None, :], means)
    return means


def _nearest(d2: np.ndarray) -> np.ndarray:
    """d2.argmin(axis=1) of squared distances d2 (rows, K, n), to the index.

    A running comparison over the K slices: a later centre wins only when
    strictly closer, so ties keep the lower index, infinite distances
    included. argmin would pick the first NaN, but Lloyd distances are
    never NaN: the points are finite, and once seeding has checked that
    every point lies at a finite distance from the first centre, the points
    of each column either share one sign or are too small for a cluster sum
    to overflow, so no centre is NaN.
    """
    best = d2[:, 0]
    labels = np.zeros(best.shape, dtype=np.int64)
    for k in range(1, d2.shape[1]):
        closer = d2[:, k] < best
        labels[closer] = k
        best = np.minimum(best, d2[:, k])
    return labels


def _lloyd(points: np.ndarray, centres: np.ndarray, max_iters: int) -> np.ndarray:
    """Lloyd iterations of every row at once; labels of shape (rows, n).

    `points` holds each row's problem, shape (rows, n, dim). A row is
    frozen at the first iteration whose labels equal its previous ones,
    where that restart alone would stop.
    """
    K = centres.shape[1]
    labels = np.empty(points.shape[:2], dtype=np.int64)
    live = np.arange(centres.shape[0])
    for it in range(max_iters):
        d2 = _sq_distances(points, centres[live])
        new = _nearest(d2)
        if it:
            moved = (new != labels[live]).any(axis=1)
            if not moved.all():
                live, new, d2 = live[moved], new[moved], d2[moved]
                points = points[moved]
                if not live.size:
                    break
        labels[live] = new
        centres[live] = _cluster_means(points, new, d2, K)
    return labels


def _first_occurrence_labels(labels: np.ndarray, K: int) -> np.ndarray:
    """Each row's labels renumbered 0, 1, ... in order of first occurrence."""
    hit = labels[:, None, :] == np.arange(K)[:, None]
    first = np.where(hit.any(axis=2), hit.argmax(axis=2), labels.shape[1])
    rank = first.argsort(axis=1, kind="stable").argsort(axis=1)
    return np.take_along_axis(rank, labels, axis=1)


def _array_wcss(points: np.ndarray, labels: np.ndarray, K: int) -> np.ndarray:
    """Within-cluster sum of squares of each row, shape (rows,).

    `points` is each row's problem, shape (rows, n, dim). The centres are
    _means's and each term (x - c)**2 is _wcss's to the bit; only the order
    in which the terms are added differs, per point and then over points.
    """
    centres, _ = _means(points, labels, K)
    diff = points - centres[np.arange(labels.shape[0])[:, None], labels]
    return (diff ** 2).sum(axis=2).sum(axis=1)


def _winners(points: np.ndarray, labels: np.ndarray, K: int, step: int) -> np.ndarray:
    """The restart kmeans returns for each problem, shape (problems,).

    `labels` is (problems, restarts, n). The restart with the lowest _wcss
    wins, ties to the earlier restart, and only the first restart of each
    distinct partition (equal first-occurrence labels) is a contender. Each
    contender of a problem with more than one gets an _array_wcss score, in
    slices of `step` rows; _wcss runs only on those within a relative
    4 * n * dim * eps of their problem's lowest score. Both add the same
    N = n * dim nonnegative terms, so each lies within about N unit
    roundoffs of their exact sum (Higham 2002, sec. 4.2): a contender whose
    score exceeds the lowest by more than that band has a higher _wcss than
    the lowest one's, and cannot win. A NaN or infinite lowest score sends
    every contender of its problem to _wcss.
    """
    P, R, n = labels.shape
    keys = _first_occurrence_labels(labels.reshape(-1, n), K).reshape(P, R, n)
    # the earliest restart with each row's partition, from one comparison of
    # every pair of restarts: its P * R * R * n booleans take R / 8 of the
    # bytes of the int64 labels
    first = (keys[:, :, None] == keys[:, None]).all(axis=3).argmax(axis=2)
    contender = first == np.arange(R)
    contender &= (contender.sum(axis=1) > 1)[:, None]
    p, r = np.nonzero(contender)
    score = np.concatenate([np.zeros(0)] + [
        _array_wcss(points[p[lo:lo + step]], labels[p[lo:lo + step], r[lo:lo + step]], K)
        for lo in range(0, p.size, step)])
    lowest = np.full(P, np.inf)
    np.minimum.at(lowest, p, score)
    band = lowest * (1.0 + 4.0 * n * points.shape[2] * np.finfo(float).eps)
    near = ~(score > band[p])
    p, r = p[near], r[near]
    best = np.zeros(P, dtype=np.int64)
    best[p] = r  # the one near contender of most problems
    for q in np.flatnonzero(np.bincount(p, minlength=P) > 1):
        best[q] = min(r[p == q], key=lambda s: _wcss(points[q], labels[q, s], K))
    return best


def kmeans_batch_problems(n: int, K: int, dim: int, restarts: int) -> int:
    """How many k-means problems of n points in dim columns fill one batch.

    At least one: a problem larger than the cap runs its restarts in
    several batches.
    """
    return max(1, _KMEANS_BATCH_ELEMENTS // (restarts * K * n * dim))


def kmeans_batch(points: np.ndarray, K: int, seeds, restarts: int = 10,
                 max_iters: int = 100) -> list[Partition]:
    """kmeans of several problems of one shape at once, one Partition each.

    `points` has shape (problems, n, dim), or InputError is raised, and
    `seeds` one seed per problem, or ParameterError is raised; problem p
    gives exactly kmeans(points[p], K, restarts, max_iters, seeds[p]). The
    restarts of every problem form one row axis, and rows advance together
    in batches of at most _KMEANS_BATCH_ELEMENTS elements of
    rows * K * n * dim, or of one row when a single row is larger. A batch
    may hold several problems, and a problem may span batches: each row
    seeds, iterates and freezes on its own, so the split changes no bit.
    _winners then picks each problem's restart; a problem whose restarts
    all end in one partition needs no score.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 3:
        raise InputError("k-means problems must be stacked as (problems, n, dim), "
                         f"got {points.ndim} dimensions")
    P, n, dim = points.shape
    if len(seeds) != P:
        raise ParameterError("need one seed per k-means problem: "
                             f"{P} problems, {len(seeds)} seeds")
    if n < K:
        raise ParameterError(f"need at least K={K} points, got {n}")
    check_counts(**{"k-means restarts": restarts, "k-means iterations": max_iters})
    if not np.isfinite(points).all():
        raise InputError("k-means points must be finite")
    problem = np.repeat(np.arange(P), restarts)
    row_seeds = [seed for seed in seeds for _ in range(restarts)]
    row_streams = list(range(restarts)) * P
    step = max(1, _KMEANS_BATCH_ELEMENTS // (n * K * dim))
    labels = []
    for lo in range(0, P * restarts, step):
        rows = points[problem[lo:lo + step]]
        centres = _kmeanspp(rows, K, row_seeds[lo:lo + step], row_streams[lo:lo + step])
        labels.append(_lloyd(rows, centres, max_iters))
    labels = np.concatenate(labels).reshape(P, restarts, n)
    return [Partition(assignment=labels[p, best].copy(), K=K)
            for p, best in enumerate(_winners(points, labels, K, step))]


def kmeans(points: np.ndarray, K: int, restarts: int = 10,
           max_iters: int = 100, seed: int = 0) -> Partition:
    """Best-of-restarts Lloyd iterations with careful (k-means++) seeding.

    Restart r draws its initial centres from the Philox stream
    _rng(seed, r), each with probability proportional to the squared
    distance from the chosen ones, then runs at most `max_iters` Lloyd
    iterations, stopping when its labels no longer change. The restart with
    the smallest within-cluster sum of squares wins; ties keep the earlier
    restart. Deterministic given the seed.

    This is the one-problem case of kmeans_batch. All restarts advance
    together as array operations, and a converged restart is frozen; the
    result is bit-identical to running the restarts one after another.
    Restarts that end in the same partition, under any labelling, score the
    same, so only the first of them is a contender (see _winners).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    return kmeans_batch(points[None], K, [seed], restarts, max_iters)[0]


def _active_edges(g: WeightedGraph):
    """Positive-degree nodes, their degrees, and the edges remapped onto them."""
    deg = g.degrees()
    active = np.flatnonzero(deg > 0)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[active] = np.arange(active.size)
    u, v, w = g.edge_arrays()
    return active, deg[active], pos[u], pos[v], w


def spectral_bundle(g: WeightedGraph, K: int, normalized: bool):
    """Eigendecomposition shared by every flavour of one Laplacian.

    `normalized` picks L_sym, which "ncut_normalized", "ncut_rw" and the
    sweep cut embed with; otherwise L = D - W of "rcut_unnormalized".
    Returns None when the graph has no edges. A normalized bundle carries
    max(K, 4) eigenvectors, enough for the K-dimensional embeddings and the
    sweep cut; an unnormalized one carries K. The module docstring says
    which eigensolver runs.
    """
    active, deg, u, v, w = _active_edges(g)
    n = active.size
    if n < 2:
        return None
    keff = min(max(K, 4) if normalized else K, n)
    vecs = None
    # the positive-degree subgraph is connected when every component but
    # one is an isolated node
    if (normalized and K == 2 and n > SPARSE_MIN_NODES
            and connected_components(g).K == g.n - n + 1):
        try:
            vecs, vals = lanczos_eigenvectors(
                normalized_adjacency(n, u, v, w, deg), keff)
        except NumericError:
            pass  # the dense path below decides
    if vecs is None:
        lap = _laplacian(_dense_weights(n, u, v, w),
                         "ncut_normalized" if normalized else "rcut_unnormalized")
        vecs, vals = smallest_eigenvectors(lap, keff)
    return {"active": active, "deg": deg, "edges": (u, v, w),
            "vecs": vecs, "vals": vals}


def normalized_bundle(g: WeightedGraph, K: int):
    """spectral_bundle of the normalized Laplacian L_sym."""
    return spectral_bundle(g, K, True)


def _embedding_rows(bundle, K: int, variant: str, n: int) -> np.ndarray:
    out = np.zeros((n, K))
    if bundle is None:
        return out
    keff = min(K, bundle["vecs"].shape[1])
    vecs = bundle["vecs"][:, :keff]
    if variant == "ncut_normalized":
        norms = np.linalg.norm(vecs, axis=1)
        vecs = vecs / np.where(norms > 1e-12, norms, 1.0)[:, None]
    elif variant == "ncut_rw":
        vecs = vecs / np.sqrt(bundle["deg"])[:, None]
    out[bundle["active"], :keff] = vecs
    return out


def spectral_embedding(g: WeightedGraph, K: int, variant: str) -> np.ndarray:
    """Rows of the K smallest eigenvectors; zero rows for isolated nodes."""
    check_variants((variant,))
    bundle = spectral_bundle(g, K, variant != "rcut_unnormalized")
    return _embedding_rows(bundle, K, variant, g.n)


def spectral_clustering(g: WeightedGraph, cfg: SpectralConfig) -> Partition:
    """Embed with the K smallest eigenvectors, then k-means."""
    points = spectral_embedding(g, cfg.K, cfg.variant)
    return kmeans(points, cfg.K, restarts=cfg.kmeans_restarts,
                  max_iters=cfg.kmeans_max_iters, seed=cfg.seed)


def sweep_from_bundle(bundle, n: int, min_side: float) -> Partition | None:
    """Minimum-cut prefix of the random-walk Fiedler ordering.

    Scans prefixes of the sorted first nontrivial eigenvector (random-walk
    scaling) and returns the bipartition with the smallest cut among those
    whose sides both exceed min_side nodes; isolated nodes count toward the
    complement side. Returns None when no prefix qualifies.
    """
    if bundle is None:
        return None
    vals = bundle["vals"]
    nontrivial = next((j for j in range(len(vals)) if vals[j] > 1e-8), None)
    if nontrivial is None:
        return None
    active = bundle["active"]
    u, v, w = bundle["edges"]
    d = bundle["deg"]
    coords = bundle["vecs"][:, nontrivial] / np.sqrt(d)
    order = np.argsort(coords, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    # prefix cut: add each node's degree, subtract twice its ties into the
    # prefix; an edge ties its later endpoint to the earlier one
    internal = np.bincount(np.maximum(position[u], position[v]), weights=w,
                           minlength=order.size)
    cuts = np.cumsum(d[order] - 2.0 * internal)
    sizes0 = np.arange(1, order.size + 1)
    sizes1 = n - sizes0
    ok = (sizes0 > min_side) & (sizes1 > min_side)
    ok[-1] = False  # the full prefix is not a bipartition
    if not ok.any():
        return None
    masked = np.where(ok, cuts, np.inf)
    best_pos = int(masked.argmin())
    if not np.isfinite(masked[best_pos]):
        return None
    labels = np.ones(n, dtype=np.int64)
    labels[active[order[:best_pos + 1]]] = 0
    return Partition(assignment=labels, K=2)

