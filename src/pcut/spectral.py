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
- When Lanczos does not converge within _LANCZOS_MAXITER restarts, or an
  eigenpair fails the residual check against L_sym, the dense path runs
  instead. Nearly disconnected graphs (RBF weights that underflow at small
  bandwidths) have nearly repeated eigenvalues and end here.
- Every other case runs dense: a disconnected subgraph, whose repeated
  zero eigenvalue Lanczos can miss; a subgraph at or below the cutoff,
  where dense ``eigh`` is as fast or faster; L = D - W, always; and
  K >= 3. A Krylov space holds one vector per distinct eigenvalue, so on a
  connected graph whose smallest eigenvalues coincide to rounding Lanczos
  can return a later eigenpair in place of the repeated one, and the
  residual check passes. On the K = 3 and 4 crescent grids (n = 600) that
  changed candidates and one selection. K = 2 is exposed to the same miss.

The dense path forms the n x n Laplacian and calls ``smallest_eigenvectors``.
k-means scores a partition the same under any labelling (`_wcss`), so
rounding in that score cannot relabel a candidate. Sweep cuts add edge
weights in edge order, so on weighted graphs a cut can differ from a dense
row sum in the last bit, and a tie between prefix cuts can go either way.

``kmeans`` rounds an embedding: k-means++ seeding, then Lloyd iterations,
best of several restarts. The restarts advance together as array
operations (``_kmeanspp``, ``_lloyd``); a restart whose labels stop changing
is frozen, and each distinct partition is scored once. Every step is
bit-identical to running the restarts one after another: the same Philox
streams, the same draws, the same summation order in distances and means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components as _csgraph_components
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import InputError, NumericError, ParameterError
from .graph import Partition, WeightedGraph

VARIANTS = ("rcut_unnormalized", "ncut_normalized", "ncut_rw")

# Positive-degree node count above which spectral_bundle tries Lanczos.
# Timed on a 2-core Xeon with one BLAS thread, with the restart cap below:
# on block-model graphs Lanczos wins from 250 nodes; on crescent k-NN RBF
# grids (k = 30, seven bandwidths) dense wins below 300 nodes, where the
# capped failures at small bandwidths cost more than Lanczos saves.
SPARSE_MIN_NODES = 300
# ARPACK restarts before Lanczos gives up and the dense path runs. Every
# graph of the 16 sbm-net instances (n = 1500) converged within 40; nearly
# disconnected RBF graphs take hundreds to thousands.
_LANCZOS_MAXITER = 40
# Philox key of the Lanczos start vector.
_V0_SEED = 0x5EED
# Cap on restarts * K * n * dim for one batch of k-means restarts. It bounds
# the batch temporaries to about 32 MB of float64, or to one restart's worth
# when a single restart is larger.
_KMEANS_BATCH_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class SpectralConfig:
    K: int
    variant: str = "ncut_normalized"
    kmeans_restarts: int = 10
    kmeans_max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.K < 2:
            raise ParameterError(f"cluster count must be >= 2, got {self.K}")
        if self.variant not in VARIANTS:
            raise ParameterError(f"variant must be one of {VARIANTS}")
        check_kmeans_counts(self.kmeans_restarts, self.kmeans_max_iters)


def laplacian(g: WeightedGraph, variant: str = "rcut_unnormalized") -> np.ndarray:
    """Graph Laplacian; the normalized form puts 0 on isolated diagonals."""
    return _laplacian(g.weight_matrix(), variant)


def _laplacian(w: np.ndarray, variant: str) -> np.ndarray:
    d = w.sum(axis=1)
    if variant == "rcut_unnormalized":
        lap = -w.copy()
        np.fill_diagonal(lap, d)
        return lap
    if variant in ("ncut_normalized", "ncut_rw"):
        inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
        lap = -w * inv_sqrt[:, None] * inv_sqrt[None, :]
        np.fill_diagonal(lap, np.where(d > 0, 1.0, 0.0))
        return lap
    raise ParameterError(f"variant must be one of {VARIANTS}")


def _fix_signs(vecs: np.ndarray) -> None:
    """Make each column's first component above 1e-12 in magnitude nonnegative."""
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col


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


def normalized_adjacency(n: int, u, v, w, deg) -> sparse.csr_matrix:
    """CSR matrix D^{-1/2} W D^{-1/2} of an edge list with positive degrees."""
    inv_sqrt = 1.0 / np.sqrt(deg)
    x = w * inv_sqrt[u] * inv_sqrt[v]
    return sparse.csr_matrix((np.concatenate([x, x]),
                              (np.concatenate([u, v]), np.concatenate([v, u]))),
                             shape=(n, n))


def lanczos_eigenvectors(a: sparse.spmatrix, K: int):
    """K smallest eigenpairs of L_sym = I - a by Lanczos on a.

    `a` is a normalized adjacency (see normalized_adjacency); K must be
    below its order. Same contract as smallest_eigenvectors: ascending
    eigenvalues, the same sign rule, and NumericError when an eigenpair's
    residual against L_sym exceeds 1e-8 * scale or ARPACK does not converge
    within _LANCZOS_MAXITER restarts.
    """
    n = a.shape[0]
    if not 1 <= K < n:
        raise ParameterError(f"K must lie in [1, {n - 1}], got {K}")
    if abs(a - a.T).max() > 1e-9:
        raise InputError("matrix is not symmetric to tolerance 1e-9")
    # not sqrt(deg): that is an exact eigenvector, from which ARPACK restarts
    # with its own process-global random state
    v0 = _rng(_V0_SEED, 0).uniform(-1.0, 1.0, n)
    try:
        alpha, vecs = eigsh(a, k=K, which="LA", v0=v0, maxiter=_LANCZOS_MAXITER)
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


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream]))


def _reset_philox(bitgen: np.random.Philox, seed: int, stream: int) -> None:
    """Put `bitgen` in the state a new _rng(seed, stream) starts from.

    The key goes through the conversion that np.random.Philox(key=[...])
    applies, so the streams are the same bit for bit. A reset costs about a
    quarter of building a new Philox; k-means seeds 37 800 restarts in one
    dolphins-small pass, where this saves about a tenth of the wall time.
    """
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.asarray([seed & (2**64 - 1), stream]).astype(np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}


def _wcss(points, labels, K):
    """Within-cluster sum of squares, independent of the label order.

    The per-cluster terms are added with math.fsum (one rounding), so one
    partition under two labellings gets the same value and kmeans keeps the
    earlier restart. For K = 2 this equals the plain running sum.
    """
    terms = []
    for k in range(K):
        mask = labels == k
        if mask.any():
            center = points[mask].mean(axis=0)
            terms.append(float(((points[mask] - center) ** 2).sum()))
    return math.fsum(terms)


def _sq_distances(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Squared distances of shape (restarts, K, n) from `centres` (restarts, K, dim).

    Each is ((point - centre) ** 2).sum() to the bit. Below eight columns
    ndarray.sum adds the terms left to right, as the loop over columns does
    without a reduction over a short inner axis; on sbm-net (n = 1500, two
    columns) the loop cuts the wall time by about 30%. From eight columns on
    ndarray.sum adds pairwise, so the loop would change the last bits there.
    """
    dim = points.shape[1]
    if dim >= 8:
        return ((points[None, None] - centres[:, :, None, :]) ** 2).sum(axis=3)
    d2 = (points[:, 0] - centres[:, :, 0, None]) ** 2
    for j in range(1, dim):
        d2 += (points[:, j] - centres[:, :, j, None]) ** 2
    return d2


def _kmeanspp(points: np.ndarray, K: int, seed: int, streams) -> np.ndarray:
    """k-means++ centres of the restarts `streams`, shape (restarts, K, dim).

    Restart r draws from _rng(seed, r) in the order it would alone: an index
    for the first centre, then per later centre a uniform that picks a point
    with probability proportional to its squared distance from the nearest
    chosen centre, as Generator.choice(n, p=...) does, or a fresh index when
    every point sits on a chosen centre. The uniforms are drawn ahead; a
    restart that meets the index case replays its stream.
    """
    n, dim = points.shape
    R = len(streams)
    bitgen = np.random.Philox(key=[0, 0])
    gen = np.random.Generator(bitgen)
    first = np.empty(R, dtype=np.int64)
    uniform = np.zeros((R, K - 1))
    index = np.zeros((R, K - 1), dtype=np.int64)
    index_case = np.zeros((R, K - 1), dtype=bool)

    def draw(i):
        _reset_philox(bitgen, seed, streams[i])
        first[i] = gen.integers(n)
        for c in range(K - 1):
            if index_case[i, c]:
                index[i, c] = gen.integers(n)
            else:
                uniform[i, c] = gen.random()

    for i in range(R):
        draw(i)
    centres = np.empty((R, K, dim))
    centres[:, 0] = points[first]
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
        centres[:, c + 1] = points[pick]
    return centres


def _cluster_means(points: np.ndarray, labels: np.ndarray, d2: np.ndarray,
                   K: int) -> np.ndarray:
    """Centres of a Lloyd step for each restart, shape (restarts, K, dim).

    A centre is points[labels[r] == k].mean(axis=0) to the bit; an empty
    cluster takes the point farthest from its nearest centre under `d2`,
    the step's (restarts, K, n) squared distances.
    """
    A, n = labels.shape
    dim = points.shape[1]
    bins = (np.arange(A)[:, None] * K + labels).ravel()
    counts = np.bincount(bins, minlength=A * K).reshape(A, K)
    if dim == 1:
        # a one-column mean sums pairwise, which bincount does not reproduce
        means = np.zeros((A, K, 1))
        for a, k in zip(*np.nonzero(counts)):
            means[a, k] = points[labels[a] == k].mean(axis=0)
    else:
        # with two or more columns the mean sums row after row, in point
        # order, as bincount does
        sums = np.bincount((bins[:, None] * dim + np.arange(dim)).ravel(),
                           weights=points.reshape(1, -1).repeat(A, axis=0).ravel(),
                           minlength=A * K * dim).reshape(A, K, dim)
        means = sums / np.maximum(counts, 1)[:, :, None]
    empty = counts == 0
    if empty.any():
        far = points[d2.min(axis=1).argmax(axis=1)]
        means = np.where(empty[:, :, None], far[:, None, :], means)
    return means


def _lloyd(points: np.ndarray, centres: np.ndarray, max_iters: int) -> np.ndarray:
    """Lloyd iterations of every restart at once; labels of shape (restarts, n).

    A restart is frozen at the first iteration whose labels equal its
    previous ones, where it alone would stop.
    """
    K = centres.shape[1]
    labels = np.empty((centres.shape[0], points.shape[0]), dtype=np.int64)
    live = np.arange(centres.shape[0])
    for it in range(max_iters):
        d2 = _sq_distances(points, centres[live])
        new = d2.argmin(axis=1)
        if it:
            moved = (new != labels[live]).any(axis=1)
            if not moved.all():
                live, new, d2 = live[moved], new[moved], d2[moved]
                if not live.size:
                    break
        labels[live] = new
        centres[live] = _cluster_means(points, new, d2, K)
    return labels


def _first_occurrence_labels(labels: np.ndarray, K: int) -> np.ndarray:
    """Each row's labels renumbered 0, 1, ... in order of first occurrence."""
    hit = labels[:, :, None] == np.arange(K)
    first = np.where(hit.any(axis=1), hit.argmax(axis=1), labels.shape[1])
    rank = first.argsort(axis=1, kind="stable").argsort(axis=1)
    return np.take_along_axis(rank, labels, axis=1)


def check_kmeans_counts(restarts: int, max_iters: int) -> None:
    """Raise ParameterError unless k-means has at least one restart and iteration."""
    if restarts < 1:
        raise ParameterError(f"k-means restarts must be >= 1, got {restarts}")
    if max_iters < 1:
        raise ParameterError(f"k-means iterations must be >= 1, got {max_iters}")


def kmeans(points: np.ndarray, K: int, restarts: int = 10,
           max_iters: int = 100, seed: int = 0) -> Partition:
    """Best-of-restarts Lloyd iterations with careful (k-means++) seeding.

    Restart r draws its initial centres from the Philox stream
    _rng(seed, r), each with probability proportional to the squared
    distance from the chosen ones, then runs at most `max_iters` Lloyd
    iterations, stopping when its labels no longer change. The restart with
    the smallest within-cluster sum of squares wins; ties keep the earlier
    restart. Deterministic given the seed.

    All restarts advance together as array operations, and a converged
    restart is frozen; the result is bit-identical to running the restarts
    one after another. Restarts that end in the same partition, under any
    labelling, score the same, so only the first of them is scored.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n, dim = points.shape
    if n < K:
        raise ParameterError(f"need at least K={K} points, got {n}")
    check_kmeans_counts(restarts, max_iters)
    if not np.isfinite(points).all():
        raise InputError("k-means points must be finite")
    step = max(1, _KMEANS_BATCH_ELEMENTS // (n * K * dim))
    labels = np.concatenate([
        _lloyd(points, _kmeanspp(points, K, seed, range(lo, min(lo + step, restarts))),
               max_iters)
        for lo in range(0, restarts, step)])
    seen = set()
    best, best_w = None, np.inf
    for r, key in enumerate(_first_occurrence_labels(labels, K)):
        key = key.tobytes()
        if key in seen:
            continue  # an earlier restart found this partition, and ties keep it
        seen.add(key)
        w = _wcss(points, labels[r], K)
        if w < best_w:
            best, best_w = r, w
    return Partition(assignment=labels[best].copy(), K=K)


def _active_edges(g: WeightedGraph):
    """Positive-degree nodes, their degrees, and the edges remapped onto them."""
    deg = g.degrees()
    active = np.flatnonzero(deg > 0)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[active] = np.arange(active.size)
    u, v, w = g.edge_arrays()
    return active, deg[active], pos[u], pos[v], w


def _dense_weights(n: int, u, v, w) -> np.ndarray:
    m = np.zeros((n, n))
    m[u, v] = w
    m[v, u] = w
    return m


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
    if normalized and K == 2 and n > SPARSE_MIN_NODES:
        a = normalized_adjacency(n, u, v, w, deg)
        if _csgraph_components(a, directed=False, return_labels=False) == 1:
            try:
                vecs, vals = lanczos_eigenvectors(a, keff)
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
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}")
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

