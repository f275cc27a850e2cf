"""Spectral clustering: Laplacians, eigenvectors, k-means, and sweep cuts.

Three embedding variants are supported:

- "rcut_unnormalized": eigenvectors of L = D - W.
- "ncut_normalized":   eigenvectors of L_sym with L2-normalized rows.
- "ncut_rw":           random-walk scaling D^{-1/2} of the L_sym eigenvectors
                       (the classic normalized-cut discretization).

The eigendecomposition runs on the positive-degree subgraph, remapped from
the graph's edge arrays; isolated nodes get an all-zero embedding row and
join whichever cluster k-means assigns.

Which eigensolver runs for the normalized variants (``normalized_bundle``):

- For K = 2, above SPARSE_MIN_NODES positive-degree nodes, and only when
  that subgraph is connected, Lanczos (ARPACK ``eigsh``, which="LA") finds
  the largest eigenpairs of the sparse normalized adjacency
  D^{-1/2} W D^{-1/2}; the L_sym eigenvalues are one minus those. The start
  vector is a fixed Philox draw, so results do not depend on ARPACK's own
  random state.
- K >= 3 runs dense until its Lanczos partitions have been checked
  against dense ones. k-means scores a partition the same under any
  labelling (`_wcss`), so rounding in that score cannot relabel a
  candidate.
- A disconnected subgraph has a repeated zero eigenvalue that Lanczos can
  miss, so it takes the dense path, as does every subgraph at or below the
  cutoff, where dense ``eigh`` is as fast or faster.
- When Lanczos does not converge within _LANCZOS_MAXITER restarts, or an
  eigenpair fails the residual check against L_sym, the dense path runs
  instead. Nearly disconnected graphs (RBF weights that underflow at small
  bandwidths) have nearly repeated eigenvalues and end here.

The dense path forms the n x n L_sym and calls ``smallest_eigenvectors``.
"rcut_unnormalized" always runs dense. Sweep cuts add edge weights in edge
order, so on weighted graphs a cut can differ from a dense row sum in the
last bit, and a tie between prefix cuts can go either way.
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

# Positive-degree node count above which normalized_bundle tries Lanczos.
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


def kmeans(points: np.ndarray, K: int, restarts: int = 10,
           max_iters: int = 100, seed: int = 0) -> Partition:
    """Best-of-restarts Lloyd iterations with careful seeding.

    Initial centers are drawn with probability proportional to the squared
    distance from the chosen ones; ties across restarts keep the earlier
    restart. Deterministic given the seed.
    """
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


def normalized_bundle(g: WeightedGraph, K: int):
    """Shared eigendecomposition of the normalized Laplacian.

    Returns None for graphs with no edges. The bundle carries enough
    eigenvectors for both the K-dimensional embeddings and the sweep cut,
    so candidate generators can reuse a single decomposition. The module
    docstring says which eigensolver runs.
    """
    active, deg, u, v, w = _active_edges(g)
    n = active.size
    if n < 2:
        return None
    keff = min(max(K, 4), n)
    vecs = None
    if K == 2 and n > SPARSE_MIN_NODES:
        a = normalized_adjacency(n, u, v, w, deg)
        if _csgraph_components(a, directed=False, return_labels=False) == 1:
            try:
                vecs, vals = lanczos_eigenvectors(a, keff)
            except NumericError:
                pass  # the dense path below decides
    if vecs is None:
        lap = _laplacian(_dense_weights(n, u, v, w), "ncut_normalized")
        vecs, vals = smallest_eigenvectors(lap, keff)
    return {"active": active, "deg": deg, "edges": (u, v, w),
            "vecs": vecs, "vals": vals}


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
    if variant in ("ncut_normalized", "ncut_rw"):
        return _embedding_rows(normalized_bundle(g, K), K, variant, g.n)
    active, _, u, v, w = _active_edges(g)
    out = np.zeros((g.n, K))
    if active.size == 0:
        return out
    keff = min(K, active.size)
    lap = _laplacian(_dense_weights(active.size, u, v, w), variant)
    vecs, _ = smallest_eigenvectors(lap, keff)
    out[active, :keff] = vecs
    return out


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


def sweep_min_cut(g: WeightedGraph, min_side: float) -> Partition | None:
    """Convenience wrapper building the decomposition for a single sweep."""
    return sweep_from_bundle(normalized_bundle(g, 2), g.n, min_side)
