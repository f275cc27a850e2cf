"""Synthetic data: block-model graphs, Gaussian mixtures, crescent clusters.

All generators draw from counter-based Philox streams keyed by (seed,
purpose), so outputs are identical however the work is scheduled.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .construction import FeatureMatrix, _round_half_up
from .errors import ParameterError, check_counts
from .graph import Partition, WeightedGraph
from .spectral import _rng

# Crescent geometry constants, echoed in experiment reports.
CRESCENT_RADIUS = 1.0
CRESCENT_VERTICAL_OFFSET = 0.5
CRESCENT_BLOB_CENTER = (2.5, 0.25)
CRESCENT_BLOB_STD = 0.08

# Node pairs per block of rows in sbm_generate (at least one row). A block's
# index, uniform and probability arrays take about 50 bytes a pair: at
# n = 5000 the generator peaked at 12 MiB of tracemalloc, where one draw
# over all pairs took 572 MiB. Blocks of 2**14 to 2**22 pairs all took
# about 0.25 s there, so the size bounds memory and costs no time.
_SBM_BLOCK_PAIRS = 2**18


def _purpose_key(purpose: str) -> int:
    digest = hashlib.sha256(purpose.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, purpose: str) -> np.random.Generator:
    """Deterministic generator for a (seed, purpose) pair."""
    return _rng(seed, _purpose_key(purpose))


def _check_block_model(alpha: float, **probabilities) -> None:
    """Raise ParameterError unless alpha lies in (0, 0.5] and each named
    probability in [0, 1]."""
    if not 0.0 < alpha <= 0.5:
        raise ParameterError(f"alpha must lie in (0, 0.5], got {alpha}")
    for name, v in probabilities.items():
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class SbmSpec:
    """Two-block stochastic block model with optional degree equalization."""

    n: int
    alpha: float
    p1: float
    p2: float = 0.0
    q: float = 0.0
    equalize_degrees: bool = True
    seed: int = 0

    def __post_init__(self):
        _check_block_model(self.alpha, p1=self.p1, p2=self.p2, q=self.q)
        if self.n1 < 1:
            raise ParameterError("alpha * n rounds to an empty block")

    @property
    def n1(self) -> int:
        return _round_half_up(self.alpha * self.n)

    @property
    def n2(self) -> int:
        return self.n - self.n1

    def effective_p2(self) -> float:
        """p2 after degree equalization (or as given)."""
        if not self.equalize_degrees:
            return self.p2
        n1, n2 = self.n1, self.n2
        if n2 <= 1:
            raise ParameterError("degree equalization needs n2 >= 2")
        p2 = ((n1 - 1) * self.p1 + (n2 - n1) * self.q) / (n2 - 1)
        if not 0.0 <= p2 <= 1.0:
            raise ParameterError(
                f"equalized p2 = {p2:.4f} falls outside [0, 1]")
        return p2


def sbm_generate(spec: SbmSpec):
    """Draw a graph from the block model; returns (graph, ground truth).

    Node ids are randomly permuted (seeded) so they carry no information
    about block membership.
    """
    n, n1 = spec.n, spec.n1
    p2 = spec.effective_p2()
    rng = stream(spec.seed, "sbm-edges")
    block = np.zeros(n, dtype=np.int64)
    block[n1:] = 1
    prob = np.array([[spec.p1, spec.q], [spec.q, p2]])
    # one uniform per node pair (u, v), u < v, in row-major order, drawn a
    # block of rows at a time: consecutive draws continue the stream, so the
    # graph is the one a single draw over all pairs gives, in O(n + m) memory
    rows = max(1, _SBM_BLOCK_PAIRS // n)
    heads, tails = [], []
    for start in range(0, n, rows):
        iu, iv = np.triu_indices(min(rows, n - start), start + 1, n)
        iu += start
        keep = rng.random(iu.size) < prob[block[iu], block[iv]]
        heads.append(iu[keep])
        tails.append(iv[keep])
    iu, iv = np.concatenate(heads), np.concatenate(tails)
    perm = stream(spec.seed, "sbm-relabel").permutation(n)
    truth = np.empty(n, dtype=np.int64)
    truth[perm] = block
    graph = WeightedGraph.from_arrays(n, perm[iu], perm[iv])
    return graph, Partition(assignment=truth, K=2)


def sbm_bounds(alpha: float, p1: float, p2: float):
    """Phase-transition bounds (q_LB, q_UB) for two-block recovery.

    Below q_LB spectral clustering recovers the blocks asymptotically; above
    q_UB it fails; q_LB <= q_UB always, with equality at alpha = 0.5.
    """
    _check_block_model(alpha, p1=p1, p2=p2)
    a, b = alpha * p1, (1.0 - alpha) * p2
    numerator = a + b - abs(a - b)
    return numerator / (2.0 * (1.0 - alpha)), numerator / (2.0 * alpha)


def gaussian_mixture(n: int, components, seed: int = 0):
    """Sample a diagonal-covariance Gaussian mixture.

    components: list of (weight, mean vector, diagonal covariance vector).
    Returns (FeatureMatrix, component labels).
    """
    check_counts(n=n)
    weights = np.asarray([c[0] for c in components], dtype=float)
    # a NaN or infinite weight fails this test too
    if not ((weights > 0).all() and abs(weights.sum() - 1.0) <= 1e-9):
        raise ParameterError("component weights must be positive and sum to 1")
    means = [np.atleast_1d(np.asarray(c[1], dtype=float)) for c in components]
    covs = [np.atleast_1d(np.asarray(c[2], dtype=float)) for c in components]
    d = means[0].size
    for m, c in zip(means, covs):
        if d == 0 or m.size != d or c.size != d or (c < 0).any():
            raise ParameterError("component shapes are empty or disagree, or "
                                 "covariance < 0")
    counts = stream(seed, "mixture-counts").multinomial(n, weights)
    rng = stream(seed, "mixture-draws")
    xs, labels = [], []
    for comp, (count, m, c) in enumerate(zip(counts, means, covs)):
        if count == 0:
            continue
        xs.append(m[None, :] + rng.standard_normal((count, d)) * np.sqrt(c)[None, :])
        labels.append(np.full(count, comp, dtype=np.int64))
    x = np.concatenate(xs, axis=0)
    labels = np.concatenate(labels)
    order = stream(seed, "mixture-shuffle").permutation(n)
    return FeatureMatrix(x[order]), labels[order]


def crescent_dataset(n: int, fractions=(0.45, 0.45, 0.10), noise: float = 0.08,
                     seed: int = 0):
    """Two interleaved half-annulus arcs plus a small offset blob.

    Arcs have unit radius with radial Gaussian noise; the second arc is
    flipped and shifted by half a radius. The blob sits well to the right;
    generation fails if the noise pushes arc points within three blob
    standard deviations of the blob center.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9 or min(fractions) <= 0:
        raise ParameterError("fractions must be three positive values summing to 1")
    if not 0.0 <= noise < np.inf:
        raise ParameterError(f"noise must be finite and nonnegative, got {noise}")
    n1 = _round_half_up(fractions[0] * n)
    n2 = _round_half_up(fractions[1] * n)
    n3 = n - n1 - n2
    if min(n1, n2, n3) < 1:
        raise ParameterError("each cluster needs at least one sample")
    rng = stream(seed, "crescents")
    # a radius that overflows is refused by FeatureMatrix as non-finite
    with np.errstate(over="ignore"):
        theta1 = rng.uniform(0.0, np.pi, n1)
        r1 = CRESCENT_RADIUS + rng.standard_normal(n1) * noise
        arc1 = np.column_stack([r1 * np.cos(theta1), r1 * np.sin(theta1)])
        theta2 = rng.uniform(0.0, np.pi, n2)
        r2 = CRESCENT_RADIUS + rng.standard_normal(n2) * noise
        arc2 = np.column_stack([CRESCENT_RADIUS - r2 * np.cos(theta2),
                                CRESCENT_VERTICAL_OFFSET - r2 * np.sin(theta2)])
    center = np.asarray(CRESCENT_BLOB_CENTER)
    blob = center[None, :] + rng.standard_normal((n3, 2)) * CRESCENT_BLOB_STD
    # FeatureMatrix refuses coordinates whose squares overflow before the
    # clearance check squares them
    f = FeatureMatrix(np.vstack([arc1, arc2, blob]))
    arcs = f.x[:n1 + n2]
    nearest = float(np.sqrt(((arcs - center[None, :]) ** 2).sum(axis=1)).min())
    if nearest < 3.0 * CRESCENT_BLOB_STD:
        raise ParameterError(
            f"noise {noise} pushes arc points within 3 blob sigmas of the blob")
    labels = np.concatenate([np.zeros(n1, dtype=np.int64),
                             np.ones(n2, dtype=np.int64),
                             np.full(n3, 2, dtype=np.int64)])
    return f, labels


def crescent_constants() -> dict:
    """Geometry constants for report headers."""
    return {
        "radius": CRESCENT_RADIUS,
        "vertical_offset": CRESCENT_VERTICAL_OFFSET,
        "blob_center": list(CRESCENT_BLOB_CENTER),
        "blob_std": CRESCENT_BLOB_STD,
    }
