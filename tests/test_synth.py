import hashlib
import tracemalloc

import numpy as np
import pytest

from pcut import synth
from pcut.errors import ParameterError
from pcut.spectral import _rng, philox_key
from pcut.synth import (SbmSpec, crescent_dataset, gaussian_mixture,
                        sbm_bounds, sbm_generate, stream, CRESCENT_BLOB_CENTER,
                        CRESCENT_BLOB_STD, CRESCENT_RADIUS)


class TestSbmGenerate:
    def test_sure_cliques_no_cross(self):
        spec = SbmSpec(n=12, alpha=0.25, p1=1.0, p2=1.0, q=0.0,
                       equalize_degrees=False, seed=0)
        g, truth = sbm_generate(spec)
        sizes = truth.sizes()
        assert sorted(sizes.tolist()) == [3, 9]
        for u, v, _ in g.edges():
            assert truth.assignment[u] == truth.assignment[v]
        assert g.m == 3 * 2 // 2 + 9 * 8 // 2

    def test_balanced_equalization_is_identity(self):
        spec = SbmSpec(n=100, alpha=0.5, p1=0.3, q=0.1, equalize_degrees=True)
        assert spec.effective_p2() == pytest.approx(0.3)

    def test_block_densities_match_three_sigma(self):
        # binomial counting oracle pooled over 20 seeds
        spec0 = SbmSpec(n=500, alpha=0.05, p1=0.2, q=0.03, equalize_degrees=True)
        p2 = spec0.effective_p2()
        n1, n2 = spec0.n1, spec0.n2
        pairs1 = n1 * (n1 - 1) // 2
        pairs2 = n2 * (n2 - 1) // 2
        pairsx = n1 * n2
        c1 = c2 = cx = 0
        seeds = 20
        for s in range(seeds):
            g, truth = sbm_generate(SbmSpec(n=500, alpha=0.05, p1=0.2, q=0.03,
                                            equalize_degrees=True, seed=100 + s))
            a = truth.assignment
            for u, v, _ in g.edges():
                if a[u] == a[v] == 0:
                    c1 += 1
                elif a[u] == a[v] == 1:
                    c2 += 1
                else:
                    cx += 1
        for count, pairs, p in ((c1, pairs1, 0.2), (c2, pairs2, p2),
                                (cx, pairsx, 0.03)):
            total = pairs * seeds
            se = np.sqrt(total * p * (1 - p))
            assert abs(count - total * p) <= 3 * se

    def test_equalized_mean_degrees_close(self):
        degs1, degs2 = [], []
        for s in range(20):
            g, truth = sbm_generate(SbmSpec(n=300, alpha=0.1, p1=0.25, q=0.02,
                                            equalize_degrees=True, seed=200 + s))
            d = g.degrees()
            degs1.append(d[truth.assignment == 0].mean())
            degs2.append(d[truth.assignment == 1].mean())
        diff = abs(np.mean(degs1) - np.mean(degs2))
        pooled_se = np.sqrt(np.var(degs1) / 20 + np.var(degs2) / 20)
        assert diff <= 3 * max(pooled_se, 1e-9)

    def test_deterministic_and_seed_sensitive(self):
        spec = SbmSpec(n=60, alpha=0.2, p1=0.4, q=0.05, seed=5)
        g1, _ = sbm_generate(spec)
        g2, _ = sbm_generate(spec)
        assert list(g1.edges()) == list(g2.edges())
        g3, _ = sbm_generate(SbmSpec(n=60, alpha=0.2, p1=0.4, q=0.05, seed=6))
        assert list(g1.edges()) != list(g3.edges())

    @pytest.mark.parametrize("block_pairs", [synth._SBM_BLOCK_PAIRS, 1000])
    @pytest.mark.parametrize("spec, m, digest", [
        (dict(n=200, alpha=0.2, p1=0.3, q=0.02, equalize_degrees=True, seed=1),
         1508, "aabbfa89886a4a732aae1ea0434b95ff3340de76cd76d026f1ddb9fc687516a0"),
        (dict(n=500, alpha=0.1, p1=0.2, p2=0.05, q=0.03, equalize_degrees=False,
              seed=7),
         6028, "2600946c51b68692f67e302f3a9bedfee0377d0d25b6375ba5593a63993b6cea"),
        (dict(n=1500, alpha=0.05, p1=0.0667, q=0.01, equalize_degrees=True,
              seed=0),
         14316, "856ee38706d741a25f5aa0aa01c65a60df7a6b7ed7d73e439382b54329a6a4b1"),
        (dict(n=60, alpha=0.2, p1=0.4, q=0.05, seed=5),
         198, "d9a8ece4ceb38e5c76f62191767838bfc7e795542abdcadc98d44ab31b3f2e46"),
        (dict(n=1501, alpha=0.2, p1=0.05, p2=0.02, q=0.01,
              equalize_degrees=False, seed=9),
         20435, "a4b81053f9d44e217e873536fa82822a23238677c4208da35c4212d3b0f26f35"),
    ])
    def test_golden_edge_arrays(self, spec, m, digest, block_pairs, monkeypatch):
        # recorded when each pair's probability was read from an n x n matrix
        # (n = 60 and 1501 when one draw covered every node pair); any block
        # size, one row per block included, gives the same graph
        monkeypatch.setattr(synth, "_SBM_BLOCK_PAIRS", block_pairs)
        g, truth = sbm_generate(SbmSpec(**spec))
        h = hashlib.sha256()
        for a in (*g.edge_arrays(), truth.assignment):
            h.update(np.ascontiguousarray(a).tobytes())
        assert g.m == m
        assert h.hexdigest() == digest

    @pytest.mark.slow
    def test_memory_grows_with_nodes_and_edges(self):
        # one draw over all 2e8 node pairs would take about 9 GB
        tracemalloc.start()
        try:
            g, _ = sbm_generate(SbmSpec(n=20_000, alpha=0.05, p1=0.01, q=0.001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m > 250_000
        assert peak < 100 * 2**20

    def test_invalid_equalized_p2(self):
        # odd n at alpha = 0.5 rounds the first block larger, pushing the
        # equalized within-block probability above 1
        with pytest.raises(ParameterError):
            SbmSpec(n=101, alpha=0.5, p1=1.0, q=0.0,
                    equalize_degrees=True).effective_p2()


# the Philox keys of (seed, word) as numpy converts the list [seed, word]:
# an entry of 2**63 or more beside a smaller one sends both through float64
SBM_EDGES, CRESCENTS = 11107942649080657064, 4210285810932184485
PHILOX_KEYS = {
    -1: [(0, 0), (0, 3), (2**64 - 1, SBM_EDGES), (0, 4210285810932184576)],
    5: [(5, 0), (5, 3), (5, 11107942649080657920), (5, CRESCENTS)],
    2**60: [(2**60, 0), (2**60, 3), (2**60, 11107942649080657920), (2**60, CRESCENTS)],
    2**63: [(2**63, 0), (2**63, 3), (2**63, SBM_EDGES), (2**63, 4210285810932184576)],
    12345678901234567890: [
        (12345678901234567168, 0), (12345678901234567168, 3),
        (12345678901234567890, SBM_EDGES), (12345678901234567168, 4210285810932184576)],
    2**64 - 5: [(0, 0), (0, 3), (2**64 - 5, SBM_EDGES), (0, 4210285810932184576)],
}


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
@pytest.mark.parametrize("seed", PHILOX_KEYS)
def test_philox_keys_are_pinned(seed):
    # every seeded output depends on these keys
    def key(gen):
        return tuple(int(w) for w in gen.bit_generator.state["state"]["key"])

    for word, pinned in zip((0, 3, SBM_EDGES, CRESCENTS), PHILOX_KEYS[seed]):
        assert tuple(int(w) for w in philox_key(seed, word)) == pinned
        listed = np.random.Philox(key=[seed & (2**64 - 1), word])
        assert tuple(int(w) for w in listed.state["state"]["key"]) == pinned
    assert key(_rng(seed, 0)) == PHILOX_KEYS[seed][0]
    assert key(_rng(seed, 3)) == PHILOX_KEYS[seed][1]
    assert key(stream(seed, "sbm-edges")) == PHILOX_KEYS[seed][2]
    assert key(stream(seed, "crescents")) == PHILOX_KEYS[seed][3]


class TestSbmBounds:
    def test_symmetric_case(self):
        lo, hi = sbm_bounds(0.5, 0.3, 0.3)
        assert lo == pytest.approx(0.3)
        assert hi == pytest.approx(0.3)

    def test_matched_rate_case(self):
        # alpha p1 == (1-alpha) p2 makes the numerator 2 alpha p1
        alpha, p1 = 0.2, 0.5
        p2 = alpha * p1 / (1 - alpha)
        lo, hi = sbm_bounds(alpha, p1, p2)
        assert lo == pytest.approx(alpha * p1 / (1 - alpha))
        assert hi == pytest.approx(p1)

    def test_gap_ratio_grows(self):
        lo, hi = sbm_bounds(0.01, 0.3, 0.3)
        assert hi / lo == pytest.approx(0.99 / 0.01)

    def test_ordering_on_random_draws(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            alpha = rng.uniform(0.01, 0.5)
            p1, p2 = rng.uniform(0, 1, 2)
            lo, hi = sbm_bounds(alpha, p1, p2)
            assert lo <= hi + 1e-15


class TestGaussianMixture:
    def test_single_component_zero_cov(self):
        f, labels = gaussian_mixture(10, [(1.0, [2.0, -1.0], [0.0, 0.0])], seed=1)
        assert np.allclose(f.x, [2.0, -1.0])
        assert set(labels.tolist()) == {0}

    def test_separated_components_1nn_oracle(self):
        f, labels = gaussian_mixture(
            200, [(0.5, [0.0, 0.0], [0.3, 0.3]), (0.5, [50.0, 0.0], [0.3, 0.3])],
            seed=2)
        d = ((f.x[:, None, :] - f.x[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d, np.inf)
        nearest = d.argmin(axis=1)
        assert np.array_equal(labels[nearest], labels)

    def test_component_sizes_within_three_sigma(self):
        _, labels = gaussian_mixture(
            1000, [(0.1, [0.0], [1.0]), (0.9, [5.0], [1.0])], seed=3)
        n0 = int((labels == 0).sum())
        se = np.sqrt(1000 * 0.1 * 0.9)
        assert abs(n0 - 100) <= 3 * se


class TestCrescents:
    def test_sizes(self):
        _, labels = crescent_dataset(1000, seed=4)
        assert np.bincount(labels).tolist() == [450, 450, 100]

    def test_zero_noise_exact_radius(self):
        f, labels = crescent_dataset(200, noise=0.0, seed=5)
        arc1 = f.x[labels == 0]
        radii = np.sqrt((arc1 ** 2).sum(axis=1))
        assert np.allclose(radii, CRESCENT_RADIUS)

    def test_blob_clear_of_arcs(self):
        f, labels = crescent_dataset(600, noise=0.08, seed=6)
        arcs = f.x[labels < 2]
        center = np.asarray(CRESCENT_BLOB_CENTER)
        nearest = np.sqrt(((arcs - center) ** 2).sum(axis=1)).min()
        assert nearest >= 3 * CRESCENT_BLOB_STD

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            crescent_dataset(100, fractions=(0.5, 0.4, 0.2))
