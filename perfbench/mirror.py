"""Spans and the traced mirror of pcut's candidate generation.

``mirror_select`` repeats what ``pcut.generate_candidates`` followed by
``pcut.pcut_select`` does for a serial run (``workers=1``), calling the same
public layer functions, and wraps each call in a span. The spans are taken
from outside the package, so a layer's time is the time of the call into it.
``check_parity`` then requires the mirror to have produced what the package
produced, so the layer numbers always describe the program as it is.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Per-layer metrics of a traced run: (name, unit, better). Names are
# "<pcut module>.<quantity>".
PER_LAYER = (
    ("io.read_s", "s", "lower"),
    ("io.bytes", "bytes", "lower"),
    ("ranking.eta_s", "s", "lower"),
    ("ranking.cn_s", "s", "lower"),
    ("ranking.cn_calls", "count", "lower"),
    ("construction.baseline_s", "s", "lower"),
    ("construction.avg_knn_s", "s", "lower"),
    ("construction.avg_knn_calls", "count", "lower"),
    ("rmd.build_s", "s", "lower"),
    ("rmd.graphs", "count", "lower"),
    ("rmd.edges", "count", "lower"),
    ("spectral.eig_s", "s", "lower"),
    ("spectral.eig_calls", "count", "lower"),
    ("spectral.eig_rows", "count", "lower"),
    ("spectral.eig_bytes_computed", "bytes", "lower"),
    ("spectral.kmeans_s", "s", "lower"),
    ("spectral.kmeans_calls", "count", "lower"),
    ("spectral.sweep_s", "s", "lower"),
    ("spectral.sweep_hit_ratio", "ratio", "higher"),
    ("propagation.grf_s", "s", "lower"),
    ("propagation.grf_calls", "count", "lower"),
    ("propagation.grf_ok_ratio", "ratio", "higher"),
    ("graph.cut_s", "s", "lower"),
    ("graph.cut_calls", "count", "lower"),
    ("engine.select_s", "s", "lower"),
    ("engine.candidates", "count", "higher"),
    ("engine.feasible_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

# Spans around calls into the package. "engine.input" and "engine.grid_point"
# enclose the mirror's own loop code; "spectral.clustering" is the
# unnormalized flavour, which no workload uses.
_TIMED = ("io.read", "ranking.eta", "ranking.cn", "construction.baseline",
          "construction.avg_knn", "rmd.build", "spectral.eig", "spectral.kmeans",
          "spectral.sweep", "propagation.grf", "graph.cut", "engine.select")
_CALLS = ("ranking.cn", "construction.avg_knn", "spectral.eig",
          "spectral.kmeans", "propagation.grf", "graph.cut")


class Tracer:
    """Spans and counts kept in memory until the run writes them out."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.trace = None          # id shared by the spans of one input
        self._open = []

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "trace": self.trace, "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name, value=1):
        self.counts[name] += value

    def self_times(self) -> dict:
        """Per span name: duration minus the time covered by child spans."""
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
            if s["parent"] is not None:
                out[self.spans[s["parent"]]["name"]] -= s["end"] - s["start"]
        return out

    def calls(self) -> dict:
        out = defaultdict(int)
        for s in self.spans:
            out[s["name"]] += 1
        return out


class _NoTrace:
    """Stand-in for a Tracer when nothing is recorded."""

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, value=1):
        pass


NO_TRACE = _NoTrace()


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """Per-layer values of one traced pass, keyed by PER_LAYER name."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    values = {f"{name}_s": self_s.get(name, 0.0) for name in _TIMED}
    values.update({f"{name}_calls": calls.get(name, 0) for name in _CALLS})
    values.update({
        "io.bytes": counts["io.bytes"],
        "rmd.graphs": calls.get("rmd.build", 0),
        "rmd.edges": counts["rmd.edges"],
        "spectral.eig_rows": counts["spectral.eig_rows"],
        "spectral.eig_bytes_computed": counts["spectral.eig_bytes_computed"],
        "spectral.sweep_hit_ratio": ratio(counts["spectral.sweep_hits"],
                                          calls.get("spectral.sweep", 0)),
        "propagation.grf_ok_ratio": ratio(counts["propagation.grf_ok"],
                                          calls.get("propagation.grf", 0)),
        "engine.candidates": counts["engine.candidates"],
        "engine.feasible_ratio": ratio(counts["engine.feasible"],
                                       counts["engine.candidates"]),
        "trace.overhead_s": overhead_s,
    })
    return {name: values[name] for name, _, _ in PER_LAYER}


def _partitions_for_graph(graph, cfg, labels, cand_seed, min_side, tracer):
    """Mirror of pcut.engine._partitions_for_graph."""
    from pcut import ConstraintError, SpectralConfig, grf_propagate, kmeans, spectral_clustering
    from pcut.spectral import _embedding_rows, normalized_bundle, sweep_from_bundle

    out = []
    if cfg.task == "ssl":
        try:
            with tracer.span("propagation.grf"):
                part = grf_propagate(graph, labels)
            tracer.count("propagation.grf_ok")
            out.append(("grf", part))
        except ConstraintError:
            pass
        return out
    flavors = [("sc", cfg.variant)]
    for extra in cfg.extra_variants:
        if extra != cfg.variant:
            flavors.append(("sc_alt", extra))
    needs_bundle = (cfg.sweep_cuts and cfg.K == 2) or any(
        v in ("ncut_normalized", "ncut_rw") for _, v in flavors)
    bundle = None
    if needs_bundle:
        with tracer.span("spectral.eig"):
            bundle = normalized_bundle(graph, cfg.K)
        if bundle is not None:
            rows = int(bundle["active"].size)
            tracer.count("spectral.eig_rows", rows)
            tracer.count("spectral.eig_bytes_computed", 8 * rows * rows)
    for gen, variant in flavors:
        if variant in ("ncut_normalized", "ncut_rw"):
            points = _embedding_rows(bundle, cfg.K, variant, graph.n)
            with tracer.span("spectral.kmeans"):
                part = kmeans(points, cfg.K, restarts=cfg.kmeans_restarts,
                              max_iters=cfg.kmeans_max_iters, seed=cand_seed)
        else:
            sc = SpectralConfig(K=cfg.K, variant=variant,
                                kmeans_restarts=cfg.kmeans_restarts,
                                kmeans_max_iters=cfg.kmeans_max_iters,
                                seed=cand_seed)
            with tracer.span("spectral.clustering"):
                part = spectral_clustering(graph, sc)
        out.append((gen, part))
    if cfg.sweep_cuts and cfg.K == 2:
        with tracer.span("spectral.sweep"):
            swept = sweep_from_bundle(bundle, graph.n, min_side)
        if swept is not None:
            tracer.count("spectral.sweep_hits")
            out.append(("sweep", swept))
    return out


def mirror_select(data, cfg, labels, tracer):
    """Traced mirror of generate_candidates + pcut_select.

    Returns (candidates, selected) as the package would.
    """
    from pcut import (CandidateCut, avg_knn_distance, baseline_graph, cut_value,
                      eta_connectivity, eta_similarity, pcut_select, rank,
                      rmd_connectivity_graph, rmd_similarity_graph)
    from pcut.construction import as_features
    from pcut.engine import mix_seed
    from pcut.ranking import common_neighbor_counts

    if cfg.modality == "similarity":
        f = as_features(data)
        with tracer.span("construction.baseline"):
            construction = baseline_graph(f, "construction")
        with tracer.span("ranking.eta"):
            ranks = rank(eta_similarity(f, construction))
        with tracer.span("construction.baseline"):
            baseline = baseline_graph(f, "selection")
        ks = cfg.ks(f.n)
        dk = {}
        for k in ks:
            with tracer.span("construction.avg_knn"):
                dk[k] = avg_knn_distance(f, k)
        points = [(lam, k, (2.0 ** j) * dk[k]) for lam, k, j in
                  itertools.product(cfg.lambdas(), ks, cfg.sigma_exps())]

        def build(lam, k, sigma):
            return rmd_similarity_graph(f, ranks, lam, k, weights="rbf", sigma=sigma)
        n = f.n
    else:
        g = data
        with tracer.span("ranking.cn"):
            counts = common_neighbor_counts(g)
        with tracer.span("ranking.eta"):
            ranks = rank(eta_connectivity(g))
        points = [(lam, None, None) for lam in cfg.lambdas()]

        def build(lam, k, sigma):
            return rmd_connectivity_graph(g, ranks, lam, counts=counts)
        n, baseline = g.n, g

    min_side = cfg.delta * n
    candidates = []
    for grid_index, (lam, k, sigma) in enumerate(points):
        with tracer.span("engine.grid_point"):
            with tracer.span("rmd.build"):
                graph = build(lam, k, sigma)
            tracer.count("rmd.edges", graph.m)
            produced = _partitions_for_graph(graph, cfg, labels,
                                             mix_seed(cfg.seed, grid_index),
                                             min_side, tracer)
            for generator, partition in produced:
                min_size = int(partition.sizes().min())
                with tracer.span("graph.cut"):
                    cut = cut_value(baseline, partition)
                feasible = min_size > min_side
                candidates.append(CandidateCut(
                    partition=partition, lam=lam, k=k, sigma=sigma,
                    generator=generator, feasible=feasible,
                    min_cluster_size=min_size, baseline_cut=cut,
                    normalized_cut=cut / baseline.m if baseline.m else 0.0,
                    index=len(candidates)))
                tracer.count("engine.candidates")
                tracer.count("engine.feasible", int(feasible))
    with tracer.span("engine.select"):
        selected = pcut_select(candidates)
    return candidates, selected


class ParityError(RuntimeError):
    """The traced mirror disagrees with the package."""


def check_parity(candidates, selected, mirrored, mirrored_selected):
    """Require the mirror to reproduce the package's candidates and choice."""
    if len(candidates) != len(mirrored):
        raise ParityError(f"{len(mirrored)} mirrored candidates, "
                          f"package made {len(candidates)}")
    for ours, theirs in zip(mirrored, candidates):
        if ours.params() != theirs.params():
            raise ParityError(f"candidate {theirs.index}: params "
                              f"{ours.params()} != {theirs.params()}")
        if ours.baseline_cut != theirs.baseline_cut:
            raise ParityError(f"candidate {theirs.index}: baseline cut "
                              f"{ours.baseline_cut!r} != {theirs.baseline_cut!r}")
    if (mirrored_selected.params() != selected.params()
            or not np.array_equal(mirrored_selected.partition.assignment,
                                  selected.partition.assignment)):
        raise ParityError(f"mirror selected {mirrored_selected.params()}, "
                          f"package selected {selected.params()}")
