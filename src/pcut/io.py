"""File formats shared with the CLI: edge lists, feature CSVs, label CSVs."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from .errors import InputError
from .graph import EdgeError, WeightedGraph, edge_message


def read_edge_list(path) -> WeightedGraph:
    """Read "u v [w]" lines; ids 0- or 1-based, auto-detected by minimum id.

    Missing weights default to 1.0. WeightedGraph validates the edges; an
    invalid one (a self-loop, a repeated pair, a weight that is not finite
    and positive) is reported as path:line with its ids as written.
    """
    lines, us, vs, ws = [], [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) not in (2, 3):
                raise InputError(f"{path}:{lineno}: expected 'u v [w]', got {line.strip()!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            if u < 0 or v < 0:
                raise InputError(f"{path}:{lineno}: negative node id")
            lines.append(lineno)
            us.append(u)
            vs.append(v)
            ws.append(w)
    if not lines:
        raise InputError(f"{path}: no edges found")
    u, v = np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
    offset = 1 if min(u.min(), v.min()) >= 1 else 0
    n = int(max(u.max(), v.max())) + 1 - offset
    try:
        return WeightedGraph.from_arrays(n, u - offset, v - offset, ws)
    except EdgeError as exc:
        i = exc.index
        message = edge_message(exc.reason, n, u[i], v[i], ws[i])
        if exc.reason == "duplicate":
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            first = np.flatnonzero((lo == lo[i]) & (hi == hi[i]))[0]
            message += f" (first at line {lines[first]})"
        raise InputError(f"{path}:{lines[i]}: {message}") from exc


def write_edge_list(path, g: WeightedGraph) -> None:
    with open(path, "w") as fh:
        for u, v, w in g.edges():
            if w == 1.0:
                fh.write(f"{u} {v}\n")
            else:
                fh.write(f"{u} {v} {w!r}\n")


def _csv_rows(path):
    """(row number, row) of each CSV row of path with a non-blank cell."""
    with open(path) as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if any(c.strip() for c in row):
                yield lineno, row


def read_features_csv(path) -> np.ndarray:
    """Read one sample per row of comma-separated reals.

    A non-numeric first row is treated as a header and skipped.
    """
    rows = []
    width = None
    for lineno, row in _csv_rows(path):
        try:
            vals = [float(c) for c in row]
        except ValueError:
            if lineno == 1:
                continue  # header
            raise InputError(f"{path}:{lineno}: non-numeric value in {row}")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise InputError(
                f"{path}:{lineno}: expected {width} columns, got {len(vals)}")
        rows.append(vals)
    if not rows:
        raise InputError(f"{path}: no feature rows found")
    x = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(x).all():
        raise InputError(f"{path}: non-finite feature value")
    return x


def write_features_csv(path, x: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(x, dtype=float):
            writer.writerow([repr(float(v)) for v in row])


def read_labels_csv(path) -> dict[int, int]:
    """Read "node_id,class" rows into a mapping; a header row is skipped."""
    out = {}
    for lineno, row in _csv_rows(path):
        try:
            node, cls = int(row[0]), int(row[1])
        except (ValueError, IndexError):
            if lineno == 1:
                continue
            raise InputError(f"{path}:{lineno}: expected 'node_id,class'")
        if node in out:
            raise InputError(f"{path}:{lineno}: duplicate label for node {node}")
        out[node] = cls
    if not out:
        raise InputError(f"{path}: no labels found")
    return out


def write_labels_csv(path, labels) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "class"])
        if isinstance(labels, dict):
            items = sorted(labels.items())
        else:
            items = enumerate(np.asarray(labels, dtype=int).tolist())
        for node, cls in items:
            writer.writerow([int(node), int(cls)])


def file_digest(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
