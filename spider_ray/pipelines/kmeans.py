"""Distributed k-means (Lloyd) over an embedding column.

The iterative-ML operator shape on Ray Data (SURVEY.md §4 / ray_guide):

- **init** — deterministic: the k vectors with the smallest
  ``md5(id)`` (per-batch partial top-k then a tiny driver merge — the
  same reproducible hash-order draw as events.stratified_sample), so
  every run/partitioning starts identically. No RNG state.
- **assign + update** — each iteration broadcasts the k×d centroid
  matrix once via ``ray.put``; every batch computes argmin-distance
  assignments fully vectorized (one matmul per batch) and emits ONE
  partial row per cluster: the batch's per-cluster vector sum quantized
  to an int64 fixed-point grid plus a count. Partials are integer, so
  their merge is associative — the fitted centroids are BIT-IDENTICAL
  at any parallelism (float partial sums would drift per block order,
  making runs non-reproducible). The driver folds k×batches tiny rows
  per iteration; the corpus never shuffles.
- **assignment** — ``kmeans_assign`` maps the final centroids over the
  Dataset, emitting (id, cluster, dist_q).

Ties (equidistant centroids) break toward the lower cluster index via
numpy argmin — also deterministic.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray

_QBITS = 20


def _mat(batch: pa.Table, vec_col: str) -> np.ndarray:
    from ..functions.vecs import vectors_to_matrix

    return vectors_to_matrix(batch.column(vec_col))


def _block_tables(ds) -> list[pa.Table]:
    """The blocks of ``ds`` as Arrow tables, from ONE execution.
    ``to_arrow_refs`` on a lazy map_batches dataset runs it a second time
    to fetch the schema and stops that run after its first block,
    cancelling the rest; Ray 2.49's driver can abort on a check failure
    (reference_count.cc) when such a cancel meets a task still resolving
    its arguments. A materialized dataset carries its schema."""
    return ray.get(ds.materialize().to_arrow_refs())


def deterministic_init(ds, k: int, vec_col: str = "embedding", id_col: str = "vec_id"):
    """k seed vectors: smallest md5(id) across the corpus (partial top-k
    per batch, tiny driver merge)."""

    def local_k(batch: pa.Table) -> pa.Table:
        ids = [str(v) for v in batch.column(id_col).to_pylist()]
        digests = [hashlib.md5(s.encode()).hexdigest() for s in ids]
        order = sorted(range(len(ids)), key=lambda i: (digests[i], ids[i]))[:k]
        return pa.table(
            {
                "digest": pa.array([digests[i] for i in order], pa.string()),
                "id": pa.array([ids[i] for i in order], pa.string()),
                vec_col: pa.array(
                    [batch.column(vec_col)[i].as_py() for i in order]
                ),
            }
        )

    parts = pa.concat_tables(
        _block_tables(ds.map_batches(local_k, batch_format="pyarrow"))
    )
    order = sorted(
        range(parts.num_rows),
        key=lambda i: (parts.column("digest")[i].as_py(), parts.column("id")[i].as_py()),
    )[:k]
    return np.stack(
        [np.asarray(parts.column(vec_col)[i].as_py(), dtype=np.float64) for i in order]
    )


def kmeans_fit(
    ds,
    k: int = 8,
    n_iter: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
):
    """Lloyd iterations; returns (centroids k×d float64, inertia_q int).
    Centroids are exact rationals sum_q/(n·2^bits) evaluated in float64 —
    identical across runs because the integer numerators are."""
    centroids = deterministic_init(ds, k, vec_col, id_col)
    scale = float(1 << _QBITS)
    inertia_q = 0

    for _ in range(n_iter):
        ref = ray.put(centroids)

        def partial(batch: pa.Table) -> pa.Table:
            cents = ray.get(ref)
            x = _mat(batch, vec_col)
            d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            q = np.floor(x * scale + 0.5).astype(np.int64)
            # quantize inertia PER ROW so partial sums stay associative
            # (per-group quantization would round differently per
            # partitioning and break bit-identical reproducibility)
            row_iq = np.floor(
                d2[np.arange(len(assign)), assign] * scale + 0.5
            ).astype(np.int64)
            rows_c, rows_n, rows_s, rows_i = [], [], [], []
            for c in np.unique(assign):
                sel = assign == c
                rows_c.append(int(c))
                rows_n.append(int(sel.sum()))
                rows_s.append(q[sel].sum(axis=0).tolist())
                rows_i.append(int(row_iq[sel].sum()))
            return pa.table(
                {
                    "cluster": pa.array(rows_c, pa.int64()),
                    "n": pa.array(rows_n, pa.int64()),
                    "sum_q": pa.array(rows_s, pa.list_(pa.int64())),
                    "inertia_q": pa.array(rows_i, pa.int64()),
                }
            )

        parts = pa.concat_tables(
            _block_tables(ds.map_batches(partial, batch_format="pyarrow"))
        )
        dim = centroids.shape[1]
        sums = np.zeros((k, dim), dtype=np.int64)
        counts = np.zeros(k, dtype=np.int64)
        inertia_q = 0
        for i in range(parts.num_rows):
            c = parts.column("cluster")[i].as_py()
            counts[c] += parts.column("n")[i].as_py()
            sums[c] += np.asarray(parts.column("sum_q")[i].as_py(), dtype=np.int64)
            inertia_q += parts.column("inertia_q")[i].as_py()
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / (
            counts[nonempty, None].astype(np.float64) * scale
        )
        # empty clusters keep their previous centroid (deterministic)

    return centroids, inertia_q


def kmeans_assign(ds, centroids: np.ndarray, vec_col: str = "embedding",
                  id_col: str = "vec_id"):
    """(id, cluster, dist_q) per row — one broadcast, map-only."""
    ref = ray.put(centroids)
    scale = float(1 << _QBITS)

    def assign(batch: pa.Table) -> pa.Table:
        cents = ray.get(ref)
        x = _mat(batch, vec_col)
        d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        a = d2.argmin(axis=1)
        dq = np.floor(d2[np.arange(len(a)), a] * scale + 0.5).astype(np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "cluster": pa.array(a.astype(np.int64)),
                "dist_q": pa.array(dq),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")
