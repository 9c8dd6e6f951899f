"""Sketch operators: mergeable approximate aggregates for 100 TB scans.

KMV (k-minimum-values) distinct-count sketch — the classic mergeable
cardinality estimator (Bar-Yossef et al. 2002; the same family as
HyperLogLog but exactly mergeable by set-union of minima):

- per batch, hash the values (splitmix64 over the column) and keep the k
  smallest distinct hashes — a tiny partial state per (group, batch);
- partials MERGE by union + re-truncate to k (associative, commutative —
  safe in any shuffle/combine order);
- if the final sketch holds fewer than k hashes the count is EXACT
  (every distinct value is present); otherwise the estimator is
  ``(k - 1) / max_kth_normalized``.

The Ray shape is one ``map_batches`` producing one partial row per
(group, batch) then one small ``groupby().map_groups`` over partials —
the full column never shuffles (vs ``ds.unique``'s full exchange).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .dedup import _mix64

_MAX64 = float(2**64)


def _hash_values(values: list) -> np.ndarray:
    """Stable 64-bit hashes of arbitrary scalar values (via str encoding —
    deterministic across engines/runs, unlike Python hash())."""
    import hashlib

    out = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        digest = hashlib.md5(str(v).encode("utf-8")).digest()
        out[i] = int.from_bytes(digest[:8], "big")
    return out


def kmv_partials(
    batch: pa.Table, col: str, group_cols: list[str] | None = None, k: int = 1024
) -> pa.Table:
    """One sketch row per (group, batch): the k smallest distinct hashes."""
    df = batch.select([*(group_cols or []), col]).to_pandas()
    rows: list[dict] = []
    if group_cols:
        grouped = df.groupby(group_cols, sort=False)
    else:
        grouped = [((), df)]
    for key, g in grouped:
        hashes = np.unique(_hash_values(g[col].tolist()))
        mins = np.sort(hashes)[:k]
        row = {"__sketch": mins.tobytes()}
        if group_cols:
            key = key if isinstance(key, tuple) else (key,)
            row.update(dict(zip(group_cols, key)))
        rows.append(row)
    fields = [(c, df[c].dtype) for c in (group_cols or [])]
    out = pd.DataFrame(rows)
    for c, dt in fields:
        out[c] = out[c].astype(dt)
    return pa.Table.from_pandas(out, preserve_index=False)


def _merge_sketches(blobs: list[bytes], k: int) -> np.ndarray:
    merged = np.unique(
        np.concatenate([np.frombuffer(b, dtype=np.uint64) for b in blobs])
    )
    return merged[:k]


def kmv_estimate(sketch: np.ndarray, k: int) -> int:
    if len(sketch) < k:
        return int(len(sketch))  # exact: the sketch saw every distinct value
    kth = float(sketch[k - 1]) / _MAX64
    return int(round((k - 1) / kth))


def approx_distinct(
    ds, col: str, group_cols: list[str] | None = None, k: int = 1024
):
    """Approximate COUNT(DISTINCT col) [per group]: returns a pa.Table of
    (group..., approx_distinct). Exact whenever per-group cardinality < k,
    else within ~1/sqrt(k) relative error."""
    partials = ds.map_batches(
        lambda t: kmv_partials(t, col, group_cols, k), batch_format="pyarrow"
    )
    if not group_cols:
        blobs = [
            b
            for t in partials.materialize().to_arrow_refs()
            for b in _ray_get(t).column("__sketch").to_pylist()
        ]
        est = kmv_estimate(_merge_sketches(blobs, k), k) if blobs else 0
        return pa.table({"approx_distinct": pa.array([est], pa.int64())})

    def reduce_group(group: pd.DataFrame) -> pd.DataFrame:
        sketch = _merge_sketches(list(group["__sketch"]), k)
        out = group.head(1)[group_cols].copy()
        out["approx_distinct"] = kmv_estimate(sketch, k)
        return out

    merged = partials.groupby(group_cols).map_groups(
        reduce_group, batch_format="pandas"
    )
    return merged


def _ray_get(ref):
    import ray

    return ray.get(ref)


def mg_partial(batch: pa.Table, col: str, k: int) -> pa.Table:
    """Misra–Gries summary of one batch: exact in-batch counts compressed
    to the k heaviest items by subtracting the (k+1)-th largest count
    (the canonical MG decrement — per-item undercount ≤ the recorded
    deduction). Emits (item, cnt, ded) rows plus one NULL marker row
    carrying (batch_rows, batch_deduction) so a single pass yields N and
    the global error bound D = Σ deductions."""
    col_arr = batch.column(col)
    vc = col_arr.to_pandas().value_counts()
    ded = 0
    if len(vc) > k:
        ded = int(vc.iloc[k])  # (k+1)-th largest
        vc = vc.iloc[:k] - ded
        vc = vc[vc > 0]
    items = pa.array(list(vc.index), type=col_arr.type)
    return pa.table(
        {
            col: pa.concat_arrays([items, pa.nulls(1, col_arr.type)]),
            "cnt": pa.array([*map(int, vc.to_list()), batch.num_rows], pa.int64()),
            "ded": pa.array([0] * len(vc) + [ded], pa.int64()),
        }
    )


def heavy_hitters(ds, col: str, num: int = 1, den: int = 5, k: int | None = None):
    """EXACT frequent items: values with count·den > N·num (frequency
    above num/den), via the mergeable-summaries two-pass plan (Agarwal
    et al., *Mergeable Summaries*):

    pass 1 — per-batch Misra–Gries summaries (≤ k+1 rows each) merge on
    the driver (O(k·batches) rows — MBs at 100 TB, never the column);
    any item with true count > N·num/den satisfies
    merged + D > N·num/den, so that filter yields a candidate SUPERSET.
    pass 2 — candidates broadcast via ``ray.put``; each batch counts only
    candidate rows (vectorized ``is_in`` + value_counts) and a tiny
    groupby-sum confirms exact counts, keeping count·den > N·num.

    Integer arithmetic end to end — no float threshold wobble. Returns
    (col, cnt) pyarrow Table. Default k = 8·den keeps the per-batch
    error ⅛ of the threshold."""
    import pyarrow.compute as pc
    import ray

    k = k or 8 * den
    partials = pa.concat_tables(
        ray.get(
            ds.map_batches(
                lambda b: mg_partial(b, col, k), batch_format="pyarrow"
            ).materialize().to_arrow_refs()
        )
    )
    markers = partials.filter(pc.is_null(partials.column(col)))
    n_total = int(pc.sum(markers.column("cnt")).as_py() or 0)
    d_total = int(pc.sum(markers.column("ded")).as_py() or 0)
    item_rows = partials.filter(pc.is_valid(partials.column(col)))
    merged = (
        item_rows.group_by(col).aggregate([("cnt", "sum")]).to_pandas()
    )
    cand = merged[
        (merged["cnt_sum"] + d_total) * den > n_total * num
    ][col]
    cand_arr = pa.array(list(cand), type=partials.column(col).type)
    ref = ray.put(cand_arr)

    def exact_count(batch: pa.Table) -> pa.Table:
        cands = ray.get(ref)
        keep = batch.filter(
            pc.fill_null(pc.is_in(batch.column(col), value_set=cands), False)
        )
        vc = keep.column(col).to_pandas().value_counts()
        return pa.table(
            {
                col: pa.array(list(vc.index), type=batch.column(col).type),
                "cnt": pa.array([int(v) for v in vc.to_list()], pa.int64()),
            }
        )

    counts = (
        ds.map_batches(exact_count, batch_format="pyarrow")
        .groupby(col)
        .sum("cnt")
    )
    tables = [
        t
        for t in ray.get(
            counts.map_batches(
                lambda t: t.rename_columns([col, "cnt"]), batch_format="pyarrow"
            ).materialize().to_arrow_refs()
        )
        if t.num_rows
    ]
    if not tables:
        return pa.table(
            {col: pa.array([], partials.column(col).type),
             "cnt": pa.array([], pa.int64())}
        )
    final = pa.concat_tables(tables)
    mask = pc.greater(
        pc.multiply(final.column("cnt"), pa.scalar(den, pa.int64())),
        pa.scalar(n_total * num, pa.int64()),
    )
    return final.filter(mask).sort_by(col)


def quantile_sketch_partials(batch: pa.Table, col: str, m: int) -> pa.Table:
    """One weighted grid-sample row per batch: the batch's values at m
    equally-spaced ranks (inverted CDF), each carrying weight n/m. The
    within-batch rank error of this summary is ≤ n/m; summed over
    batches the global rank error is ≤ N/m (the classic weighted
    q-digest-style bound) — m=256 ⇒ ≤ 0.4 % rank error."""
    v = np.sort(batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64))
    n = len(v)
    if n == 0:
        return pa.table(
            {"values": pa.array([], pa.list_(pa.float64())),
             "weight": pa.array([], pa.float64())}
        )
    k = min(m, n)
    idx = np.floor((np.arange(k) + 0.5) * n / k).astype(np.int64)
    return pa.table(
        {
            "values": pa.array([v[idx].tolist()], pa.list_(pa.float64())),
            "weight": pa.array([n / k], pa.float64()),
        }
    )


def approx_quantiles(ds, col: str, qs=(0.25, 0.5, 0.75, 0.95, 0.99), m: int = 256):
    """Mergeable approximate quantiles: per-block weighted grid samples
    (≤ m values + 1 weight per block — the only rows that move), merged
    on the driver as a weighted multiset; quantile = weighted inverted
    CDF. Rank error ≤ N/m regardless of distribution or skew — the scale
    path exact_quantiles defers to when one group's values exceed a
    worker (pipelines/events.py docstring). Returns (q, value) Table."""
    import ray

    parts = [
        t
        for t in ray.get(
            ds.map_batches(
                lambda b: quantile_sketch_partials(b, col, m),
                batch_format="pyarrow",
            ).materialize().to_arrow_refs()
        )
        if not isinstance(t, pd.DataFrame) and t.num_rows
    ]
    vals, weights = [], []
    for t in parts:
        for row_vals, w in zip(t.column("values").to_pylist(), t.column("weight").to_pylist()):
            vals.extend(row_vals)
            weights.extend([w] * len(row_vals))
    v = np.asarray(vals)
    w = np.asarray(weights)
    order = np.argsort(v, kind="mergesort")
    v, w = v[order], w[order]
    cum = np.cumsum(w)
    total = cum[-1]
    out_q, out_v = [], []
    for q in qs:
        i = int(np.searchsorted(cum, q * total, side="left"))
        out_q.append(float(q))
        out_v.append(float(v[min(i, len(v) - 1)]))
    return pa.table(
        {"q": pa.array(out_q, pa.float64()), "value": pa.array(out_v, pa.float64())}
    )
