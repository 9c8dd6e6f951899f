"""Event-stream operators: sessionization, sliding windows, grouped top-k,
distinct, deterministic sampling.

These are the streaming-shaped table operators promoted out of the driver
contract into the engine's public API (VERDICT r1 next-round #9). All are
Ray-Data-first:

- **partition-sort-scan** — ``groupby(key).map_groups`` with a mergesort
  by (ts, id) inside the group, then vectorized numpy scans
  (searchsorted / diff / cumsum). One hash exchange on the partition key;
  window state never crosses group boundaries, so the shape holds at any
  scale where a single key's history fits a worker (salt the key if not).
- **grouped top-k** — per-group head-k after an in-group sort; the shuffle
  carries only group rows, the result is k rows per group.
- **distinct** — ``Dataset.unique`` (hash exchange on the column).
- **hash sampling** — md5-bucket membership: reproducible across engines
  and runs, unlike RNG sampling.

Deterministic tie-breaks on the id column throughout (the engine-wide
reproducible-ordering stance, SURVEY.md §2.7 O6).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa


def bucketed_by_key(ds, key_col: str, per_bucket, n_buckets: int = 64):
    """One hash exchange on ``key_col``; ``per_bucket`` (pandas →
    pandas/arrow) sees every row of each of its keys.

    This is the window-operator partitioning shape: per-KEY ``map_groups``
    pays a pandas UDF round-trip per key (~0.5 ms), which at 10^9 users
    IS the job's wall time; a bucket-granular UDF amortizes that and lets
    the window compute vectorize ACROSS keys (sort once per bucket,
    ``groupby().cumsum/head/nunique`` in C). Size ``n_buckets`` so
    rows/n_buckets fits one worker's heap at the target corpus; a hot
    single key remains the caller's partitioning assumption, exactly as
    with per-key map_groups. hash_array(categorize=False) is REQUIRED —
    see _nonsingleton_group_pairs for the NUL-truncation trap."""

    def tag(batch: pa.Table) -> pa.Table:
        kh = pd.util.hash_array(
            batch.column(key_col).to_numpy(zero_copy_only=False), categorize=False
        ).astype(np.int64)
        return batch.append_column(
            "__bucket",
            pa.array(((kh % n_buckets + n_buckets) % n_buckets).astype(np.int32)),
        )

    def run(group: pd.DataFrame) -> pd.DataFrame:
        return per_bucket(group.drop(columns="__bucket"))

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(run, batch_format="pandas")
    )


def _key_segments(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(new_key bool mask, segment start indices) of a key-sorted array."""
    n = len(keys)
    new_key = np.empty(n, dtype=bool)
    new_key[0] = True
    new_key[1:] = keys[1:] != keys[:-1]
    return new_key, np.flatnonzero(new_key)


def sessionize(
    ds,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    gap_us: int = 30 * 60 * 1_000_000,
):
    """Session windows per key with an inactivity-gap rule: a gap > gap_us
    starts a new session. Returns (key, session_id, n_events) rows.
    Bucketed exchange + one vectorized scan over all of a bucket's keys
    (see bucketed_by_key)."""

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        if group.empty:
            return pd.DataFrame(
                {key_col: [], "session_id": [], "n_events": []}
            )
        g = group.sort_values([key_col, ts_col, id_col], kind="mergesort")
        ts = g[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        keys = g[key_col].to_numpy()
        new_key, starts = _key_segments(keys)
        gap = np.zeros(len(g), dtype=bool)
        gap[1:] = np.diff(ts) > gap_us
        brk = gap & ~new_key
        s_global = np.cumsum(brk)
        # session id restarts at 0 on each key: subtract the running value
        # at the key's first row (forward-filled per segment)
        seg_sizes = np.diff(np.append(starts, len(g)))
        session = s_global - np.repeat(s_global[starts], seg_sizes)
        out = pd.DataFrame({key_col: keys, "session_id": session})
        return (
            out.groupby([key_col, "session_id"], as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n_events"})
        )

    return bucketed_by_key(ds, key_col, per_bucket)


def sliding_window_counts(
    ds,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    window_us: int = 3_600 * 1_000_000,
):
    """For every event, the count of that key's events in (ts-window, ts].
    Bucketed exchange; per key-segment ``np.searchsorted`` over its sorted
    ts slice (numpy-only per key — no per-key pandas round-trip)."""

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, ts_col, id_col], kind="mergesort")
        ts = g[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        keys = g[key_col].to_numpy()
        n = len(g)
        n_in_window = np.empty(n, dtype=np.int64)
        if n:
            _, starts = _key_segments(keys)
            bounds = np.append(starts, n)
            for s, e in zip(bounds[:-1], bounds[1:]):
                seg = ts[s:e]
                lo = np.searchsorted(seg, seg - window_us, side="right")
                n_in_window[s:e] = np.arange(e - s) - lo + 1
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                key_col: keys,
                "n_in_window": n_in_window,
            }
        )

    return bucketed_by_key(ds, key_col, per_bucket)


def grouped_topk(
    ds,
    group_col: str,
    value_col: str,
    id_col: str,
    k: int = 3,
    keep_cols: list[str] | None = None,
):
    """Top-k rows per group by value desc, id asc tie-break. Bucketed
    exchange + one stable two-pass sort per bucket, then a vectorized
    ``groupby().head(k)`` across all of the bucket's groups."""
    cols = keep_cols or [group_col, id_col, value_col]

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([value_col, id_col], ascending=[False, True],
                              kind="mergesort")
        g = g.sort_values(group_col, kind="mergesort")  # stable → order kept
        return g.groupby(group_col, sort=False).head(k)[cols]

    return bucketed_by_key(ds, group_col, per_bucket)


def distinct_values(ds, col: str) -> pa.Table:
    """Exact global distinct of one column, sorted (small result)."""
    values = sorted(ds.unique(col))
    return pa.table({col: pa.array(values)})


def md5_prefix_mod(values, n_bytes: int, mod: int) -> np.ndarray:
    """md5-prefix bucket (big-endian first ``n_bytes`` of the digest,
    mod ``mod``) per key value, hashed once per UNIQUE value and gathered
    back — event/user keys repeat heavily per batch, so this cuts md5
    calls by the duplication factor without changing the contract
    (``int.from_bytes(digest[:k])`` == ``int(hexdigest[:2k], 16)``)."""
    svals = np.asarray([str(v) for v in values], dtype=object)
    if not len(svals):
        return np.empty(0, dtype=np.int64)
    uniq, inv = np.unique(svals, return_inverse=True)
    per_uniq = np.fromiter(
        (
            int.from_bytes(hashlib.md5(u.encode()).digest()[:n_bytes], "big") % mod
            for u in uniq
        ),
        dtype=np.int64,
        count=len(uniq),
    )
    return per_uniq[inv]


def hash_sample_mask(values, buckets: int = 16, keep_bucket: int = 0) -> list[bool]:
    """Deterministic md5-bucket membership for a list of key values."""
    return (md5_prefix_mod(values, 1, buckets) == keep_bucket).tolist()


def exact_quantiles(
    ds,
    group_col: str,
    value_col: str,
    qs: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95, 0.99),
    method: str = "inverted_cdf",
):
    """EXACT per-group quantiles. ``method="inverted_cdf"`` returns actual
    data values — bit-identical to SQL quantile_disc (verified against
    DuckDB across sizes/qs); ``method="linear"`` is the quantile_cont
    interpolation contract (equal up to last-ulp interpolation order).
    One hash exchange on the group key; each group's values are sorted
    once in the owning task (numpy). Exactness requires a group's values
    to fit one worker — for hot groups at 100 TB use the mergeable
    KMV/histogram sketch path (pipelines.sketches) instead.
    Output: (group, q25, q50, ... per requested quantile)."""

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(group_col, kind="mergesort")
        keys = g[group_col].to_numpy()
        vals = g[value_col].to_numpy(dtype=np.float64)
        row: dict = {group_col: []}
        for q in qs:
            row[f"q{int(round(q * 100))}"] = []
        if len(g):
            _, starts = _key_segments(keys)
            bounds = np.append(starts, len(g))
            for s, e in zip(bounds[:-1], bounds[1:]):
                v = np.sort(vals[s:e])
                row[group_col].append(keys[s])
                for q in qs:
                    row[f"q{int(round(q * 100))}"].append(
                        float(np.quantile(v, q, method=method))
                    )
        return pd.DataFrame(row)

    return bucketed_by_key(ds, group_col, per_bucket)


def stratified_sample(
    ds,
    group_col: str,
    id_col: str,
    k: int,
    keep_cols: list[str] | None = None,
):
    """Deterministic k-per-group sample: the k ids with the smallest
    md5(id) per group (id asc tie-break) — a uniform-without-replacement
    draw that is reproducible across engines (SQL: row_number() over
    md5 order). Combiner shape: each batch pre-selects its local k per
    group, so the exchange carries ≤ k × batches rows per group, never
    the whole group."""
    cols = keep_cols or [group_col, id_col]

    def local_k(batch: pa.Table) -> pa.Table:
        df = batch.select(cols).to_pandas()
        df["_h"] = [
            hashlib.md5(str(v).encode()).hexdigest() for v in df[id_col]
        ]
        df = (
            df.sort_values(["_h", id_col], kind="mergesort")
            .groupby(group_col, as_index=False, sort=False)
            .head(k)
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    def final_k(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["_h", id_col], kind="mergesort")
        g = g.sort_values(group_col, kind="mergesort")  # stable → _h order kept
        return g.groupby(group_col, sort=False).head(k)[cols]

    return bucketed_by_key(
        ds.map_batches(local_k, batch_format="pyarrow"), group_col, final_k
    )


def hash_sample(ds, key_col: str, buckets: int = 16, keep_bucket: int = 0):
    """Keep rows whose md5(key) lands in one of ``buckets`` key-space
    slices — reproducible sampling (same rows on every engine/run)."""

    def keep(batch: pa.Table) -> pa.Table:
        mask = hash_sample_mask(
            batch.column(key_col).to_pylist(), buckets, keep_bucket
        )
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def lag_diff(
    ds,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
):
    """Per-key LAG delta: for every row, microseconds since the previous
    event of the same key (NULL for each key's first event) — the
    window-function ``ts - LAG(ts) OVER (PARTITION BY key ORDER BY ts,
    id)`` as one hash exchange + per-key vectorized sort-scan (same
    partition-sort-scan shape as :func:`sessionize`; per-key history must
    fit a worker, the standard window-partitioning assumption)."""

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, ts_col, id_col], kind="mergesort")
        # unit-normalize: pandas materializes arrow timestamps as ns or us
        # depending on the source; int64 µs either way
        ts = g[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        keys = g[key_col].to_numpy()
        delta = np.empty(len(ts), dtype=np.float64)
        if len(ts):
            delta[0] = np.nan
            delta[1:] = np.diff(ts)
            new_key, _ = _key_segments(keys)
            delta[new_key] = np.nan  # each key's first event has no LAG
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                key_col: keys,
                "delta_us": delta,
            }
        )

    out = bucketed_by_key(ds, key_col, per_bucket)
    return out.map_batches(
        lambda t: pa.table(
            {
                id_col: t.column(id_col),
                key_col: t.column(key_col),
                "delta_us": t.column("delta_us").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def grouped_array_agg(
    ds,
    group_col: str,
    value_col: str,
    order_cols: list[str],
):
    """SQL array_agg(value ORDER BY ...) per group: one hash exchange on
    the group key, then an in-group mergesort + list collect. Returns
    (group, values list<>, n). Group history must fit the owning worker —
    the same partitioning assumption as every window operator here."""

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(order_cols, kind="mergesort")
        g = g.sort_values(group_col, kind="mergesort")  # stable → order kept
        agg = g.groupby(group_col, sort=False)[value_col].agg(list).reset_index()
        agg.columns = [group_col, "values"]
        agg["n"] = [len(v) for v in agg["values"]]
        return agg

    return bucketed_by_key(ds, group_col, per_bucket)


def grouped_distinct_count(ds, group_col: str, value_col: str):
    """count(DISTINCT value) per group: each batch first reduces to its
    unique (group, value) pairs (pandas drop_duplicates — the combiner),
    one groupby over pairs dedups globally, then a per-group count.
    Only unique pairs ever cross the wire; the raw column never
    shuffles. Output: (group, n_distinct)."""

    def local_pairs(batch: pa.Table) -> pa.Table:
        # arrow-native unique pairs (group_by with no aggregates); typed
        # string keys keep the downstream exchange off the slow
        # object-dtype sort path (see relational.preagg_sum)
        return batch.select([group_col, value_col]).group_by(
            [group_col, value_col]
        ).aggregate([])

    pairs = ds.map_batches(local_pairs, batch_format="pyarrow")

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        agg = (
            group.groupby(group_col, sort=False)[value_col]
            .nunique()
            .reset_index()
        )
        agg.columns = [group_col, "n_distinct"]
        agg["n_distinct"] = agg["n_distinct"].astype("int64")
        return agg

    return bucketed_by_key(pairs, group_col, per_bucket)


def global_topk(ds, k: int, sort_keys: list[tuple[str, str]]):
    """Global top-k rows by arbitrary (column, order) keys WITHOUT a full
    sort: every block keeps its local top-k (`pc.select_k_unstable` —
    O(block·log k)), the ≤ k·blocks survivors concat small, and one final
    in-memory sort picks the global k. The driver never sees more than
    k rows per block — the partial-top-k pattern every "ORDER BY ...
    LIMIT k" query should compile to at scale (a full `ds.sort` is an
    all-to-all exchange just to discard all but k rows). Returns a
    pyarrow Table (small by construction)."""
    import pyarrow.compute as pc
    import ray as _ray

    def local_k(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        return batch.take(pc.select_k_unstable(batch, k, sort_keys))

    parts = [
        t
        for t in _ray.get(
            ds.map_batches(local_k, batch_format="pyarrow").materialize().to_arrow_refs()
        )
        if not isinstance(t, pd.DataFrame) and t.num_rows
    ]
    if not parts:
        return ds.schema().empty_table()
    merged = pa.concat_tables(parts).combine_chunks()
    return merged.sort_by(sort_keys).slice(0, k)


def running_total(
    ds,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    scale: int = 100,
):
    """Per-key cumulative sum — SUM(value) OVER (PARTITION BY key ORDER
    BY ts, id ROWS UNBOUNDED PRECEDING) — as the partition-sort-scan
    shape. Values are fixed-point-quantized BEFORE accumulation
    (floor(v·scale + 0.5)) so the running sums are integer-exact and
    engine-independent. Output: (id, key, cum_q)."""

    n_buckets = 64

    def tag(batch: pa.Table) -> pa.Table:
        kh = pd.util.hash_array(
            batch.column(key_col).to_numpy(zero_copy_only=False), categorize=False
        ).astype(np.int64)
        return batch.append_column(
            "__bucket",
            pa.array(((kh % n_buckets + n_buckets) % n_buckets).astype(np.int32)),
        )

    # one hash exchange co-locates every row of a key; the per-BUCKET UDF
    # then computes ALL of its keys' windows in one vectorized
    # sort + groupby().cumsum() — per-group map_groups paid a pandas
    # round-trip per user (~0.5 ms × n_users dominated the wall time)
    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        group = group.sort_values([key_col, ts_col, id_col], kind="mergesort")
        q = np.floor(
            group[value_col].to_numpy(dtype=np.float64) * scale + 0.5
        ).astype(np.int64)
        cum = (
            pd.Series(q, index=group.index)
            .groupby(group[key_col].to_numpy(), sort=False)
            .cumsum()
            .to_numpy()
        )
        return pd.DataFrame(
            {
                id_col: group[id_col].to_numpy(),
                key_col: group[key_col].to_numpy(),
                "cum_q": cum,
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def grouped_ntile(
    ds,
    group_col: str,
    value_col: str,
    id_col: str,
    n: int = 4,
):
    """SQL NTILE(n) OVER (PARTITION BY group ORDER BY value, id): each
    group's rows sort once in the owning task and split into n maximal-
    evenness buckets (first ``remainder`` buckets get the extra row —
    the exact SQL tile rule). Output: (id, group, tile 1-based)."""

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([value_col, id_col], kind="mergesort")
        g = g.sort_values(group_col, kind="mergesort")  # stable → order kept
        keys = g[group_col].to_numpy()
        m = len(g)
        tiles = np.empty(m, dtype=np.int64)
        if m:
            _, starts = _key_segments(keys)
            sizes = np.diff(np.append(starts, m))
            # SQL NTILE: first cnt%n tiles take floor(cnt/n)+1 rows — all
            # vectorized via per-row position within its group
            pos = np.arange(m) - np.repeat(starts, sizes)
            cnt = np.repeat(sizes, sizes)
            base, rem = cnt // n, cnt % n
            cut = rem * (base + 1)  # rows before this are in the fat tiles
            fat = pos < cut
            tiles[fat] = pos[fat] // (base[fat] + 1) + 1
            thin = ~fat  # base > 0 here by construction (pos ≥ rem·(base+1))
            tiles[thin] = rem[thin] + (pos[thin] - cut[thin]) // base[thin] + 1
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                group_col: keys,
                "tile": tiles,
            }
        )

    return bucketed_by_key(ds, group_col, per_bucket)


def grouped_rank(
    ds,
    group_col: str,
    value_col: str,
    id_col: str,
    ascending: bool = False,
):
    """SQL ROW_NUMBER / RANK / DENSE_RANK OVER (PARTITION BY group ORDER
    BY value [DESC], id): one hash exchange on the group key, then each
    bucket sorts once and computes all three window functions vectorized
    ACROSS its keys (pandas groupby.rank / cumcount — C kernels, no
    per-key UDF dispatch). ``id_col`` is the deterministic row_number
    tie-break; rank/dense_rank tie on ``value_col`` alone, exactly the
    SQL contract. Output: input columns + (row_num, rnk, dense_rnk)."""

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            [group_col, value_col, id_col],
            ascending=[True, ascending, True],
            kind="mergesort",
        )
        grp = g.groupby(group_col, sort=False)
        g = g.assign(
            row_num=(grp.cumcount() + 1).astype(np.int64),
            rnk=grp[value_col]
            .rank(method="min", ascending=ascending)
            .astype(np.int64),
            dense_rnk=grp[value_col]
            .rank(method="dense", ascending=ascending)
            .astype(np.int64),
        )
        return g

    return bucketed_by_key(ds, group_col, per_bucket)


def global_running_sum(
    ds,
    order_col: str,
    value_col: str,
    n_ranges: int = 64,
    out_col: str = "cum",
):
    """GLOBAL cumulative sum — SUM(value) OVER (ORDER BY order_col ROWS
    UNBOUNDED PRECEDING) — as a distributed SCAN, the one window shape
    that has no partition key to hash on:

    1. a map-only pass finds the order-key bounds and per-RANGE totals
       (range = contiguous ``order_col`` span, ONE small row per range
       per batch — never row data);
    2. the driver exclusive-prefix-sums the ``n_ranges`` totals (O(ranges)
       scalars) and broadcasts the offsets;
    3. one range exchange co-locates each span, which sorts locally,
       cumsums vectorized, and adds its span offset.

    Exact for integer values (quantize floats first, as running_total
    does). ``order_col`` must be unique — with duplicate keys a running
    sum is not well-defined (SQL has the same caveat for ROWS frames).
    Output: input columns + ``out_col`` (inclusive running sum)."""
    import pyarrow.compute as pc

    bounds = ds.map_batches(
        lambda t: pa.table(
            {
                "lo": pa.array([pc.min(t.column(order_col)).as_py()], pa.int64()),
                "hi": pa.array([pc.max(t.column(order_col)).as_py()], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    bt = pa.concat_tables(
        [pa.table(b) for b in bounds.iter_batches(batch_format="pyarrow")]
    )
    if bt.num_rows == 0:
        return ds
    lo = pc.min(bt.column("lo")).as_py()
    hi = pc.max(bt.column("hi")).as_py()
    span = max(1, (hi - lo + n_ranges) // n_ranges)

    def tag(t: pa.Table) -> pa.Table:
        rid = (
            (t.column(order_col).to_numpy(zero_copy_only=False) - lo) // span
        ).astype(np.int32)
        return t.append_column("__range", pa.array(rid))

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("__range").aggregate([(value_col, "sum")])
        return pa.table(
            {
                "__range": g.column("__range"),
                "total": g.column(f"{value_col}_sum").cast(pa.int64()),
            }
        )

    totals = pa.concat_tables(
        [
            pa.table(b)
            for b in tagged.map_batches(partial, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")
        ]
    ).to_pandas()
    import ray

    per_range = totals.groupby("__range")["total"].sum().sort_index()
    offsets = per_range.cumsum().shift(fill_value=0).to_dict()
    off_ref = ray.put(offsets)

    def scan(group: pd.DataFrame) -> pd.DataFrame:
        import ray

        offs = ray.get(off_ref)
        g = group.sort_values(order_col, kind="mergesort")
        base = int(offs.get(int(g["__range"].iloc[0]), 0))
        g[out_col] = g[value_col].to_numpy(dtype=np.int64).cumsum() + base
        return g.drop(columns="__range")

    return tagged.groupby("__range").map_groups(scan, batch_format="pandas")


def pivot_counts(ds, key_col: str, pivot_col: str, values: list[str]):
    """PIVOT: one row per key with an int64 count column per pivot value
    (``n_<value>``) — the wide-table shape for per-entity feature
    vectors. Combiner pattern: each batch emits one partial row per key
    (arrow group_by over indicator columns, C kernels), then a small
    ``groupby(key).sum`` merges partials — the exchange carries
    O(keys × batches) rows, never O(events). Values outside ``values``
    count nowhere (SQL CASE semantics)."""
    import pyarrow.compute as pc

    out_cols = [f"n_{v}" for v in values]

    def partial(batch: pa.Table) -> pa.Table:
        piv = batch.column(pivot_col)
        cols = {key_col: batch.column(key_col)}
        for v, name in zip(values, out_cols):
            # fill_null: pc.equal(null, v) is null, and a key whose rows
            # are all-null for a value would sum to null instead of the
            # SQL CASE-sum's 0
            cols[name] = pc.fill_null(pc.equal(piv, v), False).cast(pa.int64())
        t = pa.table(cols)
        g = t.group_by([key_col]).aggregate([(c, "sum") for c in out_cols])
        return pa.table(
            {key_col: g.column(key_col)}
            | {c: g.column(f"{c}_sum") for c in out_cols}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    from ray.data.aggregate import Sum

    return partials.groupby(key_col).aggregate(
        *[Sum(c, alias_name=c) for c in out_cols]
    )


def funnel_conversion(
    ds,
    key_col: str,
    ts_col: str,
    type_col: str,
    first_step: str,
    second_step: str,
    window_us: int,
):
    """Two-step funnel: for every key with at least one ``first_step``
    event, did a ``second_step`` event land strictly after its FIRST
    first_step and within ``window_us``? One hash exchange on the key,
    vectorized per bucket (pandas C kernels — groupby min + interval
    merge; no per-key UDF dispatch). Output: (key, converted 0/1)."""

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        us = (
            group[ts_col]
            .to_numpy(dtype="datetime64[us]")
            .astype("int64")
        )
        g = pd.DataFrame({key_col: group[key_col].to_numpy(), "_us": us,
                          "_t": group[type_col].to_numpy()})
        firsts = (
            g[g["_t"] == first_step].groupby(key_col)["_us"].min().rename("c_us")
        )
        if firsts.empty:
            return pd.DataFrame({key_col: [], "converted": []}).astype(
                {key_col: g[key_col].dtype, "converted": "int64"}
            )
        seconds = g[g["_t"] == second_step][[key_col, "_us"]].merge(
            firsts, left_on=key_col, right_index=True
        )
        hit = seconds[
            (seconds["_us"] > seconds["c_us"])
            & (seconds["_us"] <= seconds["c_us"] + window_us)
        ][key_col].unique()
        out = firsts.reset_index()[[key_col]]
        out["converted"] = out[key_col].isin(hit).astype("int64")
        return out

    return bucketed_by_key(ds, key_col, per_bucket)


def grouped_moments(ds, group_col: str, value_col: str, scale: int = 100):
    """Per-group count / sum / sum-of-squares on a fixed-point integer
    grid — the mergeable-moments shape: each batch emits ONE partial row
    per group (arrow group_by), a small groupby sums them, and mean /
    variance / stddev are one exact rational away (the caller divides).
    Quantizing BEFORE accumulation (floor(v·scale + 0.5)) keeps the sums
    associative → bit-identical at any parallelism, and lets a SQL
    oracle reproduce them exactly. Output: (group, n, sum_q, sumsq_q)."""

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        q = np.floor(v.astype(np.float64) * scale + 0.5).astype(np.int64)
        t = pa.table(
            {
                group_col: batch.column(group_col),
                "sum_q": pa.array(q, pa.int64()),
                "sumsq_q": pa.array(q * q, pa.int64()),
            }
        )
        g = t.group_by([group_col]).aggregate(
            [("sum_q", "sum"), ("sumsq_q", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                group_col: g.column(group_col),
                "n": g.column("count_all"),
                "sum_q": g.column("sum_q_sum"),
                "sumsq_q": g.column("sumsq_q_sum"),
            }
        )

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_q", alias_name="sum_q"),
            Sum("sumsq_q", alias_name="sumsq_q"),
        )
    )


def grouped_comoments(
    ds,
    group_col: str,
    x_col: str,
    y_col: str,
    x_scale: int = 100,
    y_scale: int = 1,
):
    """Per-group cross-moments (n, Σx, Σy, Σx², Σy², Σxy) on fixed-point
    integer grids — grouped_moments extended with the cross term, the
    mergeable sufficient statistics for covariance / correlation /
    least-squares slope. One partial row per (group, batch) crosses the
    exchange; integer sums are associative → bit-identical at any
    parallelism and exactly reproducible by a SQL oracle.

    Overflow bound (caller's contract): max|x_q|·max|y_q|·rows_per_group
    must stay under 2^63 (e.g. x ≤ 10^6 on a 10^2 grid, y ≤ 10^4, 10^6
    rows/group → 10^18 < 9.2·10^18); widen to a per-group sharded sum
    with a split key when a corpus exceeds it."""

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
        xq = np.floor(x * x_scale + 0.5).astype(np.int64)
        yq = np.floor(y * y_scale + 0.5).astype(np.int64)
        t = pa.table(
            {
                group_col: batch.column(group_col),
                "sx_q": pa.array(xq, pa.int64()),
                "sy_q": pa.array(yq, pa.int64()),
                "sxx_q": pa.array(xq * xq, pa.int64()),
                "syy_q": pa.array(yq * yq, pa.int64()),
                "sxy_q": pa.array(xq * yq, pa.int64()),
            }
        )
        g = t.group_by([group_col]).aggregate(
            [
                ("sx_q", "sum"),
                ("sy_q", "sum"),
                ("sxx_q", "sum"),
                ("syy_q", "sum"),
                ("sxy_q", "sum"),
                ([], "count_all"),
            ]
        )
        return pa.table(
            {
                group_col: g.column(group_col),
                "n": g.column("count_all"),
                "sx_q": g.column("sx_q_sum"),
                "sy_q": g.column("sy_q_sum"),
                "sxx_q": g.column("sxx_q_sum"),
                "syy_q": g.column("syy_q_sum"),
                "sxy_q": g.column("sxy_q_sum"),
            }
        )

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx_q", alias_name="sx_q"),
            Sum("sy_q", alias_name="sy_q"),
            Sum("sxx_q", alias_name="sxx_q"),
            Sum("syy_q", alias_name="syy_q"),
            Sum("sxy_q", alias_name="sxy_q"),
        )
    )


def grouped_percent_rank(ds, group_col: str, value_col: str, id_col: str):
    """SQL PERCENT_RANK / CUME_DIST OVER (PARTITION BY group ORDER BY
    value), ppb-quantized for exact cross-engine comparison: both are
    exact rationals of within-group min/max rank and group size, and the
    single double division identical on every engine makes
    floor(x·1e9 + 0.5) deterministic. Same bucketed-exchange shape as
    grouped_rank. Output: (id, group, pr_ppb, cd_ppb)."""

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            [group_col, value_col, id_col], kind="mergesort"
        )
        grp = g.groupby(group_col, sort=False)
        n = grp[value_col].transform("size").to_numpy(dtype=np.int64)
        rmin = grp[value_col].rank(method="min").to_numpy(dtype=np.int64)
        rmax = grp[value_col].rank(method="max").to_numpy(dtype=np.int64)
        pr = np.where(n > 1, (rmin - 1) / np.maximum(n - 1, 1), 0.0)
        cd = rmax / n
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                group_col: g[group_col].to_numpy(),
                "pr_ppb": np.floor(pr * 1e9 + 0.5).astype(np.int64),
                "cd_ppb": np.floor(cd * 1e9 + 0.5).astype(np.int64),
            }
        )

    return bucketed_by_key(ds, group_col, per_bucket)


def grouped_outliers(
    ds,
    group_col: str,
    value_col: str,
    id_col: str,
    n_sigma: int = 3,
    scale: int = 100,
):
    """Rows beyond ``n_sigma`` population standard deviations of their
    group mean — EXACT, no floating point anywhere: with quantized
    v_q = floor(v·scale + .5) and per-group integer moments (n, Σv_q,
    Σv_q²), the predicate (v−mean)² > k²·var is the integer comparison
    d² > k²·B where d = n·v_q − Σv_q and B = n·Σv_q² − (Σv_q)², which is
    |d| > isqrt(k²·B) (d integer). The moments table is tiny (one row
    per group) — broadcast once; the fact side is map-only. A SQL oracle
    states the same predicate in HUGEINT. Output: (id, group, dev_pos)
    where dev_pos = sign of d (+1 above mean, −1 below)."""
    import math

    import ray

    moments = grouped_moments(ds, group_col, value_col, scale=scale).to_pandas()
    thresh = {}
    for _, r in moments.iterrows():
        n, s, ss = int(r["n"]), int(r["sum_q"]), int(r["sumsq_q"])
        b = n * ss - s * s
        thresh[r[group_col]] = (n, s, math.isqrt(n_sigma * n_sigma * b))
    ref = ray.put(thresh)

    def flag(batch: pa.Table) -> pa.Table:
        th = ray.get(ref)
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        vq = np.floor(v.astype(np.float64) * scale + 0.5).astype(np.int64)
        groups = batch.column(group_col).to_pylist()
        n_arr = np.fromiter((th[g][0] for g in groups), np.int64, len(groups))
        s_arr = np.fromiter((th[g][1] for g in groups), np.int64, len(groups))
        t_arr = np.fromiter((th[g][2] for g in groups), np.int64, len(groups))
        d = n_arr * vq - s_arr
        keep = np.abs(d) > t_arr
        out = batch.filter(pa.array(keep))
        return pa.table(
            {
                id_col: out.column(id_col),
                group_col: out.column(group_col),
                "dev_pos": pa.array(np.sign(d[keep]), pa.int64()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


def global_sorted(ds, sort_keys: list[tuple[str, str]]):
    """TOTAL order over the whole Dataset — Ray Data's range-partitioned
    distributed sort (`Dataset.sort`), the genuinely wide all-to-all
    path. Use when the CONSUMER needs the full sorted stream (sorted
    sink, merge join input, percentile file layout); for "ORDER BY …
    LIMIT k" use global_topk instead, which never shuffles the corpus.
    Returns the sorted Dataset (stream it; don't collect big results)."""
    cols = [c for c, _ in sort_keys]
    desc = [d == "descending" for _, d in sort_keys]
    return ds.sort(cols, descending=desc)
