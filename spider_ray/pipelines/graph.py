"""Link-graph operators over (src, dst) edge Datasets.

The crawl produces a web graph (pages → outlinks, pipelines/crawl.py
lineage); these operators consume it as a first-class Dataset. All shapes
are iterative-shuffle: ranks live as a Dataset keyed by node, each
iteration is one bucketed hash join (edges ⋈ ranks on src — a single
exchange, relational.bucketed_hash_join) plus one groupby-sum on dst.
Nothing ever materializes the graph on the driver; at 256 nodes / 10^10
edges each iteration streams edge blocks against the hash-partitioned
rank table, which is the standard distributed-PageRank layout.

Per-iteration ``materialize()`` keeps the lineage one-iteration deep
(the distributed analogue of checkpointing ranks between supersteps);
without it the lazy plan re-executes all prior iterations per consumer.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .relational import bucketed_hash_join


def dedup_edges(edges_ds):
    """Distinct (src, dst) pairs — groupby-count then drop the count (one
    hash exchange; no driver materialization)."""
    agg = edges_ds.groupby(["src", "dst"]).count()
    return agg.map_batches(
        lambda t: t.select(["src", "dst"]), batch_format="pyarrow"
    )


def out_degrees(edges_ds):
    """(src, deg) — out-degree per source node."""
    agg = edges_ds.groupby("src").count()
    return agg.map_batches(
        lambda t: t.rename_columns(["src", "deg"]), batch_format="pyarrow"
    )


def _uf_contract(batch: pa.Table) -> pa.Table:
    """Contract one edge partition with union-find (union-by-min + path
    compression): emit one (src=node, dst=partition-local component min)
    row per distinct node. The output is itself an edge set with the same
    connected components as the input — the invariant the filtering
    algorithm relies on — and its size is bounded by the number of
    distinct nodes in the partition, so every round strictly shrinks the
    problem toward O(V)."""
    src = batch.column("src").to_pylist()
    dst = batch.column("dst").to_pylist()
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(src, dst):
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    nodes = sorted(set(src) | set(dst))
    return pa.table(
        {
            "src": pa.array(nodes, pa.int64()),
            "dst": pa.array([find(x) for x in nodes], pa.int64()),
        }
    )


def connected_components(edges_ds, nodes_ds, contraction: int = 4):
    """Connected components by iterated per-partition union-find
    contraction (the MapReduce "filtering" algorithm, Kiveris et al.,
    *Connected Components in MapReduce and Beyond*): each round runs
    union-find inside every edge partition (``_uf_contract`` — a single
    ``map_batches``, no join, no groupby) emitting one (node → local min)
    row per distinct node, then repartitions ``contraction``× fewer
    partitions and repeats until one partition remains. Each output row
    set provably has the same components as its input (every input edge
    (a,b) is replaced by the path a→root←b), so the final single-partition
    contraction yields the exact global min label per node.

    Cost: round 1 touches all edges (O(E) spread over all partitions);
    every later round is O(V) rows total, log_contraction(B) rounds —
    two-ish passes in practice, vs diameter-many join+groupby supersteps
    for hash-min label propagation. Edges need not be symmetric or
    deduplicated (union-find is orientation- and multiplicity-blind).
    The last round holds one (node, min) row per node in a single task —
    fine to ~10^8 nodes per worker; beyond that, stop halving at the
    memory bound and switch to hash-min propagation for the (rare)
    still-split components. Output: (node, component = min node id)."""
    self_rows = nodes_ds.map_batches(
        lambda t: pa.table({"src": t.column("node"), "dst": t.column("node")}),
        batch_format="pyarrow",
    )
    forest = (
        edges_ds.union(self_rows)
        .map_batches(_uf_contract, batch_format="pyarrow")
        .materialize()
    )
    nb = forest.num_blocks()
    while nb > 1:
        nb = max(1, nb // contraction)
        forest = (
            forest.repartition(nb)
            .map_batches(_uf_contract, batch_format="pyarrow")
            .materialize()
        )
    return forest.map_batches(
        lambda t: pa.table(
            {"node": t.column("src"), "component": t.column("dst")}
        ),
        batch_format="pyarrow",
    )


def pagerank(
    edges_ds,
    nodes_ds,
    n_nodes: int,
    n_iter: int = 5,
    damping: float = 0.85,
    n_buckets: int = 32,
):
    """Fixed-iteration PageRank: rank' = (1-d)/n + d·Σ_in rank/deg.

    ``edges_ds``: distinct (src:int64, dst:int64); ``nodes_ds``: (node)
    one row per node (teleport base — nodes with no in-links still get
    (1-d)/n). Dangling mass (nodes with no out-links) is dropped, the
    plain power-iteration formulation the SQL oracle mirrors.

    Ranks are carried as INTEGER fixed-point on the 2^-40 grid
    (``rank_q = floor(rank · 2^40 + 0.5)``): every per-edge contribution
    is quantized BEFORE the groupby-sum, so the distributed float
    summation is replaced by associative integer addition — bit-identical
    at any parallelism and exactly mirrorable in SQL (the same trick as
    embedding_centroids/kmeans; ADVICE r2: relying on 1e-9 rounding slack
    to absorb float non-associativity can flip a value-hash near a .5
    boundary). Returns a Dataset (node, rank_q:int64); callers convert
    with rank = rank_q / 2^40."""
    deg = out_degrees(edges_ds)
    edges_deg = bucketed_hash_join(
        edges_ds, deg, on="src", left_cols=["dst"], right_cols=["deg"],
        n_buckets=n_buckets,
    ).materialize()

    # fixed-point grid: 2^40 is exact in float64, keeps every quantity
    # (ranks sum to ~2^40 ≈ 1.1e12) far below 2^53 float-exactness
    SCALE = float(1 << 40)
    r0_q = int(np.floor(SCALE / n_nodes + 0.5))

    def init_ranks(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch.column("node"),
                "rank": pa.array(
                    np.full(batch.num_rows, r0_q, dtype=np.int64), pa.int64()
                ),
            }
        )

    ranks = nodes_ds.map_batches(init_ranks, batch_format="pyarrow").materialize()
    # teleport, quantized once: floor((1-d)·S / n + 0.5)
    teleport_q = int(np.floor((1.0 - damping) * SCALE / n_nodes + 0.5))

    def base_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch.column("node"),
                "part": pa.array(
                    np.full(batch.num_rows, teleport_q, dtype=np.int64),
                    pa.int64(),
                ),
            }
        )

    base = nodes_ds.map_batches(base_rows, batch_format="pyarrow").materialize()

    def contribs(batch: pa.Table) -> pa.Table:
        # per-edge quantized contribution: floor(d·rank_q/deg + 0.5) —
        # the float expression is evaluated ONCE per row (order-free), the
        # shuffle then sums exact integers
        rank = batch.column("rank").to_numpy(zero_copy_only=False).astype(np.float64)
        degv = batch.column("deg").to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "node": batch.column("dst"),
                "part": pa.array(
                    np.floor(damping * rank / degv + 0.5).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    for _ in range(n_iter):
        joined = bucketed_hash_join(
            edges_deg, ranks, on="src", left_cols=["dst", "deg"],
            right_cols=["rank"], n_buckets=n_buckets,
        )
        flow = joined.map_batches(contribs, batch_format="pyarrow")
        summed = flow.union(base).groupby("node").sum("part")
        ranks = summed.map_batches(
            lambda t: t.rename_columns(["src", "rank"]), batch_format="pyarrow"
        ).materialize()

    return ranks.map_batches(
        lambda t: t.rename_columns(["node", "rank_q"]), batch_format="pyarrow"
    )



def _canon_undirected(edges_ds):
    """Canonical undirected distinct edge set (a < b, self-loops dropped,
    node ids checked into [0, 2^32) so pair keys pack into one int64) —
    materialized (one small groupby). Shared scaffolding for
    triangle_count / global_clustering / degree_assortativity_sums."""

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(s) and (
            s.min() < 0 or d.min() < 0 or s.max() >= 1 << 32 or d.max() >= 1 << 32
        ):
            raise ValueError("graph statistics require node ids in [0, 2^32)")
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table(
            {
                "a": pa.array(np.minimum(s, d), pa.int64()),
                "b": pa.array(np.maximum(s, d), pa.int64()),
            }
        )

    return (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
        .map_batches(lambda t: t.select(["a", "b"]), batch_format="pyarrow")
        .materialize()
    )


def _undirected_degrees(und):
    """(node, deg) over a canonical undirected edge set (one groupby)."""

    def endpoints(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("a").combine_chunks().cast(pa.int64()),
                        batch.column("b").combine_chunks().cast(pa.int64()),
                    ]
                )
            }
        )

    return (
        und.map_batches(endpoints, batch_format="pyarrow")
        .groupby("node")
        .count()
        .map_batches(
            lambda t: t.rename_columns(["node", "deg"]), batch_format="pyarrow"
        )
    )


def _join_endpoint_degrees(und, deg, n_buckets: int):
    """Attach deg_a / deg_b to every undirected edge (two bucketed joins)."""
    deg_a = deg.map_batches(
        lambda t: t.rename_columns(["a", "deg_a"]), batch_format="pyarrow"
    )
    deg_b = deg.map_batches(
        lambda t: t.rename_columns(["b", "deg_b"]), batch_format="pyarrow"
    )
    j = bucketed_hash_join(
        und, deg_a, on="a", left_cols=["b"], right_cols=["deg_a"],
        n_buckets=n_buckets,
    )
    return bucketed_hash_join(
        j, deg_b, on="b", left_cols=["a", "deg_a"], right_cols=["deg_b"],
        n_buckets=n_buckets,
    )


def _triangles_from_und(und, deg, n_buckets: int) -> int:
    """Degree-ordered orientation -> wedge exchange -> semi-join closure
    over a prebuilt canonical edge set + degree table."""
    from .events import bucketed_by_key
    from .relational import semi_anti_join

    j = _join_endpoint_degrees(und, deg, n_buckets)

    def orient(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        da = batch.column("deg_a").to_numpy(zero_copy_only=False).astype(np.int64)
        db = batch.column("deg_b").to_numpy(zero_copy_only=False).astype(np.int64)
        a_first = (da < db) | ((da == db) & (a < b))
        u = np.where(a_first, a, b)
        v = np.where(a_first, b, a)
        dv = np.where(a_first, db, da)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "deg_v": pa.array(dv, pa.int64()),
            }
        )

    oriented = j.map_batches(orient, batch_format="pyarrow").materialize()

    def wedges(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.sort_values(["u", "deg_v", "v"], kind="mergesort")
        u = g["u"].to_numpy()
        v = g["v"].to_numpy()
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        ends = np.r_[starts[1:], len(u)]
        keys: list[np.ndarray] = []
        for s, e in zip(starts, ends):
            k = e - s
            if k < 2:
                continue
            iu, ju = np.triu_indices(k, 1)
            nb = v[s:e]
            # neighbor order == orientation order (deg, id), so the pair
            # (nb[iu], nb[ju]) matches the closing edge's (u, v) direction
            keys.append((nb[iu] << np.int64(32)) | nb[ju])
        pk = np.concatenate(keys) if keys else np.empty(0, np.int64)
        # arrow out: semi_anti_join's schema probe needs arrow blocks
        return pa.table({"pk": pa.array(pk, pa.int64())})

    wedge_ds = bucketed_by_key(oriented, "u", wedges, n_buckets=n_buckets)

    edge_keys = oriented.map_batches(
        lambda t: pa.table(
            {
                "pk": pa.array(
                    (
                        t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
                        << np.int64(32)
                    )
                    | t.column("v").to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                )
            }
        ),
        batch_format="pyarrow",
    )

    closed = semi_anti_join(wedge_ds, edge_keys, on="pk", global_dedupe=False)
    return closed.count()


def triangle_count(edges_ds, n_buckets: int = 64):
    """Exact triangle count via degree-ordered edge orientation
    ("compact-forward" / node-iterator with degree ordering).

    Shape: canonicalize to undirected distinct (a < b) edges (one small
    groupby), compute degrees (one groupby), orient every edge from its
    lower-(degree, id) endpoint to the higher (two bucketed hash joins to
    attach endpoint degrees), generate wedges per source node inside a
    bucketed exchange (out-degree under this orientation is O(sqrt(E)),
    the classic bound, so per-node pair expansion never blows up on hub
    nodes), and close wedges with a semi join against the oriented edge
    key set — broadcast when small, bucketed exchange otherwise
    (relational.semi_anti_join picks). Every triangle is counted exactly
    once at its lowest-(degree, id) vertex. Nothing is driver-resident.

    Partitioning assumption: node ids in [0, 2^32) so the closing-edge
    key packs into one int64 (checked per batch).
    Returns the scalar triangle count.
    """
    und = _canon_undirected(edges_ds)
    if und.count() < 3:  # < 3 undirected edges can't close a triangle;
        return 0  # also guards the empty-Dataset schema (None) join path
    return _triangles_from_und(und, _undirected_degrees(und), n_buckets)


def global_clustering(edges_ds, n_buckets: int = 64) -> tuple[int, int]:
    """(triangles, connected triples): the global clustering coefficient's
    exact integer numerator/denominator — 3·triangles / Σ_v C(deg v, 2).
    The canonical edge set and degree table are built ONCE and shared by
    the triangle pass and the triples aggregate; the caller does the
    single final division."""
    und = _canon_undirected(edges_ds)
    if und.count() < 1:
        return 0, 0
    deg = _undirected_degrees(und).materialize()
    tri = _triangles_from_und(und, deg, n_buckets) if und.count() >= 3 else 0

    def triples_partial(batch: pa.Table) -> pa.Table:
        d = batch.column("deg").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"t": pa.array([int((d * (d - 1) // 2).sum())], pa.int64())}
        )

    parts = deg.map_batches(triples_partial, batch_format="pyarrow").to_pandas()
    triples = int(parts["t"].sum()) if len(parts) else 0
    return tri, triples


def degree_assortativity_sums(edges_ds, n_buckets: int = 64) -> dict:
    """Exact integer sufficient statistics for the degree-assortativity
    coefficient (Newman): over every directed copy of each undirected
    edge, the Pearson terms of (deg(u), deg(v)) — M, Σx, Σy, Σxy, Σx²,
    Σy². Shapes: the shared canonical-edge + degree scaffolding, two
    bucketed joins to attach endpoint degrees, then per-block integer
    partials summed on the driver (O(blocks) scalars; Python ints — no
    overflow). Symmetric double-counting makes Σx == Σy by construction
    (a useful invariant check)."""
    zeros = {c: 0 for c in ("m", "sx", "sy", "sxy", "sxx", "syy")}
    und = _canon_undirected(edges_ds)
    if und.count() < 1:  # empty/self-loop-only input: all-zero sums
        return zeros
    deg = _undirected_degrees(und)
    j = _join_endpoint_degrees(und, deg, n_buckets)

    def partial(batch: pa.Table) -> pa.Table:
        da = batch.column("deg_a").to_numpy(zero_copy_only=False).astype(np.int64)
        db = batch.column("deg_b").to_numpy(zero_copy_only=False).astype(np.int64)
        # both directed copies of each undirected edge
        x = np.concatenate([da, db])
        y = np.concatenate([db, da])
        return pa.table(
            {
                "m": pa.array([len(x)], pa.int64()),
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sy": pa.array([int(y.sum())], pa.int64()),
                "sxy": pa.array([int((x * y).sum())], pa.int64()),
                "sxx": pa.array([int((x * x).sum())], pa.int64()),
                "syy": pa.array([int((y * y).sum())], pa.int64()),
            }
        )

    parts = j.map_batches(partial, batch_format="pyarrow").to_pandas()
    if not len(parts):
        return zeros
    return {c: int(parts[c].sum()) for c in ("m", "sx", "sy", "sxy", "sxx", "syy")}
