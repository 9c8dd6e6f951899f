"""Sharded URL-seen set: named actors holding bloom + cuckoo (+ exact) state.

This is the engine's central dedup structure (north rule: "sharded
cuckoo-filter URL-seen set (with bloom pre-filter) keyed by
canonicalized-URL hash"). The generalization path from the reference is the
page-scope `Set<string>` dedup (src/shared/links.ts:20-35) → a global,
sharded membership set.

Design (SURVEY.md §4):
- ``n_shards`` actors, shard = ``url_hash % n_shards``; each actor holds an
  authoritative CuckooFilter and, in conformance mode, an exact uint64 set
  (the "exact-dedup oracle path for tests" — cuckoo FPs would otherwise be
  able to drop a URL wrongly at small probability).
- Probes are *batched RPCs*, not a Dataset shuffle: a fetch/dedup stage
  splits a batch's hashes by shard with one vectorized pass and issues the
  shard calls concurrently. At 10^10 URLs this costs O(batch) network
  messages per batch instead of an all-to-all exchange per wave.
- ``check_and_add`` is atomic per shard (actor serializes calls), giving
  exactly-once admission to the frontier.
- Checkpoint: ``snapshot()`` serializes filter bytes per shard → the seen
  table (schemas.SEEN_SCHEMA); ``restore()`` reloads — replay-idempotent
  because re-adding an already-present key is a no-op in both structures.
"""

from __future__ import annotations

import numpy as np
import ray

from .bloom import BloomFilter
from .cuckoo import CuckooFilter


class SeenShardState:
    """Plain (actor-free) shard state — unit-testable without Ray."""

    def __init__(self, capacity: int, exact: bool):
        self.cuckoo = CuckooFilter(capacity)
        self.exact_set: set[int] | None = set() if exact else None
        self.dedup_checks = 0
        self.dedup_hits = 0

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        """Return mask of keys that were UNSEEN; mark all of them seen."""
        keys = np.asarray(keys, dtype=np.uint64)
        self.dedup_checks += len(keys)
        # first-occurrence mask so duplicates *within* a batch dedup too
        _, first_idx = np.unique(keys, return_index=True)
        first = np.zeros(len(keys), dtype=bool)
        first[first_idx] = True
        if self.exact_set is not None:
            unseen = first & np.fromiter(
                (int(k) not in self.exact_set for k in keys),
                dtype=bool,
                count=len(keys),
            )
            self.exact_set.update(int(k) for k in keys[unseen])
        else:
            unseen = first & ~self.cuckoo.contains_many(keys)
        self.cuckoo.add_many(keys[unseen])
        self.dedup_hits += int((~unseen).sum())
        return unseen

    def probe(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if self.exact_set is not None:
            return np.fromiter(
                (int(k) in self.exact_set for k in keys), dtype=bool, count=len(keys)
            )
        return self.cuckoo.contains_many(keys)

    # fixed binary snapshot format (no pickle — a checkpoint read from a
    # tampered/untrusted out_dir must not be able to execute code):
    # magic "SRSN1" | checks:u64 | hits:u64 | cuckoo_len:u64 | cuckoo bytes
    # | exact_flag:u8 | [exact_len:u64 | raw uint64 key array]
    _SNAP_MAGIC = b"SRSN1"

    def snapshot(self) -> bytes:
        import struct

        cuckoo = self.cuckoo.to_bytes()
        parts = [
            self._SNAP_MAGIC,
            struct.pack("<QQQ", self.dedup_checks, self.dedup_hits, len(cuckoo)),
            cuckoo,
        ]
        if self.exact_set is not None:
            raw = np.fromiter(
                self.exact_set, dtype=np.uint64, count=len(self.exact_set)
            ).tobytes()
            parts.append(struct.pack("<BQ", 1, len(raw)))
            parts.append(raw)
        else:
            parts.append(struct.pack("<B", 0))
        return b"".join(parts)

    @classmethod
    def from_snapshot(cls, data: bytes) -> "SeenShardState":
        import struct

        if data[:5] != cls._SNAP_MAGIC:
            raise ValueError("bad seen-shard snapshot header")
        off = 5
        checks, hits, clen = struct.unpack_from("<QQQ", data, off)
        off += 24
        cuckoo_bytes = data[off : off + clen]
        off += clen
        (flag,) = struct.unpack_from("<B", data, off)
        off += 1
        obj = cls.__new__(cls)
        obj.cuckoo = CuckooFilter.from_bytes(cuckoo_bytes)
        if flag:
            (elen,) = struct.unpack_from("<Q", data, off)
            off += 8
            obj.exact_set = set(
                np.frombuffer(data[off : off + elen], dtype=np.uint64).tolist()
            )
        else:
            obj.exact_set = None
        obj.dedup_checks = checks
        obj.dedup_hits = hits
        return obj

    def stats(self) -> dict:
        return {
            "n_items": self.cuckoo.n_items,
            "dedup_checks": self.dedup_checks,
            "dedup_hits": self.dedup_hits,
        }


# probe work is light and bursty: many shards co-schedule per core without
# starving fetch actors
SHARD_NUM_CPUS = 0.1


@ray.remote(num_cpus=SHARD_NUM_CPUS)
class SeenShardActor:
    """One shard of the URL-seen set."""

    def __init__(self, capacity: int, exact: bool):
        self.state = SeenShardState(capacity, exact)

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        return self.state.check_and_add(keys)

    def probe(self, keys: np.ndarray) -> np.ndarray:
        return self.state.probe(keys)

    def add(self, keys: np.ndarray) -> None:
        self.state.check_and_add(keys)

    def snapshot(self) -> bytes:
        return self.state.snapshot()

    def restore(self, data: bytes) -> None:
        self.state = SeenShardState.from_snapshot(data)

    def stats(self) -> dict:
        return self.state.stats()


class ShardedSeen:
    """Driver/stage-side client for the shard actors.

    Serializable: holds only actor handles, so a fetch/dedup stage can keep
    one in actor ``__init__`` and batch-probe from inside ``map_batches``.
    """

    def __init__(self, shards: list):
        self.shards = shards
        self.n_shards = len(shards)

    @classmethod
    def create(
        cls,
        n_shards: int = 8,
        capacity_per_shard: int = 1 << 20,
        exact: bool = False,
        name_prefix: str | None = None,
    ) -> "ShardedSeen":
        shards = []
        for i in range(n_shards):
            opts = {}
            if name_prefix:
                # named + detached-from-driver-scope so crawl waves across
                # driver iterations reuse the same state
                opts = {"name": f"{name_prefix}-seen-{i}", "get_if_exists": True}
            shards.append(
                SeenShardActor.options(**opts).remote(capacity_per_shard, exact)
            )
        return cls(shards)

    def _split(self, keys: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        keys = np.asarray(keys, dtype=np.uint64)
        shard_ids = (keys % np.uint64(self.n_shards)).astype(np.int64)
        return shard_ids, [keys[shard_ids == s] for s in range(self.n_shards)]

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        """Batched, sharded probe-and-insert; preserves input order."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        shard_ids, parts = self._split(keys)
        refs = {
            s: self.shards[s].check_and_add.remote(parts[s])
            for s in range(self.n_shards)
            if len(parts[s])
        }
        results = {s: ray.get(r) for s, r in refs.items()}
        out = np.zeros(len(keys), dtype=bool)
        for s, mask in results.items():
            out[shard_ids == s] = mask
        return out

    def probe(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        shard_ids, parts = self._split(keys)
        refs = {
            s: self.shards[s].probe.remote(parts[s])
            for s in range(self.n_shards)
            if len(parts[s])
        }
        results = {s: ray.get(r) for s, r in refs.items()}
        out = np.zeros(len(keys), dtype=bool)
        for s, mask in results.items():
            out[shard_ids == s] = mask
        return out

    def add(self, keys: np.ndarray) -> None:
        """Batched, sharded insert without membership report (bulk load)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return
        _, parts = self._split(keys)
        ray.get(
            [
                self.shards[s].add.remote(parts[s])
                for s in range(self.n_shards)
                if len(parts[s])
            ]
        )

    def snapshot_table(self):
        """Seen-set checkpoint as an Arrow table (schemas.SEEN_SCHEMA)."""
        import pyarrow as pa

        blobs = ray.get([s.snapshot.remote() for s in self.shards])
        stats = ray.get([s.stats.remote() for s in self.shards])
        return pa.table(
            {
                "shard_id": pa.array(range(self.n_shards), pa.int32()),
                "filter_bytes": pa.array(blobs, pa.large_binary()),
                "n_items": pa.array(
                    [st["n_items"] for st in stats], pa.int64()
                ),
            }
        )

    def restore_table(self, table) -> None:
        ids = table.column("shard_id").to_pylist()
        blobs = table.column("filter_bytes").to_pylist()
        ray.get(
            [self.shards[i].restore.remote(b) for i, b in zip(ids, blobs)]
        )

    def stats(self) -> dict:
        per = ray.get([s.stats.remote() for s in self.shards])
        return {
            "n_items": sum(p["n_items"] for p in per),
            "dedup_checks": sum(p["dedup_checks"] for p in per),
            "dedup_hits": sum(p["dedup_hits"] for p in per),
        }
