"""Sharded URL-seen set: named actors holding bloom + cuckoo (+ exact) state.

This is the engine's central dedup structure (north rule: "sharded
cuckoo-filter URL-seen set (with bloom pre-filter) keyed by
canonicalized-URL hash"). The generalization path from the reference is the
page-scope `Set<string>` dedup (src/shared/links.ts:20-35) → a global,
sharded membership set.

Design (SURVEY.md §4):
- ``n_shards`` actors, shard = ``url_hash % n_shards``; each actor's
  authoritative set is a CuckooFilter or, in conformance mode, an exact
  uint64 set alone (the "exact-dedup oracle path for tests" — cuckoo FPs
  would otherwise be able to drop a URL wrongly at small probability).
- Probes are *batched RPCs*, not a Dataset shuffle: a fetch/dedup stage
  splits a batch's hashes by shard with one vectorized pass and issues the
  shard calls concurrently. At 10^10 URLs this costs O(batch) network
  messages per batch instead of an all-to-all exchange per wave.
- ``check_and_add`` is atomic per shard (actor serializes calls), giving
  exactly-once admission to the frontier.
- Checkpoint: the seen set is derived state, never snapshotted by the
  crawl. Every admitted key is already on disk in a checkpoint (fetched →
  ``order``, not yet fetched → ``frontier``, robots-filtered →
  ``dropped``), so a resume bulk-``load``s those url_hashes into fresh
  shards. ``load`` is replay-idempotent (re-adding a present key is a
  no-op) and never counts. The crawl's ``dedup_checks``/``dedup_hits``
  are not read from the shards either: each chunk returns the per-shard
  counts of its own probes, and the driver sums them and records them in
  the checkpoint manifest.
  ``snapshot()``/``restore()`` (the filter bytes per shard, as
  schemas.SEEN_SCHEMA rows) remain as library code.
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
        unseen = self._admit(keys)
        self.dedup_checks += len(keys)
        self.dedup_hits += int((~unseen).sum())
        return unseen

    def load(self, keys: np.ndarray) -> None:
        """Mark ``keys`` seen without counting them as checks or hits (the
        resume rebuild). Exact mode rebuilds the same exact set. In
        cuckoo-only mode no two admitted keys share a (fingerprint, bucket
        pair) — the later one would have been a false positive of the
        earlier — so loading them in any order stores the same entries and
        ``n_items``, unless a shard overflowed its capacity."""
        self._admit(np.asarray(keys, dtype=np.uint64))

    def _admit(self, keys: np.ndarray) -> np.ndarray:
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
            "n_items": (
                len(self.exact_set) if self.exact_set is not None else self.cuckoo.n_items
            ),
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

    def load(self, keys: np.ndarray) -> None:
        self.state.load(keys)

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
    ) -> "ShardedSeen":
        return cls(
            [SeenShardActor.remote(capacity_per_shard, exact) for _ in range(n_shards)]
        )

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

    def load(self, batches) -> None:
        """Bulk-load key batches into the shards without counting them.
        Every call is submitted asynchronously (one per shard per batch,
        FIFO per shard) and awaited once at the end, so the driver holds
        one batch at a time."""
        refs = []
        for keys in batches:
            _, parts = self._split(keys)
            refs += [
                self.shards[s].load.remote(parts[s])
                for s in range(self.n_shards)
                if len(parts[s])
            ]
        ray.get(refs)

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
        """Totals over the shards."""
        per = ray.get([s.stats.remote() for s in self.shards])
        return {
            "n_items": sum(p["n_items"] for p in per),
            "dedup_checks": sum(p["dedup_checks"] for p in per),
            "dedup_hits": sum(p["dedup_hits"] for p in per),
        }
