"""Sharded URL-seen set: named actors, each holding one membership structure.

This is the engine's central dedup structure (north rule: "sharded
cuckoo-filter URL-seen set (with bloom pre-filter) keyed by
canonicalized-URL hash"). The generalization path from the reference is the
page-scope `Set<string>` dedup (src/shared/links.ts:20-35) → a global,
sharded membership set.

Design (SURVEY.md §4):
- ``n_shards`` actors, shard = ``url_hash % n_shards``; each actor holds
  membership only: a CuckooFilter or, in conformance mode, an exact
  uint64 set alone (the "exact-dedup oracle path for tests" — cuckoo FPs
  would otherwise be able to drop a URL wrongly at small probability).
  The bloom pre-filter lives in the fetch workers, not here.
- Probes are *batched RPCs*, not a Dataset shuffle: a fetch/dedup stage
  splits a batch's hashes by shard with one vectorized pass and issues the
  shard calls concurrently. At 10^10 URLs this costs O(batch) network
  messages per batch instead of an all-to-all exchange per wave.
- ``check_and_add`` is atomic per shard (actor serializes calls), giving
  exactly-once admission to the frontier.
- Counting: the shards count nothing. The crawl's dedup checks are the
  keys each chunk sends to the shards, and its hits are those checks
  less the keys admitted; the driver sums them and records the totals in
  the checkpoint manifest.
- Checkpoint: the seen set is derived state, never snapshotted by the
  crawl. Every admitted key is already on disk in a checkpoint (fetched →
  ``order``, not yet fetched → ``frontier``, robots-filtered →
  ``dropped``), so a resume bulk-``load``s those url_hashes into fresh
  shards. ``load`` is replay-idempotent (re-adding a present key is a
  no-op). ``snapshot()``/``restore()`` (the shard's membership structure,
  as schemas.SEEN_SCHEMA rows) remain as library code.
"""

from __future__ import annotations

import struct

import numpy as np
import ray

from .cuckoo import CuckooFilter


class SeenShardState:
    """Plain (actor-free) shard state — unit-testable without Ray. It holds
    one membership structure: ``exact_set`` in exact mode, else
    ``cuckoo``; the other is None."""

    def __init__(self, capacity: int, exact: bool):
        self.exact_set: set[int] | None = set() if exact else None
        self.cuckoo = None if exact else CuckooFilter(capacity)

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        """Return mask of keys that were UNSEEN; mark all of them seen."""
        return self._admit(np.asarray(keys, dtype=np.uint64))

    def load(self, keys: np.ndarray) -> None:
        """Mark ``keys`` seen (the resume rebuild). Exact mode rebuilds the
        same exact set. In cuckoo-only mode no two admitted keys share a
        (fingerprint, bucket pair) — the later one would have been a false
        positive of the earlier — so loading them in any order stores the
        same entries and ``n_items``, unless a shard overflowed its
        capacity. It goes through ``_admit``, not ``check_and_add``, so a
        per-call probe count (perfbench's ``seen.shard`` span) leaves the
        rebuild out."""
        self._admit(np.asarray(keys, dtype=np.uint64))

    def _admit(self, keys: np.ndarray) -> np.ndarray:
        # first-occurrence mask so duplicates *within* a batch dedup too
        _, first_idx = np.unique(keys, return_index=True)
        unseen = np.zeros(len(keys), dtype=bool)
        unseen[first_idx] = True
        unseen &= ~self.probe(keys)
        if self.exact_set is not None:
            self.exact_set.update(keys[unseen].tolist())
        else:
            self.cuckoo.add_many(keys[unseen])
        return unseen

    def probe(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if self.exact_set is not None:
            members = self.exact_set
            return np.fromiter(
                (k in members for k in keys.tolist()), dtype=bool, count=len(keys)
            )
        return self.cuckoo.contains_many(keys)

    # fixed binary snapshot format (no pickle — a checkpoint read from a
    # tampered/untrusted out_dir must not be able to execute code):
    # magic "SRSN2" | exact_flag:u8 | payload_len:u64 | payload, the payload
    # being the raw uint64 exact keys (flag 1) or the cuckoo bytes (flag 0)
    _SNAP_MAGIC = b"SRSN2"

    def snapshot(self) -> bytes:
        exact = self.exact_set is not None
        payload = (
            np.fromiter(self.exact_set, dtype=np.uint64, count=len(self.exact_set)).tobytes()
            if exact else self.cuckoo.to_bytes()
        )
        return self._SNAP_MAGIC + struct.pack("<BQ", exact, len(payload)) + payload

    @classmethod
    def from_snapshot(cls, data: bytes) -> "SeenShardState":
        magic = cls._SNAP_MAGIC
        if data[: len(magic)] != magic:
            raise ValueError("bad seen-shard snapshot header")
        exact, n = struct.unpack_from("<BQ", data, len(magic))
        off = len(magic) + struct.calcsize("<BQ")
        payload = data[off : off + n]
        obj = cls.__new__(cls)
        obj.exact_set = (
            set(np.frombuffer(payload, dtype=np.uint64).tolist()) if exact else None
        )
        obj.cuckoo = None if exact else CuckooFilter.from_bytes(payload)
        return obj

    def stats(self) -> dict:
        return {
            "n_items": (
                len(self.exact_set) if self.exact_set is not None else self.cuckoo.n_items
            ),
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

    def _scatter(self, method: str, keys: np.ndarray) -> np.ndarray:
        """Call ``method`` on each shard with the keys it owns, all shards
        at once, and gather their masks back into input order."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(keys), dtype=bool)
        if len(keys) == 0:
            return out
        shard_ids, parts = self._split(keys)
        owners = [s for s in range(self.n_shards) if len(parts[s])]
        masks = ray.get(
            [getattr(self.shards[s], method).remote(parts[s]) for s in owners]
        )
        for s, mask in zip(owners, masks):
            out[shard_ids == s] = mask
        return out

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        """Batched, sharded probe-and-insert; preserves input order."""
        return self._scatter("check_and_add", keys)

    def probe(self, keys: np.ndarray) -> np.ndarray:
        return self._scatter("probe", keys)

    def load(self, batches) -> None:
        """Bulk-load key batches into the shards; no mask comes back.
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
        return {"n_items": sum(p["n_items"] for p in per)}
