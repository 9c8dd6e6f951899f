"""Sharded URL-seen set: hash partitions, each holding one membership structure.

This is the engine's central dedup structure (north rule: "sharded
cuckoo-filter URL-seen set (with bloom pre-filter) keyed by
canonicalized-URL hash"). The generalization path from the reference is the
page-scope `Set<string>` dedup (src/shared/links.ts:20-35) → a global,
sharded membership set.

Design (SURVEY.md §4):
- ``n_shards`` hash partitions, shard = ``url_hash % n_shards``; each
  holds membership only: a CuckooFilter or, in conformance mode, an exact
  uint64 set alone (the "exact-dedup oracle path for tests" — cuckoo FPs
  would otherwise be able to drop a URL wrongly at small probability).
  The bloom pre-filter lives in the fetch workers, not here.
- Where the shards live: a ``SeenHost`` holds the shards one process owns.
  The crawl hosts its shards in its fetch workers (worker ``w`` of
  ``slots`` owns the shards ``s ≡ w (mod slots)``), so it starts no
  process for them and a chunk admits its own worker's keys in-process —
  the partitioned-state layout of "Distributed Streaming Set Similarity
  Join" (ICDE 2020), where each partition's state sits with the worker
  that probes it. Standalone ``SeenShardActor``s, one shard each, serve
  ``ShardedSeen.create`` (``pipelines/dedup.py``). One client
  (``ShardedSeen``) routes both.
- Probes are *batched RPCs*, not a Dataset shuffle: a fetch/dedup stage
  splits a batch's hashes by host with one vectorized pass and issues the
  host calls concurrently. At 10^10 URLs this costs O(batch) network
  messages per batch instead of an all-to-all exchange per wave.
- ``check_and_add`` is atomic per shard (a host serializes its calls
  under one lock), giving exactly-once admission to the frontier.
- Counting: the shards count nothing. The crawl's dedup checks are the
  keys each chunk sends to the shards, and its hits are those checks
  less the keys admitted; the driver sums them and records the totals in
  the checkpoint manifest.
- Checkpoint: the seen set is derived state, never snapshotted by the
  crawl. Every admitted key is already on disk in a checkpoint (fetched →
  ``order``, not yet fetched → ``frontier``, robots-filtered →
  ``dropped``), so a resume bulk-``load``s those url_hashes into fresh
  shards. ``load`` is replay-idempotent (re-adding a present key is a
  no-op). ``snapshot()``/``restore()`` (a shard's membership structure,
  as schemas.SEEN_SCHEMA rows) remain as library code for standalone
  shard actors.
"""

from __future__ import annotations

import struct
import threading

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


class SeenHost:
    """The seen shards one process owns: ``{shard: SeenShardState}`` for
    ``shards`` of the set's ``n_shards`` hash partitions. Each method takes
    keys of its own shards only (``key % n_shards``), splits them by shard
    and runs under ``lock``, so the thread that runs a host's chunks and
    the thread that serves its peers may admit at the same time.
    ``keys`` (optional) are loaded at once: a shard born with its part of
    the seed set."""

    def __init__(self, shards, n_shards: int, capacity: int, exact: bool, keys=None):
        self.n_shards = n_shards
        self.states = {int(s): SeenShardState(capacity, exact) for s in shards}
        self.lock = threading.Lock()
        if keys is not None:
            self.load(keys)

    def _each(self, method: str, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(keys), dtype=bool)
        shard_ids = keys % np.uint64(self.n_shards)
        with self.lock:
            for s, state in self.states.items():
                mine = shard_ids == s
                if mine.any():
                    out[mine] = getattr(state, method)(keys[mine])
        return out

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        return self._each("check_and_add", keys)

    def probe(self, keys: np.ndarray) -> np.ndarray:
        return self._each("probe", keys)

    def load(self, keys: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.uint64)
        shard_ids = keys % np.uint64(self.n_shards)
        with self.lock:
            for s, state in self.states.items():
                state.load(keys[shard_ids == s])

    def stats(self) -> dict:
        with self.lock:
            return {"n_items": sum(st.stats()["n_items"] for st in self.states.values())}


@ray.remote(num_cpus=SHARD_NUM_CPUS)
class SeenShardActor(SeenHost):
    """A standalone one-shard host: ``ShardedSeen`` routes it the keys of
    its shard only, so it keeps them in one partition of one. Only a
    standalone shard snapshots and restores its membership structure
    (``ShardedSeen.snapshot_table``/``restore_table``)."""

    def __init__(self, capacity: int, exact: bool):
        super().__init__([0], 1, capacity, exact)

    def snapshot(self) -> bytes:
        with self.lock:
            return self.states[0].snapshot()

    def restore(self, data: bytes) -> None:
        with self.lock:
            self.states[0] = SeenShardState.from_snapshot(data)


class ShardedSeen:
    """Client of the set: ``shards[s]`` is the handle of the host that owns
    shard ``s`` (a standalone ``SeenShardActor``, or a crawl's fetch worker,
    which hosts several). A host's calls carry the keys of all its shards
    at once.

    ``local`` is the ``SeenHost`` of the actor this client lives in
    (``local_id``): it serves the shards whose handle is that actor, so
    their keys never leave the process. The client pickles without it
    (only the handles travel), so a fetch/dedup stage can keep one in its
    actor and batch-probe from inside ``map_batches``.
    """

    def __init__(self, shards: list, local: SeenHost | None = None, local_id: str | None = None):
        self.shards = shards
        self.n_shards = len(shards)
        self.local = local
        # shard -> index into self.hosts, or -1 for the local host's shards
        hosts: dict = {}
        owner = []
        for handle in shards:
            actor_id = handle._actor_id.hex()
            if local is not None and actor_id == local_id:
                owner.append(-1)
            else:
                owner.append(hosts.setdefault(actor_id, (len(hosts), handle))[0])
        self.hosts = [handle for _, handle in hosts.values()]
        self._owner = np.array(owner, dtype=np.int64)

    def __reduce__(self):
        return (ShardedSeen, (self.shards,))

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
        """Each key's host (-1: local) and the keys of each remote host."""
        keys = np.asarray(keys, dtype=np.uint64)
        host_ids = self._owner[(keys % np.uint64(self.n_shards)).astype(np.int64)]
        return host_ids, [keys[host_ids == h] for h in range(len(self.hosts))]

    def _scatter(self, method: str, keys: np.ndarray) -> np.ndarray:
        """Call ``method`` on each host with the keys its shards own: one
        RPC per remote host, all at once, then the local host directly
        while they run; gather the masks back into input order."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(keys), dtype=bool)
        if len(keys) == 0:
            return out
        host_ids, parts = self._split(keys)
        owners = [h for h, part in enumerate(parts) if len(part)]
        refs = [getattr(self.hosts[h], method).remote(parts[h]) for h in owners]
        mine = host_ids == -1
        if mine.any():
            out[mine] = getattr(self.local, method)(keys[mine])
        for h, mask in zip(owners, ray.get(refs)):
            out[host_ids == h] = mask
        return out

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        """Batched, sharded probe-and-insert; preserves input order."""
        return self._scatter("check_and_add", keys)

    def probe(self, keys: np.ndarray) -> np.ndarray:
        return self._scatter("probe", keys)

    def load(self, batches) -> None:
        """Bulk-load key batches into the shards; no mask comes back.
        Every remote call is submitted asynchronously (one per host per
        batch, FIFO per host) and awaited once at the end, so the caller
        holds one batch at a time."""
        refs = []
        for keys in batches:
            keys = np.asarray(keys, dtype=np.uint64)
            host_ids, parts = self._split(keys)
            refs += [h.load.remote(part) for h, part in zip(self.hosts, parts) if len(part)]
            if self.local is not None:
                self.local.load(keys[host_ids == -1])
        ray.get(refs)

    def snapshot_table(self):
        """Seen-set checkpoint as an Arrow table (schemas.SEEN_SCHEMA).
        Standalone shards only (``create``): a crawl's pool-hosted shards
        are rebuilt from its checkpoint tables instead (``load``)."""
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
        """Totals over the shards: each host is asked once, however many
        shards it owns."""
        per = ray.get([h.stats.remote() for h in self.hosts])
        if self.local is not None:
            per.append(self.local.stats())
        return {"n_items": sum(p["n_items"] for p in per)}
