"""Direct coverage of the sharded seen-set client and the crawl's
worker-side admission routine."""

import numpy as np
import pyarrow as pa
import ray

from spider_ray.state.seen import ShardedSeen


def _cand(hashes, depths=None):
    return pa.table(
        {
            "url_hash": pa.array(hashes, pa.uint64()),
            "depth": pa.array(depths or [1] * len(hashes), pa.int32()),
        }
    )


def test_sharded_seen_client(ray_session):
    seen = ShardedSeen.create(n_shards=4, capacity_per_shard=4096, exact=True)
    keys = np.array([10, 11, 12, 10, 13], dtype=np.uint64)
    first = seen.check_and_add(keys)
    assert first.tolist() == [True, True, True, False, True]
    assert seen.probe(np.array([10, 99], dtype=np.uint64)).tolist() == [True, False]
    # probe() is non-mutating: 99 was not added
    assert seen.stats() == {"n_items": 4}
    # snapshot / restore round-trip
    snap = seen.snapshot_table()
    seen2 = ShardedSeen.create(n_shards=4, capacity_per_shard=4096, exact=True)
    seen2.restore_table(snap)
    assert not seen2.check_and_add(np.array([10, 11], dtype=np.uint64)).any()


def test_chunk_admission_with_bloom(ray_session):
    """First occurrence wins within a chunk, the worker's bloom skips the
    RPC for keys it already probed, depth filtering runs before any
    probe, and the chunk counts exactly the keys it sent."""
    from spider_ray.pipelines.crawl import _chunk_dedup
    from spider_ray.state.bloom import BloomFilter

    seen = ShardedSeen.create(n_shards=2, capacity_per_shard=4096, exact=True)
    bloom = BloomFilter(4096, 0.001)
    out1, sent1 = _chunk_dedup(_cand([1, 2, 3, 2]), seen, bloom, None)
    assert sorted(out1.column("url_hash").to_pylist()) == [1, 2, 3]
    assert sent1 == 4  # the in-chunk duplicate is sent, and is a hit
    out2, sent2 = _chunk_dedup(_cand([2, 3, 4]), seen, bloom, None)
    assert out2.column("url_hash").to_pylist() == [4]
    assert sent2 == 1  # 2 and 3 never probed
    empty, sent = _chunk_dedup(_cand([]), seen, bloom, None)
    assert empty.num_rows == 0 and sent == 0
    deep, sent = _chunk_dedup(_cand([5, 6], depths=[3, 2]), seen, None, 2)
    assert deep.column("url_hash").to_pylist() == [6]
    assert sent == 1  # the depth-filtered key is not sent
    assert not seen.probe(np.array([5], dtype=np.uint64)).any()


def test_pool_hosted_shards_admit_each_key_once(ray_session, tmp_path):
    """Two fetch workers host four shards between them and admit
    overlapping key batches at the same time, each through its own
    shards in-process and its peer's over RPC, so a worker's chunk thread
    and its ``"seen"`` thread admit into the same shards at once (with a
    short thread switch interval): every key is admitted exactly once
    overall, and the driver's stats ask each host once."""
    from spider_ray.pipelines.crawl import CrawlConfig, FetchWorker, _worker_args

    config = CrawlConfig(out_dir=str(tmp_path), seeds=[], n_seen_shards=4,
                         seen_capacity_per_shard=1 << 12)
    pool = [FetchWorker.options(num_cpus=0.5).remote(*_worker_args(config, w, 2, None))
            for w in range(2)]
    seen = ShardedSeen([pool[s % 2] for s in range(4)])
    assert len(seen.hosts) == 2
    for worker in pool:
        worker.attach.remote(seen)
    rng = np.random.default_rng(5)
    universe = rng.integers(0, 2**63, 20_000, dtype=np.uint64)
    batches = [[rng.choice(universe, 1_000) for _ in range(100)] for _ in pool]

    def admit_all(worker, batches):
        import sys

        sys.setswitchinterval(1e-6)  # the worker is killed after the test
        return [worker.seen.check_and_add(keys) for keys in batches]

    try:
        local = ray.get([w.__ray_call__.remote(lambda self: (self.seen._owner == -1).tolist())
                         for w in pool], timeout=60)
        assert local == [[True, False, True, False], [False, True, False, True]]
        masks = ray.get([w.__ray_call__.remote(admit_all, b) for w, b in zip(pool, batches)],
                        timeout=120)
        stats = seen.stats()
    finally:
        for worker in pool:
            ray.kill(worker, no_restart=True)
    admitted = np.concatenate([
        keys[mask] for per_worker, sent in zip(masks, batches)
        for keys, mask in zip(sent, per_worker)
    ])
    sent = np.concatenate([keys for per_worker in batches for keys in per_worker])
    assert len(admitted) == len(set(admitted.tolist())) == len(set(sent.tolist()))
    assert stats == {"n_items": len(admitted)}
