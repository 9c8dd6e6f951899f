import numpy as np

from spider_ray.state.bloom import BloomFilter
from spider_ray.state.cuckoo import CuckooFilter
from spider_ray.state.politeness import HostBudgetState
from spider_ray.state.seen import SeenShardState


def test_bloom_no_false_negatives_and_low_fp():
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2**63, size=20_000, dtype=np.uint64)
    bf = BloomFilter(capacity=20_000, fp_rate=0.01)
    bf.add_many(keys)
    assert bf.contains_many(keys).all()  # no false negatives
    other = rng.integers(0, 2**63, size=20_000, dtype=np.uint64)
    fresh = other[~np.isin(other, keys)]
    fp = bf.contains_many(fresh).mean()
    assert fp < 0.05
    # serialization roundtrip
    bf2 = BloomFilter.from_bytes(bf.to_bytes())
    assert bf2.contains_many(keys).all()


def test_cuckoo_membership_and_roundtrip():
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 2**63, size=50_000, dtype=np.uint64)
    cf = CuckooFilter(capacity=100_000)
    assert cf.add_many(keys) == len(keys)
    assert cf.contains_many(keys).all()  # no false negatives
    other = rng.integers(0, 2**63, size=50_000, dtype=np.uint64)
    fresh = other[~np.isin(other, keys)]
    assert cf.contains_many(fresh).mean() < 0.01
    cf2 = CuckooFilter.from_bytes(cf.to_bytes())
    assert cf2.contains_many(keys).all()
    assert cf2.n_items == cf.n_items


def test_seen_shard_exact_mode_and_snapshot():
    st = SeenShardState(capacity=1024, exact=True)
    keys = np.array([1, 2, 3, 2, 1], dtype=np.uint64)
    unseen = st.check_and_add(keys)
    assert unseen.tolist() == [True, True, True, False, False]
    again = st.check_and_add(np.array([3, 4], dtype=np.uint64))
    assert again.tolist() == [False, True]
    assert st.stats()["dedup_hits"] == 3
    st2 = SeenShardState.from_snapshot(st.snapshot())
    assert st2.check_and_add(np.array([4, 5], dtype=np.uint64)).tolist() == [False, True]


def test_seen_shard_cuckoo_mode():
    st = SeenShardState(capacity=4096, exact=False)
    keys = np.arange(1000, dtype=np.uint64) * 7919 + 13
    assert st.check_and_add(keys).all()
    assert not st.check_and_add(keys).any()


def test_host_budget_tokens_deterministic():
    st = HostBudgetState(budget_per_wave=2)
    hosts = ["a", "a", "a", "b", "a", "b", "b"]
    got = st.acquire(hosts)
    assert got.tolist() == [True, True, False, True, False, True, False]
    st.begin_wave()
    assert st.acquire(["a"]).tolist() == [True]


def test_robots_parsing():
    st = HostBudgetState(budget_per_wave=10)
    st.set_robots("h.test", "User-agent: *\nDisallow: /private/\n")
    allowed = st.allowed("h.test", ["http://h.test/ok", "http://h.test/private/x"])
    assert allowed.tolist() == [True, False]
    st.set_robots("open.test", None)
    assert st.allowed("open.test", ["http://open.test/anything"]).tolist() == [True]


def test_robots_crawl_delay_scales_budget():
    """Crawl-delay: d → floor(wave_period_s / d) tokens per wave
    (>=1, capped by the global budget), per agent, deterministic."""
    st = HostBudgetState(budget_per_wave=10, wave_period_s=60.0)
    st.set_robots("slow.test", "User-agent: *\nCrawl-delay: 20\n")
    st.set_robots("fast.test", "User-agent: *\nCrawl-delay: 0.5\n")
    st.set_robots("plain.test", "User-agent: *\nDisallow:\n")
    assert st.budget_for("slow.test") == 3      # 60/20
    assert st.budget_for("fast.test") == 10     # 120, capped at global
    assert st.budget_for("plain.test") == 10    # no directive
    assert st.budget_for("unknown.test") == 10  # robots not fetched yet
    got = st.acquire(["slow.test"] * 5)
    assert got.tolist() == [True, True, True, False, False]
    st.begin_wave()  # budget refreshes per wave
    assert st.acquire(["slow.test"]).tolist() == [True]
    # a glacial delay still grants one token (progress guarantee)
    st.set_robots("glacial.test", "User-agent: *\nCrawl-delay: 100000\n")
    assert st.budget_for("glacial.test") == 1
    # re-fetching robots invalidates the cached budget
    st.set_robots("slow.test", "User-agent: *\nCrawl-delay: 6\n")
    assert st.budget_for("slow.test") == 10
    # agent-specific delay wins for the matching agent
    bot = HostBudgetState(budget_per_wave=10, wave_period_s=60.0, agent="spiderbot")
    bot.set_robots(
        "h.test",
        "User-agent: spiderbot\nCrawl-delay: 30\n\nUser-agent: *\nCrawl-delay: 1\n",
    )
    assert bot.budget_for("h.test") == 2        # 60/30 for spiderbot


def test_robots_fractional_crawl_delay():
    """A fractional Crawl-delay is a real delay (the stdlib parser alone
    drops it and the host would get the full budget); a malformed value
    declares none."""
    def budget(delay: str):
        st = HostBudgetState(budget_per_wave=1000, wave_period_s=60.0)
        st.set_robots("h.test", f"User-agent: *\nDisallow: /private/\nCrawl-delay: {delay}\n")
        assert st.allowed("h.test", ["http://h.test/private/1"]).tolist() == [False]
        return st.delay_budget("h.test")

    assert budget("7.5") == 8    # 60 / 7.5
    assert budget("10") == 6
    for bad in ("abc", "", "-2", "nan", "inf", "0"):
        assert budget(bad) is None, bad
    # the agent-specific group still wins over "*"
    bot = HostBudgetState(budget_per_wave=1000, wave_period_s=60.0, agent="spiderbot")
    bot.set_robots(
        "h.test",
        "User-agent: spiderbot\nCrawl-delay: 2.5 # slow\n\nUser-agent: *\nCrawl-delay: 1\n",
    )
    assert bot.delay_budget("h.test") == 24


def test_seen_shard_load_does_not_count():
    """The resume rebuild marks keys seen without counting them, and a
    rebuild in any order gives back the same set and size."""
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2**63, size=3000, dtype=np.uint64)
    probes = rng.integers(0, 2**63, size=20_000, dtype=np.uint64)
    for exact in (True, False):
        st = SeenShardState(capacity=4096, exact=exact)
        admitted = keys[st.check_and_add(keys)]
        rebuilt = SeenShardState(capacity=4096, exact=exact)
        rebuilt.load(admitted[::-1])
        rebuilt.load(admitted[:100])  # a key logged twice loads once
        assert rebuilt.stats() == {"n_items": st.cuckoo.n_items, "dedup_checks": 0, "dedup_hits": 0}
        assert np.array_equal(rebuilt.probe(probes), st.probe(probes))
        rebuilt.set_counters(*[st.stats()[k] for k in ("dedup_checks", "dedup_hits")])
        assert rebuilt.stats() == st.stats()
        assert not rebuilt.check_and_add(admitted).any()


def test_epoch_store_projected_reads_and_counters(tmp_path):
    import pyarrow as pa

    from spider_ray.sources.storage import EpochStore, write_table

    store = EpochStore(str(tmp_path / "store"))
    t = pa.table({"url": ["a", "b"], "url_hash": pa.array([1, 2], pa.uint64())})
    store.write("order", 0, t)
    store.write("order", 2, t.slice(1))
    write_table(t.slice(0, 1), store.epoch_dir("frontier", 2), "part-a.parquet")
    write_table(t.slice(1), store.epoch_dir("frontier", 2), "part-b.parquet")
    assert store.epochs("order") == [0, 2] and store.epochs("order", 1) == [0]
    assert store.epochs("dropped") == []
    assert store.read("order", 0, ["url_hash"]).column_names == ["url_hash"]
    got = store.read_all("order", columns=["url_hash"])
    assert got.column_names == ["url_hash"] and got.num_rows == 3
    parts = list(store.read_parts("frontier", 2, ["url_hash"]))
    assert [p.column("url_hash").to_pylist() for p in parts] == [[1], [2]]
    store.mark_epoch_complete(0, "cfg", [[5, 1], [7, 2]])
    store.mark_epoch_complete(2, "cfg", [[9, 3], [8, 2]])
    assert store.seen_counters(0) == [[5, 1], [7, 2]]
    assert store.seen_counters(2) == [[9, 3], [8, 2]]
    assert store.seen_counters(1) is None


def test_link_frontier_survives_source_deletion(tmp_path):
    """Checkpointed frontier partitions are hardlinks: deleting the
    transient source dir (next-wave cleanup) must not lose checkpoint data."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from spider_ray.sources.storage import EpochStore, write_table

    store = EpochStore(str(tmp_path / "store"))
    src = tmp_path / "work" / "epoch=0"
    t1 = pa.table({"url": ["a", "b"], "url_hash": pa.array([1, 2], pa.uint64())})
    t2 = pa.table({"url": ["c"], "url_hash": pa.array([3], pa.uint64())})
    write_table(t1, str(src), "part-00000.parquet")
    write_table(t2, str(src), "part-00001.parquet")
    extra = pa.table({"url": ["d"], "url_hash": pa.array([4], pa.uint64())})
    store.link_frontier(0, extra, [str(src)])
    shutil.rmtree(src)  # transient dir consumed
    back = store.read("frontier", 0)
    assert sorted(back.column("url").to_pylist()) == ["a", "b", "c", "d"]
    # idempotent re-checkpoint (epoch re-run) replaces wholesale
    write_table(t2, str(src), "part-00001.parquet")
    store.link_frontier(0, extra, [str(src)])
    assert sorted(store.read("frontier", 0).column("url").to_pylist()) == ["c", "d"]
