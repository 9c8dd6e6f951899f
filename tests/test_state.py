import numpy as np
import ray

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
    assert st.stats() == {"n_items": 4}
    st2 = SeenShardState.from_snapshot(st.snapshot())
    assert st2.stats() == {"n_items": 4}
    assert st2.check_and_add(np.array([4, 5], dtype=np.uint64)).tolist() == [False, True]


def test_exact_seen_shard_holds_only_its_exact_set():
    """An exact shard builds no cuckoo table, so its snapshot is its keys:
    1,000 keys at the crawl's default capacity snapshot in well under
    64 KB (an unused 1 << 20 cuckoo table alone is 4 MB), and come back
    whole."""
    keys = np.arange(1, 1001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    st = SeenShardState(1 << 20, exact=True)
    assert st.check_and_add(keys).all()
    assert st.cuckoo is None
    snap = st.snapshot()
    assert len(snap) < 64 * 1024
    back = SeenShardState.from_snapshot(snap)
    assert back.cuckoo is None and back.exact_set == st.exact_set
    assert back.stats() == {"n_items": 1000}
    assert back.probe(keys).all()
    assert not back.probe(keys + np.uint64(1)).any()


def test_seen_shard_cuckoo_mode():
    st = SeenShardState(capacity=4096, exact=False)
    keys = np.arange(1000, dtype=np.uint64) * 7919 + 13
    assert st.check_and_add(keys).all()
    assert not st.check_and_add(keys).any()


def test_robots_parsing():
    st = HostBudgetState(budget_per_wave=10)
    st.set_robots("h.test", "User-agent: *\nDisallow: /private/\n")
    allowed = st.allowed("h.test", ["http://h.test/ok", "http://h.test/private/x"])
    assert allowed.tolist() == [True, False]
    st.set_robots("open.test", None)
    assert st.allowed("open.test", ["http://open.test/anything"]).tolist() == [True]


def test_robots_crawl_delay_scales_budget():
    """Crawl-delay: d → floor(wave_period_s / d) tokens per wave
    (>=1, capped by the global budget), per agent, deterministic; no
    directive → no budget (None)."""
    st = HostBudgetState(budget_per_wave=10, wave_period_s=60.0)
    st.set_robots("slow.test", "User-agent: *\nCrawl-delay: 20\n")
    st.set_robots("fast.test", "User-agent: *\nCrawl-delay: 0.5\n")
    st.set_robots("plain.test", "User-agent: *\nDisallow:\n")
    assert st.delay_budget("slow.test") == 3      # 60/20
    assert st.delay_budget("fast.test") == 10     # 120, capped at global
    assert st.delay_budget("plain.test") is None  # no directive
    assert st.delay_budget("unknown.test") is None  # robots not fetched yet
    # a glacial delay still grants one token (progress guarantee)
    st.set_robots("glacial.test", "User-agent: *\nCrawl-delay: 100000\n")
    assert st.delay_budget("glacial.test") == 1
    # re-fetched robots replace the host's budget
    st.set_robots("slow.test", "User-agent: *\nCrawl-delay: 6\n")
    assert st.delay_budget("slow.test") == 10
    # agent-specific delay wins for the matching agent
    bot = HostBudgetState(budget_per_wave=10, wave_period_s=60.0, agent="spiderbot")
    bot.set_robots(
        "h.test",
        "User-agent: spiderbot\nCrawl-delay: 30\n\nUser-agent: *\nCrawl-delay: 1\n",
    )
    assert bot.delay_budget("h.test") == 2        # 60/30 for spiderbot


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
    """The resume rebuild marks keys seen, and a rebuild in any order
    gives back the same set and size."""
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2**63, size=3000, dtype=np.uint64)
    probes = rng.integers(0, 2**63, size=20_000, dtype=np.uint64)
    for exact in (True, False):
        st = SeenShardState(capacity=4096, exact=exact)
        admitted = keys[st.check_and_add(keys)]
        rebuilt = SeenShardState(capacity=4096, exact=exact)
        rebuilt.load(admitted[::-1])
        rebuilt.load(admitted[:100])  # a key logged twice loads once
        assert rebuilt.stats() == st.stats()
        assert np.array_equal(rebuilt.probe(probes), st.probe(probes))
        assert not rebuilt.check_and_add(admitted).any()


def test_exact_seen_shard_counts_past_its_cuckoo_capacity():
    """An exact shard's size is its exact set: more distinct keys than a
    cuckoo of that capacity has slots (2,048) are all admitted and all
    counted."""
    keys = np.arange(1, 2101, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    st = SeenShardState(capacity=1024, exact=True)
    for batch in np.array_split(keys, 21):
        assert st.check_and_add(batch).all()
    assert not st.check_and_add(keys).any()
    assert st.stats() == {"n_items": 2100}
    assert st.probe(keys).all()


def test_epoch_store_projected_reads_and_counters(tmp_path):
    import pyarrow as pa

    from spider_ray.sources.storage import EpochStore

    store = EpochStore(str(tmp_path / "store"))
    t = pa.table({"url": ["a", "b"], "url_hash": pa.array([1, 2], pa.uint64())})
    store.write("order", 0, t)
    store.write("order", 2, t.slice(1))
    assert store.epochs("order") == [0, 2] and store.epochs("order", 1) == [0]
    assert store.epochs("dropped") == []
    assert store.read("order", 0, ["url_hash"]).column_names == ["url_hash"]
    got = store.read_all("order", columns=["url_hash"])
    assert got.column_names == ["url_hash"] and got.num_rows == 3
    store.mark_epoch_complete(0, [12, 3])
    store.mark_epoch_complete(2, [29, 8])
    assert store.seen_counters(0) == [12, 3]
    assert store.seen_counters(2) == [29, 8]
    assert store.seen_counters(1) is None
    assert store.manifest() == {
        "completed_epochs": [0, 2], "done": False,
        "seen_counters": {"0": [12, 3], "2": [29, 8]},
    }


def test_politeness_screen_matches_separate_calls(ray_session, tmp_path):
    """``PolitenessPool.screen`` gives the mask and Crawl-delay caps of
    ensure_robots + allowed + delay_caps in one call per owning actor, and
    each actor fetches a host's robots.txt through the resolver seam once,
    however many waves screen the host."""
    import functools

    from spider_ray.sources.fixtures import MockResponse
    from spider_ray.state.politeness import PolitenessPool

    robots = {
        "priv.test": "User-agent: *\nDisallow: /private/\n",
        "slow.test": "User-agent: *\nCrawl-delay: 7.5\n",
        "open.test": None,
    }

    class Resolver:  # a local class: Ray ships it to the actors by value
        def __init__(self, robots: dict, log: str):
            self.robots, self.log = robots, log

        def resolve(self, url: str, attempts: int):
            with open(self.log, "a") as f:  # the actors' fetches, in one file
                f.write(url + "\n")
            txt = self.robots[url.split("/")[2]]
            if txt is None:
                return MockResponse(url, url, 404, "text/plain", content="")
            return MockResponse(url, url, 200, "text/plain", content=txt)

    log = tmp_path / "robots.log"
    waves = [
        [("priv.test", "/private/a"), ("slow.test", "/a"), ("priv.test", "/b")],
        [("open.test", "/x"), ("priv.test", "/private/b"), ("slow.test", "/b")],
        [("slow.test", "/c"), ("open.test", "/private/y"), ("priv.test", "/private/c")],
    ]
    pool = PolitenessPool.create(
        n_actors=2, budget_per_wave=12,
        resolver_factory=functools.partial(Resolver, robots, str(log)),
    )
    ref = PolitenessPool.create(n_actors=2, budget_per_wave=12)
    try:
        for rows in waves:
            hosts = [h for h, _ in rows]
            urls = [f"http://{h}{path}" for h, path in rows]
            allowed, caps = pool.screen(hosts, urls)
            ref.ensure_robots(hosts, lambda h: robots[h])
            want = ref.allowed(hosts, urls)
            assert allowed.tolist() == want.tolist()
            assert caps == ref.delay_caps([h for h, a in zip(hosts, want) if a])
        assert caps == {"slow.test": 8, "open.test": None}  # floor(60 / 7.5)
        assert pool.screen([], [])[0].size == 0
    finally:
        for actor in pool.actors + ref.actors:
            ray.kill(actor, no_restart=True)
    assert sorted(log.read_text().split()) == sorted(f"http://{h}/robots.txt" for h in robots)


def test_robots_status_mapping():
    """robots.txt statuses as RFC 9309 §2.3.1 maps them: 2xx rules are
    parsed (first 500 KiB only) and cached, a 4xx allows everything and is
    cached, a 5xx or unreachable host caches nothing, allows the rows but
    gives the host a Crawl-delay budget of 0 (every row deferred), and is
    asked again at the next screen."""
    from spider_ray.sources.fixtures import MockResponse
    from spider_ray.state.politeness import ROBOTS_MAX_BYTES

    answers: dict = {}
    asked: list = []

    def resolve(url: str, attempts: int):
        asked.append(url)
        status, content, body = answers[url.split("/")[2]]
        return MockResponse(url, url, status, "text/plain", content=content, body_bytes=body)

    long = "User-agent: *\nDisallow: /a/\n#" + "x" * ROBOTS_MAX_BYTES + "\nDisallow: /b/\n"
    answers.update({
        "big.test": (200, long, None),
        "bytes.test:81": (200, None, b"User-agent: *\nDisallow: /a/\n"),
        "gone.test": (404, "", None),
        "flaky.test": (503, "", None),
        "down.test": (599, "connection refused", None),
    })
    st = HostBudgetState(budget_per_wave=10)
    wave = {
        "big.test": ["http://big.test/a/1", "http://big.test/b/1"],
        "bytes.test": ["http://bytes.test:81/a/1", "http://bytes.test:81/c"],
        "gone.test": ["http://gone.test/a/1"],
        "flaky.test": ["http://flaky.test/a/1", "http://flaky.test/b"],
        "down.test": ["http://down.test/a/1"],
    }
    masks, caps = st.screen(wave, resolve)
    assert {h: m.tolist() for h, m in masks.items()} == {
        "big.test": [False, True],  # the Disallow past 500 KiB is not read
        "bytes.test": [False, True],  # body bytes, port kept in the robots URL
        "gone.test": [True],
        "flaky.test": [True, True],
        "down.test": [True],
    }
    assert caps == {
        "big.test": None, "bytes.test": None, "gone.test": None,
        "flaky.test": 0, "down.test": 0,
    }
    assert "http://bytes.test:81/robots.txt" in asked
    assert not st.robots_known("flaky.test") and not st.robots_known("down.test")
    # the next screen asks only the hosts that failed; flaky.test answers now
    asked.clear()
    answers["flaky.test"] = (200, "User-agent: *\nDisallow: /a/\n", None)
    masks, caps = st.screen(wave, resolve)
    assert sorted(asked) == ["http://down.test/robots.txt", "http://flaky.test/robots.txt"]
    assert masks["flaky.test"].tolist() == [False, True]
    assert caps["flaky.test"] is None and caps["down.test"] == 0
