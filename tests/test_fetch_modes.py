"""Pool-mode and dataset-mode crawls must produce identical results; pool
is the default, and a default crawl whose wave the pool fills finishes."""

from dataclasses import replace

import pyarrow.compute as pc
import pytest

from spider_ray.pipelines.crawl import CrawlConfig, run_crawl
from spider_ray.sources.fixtures import MockWebConfig, seed_urls
from spider_ray.sources.storage import EpochStore


def _assert_modes_equivalent(tmp_path, **overrides):
    cfg = MockWebConfig(n_pages=120, n_hosts=7, img_every=5)
    base = CrawlConfig(
        out_dir=str(tmp_path / "pool"),
        seeds=seed_urls(cfg, every=30),
        web=cfg,
        wave_k=10_000,
        exact_seen=True,
        fetch_concurrency=2,
        fetch_mode="pool",
        **overrides,
    )
    pool_res = run_crawl(base)
    ds_res = run_crawl(
        replace(base, out_dir=str(tmp_path / "dataset"), fetch_mode="dataset")
    )
    a = EpochStore(base.out_dir)
    b = EpochStore(str(tmp_path / "dataset"))
    assert a.read_all("order").to_pydict() == b.read_all("order").to_pydict()
    ia = a.read_all("images").sort_by("image_id")
    ib = b.read_all("images").sort_by("image_id")
    assert ia.equals(ib)
    assert pool_res.seen_size == ds_res.seen_size
    assert pool_res.pages_fetched == ds_res.pages_fetched
    # pages partitions may differ in file layout but not in content
    pa_ = a.read_all("pages").sort_by("url").select(["url", "status", "link_count"])
    pb_ = b.read_all("pages").sort_by("url").select(["url", "status", "link_count"])
    assert pa_.to_pydict() == pb_.to_pydict()  # values (nullability may differ)
    return a


def test_pool_and_dataset_modes_equivalent(ray_session, tmp_path):
    _assert_modes_equivalent(tmp_path)


def test_pool_and_dataset_modes_equivalent_depth_limited(ray_session, tmp_path):
    """Depth filtering happens only in the workers' admission step; both
    submit paths must apply it identically."""
    store = _assert_modes_equivalent(tmp_path, max_depth=2)
    assert max(store.read_all("order").column("depth").to_pylist()) == 2


def test_browser_shaped_resolver_plugs_into_the_crawl(ray_session, tmp_path):
    """A browser-runtime resolver (resolve + expand — the browser-actor
    contract documented at CrawlConfig.resolver_factory) drives the full
    crawl path through resolver_factory: the expansion fixpoint reveals
    /c, the revealed link is admitted and fetched, and interaction_count
    lands in the pages table."""
    import functools

    from spider_ray.sources.fixtures import BrowserRuntimeStub

    pages = {
        "http://hx.test/a": '<html><body><a href="/b">b</a></body></html>',
        "http://hx.test/b": "<html><body>leaf</body></html>",
        "http://hx.test/c": "<html><body>revealed leaf</body></html>",
    }
    expansions = {("http://hx.test/a", 1): '<a href="/c">more</a>'}
    cfg = CrawlConfig(
        out_dir=str(tmp_path / "browser"),
        seeds=["http://hx.test/a"],
        adapter="crawlee",
        resolver_factory=functools.partial(BrowserRuntimeStub, pages, expansions),
        wave_k=100,
        fetch_concurrency=1,
        fetch_mode="pool",
        max_epochs=8,
    )
    res = run_crawl(cfg)
    pages = EpochStore(cfg.out_dir).read_all("pages").to_pandas()
    by_url = pages.set_index("url")
    assert {"http://hx.test/a", "http://hx.test/b", "http://hx.test/c"} <= set(
        by_url.index
    )
    assert by_url.loc["http://hx.test/a", "interaction_count"] == 1
    assert by_url.loc["http://hx.test/b", "interaction_count"] == 0
    assert res.pages_fetched == 3


def test_pool_is_the_default_and_unknown_modes_raise(tmp_path):
    cfg = CrawlConfig(out_dir=str(tmp_path), seeds=[])
    assert cfg.fetch_mode == "pool"
    with pytest.raises(ValueError, match="fetch_mode"):
        CrawlConfig(out_dir=str(tmp_path), seeds=[], fetch_mode="auto")


def test_default_mode_crawls_a_wave_the_pool_fills(ray_session, tmp_path):
    """A first wave of more than 20,000 rows (every page a seed) on a
    budget the pool fills: 3 one-CPU workers beside the state actors in
    the 4-CPU session. The old ``auto`` default switched such a wave to
    dataset tasks that could never schedule, and hung."""
    from test_crawl import bfs_oracle

    web = MockWebConfig(n_pages=21_000, n_hosts=7, img_every=50, img_size=8)
    cfg = CrawlConfig(
        out_dir=str(tmp_path / "default"), seeds=seed_urls(web, every=1), web=web,
        exact_seen=True, fetch_num_cpus=1.0, fetch_concurrency=3,
    )
    result = run_crawl(cfg)
    order = EpochStore(cfg.out_dir).read_all("order")
    assert order.filter(pc.equal(order.column("epoch"), 0)).num_rows > 20_000
    fetched = dict(zip(order.column("url").to_pylist(), order.column("depth").to_pylist()))
    assert fetched == bfs_oracle(web, seeds_every=1)
    assert result.pages_fetched == order.num_rows
