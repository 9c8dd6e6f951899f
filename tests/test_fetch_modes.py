"""The fetch pool is the crawl's only chunk executor: a browser-shaped
resolver plugs into it, any other fetch mode raises, and a default crawl
whose wave the pool fills finishes."""

import pyarrow.compute as pc
import pytest

from spider_ray.pipelines.crawl import CrawlConfig, run_crawl
from spider_ray.sources.fixtures import MockWebConfig, seed_urls
from spider_ray.sources.storage import EpochStore


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
    for mode in ("auto", "dataset"):
        with pytest.raises(ValueError, match="fetch_mode"):
            CrawlConfig(out_dir=str(tmp_path), seeds=[], fetch_mode=mode)


def test_wave_k_below_one_raises(tmp_path):
    for wave_k in (0, -1):
        with pytest.raises(ValueError, match="wave_k"):
            CrawlConfig(out_dir=str(tmp_path), seeds=[], wave_k=wave_k)


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
