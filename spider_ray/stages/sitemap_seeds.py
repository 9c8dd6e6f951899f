"""Sitemap seed discovery — an actor-pool stage over a hosts dataset.

One row per host in, one row per declared URL out: each actor fetches
``/sitemap.xml`` through the same resolver seam the fetch stage uses,
recurses one level into ``sitemapindex`` shards (the protocol allows
exactly one level of nesting), and explodes the urlsets into frontier
seed rows carrying the site's own priority/lastmod hints.

Scale shape: the hosts table is the small side (one row per distinct
host — at 10^10 URLs still only ~10^7-10^8 hosts), so this is a plain
``map_batches`` actor pool with per-actor resolver state; shard fetches
for one host happen inside that host's task, bounded by
``max_shards_per_host``, and nothing but (host → url rows) crosses the
exchange. No reference counterpart (the reference has no sitemap
support); protocol per sitemaps.org.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.sitemap import parse_sitemap
from ..sources.fixtures import MockWeb, MockWebConfig

SEED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("sitemap_priority", pa.string()),
        ("lastmod", pa.string()),
    ]
)


class SitemapStage:
    """Callable class for ``ds.map_batches(SitemapStage, concurrency=N,
    fn_constructor_kwargs=...)`` — resolver built once per actor."""

    def __init__(
        self,
        web_config: MockWebConfig | None = None,
        resolver=None,
        resolver_factory=None,
        max_shards_per_host: int = 64,
    ):
        if resolver is None and resolver_factory is not None:
            resolver = resolver_factory()
        self.web = resolver if resolver is not None else MockWeb(
            web_config or MockWebConfig()
        )
        self.max_shards = max_shards_per_host

    def _fetch_xml(self, url: str) -> str | None:
        resp = self.web.resolve(url, attempts=0)
        if resp.status >= 400 or not resp.content:
            return None
        return resp.content

    def _sitemap_roots(self, host: str) -> list[str]:
        """Where a host's sitemaps live: every ``Sitemap:`` line its
        robots.txt announces (the standard channel — robotstxt.org; the
        directive is user-agent-independent), falling back to the
        ``/sitemap.xml`` convention when robots is absent or silent."""
        import urllib.robotparser

        resp = self.web.resolve(f"http://{host}/robots.txt", attempts=0)
        robots = resp.content if resp.status < 400 else None
        if robots:
            parser = urllib.robotparser.RobotFileParser()
            parser.parse(robots.splitlines())
            announced = parser.site_maps()
            if announced:
                return list(announced)
        return [f"http://{host}/sitemap.xml"]

    def urls_for_host(self, host: str) -> list[dict]:
        """All declared URLs for one host, index recursion included."""
        rows: list[dict] = []
        for root_url in self._sitemap_roots(host):
            root = self._fetch_xml(root_url)
            if root is None:
                continue
            parsed = parse_sitemap(root)
            rows.extend(parsed["urls"])
            for shard_loc in parsed["sitemaps"][: self.max_shards]:
                shard_xml = self._fetch_xml(shard_loc)
                if shard_xml is None:
                    continue
                # one level of nesting only (sitemaps.org: an index may
                # not reference another index) — nested indexes ignored
                rows.extend(parse_sitemap(shard_xml)["urls"])
        return rows

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, hosts, prios, lastmods = [], [], [], []
        for host in batch.column("host").to_pylist():
            for row in self.urls_for_host(host):
                urls.append(row["loc"])
                hosts.append(host)
                prios.append(row["priority"])
                lastmods.append(row["lastmod"])
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "host": pa.array(hosts, pa.string()),
                "sitemap_priority": pa.array(prios, pa.string()),
                "lastmod": pa.array(lastmods, pa.string()),
            }
        )


def sitemap_seed_frontier(
    web_config: MockWebConfig | None = None,
    hosts: list[str] | None = None,
    resolver_factory=None,
    concurrency: int = 2,
):
    """Dataset of declared-URL seed rows for the given hosts (default:
    every fixture host). Feed ``.column("url")`` into
    ``CrawlConfig.seeds`` to start a crawl from the sites' own
    inventories instead of (or alongside) link discovery."""
    import ray

    cfg = web_config or MockWebConfig()
    if hosts is None:
        hosts = [f"h{i}.test" for i in range(cfg.n_hosts)]
    ds = ray.data.from_arrow(pa.table({"host": pa.array(hosts, pa.string())}))
    return ds.map_batches(
        SitemapStage,
        batch_format="pyarrow",
        concurrency=min(concurrency, max(1, len(hosts))),
        batch_size=max(1, len(hosts) // max(1, concurrency)),
        fn_constructor_kwargs={
            "web_config": cfg,
            "resolver_factory": resolver_factory,
        },
    )
