import pyarrow.compute as pc
import pytest

from spider_ray.functions.links import LinkFilterConfig
from spider_ray.pipelines.scrape import (
    PlatformAdapter,
    PlatformRegistry,
    explode_links_batch,
    filter_links_stage,
    find_document_links,
    scrape_document,
    scrape_index,
)
from spider_ray.sources.fixtures import MockWebConfig, image_url, page_url

CFG = MockWebConfig(n_pages=60, n_hosts=7)


def test_scrape_index_dataset(ray_session):
    out = scrape_index([page_url(0, CFG), page_url(1, CFG)], web_config=CFG,
                       concurrency=1).to_pandas()
    assert len(out) == 2
    assert (out["status"] == 200).all()
    assert (out["link_count"] > 0).all()
    assert (out["strategy_type"] == "basic").all()
    assert (out["confidence"] == 1.0).all()


def test_scrape_document_dataset(ray_session):
    out = scrape_document([page_url(2, CFG)], web_config=CFG, concurrency=1).to_pandas()
    assert out.iloc[0]["strategy"] == "html-extraction"
    assert out.iloc[0]["title"] == "Page 2"
    assert out.iloc[0]["mime_type"] == "text/html"


def test_explode_and_filter_links(ray_session):
    pages = scrape_index([page_url(0, CFG)], web_config=CFG, concurrency=1)
    links = pages.map_batches(explode_links_batch, batch_format="pyarrow")
    all_links = links.to_pandas()
    assert (all_links["page_url"] == page_url(0, CFG)).all()
    filtered = links.map_batches(
        filter_links_stage(LinkFilterConfig(url_contains=["/img/"])),
        batch_format="pyarrow",
    ).to_pandas()
    assert list(filtered["href"]) == [image_url(0, CFG)]
    # caption text preserved on the filtered row
    assert filtered.iloc[0]["text"].startswith("caption for image 0")


def test_find_document_links_distinct(ray_session):
    cfg = MockWebConfig(n_pages=60, with_detector_pages=True)
    # page 3 (3 % 17 == 3) links /download/minutes/?wpdmdl=3 — not a doc ext;
    # use extensions including the image formats to prove the filter+distinct
    out = find_document_links(
        [page_url(0, cfg), page_url(5, cfg), page_url(0, cfg)],
        web_config=cfg,
        extensions=(".png", ".jpg"),
    ).to_pandas()
    assert sorted(out["href"]) == sorted({image_url(0, cfg), image_url(5, cfg)})


def test_adapter_context_binds_one_spider(ray_session):
    from spider_ray.pipelines.scrape import create_adapter_context

    ctx = create_adapter_context(web_config=CFG, adapter="simple")
    html = ctx.fetch_page(page_url(0, CFG))
    assert html is not None and "Page 0" in html
    assert ctx.fetch_page("http://h0.test/missing") is None
    out = ctx.scrape_index([page_url(0, CFG)], concurrency=1).to_pandas()
    assert out.iloc[0]["strategy_spider"] == "simple"


def test_platform_registry_two_phase():
    reg = PlatformRegistry()
    fetches = []

    def fetch_html(url):
        fetches.append(url)
        return "<html>wpdm-download-link</html>"

    reg.register(
        PlatformAdapter(
            type="wordpress", name="WordPress", priority=100,
            detect_url=lambda u: {"confidence": "high"} if "/wp/" in u else None,
            detect_html=lambda u, h: {"confidence": "medium"} if "wpdm" in h else None,
            fetch=lambda src, ctx: [{"item": 1}],
        )
    )
    reg.register(
        PlatformAdapter(
            type="civicweb", name="CivicWeb", priority=50,
            detect_url=lambda u: {"confidence": "high"} if "civicweb" in u else None,
            detect_html=lambda u, h: None,
            fetch=lambda src, ctx: [{"item": 2}],
        )
    )
    # URL phase: priority order (civicweb=50 first), no fetch needed
    hit = reg.detect("http://x.civicweb.net/a", fetch_html)
    assert hit["type"] == "civicweb" and fetches == []
    # HTML phase: exactly one fetch
    hit2 = reg.detect("http://y.test/page", fetch_html)
    assert hit2["type"] == "wordpress" and len(fetches) == 1
    # preset type short-circuits
    assert reg.resolve({"url": "u", "type": "civicweb"}, fetch_html)["type"] == "civicweb"
    # fallback
    assert reg.detect("http://z.test/q", lambda u: None, fallback_type="wordpress")["type"] == "wordpress"
    # duplicate registration rejected
    with pytest.raises(ValueError):
        reg.register(PlatformAdapter(type="wordpress", name="dup", fetch=lambda s, c: []))
    # unresolved → ValidationError-style failure
    with pytest.raises(ValueError):
        reg.fetch_items({"url": "http://unknown.test"}, None, lambda u: None)
    # unregister: detection no longer returns the type, and it registers again
    reg.unregister("wordpress")
    assert reg.detect("http://y.test/page", fetch_html) is None
    assert reg.detect("http://y.test/wp/a", fetch_html, fallback_type="wordpress") is None
    assert [a.type for a in reg.adapters()] == ["civicweb"]
    reg.unregister("unknown")  # unknown type: a no-op
    assert [a.type for a in reg.adapters()] == ["civicweb"]
    reg.register(PlatformAdapter(type="wordpress", name="WordPress again", fetch=lambda s, c: []))
    assert reg.detect("http://z.test/q", lambda u: None, fallback_type="wordpress")["type"] == "wordpress"


def test_platform_registry_discover_options():
    """discoverOptions extension point (platform/types.ts:84-88): the
    resolved adapter may infer per-source configuration; explicit source
    fields win over discovered ones; hook errors are logged + tolerated;
    fetch_items(discover=True) feeds the merged source to fetch."""
    from spider_ray.pipelines.scrape import create_adapter_context

    reg = PlatformRegistry()
    seen_ctx = []

    def discover(url, ctx):
        seen_ctx.append(ctx)
        return {"folder": "/minutes", "filter": "pdf", "page_size": 50}

    reg.register(
        PlatformAdapter(
            type="civicweb", name="CivicWeb", priority=50,
            detect_url=lambda u: {"confidence": "high"} if "civicweb" in u else None,
            discover_options=discover,
            fetch=lambda src, ctx: [dict(src)],
        )
    )
    ctx = create_adapter_context(web_config=CFG)
    ctx.ai = object()  # untyped AI client passes through (context.ts:10)
    src = {"url": "http://x.civicweb.net/a", "filter": "docx"}
    merged = reg.discover_source_options(src, ctx, lambda u: None)
    # discovered fills gaps, explicit source keys win
    assert merged["folder"] == "/minutes" and merged["page_size"] == 50
    assert merged["filter"] == "docx" and merged["url"] == src["url"]
    assert seen_ctx[0] is ctx  # the hook received the bound context

    # fetch_items(discover=True) routes the merged source into fetch
    items = reg.fetch_items(src, ctx, lambda u: None, discover=True)
    assert items[0]["folder"] == "/minutes" and items[0]["filter"] == "docx"
    # default discover=False keeps the r1-r3 behavior: source untouched
    assert "folder" not in reg.fetch_items(src, ctx, lambda u: None)[0]

    # adapters without the hook pass through unchanged
    reg.register(
        PlatformAdapter(
            type="plain", name="Plain", priority=10,
            detect_url=lambda u: {"confidence": "high"} if "plain" in u else None,
            fetch=lambda s, c: [dict(s)],
        )
    )
    plain_src = {"url": "http://plain.test/x"}
    assert reg.discover_source_options(plain_src, ctx, lambda u: None) == plain_src

    # a throwing hook is logged and tolerated (registry.ts:98-104 contract)
    logs = []
    ctx_logged = create_adapter_context(web_config=CFG)
    ctx_logged.log = lambda msg, meta=None: logs.append((msg, meta))
    reg.register(
        PlatformAdapter(
            type="flaky", name="Flaky", priority=5,
            detect_url=lambda u: {"confidence": "high"} if "flaky" in u else None,
            discover_options=lambda u, c: (_ for _ in ()).throw(RuntimeError("boom")),
            fetch=lambda s, c: [dict(s)],
        )
    )
    fsrc = {"url": "http://flaky.test/x"}
    assert reg.discover_source_options(fsrc, ctx_logged, lambda u: None) == fsrc
    assert logs and logs[0][1]["type"] == "flaky"
