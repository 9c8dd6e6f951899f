import pyarrow as pa

from spider_ray.functions.urls import host_of, url_hash64
from spider_ray.pipelines.crawl import _fused_chunk
from spider_ray.schemas import FRONTIER_SCHEMA, IMAGES_SCHEMA, PAGES_SCHEMA
from spider_ray.sources.fixtures import MockWebConfig, image_url, page_url
from spider_ray.sources.storage import read_table
from spider_ray.stages.fetch import FetchStage
from spider_ray.stages.parse import parse_links_batch, priority_of, to_documents_batch

CFG = MockWebConfig(n_pages=100, n_hosts=7)


def _wave(urls, anchors=None):
    """``urls`` as a wave in ``FRONTIER_SCHEMA``, the form the crawl cuts."""
    n = len(urls)
    return pa.table(
        {
            "url": urls,
            "url_hash": pa.array([url_hash64(u) for u in urls], pa.uint64()),
            "host": [host_of(u) for u in urls],
            "priority": [priority_of(u) for u in urls],
            "depth": [0] * n,
            "attempts": [0] * n,
            "anchor_text": anchors or [None] * n,
        },
        schema=FRONTIER_SCHEMA,
    )


def _fused(wave, tmp_path):
    """The crawl's fused chunk routine over ``wave``, admitting every
    candidate; returns its result and the partition dirs it wrote."""
    stage = FetchStage(web_config=CFG, adapter="simple")
    sink = {t: str(tmp_path / t) for t in ("pages", "images", "documents")}
    return _fused_chunk(stage, wave, False, sink, 0, 4, lambda cands: cands), sink


def test_fetch_stage_basic_and_cache():
    stage = FetchStage(web_config=CFG, adapter="simple")
    batch = _wave([page_url(3, CFG), page_url(3, CFG), "not a url"])
    out = stage(batch)
    assert out.column("status").to_pylist() == [200, 200, 0]
    assert out.column("cache_hit").to_pylist() == [False, True, False]
    assert out.column("error").to_pylist()[2] == "ValidationError"
    assert stage.stats() == {"fetches": 1, "cache_hits": 1}
    # schema contract (minus passthrough)
    assert out.select(PAGES_SCHEMA.names).schema.names == list(PAGES_SCHEMA.names)


def test_fetch_adapter_parity_redirect_semantics():
    cfg = MockWebConfig(n_pages=100, with_redirects=True)
    redirect_url = "http://h3.test/r/3"
    simple = FetchStage(web_config=cfg, adapter="simple")(_wave([redirect_url]))
    dom = FetchStage(web_config=cfg, adapter="dom")(_wave([redirect_url]))
    # simple rewrites final_url (simple.ts:115-120); dom keeps request URL
    assert simple.column("final_url").to_pylist() == [page_url(3, cfg)]
    assert dom.column("final_url").to_pylist() == [redirect_url]
    assert dom.column("strategy_spider").to_pylist() == ["dom"]


def test_parse_and_candidates(tmp_path):
    stage = FetchStage(web_config=CFG, adapter="simple")
    pages = parse_links_batch(stage(_wave([page_url(0, CFG)])))
    links = pages.column("links").to_pylist()[0]
    hrefs = [l["href"] for l in links]
    # first-wins dedup collapsed the duplicate anchor; image link present (0 % 5 == 0)
    assert len(hrefs) == len(set(hrefs))
    assert image_url(0, CFG) in hrefs
    assert pages.column("link_count").to_pylist()[0] == len(hrefs)

    out, _ = _fused(_wave([page_url(0, CFG)]), tmp_path)
    candidates = out["fresh"]
    assert out["n_candidates_raw"] == len(hrefs)
    assert candidates.select(FRONTIER_SCHEMA.names).num_rows == len(hrefs)
    assert set(candidates.column("depth").to_pylist()) == {1}
    # the hash-derived priority column equals the SQL-documented reference
    assert candidates.column("priority").to_pylist() == [
        priority_of(u) for u in candidates.column("url").to_pylist()
    ]
    cap_row = candidates.filter(
        pa.compute.equal(candidates.column("url"), image_url(0, CFG))
    )
    assert cap_row.column("anchor_text").to_pylist() == [
        "caption for image 0 on host 0"
    ]


def test_images_from_pages(tmp_path):
    batch = _wave(
        [image_url(0, CFG), image_url(5, CFG), page_url(1, CFG)],
        anchors=["cap-png", "cap-jpg", None],
    )
    out, sink = _fused(batch, tmp_path)
    images = read_table(sink["images"])
    assert out["n_images"] == 2
    assert images.schema.names == list(IMAGES_SCHEMA.names)
    assert images.num_rows == 2
    assert images.column("fmt").to_pylist() == ["png", "jpeg"]
    assert images.column("caption").to_pylist() == ["cap-png", "cap-jpg"]
    assert images.column("w").to_pylist() == [CFG.img_size] * 2


def test_to_documents_three_branches():
    cfg = MockWebConfig(n_pages=100, with_detector_pages=True)
    stage = FetchStage(web_config=cfg, adapter="simple")
    # branch 3: html page (4 % 17 != 3 → no detector); branch 1: direct download
    out = to_documents_batch(stage(_wave([page_url(4, cfg), image_url(5, cfg)])))
    by_strategy = {s: i for i, s in enumerate(out.column("strategy").to_pylist())}
    html_row = by_strategy["html-extraction"]
    assert out.column("title").to_pylist()[html_row] == "Page 4"
    assert "fixture body text for page 4" in out.column("text").to_pylist()[html_row]
    dl_row = by_strategy["direct-download"]
    assert out.column("is_download").to_pylist()[dl_row] is True

    # branch 2: detector page (i=3 → i%17==3 has wpdmdl link)
    page_with_detector = stage(_wave([page_url(3, cfg)]))
    docs = to_documents_batch(page_with_detector)
    det = docs.filter(pa.compute.equal(docs.column("strategy"), "wordpress-pdf-link"))
    assert det.num_rows == 1
    assert "wpdmdl=3" in det.column("url").to_pylist()[0]
    assert det.column("complete").to_pylist() == [False]


def test_process_html_normalization_semantics():
    """DOM round-trip normalization (dom.ts:36-49 happy-dom effects):
    entities preserved canonically, attributes double-quoted + escaped,
    boolean attrs as name=\"\", implied <tbody> around bare table rows
    (section-aware), numeric charrefs become literal characters."""
    from spider_ray.stages.fetch import process_html

    assert process_html("<p>a &amp; b &#169; c</p>") == "<p>a &amp; b \xa9 c</p>"
    assert process_html("<TD CLASS=x>1 < 2</TD>") == '<td class="x">1 &lt; 2</td>'
    assert (
        process_html("<table><tr><td>x</td></tr></table>")
        == "<table><tbody><tr><td>x</td></tr></tbody></table>"
    )
    assert (
        process_html(
            "<table><thead><tr><td>h</td></tr></thead><tr><td>b</td></tr></table>"
        )
        == "<table><thead><tr><td>h</td></tr></thead>"
        "<tbody><tr><td>b</td></tr></tbody></table>"
    )
    assert process_html('<input disabled><img src="a&b.png">') == (
        '<input disabled=""><img src="a&amp;b.png">'
    )
    # idempotent: normalizing twice is a fixpoint
    once = process_html("<table><tr><td>a &amp; b</td></tr></table>")
    assert process_html(once) == once
