"""The crawl's candidate layer: ``_fused_chunk`` keeps each page's links as
``(href, text)`` pairs and builds the candidates in one pass over the
chunk's distinct hrefs. The reference below is the per-link loop it
replaced (canonicalize, hash and host once per link, over
``extract_html_links``' ``Link`` objects); the two must agree on the
candidates table (all columns, in row order), ``n_candidates_raw`` and
every page's ``link_count``."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from spider_ray.functions.links import extract_html_links, extract_link_pairs
from spider_ray.functions.urls import canonicalize_url, host_of, is_valid_url, url_hash64
from spider_ray.pipelines.crawl import _fused_chunk, frontier_from_seeds
from spider_ray.sources.fixtures import MockResponse, MockWeb, MockWebConfig, image_url, page_url
from spider_ray.stages.fetch import FetchStage
from spider_ray.stages.parse import priority_from_hash


def _reference(stage: FetchStage, chunk: pa.Table) -> tuple[pa.Table, list[int]]:
    """Candidates and per-page link counts as the per-link loop built them."""
    urls = chunk.column("url").to_pylist()
    n_rows = len(urls)
    cols = chunk.column_names
    depths = chunk.column("depth").to_pylist() if "depth" in cols else [0] * n_rows
    attempts = chunk.column("attempts").to_pylist() if "attempts" in cols else [0] * n_rows
    hashes = (
        chunk.column("url_hash").to_pylist() if "url_hash" in cols
        else [url_hash64(u) for u in urls]
    )
    cand = {k: [] for k in ("url", "url_hash", "host", "depth", "parent_url_hash", "anchor_text")}
    link_counts = []
    for i, url in enumerate(urls):
        r = stage._fetch_one(url, attempts[i] or 0)
        status, content, ctype = r["status"], r["content"], r["content_type"]
        links = r.get("links")
        if links is None and status < 400 and ctype and "html" in ctype and content:
            links = [l.as_dict() for l in extract_html_links(content, r["final_url"])]
        link_counts.append(len(links) if links is not None else 0)
        for link in links or ():
            href = link["href"]
            if not is_valid_url(href):
                continue
            canonical = canonicalize_url(href)
            cand["url"].append(canonical)
            cand["url_hash"].append(url_hash64(canonical))
            cand["host"].append(host_of(canonical))
            cand["depth"].append((depths[i] or 0) + 1)
            cand["parent_url_hash"].append(hashes[i])
            cand["anchor_text"].append(link.get("text"))
    n = len(cand["url"])
    keys = np.array(cand["url_hash"], dtype=np.uint64)
    table = pa.table({
        "url": pa.array(cand["url"], pa.string()),
        "url_hash": pa.array(keys, pa.uint64()),
        "host": pa.array(cand["host"], pa.string()),
        "priority": pa.array(priority_from_hash(keys), pa.float64()),
        "depth": pa.array(cand["depth"], pa.int32()),
        "discovered_at": pa.nulls(n, pa.timestamp("ms")),
        "parent_url_hash": pa.array(cand["parent_url_hash"], pa.uint64()),
        "attempts": pa.array([0] * n, pa.int32()),
        "anchor_text": pa.array(cand["anchor_text"], pa.string()),
    })
    return table, link_counts


def _assert_same_candidates(tmp_path, make_stage, chunk: pa.Table) -> pa.Table:
    captured = []

    def admit(candidates):
        captured.append(candidates)
        return candidates

    sink = {t: str(tmp_path / t) for t in ("pages", "images", "documents")}
    out = _fused_chunk(make_stage(), chunk, False, sink, 0, 4, admit)
    ref, link_counts = _reference(make_stage(), chunk)
    (got,) = captured
    assert got.schema == ref.schema
    for name in ref.column_names:
        assert got.column(name).to_pylist() == ref.column(name).to_pylist(), name
    assert got.equals(ref)
    assert out["n_candidates_raw"] == ref.num_rows
    pages = pq.read_table(os.path.join(sink["pages"], "part-00000.parquet"))
    assert pages.column("link_count").to_pylist() == link_counts
    return got


class _HandWritten:
    """Resolver serving hand-written HTML by URL (404 elsewhere). With
    ``service`` it also answers the crawl4ai adapter's service call, whose
    links reach the crawl as pre-extracted ``links`` dicts."""

    def __init__(self, pages: dict, service: dict | None = None):
        self.pages, self.service = pages, service

    def resolve(self, url: str, attempts: int = 0) -> MockResponse:
        page = self.pages.get(url)
        if page is None:
            return MockResponse(url, url, 404, "text/plain", content="")
        ctype, body = page
        return MockResponse(url, url, 200, ctype, content=body)

    def crawl4ai(self, url: str) -> dict | None:
        if self.service is None or url not in self.pages:
            return None
        internal, external = self.service.get(url, ([], []))
        return {
            "cleaned_html": self.pages[url][1],
            "markdown": None,
            "links": {"internal": internal, "external": external},
        }


_HTML = "text/html; charset=utf-8"
_PAGES = {
    "http://h0.test/a/index": (_HTML, """
        <html><body>
        <a href="/x" title="first">one</a>
        <a href="/x">same href again</a>
        <a href="rel/y">relative</a>
        <a href="../up">parent dir</a>
        <a href="?q=1">query only</a>
        <a href="mailto:someone@h0.test">mail</a>
        <a href="javascript:void(0)">script</a>
        <a href="#top">fragment only</a>
        <a href="/download/report">download page</a>
        <a href="/download/report.pdf">download file</a>
        <a href="/download/list?page=2">download query</a>
        <a href="http://EXAMPLE.Test/Path/To">upper-case host</a>
        <a href="http://h1.test:80/p/1">default port</a>
        <a href="https://h1.test:443">default https port, no path</a>
        <a href="http://h1.test:8080/p/2">other port</a>
        <a href="/e?a=1&amp;b=2">Tom &amp; Jerry &lt;3 &#169;</a>
        <a href="/nested"><span>  Nested <b>text</b> </span></a>
        <a name="no-href">no href</a>
        <a href="">empty href</a>
        <a href="/frag#sec">fragment</a>
        <a href="/tail">unclosed tail text
        </body></html>"""),
    "http://h1.test/b": (_HTML, """
        <a href="http://h0.test/x">x from another page</a>
        <a href="/p/1">to p1</a><a href="http://h1.test/p/1">p1 again</a>
        <a href='http://h1.test:80/p/1'>p1 by port</a>
        <A HREF="/caps">CAPS</A >
        <a href="mailto:someone@h0.test">mail again</a>"""),
    "http://h1.test/empty": (_HTML, "<html><body>no anchors</body></html>"),
    "http://h1.test/plain": ("text/plain", '<a href="/not-parsed">plain</a>'),
    "http://h2.test/only-fallback": (_HTML, "<a\nhref=/bare>bare value</a><a href=/bare2>"),
}
_SERVICE = {
    "http://h0.test/a/index": (
        ["/x", "rel/y", "/x", "mailto:a@b.test", "http://H3.test:80/z"],
        ["http://other.test/out", "javascript:void(0)"],
    ),
    "http://h1.test/b": (["/p/1", "/download/thing"], []),
    # no service links: the adapter falls back to the HTML parser
    "http://h2.test/only-fallback": ([], []),
}


def _hand_written_chunk() -> pa.Table:
    urls = list(_PAGES) + ["http://h1.test/missing", "ftp://h1.test/x"]
    chunk = frontier_from_seeds(urls)
    # depths other than the seeds' 0 (and a repeated page) make the
    # depth/parent columns informative
    chunk = pa.concat_tables([chunk, chunk.slice(0, 2)])
    return chunk.set_column(
        chunk.schema.get_field_index("depth"), "depth",
        pa.array([(3 * i) % 5 for i in range(chunk.num_rows)], pa.int32()),
    )


def test_hand_written_html_matches_the_per_link_loop(tmp_path):
    got = _assert_same_candidates(
        tmp_path,
        lambda: FetchStage(resolver=_HandWritten(_PAGES), cache_enabled=False),
        _hand_written_chunk(),
    )
    urls = got.column("url").to_pylist()
    assert "http://h0.test/download/report/" in urls
    assert "http://example.test/Path/To" in urls and "http://h1.test/caps" in urls
    assert not [u for u in urls if u.startswith(("mailto:", "javascript:"))]
    assert urls.count("http://h0.test/x") == 4  # twice per copy of the two pages
    assert "Tom & Jerry <3 ©" in got.column("anchor_text").to_pylist()


def test_pre_extracted_links_match_the_per_link_loop(tmp_path):
    _assert_same_candidates(
        tmp_path,
        lambda: FetchStage(
            resolver=_HandWritten(_PAGES, _SERVICE), adapter="crawl4ai", cache_enabled=False
        ),
        _hand_written_chunk(),
    )


@pytest.mark.parametrize("adapter", ["simple", "crawl4ai"])
def test_mockweb_chunk_matches_the_per_link_loop(tmp_path, adapter):
    web = MockWebConfig(
        n_pages=240, n_hosts=5, with_external_links=True, with_private=True,
        with_detector_pages=True, with_expandables=True,
    )
    urls = [page_url(i, web) for i in range(web.n_pages)]
    urls += [image_url(i, web) for i in range(0, 60, web.img_every)]
    got = _assert_same_candidates(
        tmp_path,
        lambda: FetchStage(resolver=MockWeb(web), adapter=adapter, cache_enabled=False),
        frontier_from_seeds(urls),
    )
    assert got.num_rows > 3 * web.n_pages


def test_link_pairs_are_the_links_hrefs_and_texts():
    for url, (_ctype, html) in _PAGES.items():
        assert extract_link_pairs(html, url) == [
            (link.href, link.text) for link in extract_html_links(html, url)
        ]
