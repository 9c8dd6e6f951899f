import numpy as np

from spider_ray.functions.imagecodec import decode_image, psnr
from spider_ray.sources.fixtures import (
    MockWeb,
    MockWebConfig,
    caption_for,
    image_pixels,
    image_url,
    out_link_ids,
    page_url,
    seed_urls,
)


def test_page_resolution_and_links_closed_form():
    cfg = MockWebConfig(n_pages=100, n_hosts=7)
    web = MockWeb(cfg)
    resp = web.resolve(page_url(10, cfg))
    assert resp.status == 200 and "html" in resp.content_type
    for target in out_link_ids(10, 100):
        assert f"/p/{target}" in resp.content
    # wrong host for a page id → 404
    assert web.resolve("http://h0.test/p/1").status == 404  # 1 % 7 == 1 ≠ 0
    assert web.resolve("http://h1.test/p/1").status == 200


def test_image_roundtrip_and_determinism():
    cfg = MockWebConfig(n_pages=100)
    web = MockWeb(cfg)
    url = image_url(0, cfg)  # even → png
    resp = web.resolve(url)
    assert resp.status == 200 and resp.content_type == "image/png"
    decoded = decode_image(resp.body_bytes)
    assert np.array_equal(decoded, image_pixels(0, cfg))  # png lossless
    # jpeg variant clears PSNR gate
    resp_j = web.resolve(image_url(5, cfg))
    decoded_j = decode_image(resp_j.body_bytes)
    assert psnr(image_pixels(5, cfg), decoded_j) >= 40.0
    # byte-level determinism across resolver instances
    assert MockWeb(cfg).resolve(url).body_bytes == resp.body_bytes


def test_expected_image_row_matches_served_bytes():
    cfg = MockWebConfig(n_pages=50)
    web = MockWeb(cfg)
    row = web.expected_image_row(10)
    assert row["bytes"] == web.resolve(image_url(10, cfg)).body_bytes
    assert row["caption"] == caption_for(10, cfg)
    assert row["fmt"] == "png" and row["w"] == cfg.img_size


def test_fixture_variants():
    cfg = MockWebConfig(
        n_pages=100, with_redirects=True, with_errors=True,
        with_detector_pages=True, with_private=True,
    )
    web = MockWeb(cfg)
    # redirect rewrites final_url (simple-adapter semantics)
    r = web.resolve("http://h3.test/r/3")
    assert r.status == 200 and r.final_url == page_url(3, cfg) and r.url.endswith("/r/3")
    # deterministic 404 and flaky-then-ok rows
    assert web.resolve(page_url(11, cfg)).status == 404  # 11 % 23 == 11
    flaky = page_url(13, cfg)  # 13 % 29 == 13
    assert web.resolve(flaky, attempts=0).status == 503
    assert web.resolve(flaky, attempts=1).status == 200
    # robots
    assert "Disallow: /private/" in web.robots_txt("h0.test")
    # detector pdf endpoint
    pdf = web.resolve("http://h0.test/download/minutes/?wpdmdl=3")
    assert pdf.status == 200 and pdf.body_bytes.startswith(b"%PDF-")


def test_resolve_serves_robots_txt():
    """``MockWeb.resolve`` serves ``/robots.txt`` as ``robots_txt(host)``
    (200) or 404 when the host has no rules — the crawl's politeness
    actors read robots only through ``resolve``."""
    import itertools

    for private, delay, sitemaps in itertools.product((False, True), (0.0, 10.0), (False, True)):
        cfg = MockWebConfig(
            n_pages=50, n_hosts=5, with_private=private, crawl_delay_s=delay,
            with_sitemaps=sitemaps,
        )
        web = MockWeb(cfg)
        for host in [f"h{i}.test" for i in range(cfg.n_hosts)] + ["outside.example.org"]:
            resp = web.resolve(f"http://{host}/robots.txt", 0)
            want = web.robots_txt(host)
            if want is None:
                assert resp.status == 404, (host, cfg)
            else:
                assert (resp.status, resp.content) == (200, want), (host, cfg)
        # every fixture rule lands on the universe's hosts only
        assert (web.robots_txt("h0.test") is not None) == (private or sitemaps)
        assert (web.robots_txt("h1.test") is not None) == (private or sitemaps or delay > 0)
        assert web.robots_txt("outside.example.org") is None


def test_seed_urls():
    cfg = MockWebConfig(n_pages=200)
    seeds = seed_urls(cfg, every=50)
    assert seeds == [page_url(i, cfg) for i in (0, 50, 100, 150)]
