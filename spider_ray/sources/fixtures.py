"""Deterministic synthetic web — the engine's fixture "server".

Plays the role of the reference's local fixture HTTP server
(reference: testdata/local-server.ts:73-331) but as a pure function
``url → response`` so fetch actors resolve pages hermetically and
deterministically at any scale, with no sockets.

The URL universe is **closed and closed-form** so conformance oracles can
recompute the crawl in SQL (recursive CTE over the same edge formulas):

- page ``http://h{i % n_hosts}.test/p/{i}`` for ``i in [0, n_pages)``
- out-links of page ``i`` (all within the universe):
    * ``(2i + 1) mod n``  — plus an exact duplicate anchor (dedup test)
    * ``(3i + 7) mod n``
    * ``(5i + 3) mod n``  — written as a root-relative href
- every page whose ``i % img_every == 0`` links an image
  ``/img/{i}.png`` (even i) or ``/img/{i}.jpg`` (odd i); fetching it
  returns deterministic seeded pixels (functions.imagecodec) whose caption
  is ``caption for image {i} on host {i % n_hosts}``
- plus fixture variants toggled by config (kept OUT of the default
  universe so the SQL closure stays simple; exercised in pytest):
  redirects ``/r/{i}`` → 301 → ``/p/{i}``; 404s; 503-then-200 flaky rows;
  detector pages (WPDM / CivicWeb / DocuShare); anchor + external links;
  a ``/private/`` robots-disallowed subtree.

HTML shape includes title/meta/description so the metadata/caption
extraction paths run on every page.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..functions.imagecodec import encode_image, phash64


@dataclass(frozen=True)
class MockWebConfig:
    n_pages: int = 1000
    n_hosts: int = 7
    img_every: int = 5
    seed: int = 42
    img_size: int = 32
    # fixture variants (default off → SQL-closed-form universe)
    with_redirects: bool = False
    with_errors: bool = False
    with_detector_pages: bool = False
    with_external_links: bool = False
    with_private: bool = False
    # >0 → h1.test's robots.txt declares Crawl-delay: <this many seconds>
    # (exercises the per-host delay→token-budget politeness path)
    crawl_delay_s: float = 0.0
    # serve /sitemap.xml (a 2-shard sitemapindex) per host; each shard
    # lists the host's /p/ pages with closed-form priority/lastmod —
    # capped at sitemap_cap entries per host (real sitemaps cap at 50k)
    with_sitemaps: bool = False
    sitemap_cap: int = 500
    # day-2 recrawl simulation: version > 0 changes the body text of
    # pages with i % change_every == 0 (closed form for the diff oracle)
    content_version: int = 0
    change_every: int = 10
    # browser-only content: pages with i % 11 == 5 hide an extra link behind
    # an expandable element — NOT present in the served HTML; only revealed
    # via the expansion interaction (MockWeb.expand), mirroring the
    # reference's accordion fixtures (local-server.ts:129-155)
    with_expandables: bool = False
    # pages with i % 9 == 4 trigger browser downloads (one duplicated) —
    # mirrors the crawlee download-capture fixture (index.spec.ts:156-174);
    # only browser-class adapters surface them
    with_downloads: bool = False


@dataclass
class MockResponse:
    url: str
    final_url: str
    status: int
    content_type: str
    content: str | None = None  # HTML text
    body_bytes: bytes | None = None  # binary payload (images/pdf)
    filename: str | None = None
    # RAW browser-download events (duplicates included — the browser runner
    # dedups them, browser-runner.ts:204-222); None for non-browser fetches
    downloads: list[dict] | None = None


def downloads_for(i: int, cfg: MockWebConfig) -> list[dict] | None:
    """Raw download events of page i (with a deliberate duplicate)."""
    if not cfg.with_downloads or i % 9 != 4:
        return None
    pdf = {
        "url": f"http://h{i % cfg.n_hosts}.test/files/doc{i}.pdf",
        "filename": f"doc{i}.pdf",
        "content_type": "application/pdf",
        "content": b"%PDF-1.4 fixture download " + str(i).encode(),
        "error": None,
    }
    txt = {
        "url": f"http://h{i % cfg.n_hosts}.test/files/notes{i}.txt",
        "filename": f"notes{i}.txt",
        "content_type": "text/plain",
        "content": f"notes for {i}".encode(),
        "error": None,
    }
    return [pdf, dict(pdf), txt]  # duplicate pdf event → must dedup to 2


def page_url(i: int, cfg: MockWebConfig) -> str:
    return f"http://h{i % cfg.n_hosts}.test/p/{i}"


def image_url(i: int, cfg: MockWebConfig) -> str:
    ext = "png" if i % 2 == 0 else "jpg"
    return f"http://h{i % cfg.n_hosts}.test/img/{i}.{ext}"


def out_link_ids(i: int, n: int) -> list[int]:
    """Closed-form edge list of page i (duplicated first edge not repeated)."""
    return [(2 * i + 1) % n, (3 * i + 7) % n, (5 * i + 3) % n]


def caption_for(i: int, cfg: MockWebConfig) -> str:
    return f"caption for image {i} on host {i % cfg.n_hosts}"


def image_pixels(i: int, cfg: MockWebConfig) -> np.ndarray:
    """Deterministic (size, size, 3) uint8 pixels seeded by (seed, i)."""
    rng = np.random.default_rng(np.uint64(cfg.seed) * np.uint64(1_000_003) + np.uint64(i))
    s = cfg.img_size
    base = rng.integers(0, 256, size=(s, s, 3), dtype=np.uint8)
    # overlay a deterministic gradient so phash has structure
    grad = (np.arange(s, dtype=np.uint16)[:, None] * 255 // max(1, s - 1)).astype(np.uint8)
    base[..., 0] = ((base[..., 0].astype(np.uint16) + grad) // 2).astype(np.uint8)
    return base


def image_fmt(i: int) -> str:
    return "png" if i % 2 == 0 else "jpeg"


def audio_wav_for(i: int, cfg: MockWebConfig, rate: int = 8000, seconds: float = 0.5) -> bytes:
    """Deterministic 16-bit mono WAV: two seeded sine partials + noise."""
    from ..functions.avcodec import encode_wav

    rng = np.random.default_rng(np.uint64(cfg.seed) * np.uint64(7_368_787) + np.uint64(i))
    n = int(rate * seconds)
    t = np.arange(n) / rate
    f1 = 100.0 + (i % 17) * 40.0
    f2 = 300.0 + (i % 7) * 120.0
    wave_ = (
        0.5 * np.sin(2 * np.pi * f1 * t)
        + 0.3 * np.sin(2 * np.pi * f2 * t)
        + 0.02 * rng.standard_normal(n)
    )
    return encode_wav(wave_ * 0.8, rate)


def video_for(i: int, cfg: MockWebConfig, n_frames: int = 12, fps: int = 10) -> bytes:
    """Deterministic SRV1 video: per-frame pixels derived from the image
    generator with a moving brightness band (frames differ but correlate)."""
    from ..functions.avcodec import encode_video

    frames = []
    base = image_pixels(i, cfg).astype(np.int16)
    s = cfg.img_size
    for f in range(n_frames):
        frame = base.copy()
        band = (f * s) // n_frames
        frame[band : band + 4, :, :] = np.minimum(255, frame[band : band + 4, :, :] + 80)
        frames.append(frame.astype(np.uint8))
    return encode_video(frames, fps=fps, fmt=image_fmt(i))


def page_html(i: int, cfg: MockWebConfig) -> str:
    n = cfg.n_pages
    ids = out_link_ids(i, n)
    links = [
        f'<a href="{page_url(ids[0], cfg)}" title="L{ids[0]}" class="nav link">to {ids[0]}</a>',
        # exact duplicate of the first link — first-wins dedup must collapse it
        f'<a href="{page_url(ids[0], cfg)}">dup of {ids[0]}</a>',
        f'<a href="{page_url(ids[1], cfg)}" rel="next">to {ids[1]}</a>',
        # root-relative href on the SAME host as the target (resolves only when
        # hosts match); keep closed-form: use absolute when hosts differ
        (
            f'<a href="/p/{ids[2]}">rel to {ids[2]}</a>'
            if ids[2] % cfg.n_hosts == i % cfg.n_hosts
            else f'<a href="{page_url(ids[2], cfg)}">to {ids[2]}</a>'
        ),
    ]
    if i % cfg.img_every == 0:
        links.append(f'<a href="{image_url(i, cfg)}" aria-label="image {i}">{caption_for(i, cfg)}</a>')
    if cfg.with_external_links:
        links.append('<a href="http://outside.example.org/x">external</a>')
        links.append('<a href="#">anchor</a>')
    if cfg.with_private:
        links.append(f'<a href="http://h{i % cfg.n_hosts}.test/private/{i}">private</a>')
    if cfg.with_detector_pages and i % 17 == 3:
        links.append(f'<a href="/download/minutes/?wpdmdl={i}" class="wpdm-download-link">minutes</a>')
    if cfg.with_expandables and i % 11 == 5:
        # the clickable affordance is in the HTML; the revealed content is not
        links.append('<button aria-expanded="false" class="accordion-header">more…</button>')
        links.append('<a href="#">menu</a>')  # anchor-skip heuristic target
    body = "\n".join(links)
    revision = (
        f"<p>revision {cfg.content_version}</p>\n"
        if cfg.content_version > 0 and i % cfg.change_every == 0
        else ""
    )
    return (
        f"<html><head><title>Page {i}</title>"
        f'<meta name="description" content="fixture page {i} host {i % cfg.n_hosts}">'
        f"</head><body><h1>Page {i}</h1>\n"
        f"<p>fixture body text for page {i} the quick brown fox</p>\n{revision}{body}\n"
        "</body></html>"
    )


class MockWeb:
    """url → MockResponse resolver. Stateless aside from config; cheap to
    hold per fetch actor."""

    def __init__(self, cfg: MockWebConfig):
        self.cfg = cfg

    def robots_txt(self, host: str) -> str | None:
        """The robots.txt ``resolve`` serves for ``host`` (200), or None
        (404) — always None for a host outside the universe."""
        if not _served(host):
            return None
        lines = []
        if self.cfg.with_private:
            lines.append("Disallow: /private/")
        if self.cfg.crawl_delay_s > 0 and host == "h1.test":
            lines.append(f"Crawl-delay: {self.cfg.crawl_delay_s:g}")
        # the standard announcement channel (robotstxt.org/sitemaps.org):
        # a Sitemap: line names the index; h2.test announces a
        # NON-conventional path to prove discovery reads robots rather
        # than assuming /sitemap.xml
        sitemap_lines = []
        if self.cfg.with_sitemaps:
            path = "/inventory.xml" if host == "h2.test" else "/sitemap.xml"
            sitemap_lines.append(f"Sitemap: http://{host}{path}")
        if not lines and not sitemap_lines:
            return None
        txt = ""
        if lines:
            txt = "User-agent: *\n" + "\n".join(lines) + "\n"
        if sitemap_lines:
            txt += "\n".join(sitemap_lines) + "\n"
        return txt

    def sitemap_index_xml(self, host: str) -> str:
        """Two-shard sitemapindex (exercises index recursion)."""
        locs = "".join(
            f"<sitemap><loc>http://{host}/sitemap-{k}.xml</loc></sitemap>"
            for k in (0, 1)
        )
        return (
            '<?xml version="1.0" encoding="UTF-8"?>'
            '<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
            f"{locs}</sitemapindex>"
        )

    def sitemap_urlset_xml(self, host: str, shard: int) -> str:
        """Closed-form urlset: host ``h``'s pages ``i = h + n_hosts*j``
        for ``j < sitemap_cap``, shard by ``j % 2``; priority
        ``0.(5 + i%5)``, fixed lastmod — all SQL-reproducible."""
        cfg = self.cfg
        h = _host_id(host)
        if h is None or h >= cfg.n_hosts:
            h = None
        entries = []
        if h is None:
            return (
                '<?xml version="1.0" encoding="UTF-8"?>'
                '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
                "</urlset>"
            )
        for j in range(shard, cfg.sitemap_cap, 2):
            i = h + cfg.n_hosts * j
            if i >= cfg.n_pages:
                break
            entries.append(
                f"<url><loc>{page_url(i, cfg)}</loc>"
                f"<lastmod>2026-01-01</lastmod>"
                f"<priority>0.{5 + (i % 5)}</priority></url>"
            )
        return (
            '<?xml version="1.0" encoding="UTF-8"?>'
            '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
            + "".join(entries)
            + "</urlset>"
        )

    def resolve(self, url: str, attempts: int = 0) -> MockResponse:
        cfg = self.cfg
        try:
            rest = url.split("://", 1)[1]
            host, _, path = rest.partition("/")
            path = "/" + path
        except (IndexError, ValueError):
            return MockResponse(url, url, 400, "text/plain", content="bad url")
        if not _served(host):
            return MockResponse(url, url, 404, "text/plain", content="offsite")

        if path == "/robots.txt":
            txt = self.robots_txt(host)
            if txt is None:
                return MockResponse(url, url, 404, "text/plain", content="")
            return MockResponse(url, url, 200, "text/plain", content=txt)

        if cfg.with_sitemaps and path in ("/sitemap.xml", "/inventory.xml"):
            # h2.test announces /inventory.xml via robots and does NOT
            # serve the conventional path (discovery must read robots)
            served = "/inventory.xml" if host == "h2.test" else "/sitemap.xml"
            if path == served:
                return MockResponse(
                    url, url, 200, "application/xml",
                    content=self.sitemap_index_xml(host),
                )
            return MockResponse(url, url, 404, "text/plain", content="")
        if cfg.with_sitemaps and path.startswith("/sitemap-") and path.endswith(".xml"):
            shard = _int_tail(path[len("/sitemap-"):-len(".xml")])
            if shard is None or shard not in (0, 1):
                return MockResponse(url, url, 404, "text/plain", content="")
            return MockResponse(
                url, url, 200, "application/xml",
                content=self.sitemap_urlset_xml(host, shard),
            )

        if path.startswith("/r/") and cfg.with_redirects:
            i = _int_tail(path[3:])
            if i is None or i >= cfg.n_pages:
                return MockResponse(url, url, 404, "text/plain", content="")
            target = page_url(i, cfg)
            resolved = self.resolve(target)
            # simple-adapter semantics: final_url rewritten to the target
            return MockResponse(
                url, target, resolved.status, resolved.content_type,
                content=resolved.content,
            )

        if path.startswith("/p/"):
            i = _int_tail(path[3:])
            if i is None or i >= cfg.n_pages or (i % cfg.n_hosts) != _host_id(host):
                return MockResponse(url, url, 404, "text/plain", content="")
            if cfg.with_errors:
                if i % 23 == 11:
                    return MockResponse(url, url, 404, "text/html", content="gone")
                if i % 29 == 13 and attempts == 0:  # deterministic flake
                    return MockResponse(url, url, 503, "text/html", content="busy")
            return MockResponse(
                url, url, 200, "text/html", content=page_html(i, cfg),
                downloads=downloads_for(i, cfg),
            )

        if path.startswith("/img/"):
            stem = path[5:]
            dot = stem.rfind(".")
            i = _int_tail(stem[:dot] if dot != -1 else stem)
            if i is None or i >= cfg.n_pages or (i % cfg.n_hosts) != _host_id(host):
                return MockResponse(url, url, 404, "text/plain", content="")
            fmt = image_fmt(i)
            data = encode_image(image_pixels(i, cfg), fmt)
            return MockResponse(
                url, url, 200, f"image/{'jpeg' if fmt == 'jpeg' else 'png'}",
                body_bytes=data, filename=f"{i}.{ 'jpg' if fmt=='jpeg' else 'png'}",
            )

        if path.startswith("/download/minutes/") and cfg.with_detector_pages:
            return MockResponse(
                url, url, 200, "application/pdf",
                body_bytes=b"%PDF-1.4 fixture minutes", filename="minutes.pdf",
            )

        if path.startswith("/private/"):
            return MockResponse(url, url, 200, "text/html", content="<html>private</html>")

        return MockResponse(url, url, 404, "text/plain", content="")

    def expand(self, url: str, round_: int) -> str:
        """Simulated in-page expansion: HTML fragment revealed by click
        round ``round_`` (1-based), '' when nothing more opens. Models the
        browser-only accordion content of the reference's /tree fixture
        (local-server.ts:129-141); only browser-class adapters call this."""
        cfg = self.cfg
        if not cfg.with_expandables:
            return ""
        try:
            rest = url.split("://", 1)[1]
            _host, _, path = rest.partition("/")
            i = _int_tail(("/" + path)[3:])
        except (IndexError, ValueError):
            return ""
        if i is None or i >= cfg.n_pages or i % 11 != 5:
            return ""
        if round_ == 1:
            hidden = (7 * i + 11) % cfg.n_pages
            return f'<a href="{page_url(hidden, cfg)}" class="hidden-doc">hidden {hidden}</a>'
        return ""

    def crawl4ai(self, url: str) -> dict | None:
        """Mock of the remote crawl4ai rendering service (adapter S4):
        POST /crawl → {cleaned_html, markdown, links{internal,external}}.
        Pages with i % 13 == 4 return empty service links to exercise the
        parser fallback branch (crawl4ai.ts:66-109)."""
        resp = self.resolve(url)
        if resp.status >= 400 or resp.content is None:
            return None
        try:
            i = _int_tail(url.rsplit("/", 1)[1])
        except (IndexError, ValueError):
            i = None
        from ..functions.links import extract_html_links

        links = extract_html_links(resp.content, url)
        internal = [l.href for l in links]
        service_links = {"internal": [], "external": []} if (
            i is not None and i % 13 == 4
        ) else {"internal": internal, "external": []}
        markdown = None
        if i is not None:
            markdown = f"# Page {i}\n\nfixture body text for page {i} the quick brown fox"
        return {
            "cleaned_html": resp.content,
            "markdown": markdown,
            "links": service_links,
        }

    # convenience for building the expected images table in tests
    def expected_image_row(self, i: int) -> dict:
        from ..functions.imagecodec import decode_image

        pixels = image_pixels(i, self.cfg)
        fmt = image_fmt(i)
        data = encode_image(pixels, fmt)
        return {
            "image_id": image_url(i, self.cfg),
            "bytes": data,
            "w": int(pixels.shape[1]),
            "h": int(pixels.shape[0]),
            "fmt": fmt,
            "caption": caption_for(i, self.cfg),
            # phash is over the *decoded* pixels (what a consumer of the
            # stored bytes reconstructs) — differs from the source for the
            # lossy codec by design
            "phash": phash64(decode_image(data)),
        }


def _served(host: str) -> bool:
    """Whether ``MockWeb`` serves ``host`` (the universe's ``h*.test``)."""
    return host.startswith("h") and host.endswith(".test")


def _host_id(host: str) -> int | None:
    try:
        return int(host[1:].split(".")[0])
    except ValueError:
        return None


def _int_tail(s: str) -> int | None:
    try:
        return int(s)
    except ValueError:
        return None


def seed_urls(cfg: MockWebConfig, every: int = 50) -> list[str]:
    """Deterministic seed list: every ``every``-th page."""
    return [page_url(i, cfg) for i in range(0, cfg.n_pages, every)]


class BrowserRuntimeStub:
    """Executable reference implementation of the browser-actor contract
    (CrawlConfig.resolver_factory doc; reference launches real Chromium,
    src/shared/browser-runner.ts:224-351 — no Chromium in this container).

    ``resolve(url, attempts)`` returns the settled page as a
    MockResponse-shaped record; ``expand(url, round)`` serves one
    interaction round (revealed HTML or None). Construction stands in for
    the browser launch — FetchStage builds the resolver once per actor, so
    instances-per-actor is the launches-per-actor count. Configure with
    ``functools.partial(BrowserRuntimeStub, pages, expansions)`` to keep
    the factory zero-arg and picklable into worker processes."""

    def __init__(
        self,
        pages: dict[str, str],
        expansions: dict[tuple[str, int], str] | None = None,
        status: int = 200,
    ):
        self.pages = pages
        self.expansions = expansions or {}
        self.status = status

    def resolve(self, url: str, attempts: int = 0) -> MockResponse:
        html = self.pages.get(url)
        if html is None:
            return MockResponse(url, url, 404, "text/html", content="")
        return MockResponse(url, url, self.status, "text/html", content=html)

    def expand(self, url: str, round_: int) -> str | None:
        return self.expansions.get((url, round_))
