"""FetchStage — the adapter-parity fetch actor pool.

One callable class passed to ``ds.map_batches(FetchStage, concurrency=N,
batch_size=B)``; the Ray-native generalization of the reference's four fetch
adapters (src/adapters/{simple,dom,crawlee,crawl4ai}.ts). Stateful setup —
adapter construction, response cache, politeness client — happens once per
actor in ``__init__`` (the reference rebuilds the browser per URL,
src/shared/browser-runner.ts:335-338; the pool amortizes it).

Adapter-parity contract reproduced (SURVEY.md §2.1 + hard-parts note):
- ``simple``: follows redirects (≤5) and REWRITES ``final_url``
  (simple.ts:115-120); status ≥400 → error row (simple.ts:104-109)
- ``dom``: same fetch but ``final_url`` stays the request URL
  (dom.ts:129-132) and content is normalized through an HTML round-trip
  (dom.ts:36-49)
- validation: invalid URLs become ``status=0, error='ValidationError'``
  rows, not exceptions (failures are data → retryable via frontier
  re-enqueue, SURVEY.md §4)
- cache: content-addressed key (functions.cachekey, cache.ts:48-60) over an
  actor-local LRU; hits skip the "network" and set ``cache_hit``

The network itself is the deterministic MockWeb resolver (sources.fixtures)
— the hermetic stand-in for undici/Playwright, which this container cannot
run. A real-HTTP adapter would slot in behind the same ``_fetch_one``
seam with an asyncio session per actor.
"""

from __future__ import annotations

import time
from collections import OrderedDict

import numpy as np
import pyarrow as pa

from ..functions.cachekey import create_cache_key
from ..functions.urls import host_of, is_valid_url, url_hash64
from ..schemas import PAGES_SCHEMA
from ..sources.fixtures import MockWeb, MockWebConfig

_FIXED_EPOCH_MS = 1_700_000_000_000  # deterministic fetched_at (no wall clock)

# browser-runner.ts:18-21: env fallbacks for the Chromium binary path,
# first non-empty wins; an explicit path always wins over both
BROWSER_EXECUTABLE_PATH_ENV_VARS = (
    "HAVE_SPIDER_BROWSER_EXECUTABLE_PATH",
    "PLAYWRIGHT_CHROMIUM_EXECUTABLE_PATH",
)


def resolve_browser_executable_path(
    explicit_path: str | None = None,
    include_environment: bool = True,
    env: dict | None = None,
) -> str | None:
    """browser-runner.ts:102-123 resolveBrowserExecutablePath: trimmed
    explicit path wins; otherwise the env fallbacks in declared order —
    unless the caller excludes the environment (stealth mode passes
    ``includeEnvironment: !stealth`` so a stealth browser never silently
    picks up a non-stealth binary from the environment,
    crawlee.ts:52-55)."""
    import os

    normalized = (explicit_path or "").strip()
    if normalized:
        return normalized
    if not include_environment:
        return None
    env = os.environ if env is None else env
    for name in BROWSER_EXECUTABLE_PATH_ENV_VARS:
        configured = (env.get(name) or "").strip()
        if configured:
            return configured
    return None


def process_html(html: str) -> str:
    """DOM-normalization round-trip (dom.ts:36-49): the reference parses
    into a happy-dom document and re-serializes, which normalizes
    structure. The stdlib rebuild reproduces the observable effects:
    lowercased tag/attribute names, double-quoted attribute values with
    entity-escaped specials, entity references decoded then re-encoded
    canonically (``&amp;`` stays escaped, numeric refs become literal
    characters), boolean attributes as ``name=""``, and the implied
    ``<tbody>`` inserted around bare table rows. On failure, return the
    raw HTML (reference warns + passes through)."""
    from html import escape
    from html.parser import HTMLParser

    out: list[str] = []

    class _Ser(HTMLParser):
        _SECTIONS = {"tbody", "thead", "tfoot"}

        def __init__(self):
            # convert_charrefs=True decodes entity/char refs into data;
            # escaping on output re-encodes canonically (the r1 serializer
            # silently DROPPED entities — no entityref handlers)
            super().__init__(convert_charrefs=True)
            # per-<table>: [implied tbody open?, inside explicit section?]
            self._tbody_stack: list[list[bool]] = []

        def _close_implied_tbody(self):
            if self._tbody_stack and self._tbody_stack[-1][0]:
                out.append("</tbody>")
                self._tbody_stack[-1][0] = False

        def handle_starttag(self, tag, attrs):
            if tag == "table":
                self._tbody_stack.append([False, False])
            elif self._tbody_stack:
                state = self._tbody_stack[-1]
                if tag == "tr" and not state[0] and not state[1]:
                    out.append("<tbody>")  # implied table section
                    state[0] = True
                elif tag in self._SECTIONS:
                    self._close_implied_tbody()
                    state[1] = True
            parts = "".join(
                f' {k}=""' if v is None else f' {k}="{escape(v, quote=True)}"'
                for k, v in attrs
            )
            out.append(f"<{tag}{parts}>")

        def handle_startendtag(self, tag, attrs):
            self.handle_starttag(tag, attrs)

        def handle_endtag(self, tag):
            if self._tbody_stack:
                if tag == "table":
                    self._close_implied_tbody()
                    self._tbody_stack.pop()
                elif tag in self._SECTIONS:
                    self._tbody_stack[-1][1] = False
            out.append(f"</{tag}>")

        def handle_data(self, data):
            out.append(escape(data, quote=False))

        def handle_comment(self, data):
            out.append(f"<!--{data}-->")

        def handle_decl(self, decl):
            out.append(f"<!{decl}>")

    try:
        parser = _Ser()
        parser.feed(html)
        parser.close()
        return "".join(out)
    except Exception:
        return html


class FetchStage:
    """Actor-pool fetch: one batch of frontier rows in, pages rows out."""

    ADAPTERS = ("simple", "dom", "crawlee", "crawl4ai", "tree")

    def __init__(
        self,
        web_config: MockWebConfig | None = None,
        adapter: str = "simple",
        cache_size: int = 4096,
        cache_enabled: bool = True,
        custom_selectors: list[str] | None = None,
        resolver=None,
        cache_dir: str | None = None,
        cache_ttl_ms: int | None = None,
        cache_clock=None,
        cache_provider: dict | None = None,
        headers: dict | None = None,
        headless: bool = True,
        user_agent: str | None = None,
        stealth: bool | None = None,
        executable_path: str | None = None,
        cloak: dict | None = None,
    ):
        if adapter not in self.ADAPTERS:
            # mirror scraper-factory.ts:52-59: reserved names typed but
            # rejected at runtime
            raise ValueError(f"ValidationError: unsupported adapter {adapter!r}")
        # the network seam: anything with .resolve(url, attempts) →
        # MockResponse-shaped record. Default = hermetic MockWeb; pass
        # stages.http_fetch.HttpResolver for real HTTP (simple.ts parity).
        self.web = resolver if resolver is not None else MockWeb(
            web_config or MockWebConfig()
        )
        self.adapter = adapter
        self.cache: OrderedDict[str, dict] = OrderedDict()
        self.cache_size = cache_size
        self.cache_enabled = cache_enabled
        # tree-scraper extension point; varies the cache key (tree.ts:110)
        self.custom_selectors = custom_selectors or []
        # request headers vary the cache key (index.spec.ts:120-146
        # "cache varies by headers") and are honored by HttpResolver
        self.headers = headers or None
        # browser-family launch options (crawlee.ts:29-44). No Chromium in
        # this container, so their only observable behavior is the declared
        # cache-key contract (crawlee.ts:46-66, tree.ts:101-121): a stealth
        # or differently-binaried browser must never serve another
        # configuration's cached render. cloak is the CloakBrowserOptions
        # dict {humanize, executablePath, autoUpdate} (types.ts:104-113).
        self.headless = headless
        self.user_agent = user_agent
        self.stealth = stealth
        self.executable_path = executable_path
        self.cloak = cloak or None
        # optional persistent TTL'd backend shared across actors/processes
        # (cache.ts:20-45; survives re-runs — README.md:554-557 resume)
        # cache_provider is the CacheProviderConfig-equivalent
        # (types.ts:177-186): {"provider": "s3", "bucket": ..., "prefix": ...}
        # selects the object-store backend; default/file uses cache_dir.
        if cache_dir or (cache_provider or {}).get("provider") == "s3":
            from ..state.cache import make_cache

            self.pcache = make_cache(cache_dir, cache_provider, clock=cache_clock)
        else:
            self.pcache = None
        self.cache_ttl_ms = cache_ttl_ms
        self.fetches = 0
        self.cache_hits = 0

    # -- browser-class expansion fixpoint ---------------------------------
    def _expand(self, url: str, content: str) -> tuple[str, int]:
        """Bounded expansion loop (crawlee: ≤3 rounds, crawlee.ts:120-149;
        tree: ≤10 rounds with 2-consecutive-empty stop, tree.ts:18,162-163).
        Revealed fragments are appended to the content so the ordinary link
        parse sees them; first-wins dedup keeps visible links ahead of
        revealed duplicates (crawlee.ts:154-163 merge semantics)."""
        if not hasattr(self.web, "expand"):
            # real-HTTP resolver: no browser runtime → no expansion
            return content, 0
        max_rounds = 3 if self.adapter == "crawlee" else 10
        empty_stop = 1 if self.adapter == "crawlee" else 2
        clicked: set[int] = set()  # ST4 clicked-set analogue
        interactions = 0
        empty_streak = 0
        for round_ in range(1, max_rounds + 1):
            if round_ in clicked:
                continue
            fragment = self.web.expand(url, round_)
            clicked.add(round_)
            if fragment:
                content += "\n" + fragment
                interactions += 1
                empty_streak = 0
            else:
                empty_streak += 1
                if empty_streak >= empty_stop:
                    break
        return content, interactions

    # -- cache-key contract ------------------------------------------------
    def cache_key(self, url: str) -> str:
        """Content-addressed cache key; the declared vary-by surface per
        adapter family. Browser family (crawlee.ts:46-66, tree.ts:101-121)
        varies by every launch option that can change the rendered page:
        headless, effective user agent, headers, stealth, the RESOLVED
        executable path (env fallbacks participate only when stealth is
        off — crawlee.ts:52-55), and the three cloak knobs. crawl4ai
        (crawl4ai.ts:168-173) varies by (serverUrl, headless, userAgent,
        waitUntil)."""
        parts = {
            "adapter": self.adapter,
            "customSelectors": self.custom_selectors or None,
        }
        if self.headers:  # absent ≈ reference's dropped-undefined
            parts["headers"] = self.headers
        if self.adapter in ("crawlee", "tree"):
            resolved = resolve_browser_executable_path(
                self.executable_path,
                include_environment=not self.stealth,
            )
            cloak = self.cloak or {}
            parts["browserConfig"] = [
                self.headless,
                self.user_agent,
                self.stealth,
                resolved,
                cloak.get("humanize"),
                cloak.get("executablePath"),
                cloak.get("autoUpdate"),
            ]
        if self.adapter == "crawl4ai" and getattr(
            self.web, "crawl4ai_url", None
        ):
            parts["crawl4aiConfig"] = [
                self.web.crawl4ai_url,
                getattr(self.web, "crawl4ai_headless", True),
                getattr(self.web, "user_agent", None),
                getattr(self.web, "crawl4ai_wait_until", None),
            ]
        return create_cache_key(self.adapter, url, [parts])

    # -- single fetch (the adapter seam) ----------------------------------
    def _fetch_one(self, url: str, attempts: int) -> dict:
        start = time.perf_counter()
        if not is_valid_url(url):
            return self._row(
                url, url, 0, None, None, None, None, 0.0, False, "ValidationError"
            )
        key = None
        if self.cache_enabled:  # key derivation skipped entirely when off
            key = self.cache_key(url)
            if key in self.cache:
                self.cache.move_to_end(key)
                self.cache_hits += 1
                cached = dict(self.cache[key])
                cached["cache_hit"] = True
                return cached
            if self.pcache is not None:  # persistent probe after LRU miss
                hit = self.pcache.get(key)
                if hit is not None:
                    self.cache[key] = hit
                    if len(self.cache) > self.cache_size:
                        self.cache.popitem(last=False)
                    self.cache_hits += 1
                    row = dict(hit)
                    row["cache_hit"] = True
                    return row
        resp = self.web.resolve(url, attempts=attempts)
        self.fetches += 1
        # adapter-parity quirk: simple follows redirects and REWRITES the
        # final url (simple.ts:115-120); dom/browser adapters report the
        # request URL (dom.ts:129-132)
        final_url = resp.final_url if self.adapter in ("simple", "crawl4ai") else url
        content = resp.content
        markdown = None
        links = None
        interactions = 0
        if resp.status < 400 and content is not None:
            if self.adapter == "dom":
                content = process_html(content)
            elif self.adapter in ("crawlee", "tree"):
                content, interactions = self._expand(url, content)
            elif self.adapter == "crawl4ai":
                try:
                    svc = (
                        self.web.crawl4ai(url)
                        if hasattr(self.web, "crawl4ai") else None
                    )
                except ConnectionError as exc:
                    # crawl4ai.ts:262-289 NetworkError ⇒ error row, not an
                    # exception out of the batch ("failures are data")
                    return self._row(
                        url, url, 599, None, None, None, None,
                        (time.perf_counter() - start) * 1000.0, False,
                        f"NetworkError: {exc}",
                    )
                if svc is not None:
                    if isinstance(svc, dict) and svc.get("url"):
                        final_url = svc["url"]  # crawl4ai.ts:244 result.url
                    content = svc["cleaned_html"] or content
                    markdown = svc["markdown"]
                    internal = svc["links"]["internal"]
                    external = svc["links"]["external"]
                    if internal or external:
                        # service links win, internal before external,
                        # absolutized + first-wins dedup (crawl4ai.ts:66-105);
                        # quirk: no rel/target/classes metadata
                        seen: set[str] = set()
                        links = []
                        from ..functions.urls import resolve_href

                        for href in [*internal, *external]:
                            absolute = resolve_href(href, url)
                            if absolute in seen:
                                continue
                            seen.add(absolute)
                            links.append(
                                {
                                    "href": absolute, "text": "", "title": None,
                                    "aria_label": None, "rel": None,
                                    "target": None, "classes": None,
                                }
                            )
                    # else: fall through → parse stage extracts from HTML
        error = None
        if resp.status >= 400:
            error = f"NetworkError: HTTP {resp.status}"
        # downloads only surface through browser-class adapters
        # (types.ts:92-96); raw events deduped by (url, filename,
        # contentType) first-wins (browser-runner.ts:204-222)
        downloads = None
        if self.adapter in ("crawlee", "tree"):
            raw_downloads = getattr(resp, "downloads", None)
            if raw_downloads:
                from ..functions.downloads import dedupe_downloads

                downloads = dedupe_downloads(raw_downloads)
        duration_ms = (time.perf_counter() - start) * 1000.0
        row = self._row(
            url,
            final_url,
            resp.status,
            resp.content_type,
            content,
            resp.body_bytes,
            resp.filename,
            duration_ms,
            False,
            error,
            markdown=markdown,
            links=links,
            interactions=interactions,
            downloads=downloads,
        )
        if self.cache_enabled and resp.status < 400:
            self.cache[key] = row
            if len(self.cache) > self.cache_size:
                self.cache.popitem(last=False)
            if self.pcache is not None:
                self.pcache.set(key, row, self.cache_ttl_ms)
        return row

    @staticmethod
    def _row(
        url, final_url, status, content_type, content, body_bytes, filename,
        duration_ms, cache_hit, error, markdown=None, links=None, interactions=0,
        downloads=None,
    ) -> dict:
        return {
            "url": url,
            "final_url": final_url,
            "status": status,
            "content_type": content_type,
            "content": content,
            "body_bytes": body_bytes,
            "filename": filename,
            "duration_ms": duration_ms,
            "cache_hit": cache_hit,
            "error": error,
            "markdown": markdown,
            "links": links,
            "interactions": interactions,
            "downloads": downloads,
        }

    # -- batch entry ------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        depths = (
            batch.column("depth").to_pylist()
            if "depth" in batch.column_names
            else [0] * len(urls)
        )
        attempts = (
            batch.column("attempts").to_pylist()
            if "attempts" in batch.column_names
            else [0] * len(urls)
        )
        rows = [self._fetch_one(u, a or 0) for u, a in zip(urls, attempts)]
        n = len(rows)
        cols: dict[str, pa.Array] = {
            "url": pa.array([r["url"] for r in rows], pa.string()),
            "final_url": pa.array([r["final_url"] for r in rows], pa.string()),
            "url_hash": pa.array(
                [url_hash64(u) for u in urls], pa.uint64()
            )
            if "url_hash" not in batch.column_names
            else batch.column("url_hash").combine_chunks(),
            "host": pa.array([host_of(u) for u in urls], pa.string())
            if "host" not in batch.column_names
            else batch.column("host").combine_chunks(),
            "depth": pa.array(depths, pa.int32()),
            "status": pa.array([r["status"] for r in rows], pa.int32()),
            "content_type": pa.array([r["content_type"] for r in rows], pa.string()),
            "content": pa.array([r["content"] for r in rows], pa.large_string()),
            "body_bytes": pa.array([r["body_bytes"] for r in rows], pa.large_binary()),
            "filename": pa.array([r["filename"] for r in rows], pa.string()),
            "downloads": pa.array(
                [r.get("downloads") for r in rows],
                PAGES_SCHEMA.field("downloads").type,
            ),
            "links": pa.array(
                [r["links"] for r in rows], PAGES_SCHEMA.field("links").type
            ),
            "markdown": pa.array([r["markdown"] for r in rows], pa.large_string()),
            "fetched_at": pa.array([_FIXED_EPOCH_MS] * n, pa.timestamp("ms")),
            "cache_hit": pa.array([r["cache_hit"] for r in rows], pa.bool_()),
            "strategy_type": pa.array(
                ["tree" if self.adapter == "tree" else "basic"] * n, pa.string()
            ),
            "strategy_spider": pa.array([self.adapter] * n, pa.string()),
            "confidence": pa.array(
                [self._confidence(r) for r in rows], pa.float64()
            ),
            "duration_ms": pa.array(
                [int(r["duration_ms"]) for r in rows], pa.int64()
            ),
            "link_count": pa.nulls(n, pa.int32()),
            "interaction_count": pa.array(
                [r["interactions"] for r in rows], pa.int32()
            ),
            "complete": pa.array([r["status"] < 400 for r in rows], pa.bool_()),
            "error": pa.array([r["error"] for r in rows], pa.string()),
        }
        out = pa.table({name: cols[name] for name in PAGES_SCHEMA.names})
        if "anchor_text" in batch.column_names:  # caption passthrough
            out = out.append_column(
                "anchor_text", batch.column("anchor_text").combine_chunks()
            )
        return out

    def _confidence(self, row: dict) -> float:
        """A5 confidence scoring: basic constant 1.0 (basic.ts:113); tree
        0.9 with interactions else 0.5 (tree.ts:340), download path 0.8
        (tree.ts:376)."""
        if self.adapter != "tree":
            return 1.0
        if row["body_bytes"] is not None:
            return 0.8
        return 0.9 if row["interactions"] else 0.5

    def stats(self) -> dict:
        return {"fetches": self.fetches, "cache_hits": self.cache_hits}
