"""Pre-rendered fixture web: the benchmark's load generator.

``render(cfg, path)`` resolves every URL of a ``MockWebConfig`` universe once
through ``MockWeb.resolve`` and writes the responses to one file:

    magic "PBFX1" | header length (u32) | JSON header | index | record blob

The index holds four int64 (offset, length) tables, one per URL family:
pages at attempt 0, pages at attempt >= 1 (they differ only for the
deterministic 503-then-200 pages), images and ``/private/`` pages. A record
is ``status (u16) | ctype length (u8) | ctype | filename length (u8) |
filename | kind (u8: 0 text, 1 bytes, 2 none) | payload``.

``PrerenderedWeb(path)`` serves the file through the
``CrawlConfig.resolver_factory`` seam. Opening it memory-maps the file and
views the index in place, so a fetch actor's start costs O(1) in the size
of the universe (the ``preempted`` workload restarts the fetch pool on
every slice). URLs outside the universe fall back to ``MockWeb``; the
workloads here never produce one.
"""

from __future__ import annotations

import json
import mmap
import struct

import numpy as np

from spider_ray.sources.fixtures import (
    MockResponse,
    MockWeb,
    MockWebConfig,
    image_url,
    page_url,
)

_MAGIC = b"PBFX1"
_FAMILIES = ("page0", "page1", "img", "private")


def _family_url(cfg: MockWebConfig, family: str, i: int) -> str | None:
    """URL of id ``i`` in the ``img`` or ``private`` family, None when the
    universe has none."""
    if family == "img":
        return image_url(i, cfg) if i % cfg.img_every == 0 else None
    return f"http://h{i % cfg.n_hosts}.test/private/{i}" if cfg.with_private else None


def _encode(resp: MockResponse) -> bytes:
    ctype = (resp.content_type or "").encode()
    fname = (resp.filename or "").encode()
    if resp.body_bytes is not None:
        kind, payload = 1, resp.body_bytes
    elif resp.content is not None:
        kind, payload = 0, resp.content.encode()
    else:
        kind, payload = 2, b""
    return b"".join((
        struct.pack("<HB", resp.status, len(ctype)), ctype,
        struct.pack("<B", len(fname)), fname,
        struct.pack("<B", kind), payload,
    ))


def render(cfg: MockWebConfig, path: str) -> int:
    """Pre-render the whole universe of ``cfg`` into ``path``, streaming the
    records to disk; returns the number of records written. A page's
    attempt-1 response is rendered only when the fixture has attempt-
    dependent rows (``with_errors``); ``compare_sample`` checks both."""
    web = MockWeb(cfg)
    n = cfg.n_pages
    index = {f: np.full((n, 2), -1, dtype=np.int64) for f in _FAMILIES}
    header = json.dumps({"n_pages": n, "n_hosts": cfg.n_hosts}).encode()
    n_records = 0
    with open(path, "wb") as f:
        f.write(_MAGIC + struct.pack("<I", len(header)) + header)
        index_pos = f.tell()
        base = index_pos + 16 * n * len(_FAMILIES)
        f.seek(base)
        offset = 0

        def put(table: np.ndarray, i: int, rec: bytes) -> None:
            nonlocal offset, n_records
            f.write(rec)
            table[i] = (offset, len(rec))
            offset += len(rec)
            n_records += 1

        for i in range(n):
            rec0 = _encode(web.resolve(page_url(i, cfg), attempts=0))
            put(index["page0"], i, rec0)
            rec1 = (
                _encode(web.resolve(page_url(i, cfg), attempts=1))
                if cfg.with_errors else rec0
            )
            if rec1 == rec0:
                index["page1"][i] = index["page0"][i]
            else:
                put(index["page1"], i, rec1)
        for family in ("img", "private"):
            for i in range(n):
                url = _family_url(cfg, family, i)
                if url is not None:
                    put(index[family], i, _encode(web.resolve(url)))
        f.seek(index_pos)
        for family in _FAMILIES:
            f.write(index[family].tobytes())
    return n_records


class PrerenderedWeb:
    """Resolver over a rendered fixture file (``resolve(url, attempts)``
    returns a ``MockResponse``, as ``MockWeb.resolve`` does)."""

    def __init__(self, path: str, cfg: MockWebConfig):
        self.cfg = cfg
        self._file = open(path, "rb")
        self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        if self._mm[:5] != _MAGIC:
            raise ValueError(f"{path}: not a fixture file")
        (hlen,) = struct.unpack_from("<I", self._mm, 5)
        header = json.loads(self._mm[9 : 9 + hlen])
        self.n = header["n_pages"]
        self.n_hosts = header["n_hosts"]
        pos = 9 + hlen
        self._index = {}
        for family in _FAMILIES:
            self._index[family] = np.frombuffer(
                self._mm, dtype=np.int64, count=2 * self.n, offset=pos
            ).reshape(self.n, 2)
            pos += 16 * self.n
        self._base = pos
        self._fallback: MockWeb | None = None

    def close(self) -> None:
        self._index = {}
        self._mm.close()
        self._file.close()

    def _record(self, family: str, i: int, url: str) -> MockResponse | None:
        off, length = self._index[family][i]
        if off < 0:
            return None
        mm, pos = self._mm, self._base + int(off)
        status, clen = struct.unpack_from("<HB", mm, pos)
        pos += 3
        ctype = mm[pos : pos + clen].decode()
        pos += clen
        flen = mm[pos]
        filename = mm[pos + 1 : pos + 1 + flen].decode() or None
        pos += 1 + flen
        kind = mm[pos]
        payload = mm[pos + 1 : self._base + int(off) + int(length)]
        return MockResponse(
            url, url, status, ctype,
            content=payload.decode() if kind == 0 else None,
            body_bytes=payload if kind == 1 else None,
            filename=filename,
        )

    def _lookup(self, url: str, attempts: int) -> MockResponse | None:
        rest = url.split("://", 1)[-1]
        host, _, path = rest.partition("/")
        if not (host.startswith("h") and host.endswith(".test")):
            return None
        if path.startswith("p/"):
            family, tail = ("page1" if attempts else "page0"), path[2:]
        elif path.startswith("img/"):
            family, tail = "img", path[4:].rpartition(".")[0]
        elif path.startswith("private/"):
            family, tail = "private", path[8:]
        else:
            return None
        if not tail.isdigit():
            return None
        i = int(tail)
        if i >= self.n or host != f"h{i % self.n_hosts}.test":
            return None
        resp = self._record(family, i, url)
        if resp is not None and family == "img" and url != image_url(i, self.cfg):
            return None  # wrong extension for this id: MockWeb decides
        return resp

    def resolve(self, url: str, attempts: int = 0) -> MockResponse:
        resp = self._lookup(url, attempts)
        if resp is None:
            if self._fallback is None:
                self._fallback = MockWeb(self.cfg)
            resp = self._fallback.resolve(url, attempts)
        return resp


def compare_sample(path: str, cfg: MockWebConfig, ids: list[int]) -> list[str]:
    """Byte-compare ``PrerenderedWeb`` against ``MockWeb.resolve`` for every
    URL the universe has for ``ids`` (page, image, private) at attempts 0
    and 1, without the ``MockWeb`` fallback; returns a
    description of every mismatch (empty when they agree)."""
    web, pre = MockWeb(cfg), PrerenderedWeb(path, cfg)
    fields = ("url", "final_url", "status", "content_type", "content",
              "body_bytes", "filename", "downloads")
    bad = []
    try:
        for i in ids:
            urls = [page_url(i, cfg)] + [
                u for u in (_family_url(cfg, f, i) for f in ("img", "private"))
                if u is not None
            ]
            for url in urls:
                for attempts in (0, 1):
                    a, b = web.resolve(url, attempts), pre._lookup(url, attempts)
                    if b is None:
                        bad.append(f"{url} attempts={attempts}: not pre-rendered")
                        continue
                    for name in fields:
                        if getattr(a, name) != getattr(b, name):
                            bad.append(f"{url} attempts={attempts}: {name} differs")
    finally:
        pre.close()
    return bad
