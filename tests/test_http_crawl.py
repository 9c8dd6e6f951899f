"""End-to-end REAL-HTTP crawl: the full wave scheduler (frontier, seen
set, politeness, checkpoints) fetching over actual sockets from a local
http.server — the reference's core use (network crawl) through the
identical engine path that the MockWeb conformance tests pin."""

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from spider_ray.pipelines.crawl import CrawlConfig, run_crawl
from spider_ray.sources.storage import EpochStore
from spider_ray.stages.http_fetch import HttpResolver

N_PAGES = 40


def _page_html(i: int, base: str) -> str:
    links = sorted({(2 * i + 1) % N_PAGES, (3 * i + 2) % N_PAGES})
    body = "".join(f'<a href="{base}/g/{j}">to {j}</a>' for j in links)
    if i == 7:  # one dead link: must become a 404 error row, not a crash
        body += f'<a href="{base}/missing">dead</a>'
    return f"<html><body><h1>Node {i}</h1>{body}</body></html>"


class _GraphHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_GET(self):
        base = f"http://127.0.0.1:{self.server.server_address[1]}"
        if self.path.startswith("/g/"):
            try:
                i = int(self.path[3:])
            except ValueError:
                i = -1
            if 0 <= i < N_PAGES:
                body = _page_html(i, base).encode()
                self.send_response(200)
                self.send_header("Content-Type", "text/html; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
        self.send_response(404)
        self.send_header("Content-Length", "4")
        self.end_headers()
        self.wfile.write(b"gone")


def _bfs_oracle(seeds: list[int]) -> dict[int, int]:
    depth = {}
    level, d = sorted(set(seeds)), 0
    while level:
        nxt = set()
        for i in level:
            if i in depth:
                continue
            depth[i] = d
            for j in ((2 * i + 1) % N_PAGES, (3 * i + 2) % N_PAGES):
                if j not in depth:
                    nxt.add(j)
        level, d = sorted(nxt - set(depth)), d + 1
    return depth


@pytest.fixture(scope="module")
def graph_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _GraphHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()


def test_real_http_crawl_matches_bfs(ray_session, tmp_path, graph_server):
    base = graph_server
    seeds = [0, 13]
    config = CrawlConfig(
        out_dir=str(tmp_path / "httpcrawl"),
        seeds=[f"{base}/g/{i}" for i in seeds],
        resolver_factory=HttpResolver,
        wave_k=10_000,
        exact_seen=True,
        fetch_concurrency=2,
        fetch_mode="pool",
        retry_max_attempts=0,
    )
    result = run_crawl(config)
    store = EpochStore(config.out_dir)
    order = store.read_all("order")
    fetched = {
        u: e for u, e in zip(
            order.column("url").to_pylist(), order.column("epoch").to_pylist()
        )
    }
    oracle = _bfs_oracle(seeds)
    expected_urls = {f"{base}/g/{i}": d for i, d in oracle.items()}
    # the dead link is discovered and fetched once (as a 404 error row)
    expected_urls[f"{base}/missing"] = oracle[7] + 1
    assert fetched == expected_urls
    assert result.pages_fetched == len(expected_urls)
    # error-row semantics over real sockets
    pages = store.read_all("pages")
    by_url = dict(zip(pages.column("url").to_pylist(), pages.column("status").to_pylist()))
    assert by_url[f"{base}/missing"] == 404
    ok = [s for u, s in by_url.items() if u != f"{base}/missing"]
    assert all(s == 200 for s in ok)


def test_real_http_crawl_resume(ray_session, tmp_path, graph_server):
    base = graph_server
    config = CrawlConfig(
        out_dir=str(tmp_path / "httpresume"),
        seeds=[f"{base}/g/0"],
        resolver_factory=HttpResolver,
        wave_k=10_000,
        exact_seen=True,
        fetch_concurrency=2,
        max_epochs=2,
    )
    run_crawl(config)
    from dataclasses import replace

    resumed = run_crawl(replace(config, max_epochs=64), resume=True)
    oracle = _bfs_oracle([0])
    order = EpochStore(config.out_dir).read_all("order")
    assert {
        u for u in order.column("url").to_pylist() if "/missing" not in u
    } == {f"{base}/g/{i}" for i in oracle}
    assert resumed.seen_size == len(oracle) + 1  # + the dead link


def _robots_server(robots: list[tuple[int, str]]):
    """The graph server with a ``/private/<i>`` twin linked from every page
    and ``/robots.txt`` answered with ``robots[k]`` on its k-th request (the
    last entry repeats). Returns the server and its request-path log."""
    log: list = []

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _send(self, status: int, ctype: str, body: bytes):
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            log.append(self.path)
            base = f"http://127.0.0.1:{self.server.server_address[1]}"
            if self.path == "/robots.txt":
                status, text = robots[min(log.count("/robots.txt"), len(robots)) - 1]
                return self._send(status, "text/plain", text.encode())
            if self.path.startswith("/private/"):
                return self._send(200, "text/html", b"<html>private</html>")
            i = int(self.path[3:]) if self.path[3:].isdigit() else -1
            if self.path.startswith("/g/") and 0 <= i < N_PAGES:
                html = _page_html(i, base).replace(
                    "</body>", f'<a href="{base}/private/{i}">p</a></body>'
                )
                return self._send(200, "text/html; charset=utf-8", html.encode())
            return self._send(404, "text/plain", b"gone")

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, log


def _robots_crawl(tmp_path, robots: list[tuple[int, str]]):
    """A robots-on real-HTTP crawl from pages 0 and 13: (fetched url →
    epoch, the server's request log, the crawl result, its store)."""
    server, log = _robots_server(robots)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        config = CrawlConfig(
            out_dir=str(tmp_path / "robots"),
            seeds=[f"{base}/g/0", f"{base}/g/13"],
            resolver_factory=HttpResolver,
            respect_robots=True,
            wave_k=10_000,
            exact_seen=True,
            fetch_concurrency=2,
            retry_max_attempts=0,
            max_epochs=20,
        )
        result = run_crawl(config)
    finally:
        server.shutdown()
        server.server_close()
    store = EpochStore(config.out_dir)
    order = store.read_all("order")
    fetched = dict(zip(order.column("url").to_pylist(), order.column("epoch").to_pylist()))
    return base, fetched, log, result, store


def _expected(base: str, with_private: bool) -> dict:
    """url → BFS depth of the robots crawl's pages."""
    oracle = _bfs_oracle([0, 13])
    want = {f"{base}/g/{i}": d for i, d in oracle.items()}
    want[f"{base}/missing"] = oracle[7] + 1
    if with_private:
        want.update({f"{base}/private/{i}": d + 1 for i, d in oracle.items()})
    return want


DISALLOW_PRIVATE = (200, "User-agent: *\nDisallow: /private/\n")


def test_real_http_robots_disallow_is_never_requested(ray_session, tmp_path):
    """robots.txt comes from the server itself, once for the host, and no
    disallowed path is ever requested; the disallowed URLs are logged as
    dropped."""
    base, fetched, log, result, store = _robots_crawl(tmp_path, [DISALLOW_PRIVATE])
    assert log.count("/robots.txt") == 1 and log[0] == "/robots.txt"
    assert not [p for p in log if p.startswith("/private/")]
    assert fetched == _expected(base, with_private=False)
    assert store.read_all("dropped").num_rows == len(_bfs_oracle([0, 13]))
    assert result.pages_fetched == len(fetched)


def test_real_http_robots_404_allows_everything(ray_session, tmp_path):
    """A host without robots.txt (404) is crawled whole, private paths
    included; robots.txt is asked once."""
    base, fetched, log, _, store = _robots_crawl(tmp_path, [(404, "")])
    assert log.count("/robots.txt") == 1
    assert fetched == _expected(base, with_private=True)
    assert store.epochs("dropped") == []


def test_real_http_robots_503_defers_the_host_one_wave(ray_session, tmp_path):
    """robots.txt answering 503 defers every row of its host to the next
    wave, where robots.txt is asked again; once it answers, the crawl runs
    one epoch later than it would have, and nothing is dropped but the
    disallowed URLs."""
    base, fetched, log, result, store = _robots_crawl(
        tmp_path, [(503, "try later"), DISALLOW_PRIVATE]
    )
    assert log.count("/robots.txt") == 2
    assert not [p for p in log if p.startswith("/private/")]
    assert {u: e - 1 for u, e in fetched.items()} == _expected(base, with_private=False)
    assert store.read_all("dropped").num_rows == len(_bfs_oracle([0, 13]))
    assert result.epochs == max(fetched.values()) + 1
