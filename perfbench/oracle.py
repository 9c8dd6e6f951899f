"""Independent oracle for crawls of the fixture web, and the output checks.

``expect(cfg, seed_ids, ...)`` replays the crawl's semantics over the
closed-form fixture graph without touching the engine: a level-synchronous
BFS from the seeds that

- follows the three page out-links, the image link of every
  ``img_every``-th page and, when the fixture has it, the ``/private/`` link;
- drops ``/private/`` URLs when robots are honoured (``Disallow:
  /private/``): they are admitted to the seen set but never fetched;
- fetches a 404 page once and takes no links from it;
- fetches a 503-then-200 page twice when retries are allowed: the 503 at
  one level, the 200 (with its links) at the next.

Levels are the epochs of a crawl whose waves hold the whole frontier and
whose politeness budgets never bind; within a level the engine's total
order is (priority desc, url_hash asc), recomputed here from md5 directly.
So ``Expectation.order`` is the exact crawl order of such a run, and
``Expectation.statuses`` (URL -> statuses of its fetch rows) is the fetched
multiset of any run of the same universe, however its waves are cut.
"""

from __future__ import annotations

import collections
import hashlib
import os
from dataclasses import dataclass

import pyarrow.dataset as ds

from spider_ray.sources.fixtures import MockWebConfig


def url_hash(url: str) -> int:
    return int.from_bytes(hashlib.md5(url.encode()).digest()[:8], "big")


def priority(url: str) -> float:
    return (int(hashlib.md5(url.encode()).hexdigest()[:8], 16) % 1000) / 1000.0


@dataclass
class Expectation:
    # URL -> sorted statuses of its expected fetch rows ([200, 503] for a
    # 503-then-200 page)
    statuses: dict[str, list[int]]
    order: list[tuple[int, int, str]]

    @property
    def n_urls(self) -> int:
        return len(self.statuses)

    @property
    def n_epochs(self) -> int:
        return self.order[-1][0] + 1 if self.order else 0


def _page_response(cfg: MockWebConfig, i: int, attempts: int) -> int:
    """Status of page ``i`` at ``attempts`` (MockWeb's error rules)."""
    if cfg.with_errors:
        if i % 23 == 11:
            return 404
        if i % 29 == 13 and attempts == 0:
            return 503
    return 200


def expect(
    cfg: MockWebConfig,
    seed_ids: list[int],
    respect_robots: bool,
    retry_max_attempts: int,
) -> Expectation:
    n, hosts = cfg.n_pages, cfg.n_hosts

    def page(i: int) -> str:
        return f"http://h{i % hosts}.test/p/{i}"

    # a frontier item: (url, kind, id, attempts)
    seen: set[str] = set()
    level = []
    for i in sorted(set(seed_ids)):
        if page(i) not in seen:
            seen.add(page(i))
            level.append((page(i), "p", i, 0))
    statuses: dict[str, list[int]] = collections.defaultdict(list)
    order: list[tuple[int, int, str]] = []
    epoch = 0
    while level:
        nxt = []
        wave = [it for it in level if not (it[1] == "private" and respect_robots)]
        wave.sort(key=lambda it: (-priority(it[0]), url_hash(it[0])))
        for seq, (url, kind, i, attempts) in enumerate(wave):
            order.append((epoch, seq, url))
            status = _page_response(cfg, i, attempts) if kind == "p" else 200
            statuses[url].append(status)
            if status >= 500 and attempts < retry_max_attempts:
                nxt.append((url, kind, i, attempts + 1))
            if kind != "p" or status >= 400:
                continue
            links = [(page(j), "p", j) for j in
                     ((2 * i + 1) % n, (3 * i + 7) % n, (5 * i + 3) % n)]
            if i % cfg.img_every == 0:
                ext = "png" if i % 2 == 0 else "jpg"
                links.append((f"http://h{i % hosts}.test/img/{i}.{ext}", "img", i))
            if cfg.with_private:
                links.append((f"http://h{i % hosts}.test/private/{i}", "private", i))
            for link_url, link_kind, j in links:
                if link_url not in seen:
                    seen.add(link_url)
                    nxt.append((link_url, link_kind, j, 0))
        level = nxt
        epoch += 1
    return Expectation({u: sorted(s) for u, s in statuses.items()}, order)


# ---------------------------------------------------------------------------
# reading a crawl's output
# ---------------------------------------------------------------------------

def read_output(out_dir: str, table: str, columns: list[str]):
    """All epochs of one EpochStore table, with its ``epoch`` partition key."""
    path = os.path.join(out_dir, table)
    return ds.dataset(path, format="parquet", partitioning="hive").to_table(
        columns=columns
    )


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_fetches(
    exp: Expectation, out_dir: str, allow_loss: float = 0.0
) -> tuple[list[str], int, int]:
    """Compare the fetched rows of a crawl with the oracle.

    With ``allow_loss`` = 0 the fetched multiset must equal the oracle's
    (URLs and statuses). With ``allow_loss`` > 0 (approximate seen set) the
    fetched set must be a subset of the oracle, each URL fetched as often as
    the oracle says, and lost URLs, counted as failed, may be at most that
    share of the oracle. Returns (problems, failed URLs, fetched rows):
    failed URLs are the lost ones and those fetched with other statuses
    than expected."""
    pages = read_output(out_dir, "pages", ["url", "status"])
    got: dict[str, list[int]] = collections.defaultdict(list)
    for url, status in zip(pages.column("url").to_pylist(),
                           pages.column("status").to_pylist()):
        got[url].append(status)
    problems = []
    unexpected = [u for u in got if u not in exp.statuses]
    if unexpected:
        problems.append(f"{len(unexpected)} URLs outside the oracle, e.g. {unexpected[:3]}")
    lost = [u for u in exp.statuses if u not in got]
    wrong = [u for u, st in got.items() if u in exp.statuses and sorted(st) != exp.statuses[u]]
    if wrong:
        problems.append(
            f"{len(wrong)} URLs fetched with other statuses than expected, e.g. "
            + ", ".join(f"{u}: {sorted(got[u])} vs {exp.statuses[u]}" for u in wrong[:3])
        )
    if lost and len(lost) > allow_loss * exp.n_urls:
        problems.append(f"{len(lost)} of {exp.n_urls} expected URLs never fetched, e.g. {lost[:3]}")
    return problems, len(lost) + len(wrong), pages.num_rows


def check_politeness(
    out_dir: str, cap: int, delay_host: str | None, delay_cap: int | None
) -> list[str]:
    """Per (epoch, host): dispatched rows <= ``cap``; ``delay_host`` gets at
    most ``delay_cap`` = floor(period / Crawl-delay) rows per epoch."""
    order = read_output(out_dir, "order", ["epoch", "url"])
    per = collections.Counter(
        (e, u.split("/", 3)[2])
        for e, u in zip(order.column("epoch").to_pylist(), order.column("url").to_pylist())
    )
    problems = []
    over = {k: v for k, v in per.items() if v > cap}
    if over:
        problems.append(f"host cap {cap} exceeded: {sorted(over.items())[:3]}")
    if delay_host is not None:
        slow = {k: v for k, v in per.items() if k[1] == delay_host and v > delay_cap}
        if slow:
            problems.append(f"Crawl-delay cap {delay_cap} exceeded: {sorted(slow.items())[:3]}")
    private = [u for u in order.column("url").to_pylist() if "/private/" in u]
    if private:
        problems.append(f"{len(private)} robots-disallowed URLs dispatched")
    return problems


def check_order(exp: Expectation, out_dir: str) -> list[str]:
    """The crawl order (epoch, seq, url) must equal the oracle's."""
    order = read_output(out_dir, "order", ["epoch", "seq", "url"]).sort_by(
        [("epoch", "ascending"), ("seq", "ascending")]
    )
    got = list(zip(order.column("epoch").to_pylist(), order.column("seq").to_pylist(),
                   order.column("url").to_pylist()))
    if got == exp.order:
        return []
    first = next((k for k, (a, b) in enumerate(zip(got, exp.order)) if a != b),
                 min(len(got), len(exp.order)))
    return [f"crawl order differs from the uninterrupted order at row {first} "
            f"({len(got)} rows vs {len(exp.order)})"]
