"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py          # oracle + fixtures, no Ray
    python3 perfbench/selftest.py --crawl  # also small real crawls

1. The oracle's fetched set and epochs equal ``bfs_oracle`` of
   tests/test_crawl.py (the engine's conformance oracle) on small universes.
2. Every pre-rendered response of a small universe with errors and a
   ``/private/`` subtree is byte-identical to ``MockWeb.resolve`` at
   attempts 0 and 1.
3. With ``--crawl``: the oracle's crawl order equals an uninterrupted
   ``run_crawl`` on a small universe, its fetched multiset equals a polite
   crawl's (robots, Crawl-delay, 404, 503 retry, binding host cap), and the
   politeness invariants hold on that crawl.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import fixtures, oracle  # noqa: E402
from spider_ray.sources.fixtures import MockWebConfig, page_url  # noqa: E402
from tests.test_crawl import bfs_oracle  # noqa: E402


def check_oracle_against_bfs() -> list[str]:
    problems = []
    for n, every, img_every in ((150, 30, 5), (120, 40, 5), (1000, 50, 3), (5000, 50, 5)):
        cfg = MockWebConfig(n_pages=n, n_hosts=7, img_every=img_every)
        exp = oracle.expect(cfg, list(range(0, n, every)), False, 1)
        ours = {url: epoch for epoch, _seq, url in exp.order}
        ref = bfs_oracle(cfg, seeds_every=every)
        if ours != ref:
            problems.append(f"n={n} every={every}: oracle differs from bfs_oracle "
                            f"({len(ours)} vs {len(ref)} URLs)")
        if set(exp.statuses) != set(ref) or any(st != [200] for st in exp.statuses.values()):
            problems.append(f"n={n}: fetched multiset differs from bfs_oracle")
    return problems


def check_fixtures(tmp: str) -> list[str]:
    cfg = MockWebConfig(n_pages=700, n_hosts=7, img_every=5, img_size=16,
                        with_errors=True, with_private=True, crawl_delay_s=5.0)
    path = os.path.join(tmp, "fixtures.bin")
    fixtures.render(cfg, path)
    return fixtures.compare_sample(path, cfg, list(range(cfg.n_pages)))


def check_crawls(tmp: str) -> list[str]:
    import functools

    from perfbench.run import Session
    from spider_ray.pipelines.crawl import CrawlConfig, run_crawl

    Session(tmp)
    problems = []
    try:
        base = MockWebConfig(n_pages=600, n_hosts=7, img_every=5, img_size=16)
        seeds = list(range(3, 600, 50))
        path = os.path.join(tmp, "plain.bin")
        fixtures.render(base, path)
        out = os.path.join(tmp, "plain")
        run_crawl(CrawlConfig(
            out_dir=out, seeds=[page_url(i, base) for i in seeds], web=base,
            resolver_factory=functools.partial(fixtures.PrerenderedWeb, path, base),
            wave_k=1_000_000, exact_seen=True, fetch_concurrency=1,
            fetch_num_cpus=0.5, n_seen_shards=2, fetch_mode="pool",
        ))
        exp = oracle.expect(base, seeds, False, 1)
        problems += oracle.check_order(exp, out)
        problems += oracle.check_fetches(exp, out)[0]

        hostile = MockWebConfig(n_pages=600, n_hosts=7, img_every=5, img_size=16,
                                with_errors=True, with_private=True, crawl_delay_s=10.0)
        path = os.path.join(tmp, "hostile.bin")
        fixtures.render(hostile, path)
        out = os.path.join(tmp, "hostile")
        run_crawl(CrawlConfig(
            out_dir=out, seeds=[page_url(i, hostile) for i in seeds], web=hostile,
            resolver_factory=functools.partial(fixtures.PrerenderedWeb, path, hostile),
            wave_k=40, max_per_host_per_wave=8, respect_robots=True,
            exact_seen=True, fetch_concurrency=1, fetch_num_cpus=0.5,
            n_seen_shards=2, fetch_mode="pool", retry_max_attempts=1,
            max_epochs=10_000,
        ))
        exp = oracle.expect(hostile, seeds, True, 1)
        if [200, 503] not in exp.statuses.values():
            problems.append("hostile universe has no 503-then-200 page")
        problems += oracle.check_fetches(exp, out)[0]
        problems += oracle.check_politeness(out, 8, "h1.test", 6)
    finally:
        Session.close()
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description="perfbench self-test")
    ap.add_argument("--crawl", action="store_true", help="also run small crawls on Ray")
    args = ap.parse_args()
    # short on purpose: Ray's socket paths live under it (see run.Session)
    tmp = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(tmp)
    try:
        problems = check_oracle_against_bfs() + check_fixtures(tmp)
        if args.crawl:
            problems += check_crawls(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # a benchmark run's directory is still there
    for p in problems:
        print("FAIL", p)
    print("selftest", "ok" if not problems else f"{len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
