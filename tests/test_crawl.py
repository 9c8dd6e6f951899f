"""End-to-end crawl conformance: BFS-closure equality, deterministic
ordering, politeness invariance, resume-from-checkpoint equivalence, and the
per-row image gates (decoded-pixel PSNR + caption equality)."""

import numpy as np
import pyarrow.compute as pc
import pytest

from spider_ray.functions.imagecodec import decode_image, psnr
from spider_ray.pipelines.crawl import CrawlConfig, run_crawl
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
from spider_ray.sources.storage import EpochStore


def bfs_oracle(cfg: MockWebConfig, seeds_every: int):
    """Independent closed-form BFS over the fixture graph: url → depth."""
    n = cfg.n_pages
    depth = {}
    level = sorted(set(i for i in range(0, n, seeds_every)))
    d = 0
    img_depth = {}
    while level:
        nxt = set()
        for i in level:
            if i in depth:
                continue
            depth[i] = d
            for j in out_link_ids(i, n):
                if j not in depth:
                    nxt.add(j)
            if i % cfg.img_every == 0 and image_url(i, cfg) not in img_depth:
                img_depth[image_url(i, cfg)] = d + 1
        level = sorted(j for j in nxt if j not in depth)
        d += 1
    urls = {page_url(i, cfg): dd for i, dd in depth.items()}
    # an image is fetched at (discovering page depth)+1 unless a page at a
    # shallower depth also links it (each image is linked only by its own page)
    urls.update(img_depth)
    return urls


@pytest.fixture(scope="module")
def small_crawl(ray_session, tmp_path_factory):
    cfg = MockWebConfig(n_pages=150, n_hosts=7, img_every=5)
    out = str(tmp_path_factory.mktemp("crawl"))
    config = CrawlConfig(
        out_dir=out,
        seeds=seed_urls(cfg, every=30),
        web=cfg,
        wave_k=10_000,
        exact_seen=True,
        use_bloom=False,
        fetch_concurrency=2,
    )
    result = run_crawl(config)
    return cfg, config, result


def test_crawl_matches_bfs_closure(small_crawl):
    cfg, config, result = small_crawl
    store = EpochStore(config.out_dir)
    order = store.read_all("order")
    fetched = dict(
        zip(order.column("url").to_pylist(), order.column("epoch").to_pylist())
    )
    oracle = bfs_oracle(cfg, seeds_every=30)
    assert set(fetched) == set(oracle), (
        f"missing={set(oracle) - set(fetched)} extra={set(fetched) - set(oracle)}"
    )
    # wave epochs ≡ BFS depths (unbounded politeness budget)
    mismatches = {u: (fetched[u], oracle[u]) for u in oracle if fetched[u] != oracle[u]}
    assert not mismatches, mismatches
    assert result.pages_fetched == len(oracle)
    assert result.seen_size == len(oracle)


def test_crawl_order_fully_deterministic(small_crawl, tmp_path):
    cfg, config, _ = small_crawl
    from dataclasses import replace

    config2 = replace(config, out_dir=str(tmp_path / "rerun"))
    run_crawl(config2)
    a = EpochStore(config.out_dir).read_all("order").to_pydict()
    b = EpochStore(config2.out_dir).read_all("order").to_pydict()
    assert a == b


def test_within_wave_order_is_priority_then_hash(small_crawl):
    _, config, _ = small_crawl
    order = EpochStore(config.out_dir).read("order", 1)
    prio = order.column("priority").to_pylist()
    hashes = order.column("url_hash").to_pylist()
    keys = list(zip([-p for p in prio], hashes))
    assert keys == sorted(keys)


def test_images_gate_psnr_and_caption(small_crawl):
    cfg, config, result = small_crawl
    store = EpochStore(config.out_dir)
    images = store.read_all("images")
    assert images.num_rows == result.images_written > 0
    web = MockWeb(cfg)
    for row in images.to_pylist():
        i = int(row["image_id"].rsplit("/", 1)[1].split(".")[0])
        expected = web.expected_image_row(i)
        assert row["caption"] == caption_for(i, cfg)  # caption equality
        assert row["bytes"] == expected["bytes"]
        assert row["phash"] == expected["phash"]
        decoded = decode_image(row["bytes"])
        source = image_pixels(i, cfg)
        if row["fmt"] == "png":
            assert np.array_equal(decoded, source)  # lossless exact
        else:
            assert psnr(source, decoded) >= 40.0  # lossy gate


def test_politeness_cap_defers_but_preserves_seen_set(ray_session, tmp_path):
    cfg = MockWebConfig(n_pages=150, n_hosts=7, img_every=5)
    config = CrawlConfig(
        out_dir=str(tmp_path / "polite"),
        seeds=seed_urls(cfg, every=30),
        web=cfg,
        wave_k=10_000,
        max_per_host_per_wave=2,  # hot-host splitting kicks in
        max_epochs=200,
        exact_seen=True,
        fetch_concurrency=2,
    )
    result = run_crawl(config)
    oracle = bfs_oracle(cfg, seeds_every=30)
    order = EpochStore(config.out_dir).read_all("order")
    assert set(order.column("url").to_pylist()) == set(oracle)
    # budget respected: ≤2 fetches per host per epoch
    import collections

    per = collections.Counter(
        zip(order.column("epoch").to_pylist(),
            [u.split("/")[2] for u in order.column("url").to_pylist()])
    )
    assert max(per.values()) <= 2
    assert result.epochs > len(set(oracle.values()))  # deferral stretched epochs


def capped_wave_simulator(cfg: MockWebConfig, seeds: list[str], wave_k: int, cap: int):
    """Independent wave-by-wave replay of a crawl of the fixture graph
    under a per-host cap: each epoch sorts the frontier by (priority desc,
    url_hash asc) — both from md5, as perfbench/oracle.py computes them —
    takes a row while its host has fewer than ``cap`` rows in the wave and
    the wave has fewer than ``wave_k``, defers the rest, and expands the
    wave's pages along ``out_link_ids`` and ``image_url``. Returns the
    (epoch, seq, url) order and, per epoch, whether the cap skipped a row."""
    import collections
    import hashlib

    def key(url: str):
        digest = hashlib.md5(url.encode()).digest()
        return -(int.from_bytes(digest[:4], "big") % 1000), int.from_bytes(digest[:8], "big")

    page_ids = {page_url(i, cfg): i for i in range(cfg.n_pages)}
    seen = set(seeds)
    frontier = sorted(seen)
    order, capped = [], []
    while frontier:
        frontier.sort(key=key)
        per_host = collections.Counter()
        wave, deferred = [], []
        for url in frontier:
            host = url.split("/")[2]
            if len(wave) < wave_k and per_host[host] < cap:
                per_host[host] += 1
                wave.append(url)
            else:
                deferred.append(url)
        capped.append(len(wave) < min(wave_k, len(frontier)))
        epoch = len(capped) - 1
        for seq, url in enumerate(wave):
            order.append((epoch, seq, url))
            if url not in page_ids:  # an image: no out-links
                continue
            i = page_ids[url]
            links = [page_url(j, cfg) for j in out_link_ids(i, cfg.n_pages)]
            if i % cfg.img_every == 0:
                links.append(image_url(i, cfg))
            for link in links:
                if link not in seen:
                    seen.add(link)
                    deferred.append(link)
        frontier = deferred
    return order, capped


def test_capped_crawl_order_matches_wave_simulator(ray_session, tmp_path):
    """With a per-host cap that binds in early epochs and not in late
    ones, the exact (epoch, seq, url) order equals the wave simulator's —
    and again after a resume from a mid-run checkpoint, whose frontier
    holds the rows the cap skipped."""
    cfg = MockWebConfig(n_pages=120, n_hosts=3, img_every=5)
    config = CrawlConfig(
        out_dir=str(tmp_path / "capped"), seeds=seed_urls(cfg, every=30), web=cfg,
        wave_k=25, max_per_host_per_wave=6, exact_seen=True, fetch_concurrency=2,
    )
    expected, capped = capped_wave_simulator(cfg, config.seeds, 25, 6)
    assert any(capped[:3]) and not capped[-1]

    def crawl_order():
        order = EpochStore(config.out_dir).read_all("order").sort_by(
            [("epoch", "ascending"), ("seq", "ascending")]
        )
        return list(zip(*(order.column(c).to_pylist() for c in ("epoch", "seq", "url"))))

    result = run_crawl(config)
    assert crawl_order() == expected
    assert result.epochs == len(capped)
    _truncate_to_checkpoint(config.out_dir, 3)
    run_crawl(config, resume=True)
    assert crawl_order() == expected


def test_resume_equivalence(ray_session, tmp_path):
    cfg = MockWebConfig(n_pages=120, n_hosts=7)
    seeds = seed_urls(cfg, every=40)
    full_cfg = CrawlConfig(
        out_dir=str(tmp_path / "full"), seeds=seeds, web=cfg, wave_k=10_000,
        exact_seen=True, fetch_concurrency=2,
    )
    full = run_crawl(full_cfg)

    # interrupted run: stop after 2 epochs, then resume to completion
    part_cfg = CrawlConfig(
        out_dir=str(tmp_path / "part"), seeds=seeds, web=cfg, wave_k=10_000,
        exact_seen=True, fetch_concurrency=2, max_epochs=2,
    )
    run_crawl(part_cfg)
    from dataclasses import replace

    resumed = run_crawl(replace(part_cfg, max_epochs=64), resume=True)
    a = EpochStore(full_cfg.out_dir).read_all("order").to_pydict()
    b = EpochStore(part_cfg.out_dir).read_all("order").to_pydict()
    assert a == b  # identical crawl order across interrupt+resume
    assert resumed.seen_size + 0 == full.seen_size
    ia = EpochStore(full_cfg.out_dir).read_all("images")
    ib = EpochStore(part_cfg.out_dir).read_all("images")
    assert ia.sort_by("image_id").equals(ib.sort_by("image_id"))


def test_resume_with_checkpoint_interval(ray_session, tmp_path):
    """K>1 checkpointing: resume replays ≤K-1 epochs idempotently and the
    final state equals an uninterrupted run."""
    from dataclasses import replace

    cfg = MockWebConfig(n_pages=120, n_hosts=7)
    seeds = seed_urls(cfg, every=40)
    base = CrawlConfig(
        out_dir=str(tmp_path / "full"), seeds=seeds, web=cfg, wave_k=10_000,
        exact_seen=True, fetch_concurrency=2, checkpoint_interval=3,
    )
    full = run_crawl(base)
    part_cfg = replace(base, out_dir=str(tmp_path / "part"), max_epochs=4)
    run_crawl(part_cfg)
    resumed = run_crawl(replace(part_cfg, max_epochs=64), resume=True)
    a = EpochStore(base.out_dir).read_all("order").to_pydict()
    b = EpochStore(part_cfg.out_dir).read_all("order").to_pydict()
    assert a == b
    assert resumed.seen_size == full.seen_size
    ia = EpochStore(base.out_dir).read_all("images").sort_by("image_id")
    ib = EpochStore(part_cfg.out_dir).read_all("images").sort_by("image_id")
    assert ia.equals(ib)


def test_pipeline_waves_is_inert(ray_session, tmp_path):
    """``pipeline_waves`` is an ignored field: on a crawl whose frontier
    outgrows ``wave_k`` (a cut defers rows), setting it — alone and
    with a spilled frontier (``driver_wave_threshold=0``: every row in run
    files between cuts) — reproduces the default crawl's order and pages
    exactly."""
    from dataclasses import replace

    cfg = MockWebConfig(n_pages=150, n_hosts=7, img_every=5)
    base = CrawlConfig(
        out_dir=str(tmp_path / "default"), seeds=seed_urls(cfg, every=30), web=cfg,
        wave_k=25, exact_seen=True, fetch_concurrency=2,
    )
    default = run_crawl(base)

    def tables(out_dir):
        store = EpochStore(out_dir)
        # duration_ms is wall time
        return store.read_all("order"), store.read_all("pages").drop_columns(["duration_ms"])

    want = tables(base.out_dir)
    pipe = replace(base, out_dir=str(tmp_path / "pipe"), pipeline_waves=True)
    spilled = replace(pipe, out_dir=str(tmp_path / "spilled"), driver_wave_threshold=0)
    for cfg_ in (pipe, spilled):
        result = run_crawl(cfg_)
        got = tables(cfg_.out_dir)
        assert got[0].equals(want[0]), cfg_.out_dir
        assert got[1].equals(want[1]), cfg_.out_dir
        assert result == replace(default, out_dir=cfg_.out_dir)


def _truncate_to_checkpoint(out_dir: str, e: int) -> None:
    """Turn a finished crawl's store into the on-disk state of a crash
    right after checkpoint ``e``: every ``<table>/epoch=N`` with N > e is
    deleted, the manifest lists completed epochs <= e only and the crawl
    is not done."""
    import json
    import os
    import shutil

    for table in os.listdir(out_dir):
        tdir = os.path.join(out_dir, table)
        if not os.path.isdir(tdir):
            continue
        for d in os.listdir(tdir):
            if d.startswith("epoch=") and int(d.split("=")[1]) > e:
                shutil.rmtree(os.path.join(tdir, d))
    path = os.path.join(out_dir, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    manifest["completed_epochs"] = [x for x in manifest["completed_epochs"] if x <= e]
    manifest["done"] = False
    with open(path, "w") as f:
        json.dump(manifest, f)


@pytest.fixture(scope="module")
def crashed_crawls(ray_session, tmp_path_factory):
    """A crawl whose frontier outgrows ``wave_k``, run to the end, and two
    copies of it crashed right after checkpoints 3 and 4 and resumed:
    ``(full result, full order, {e: (resumed result, resumed order)})``."""
    import shutil
    from dataclasses import replace

    tmp = tmp_path_factory.mktemp("crashed")
    cfg = MockWebConfig(n_pages=150, n_hosts=7, img_every=5)
    full_cfg = CrawlConfig(
        out_dir=str(tmp / "full"), seeds=seed_urls(cfg, every=30), web=cfg,
        wave_k=25, exact_seen=True, fetch_concurrency=2, checkpoint_interval=1,
    )
    full = run_crawl(full_cfg)
    resumed = {}
    for e in (3, 4):
        crash_cfg = replace(full_cfg, out_dir=str(tmp / f"crash{e}"))
        shutil.copytree(full_cfg.out_dir, crash_cfg.out_dir)
        _truncate_to_checkpoint(crash_cfg.out_dir, e)
        resumed[e] = (
            run_crawl(crash_cfg, resume=True),
            EpochStore(crash_cfg.out_dir).read_all("order"),
        )
    return full, EpochStore(full_cfg.out_dir).read_all("order"), resumed


def test_crash_resume_repeats_the_order(crashed_crawls):
    """Resumed from a checkpoint in mid-crawl, the crawl repeats the
    uninterrupted crawl's exact (epoch, seq, url) order and seen size."""
    full, order, resumed = crashed_crawls
    cols = ["epoch", "seq", "url"]
    for e, (result, got) in resumed.items():
        assert got.select(cols).equals(order.select(cols)), e
        assert result.seen_size == full.seen_size, e


def test_crash_resume_keeps_seen_counters(crashed_crawls):
    """Resumed from a checkpoint in mid-crawl, the crawl reports the
    uninterrupted crawl's dedup counters: they restart from the
    checkpoint's manifest entry, so each check is counted once."""
    full, _, resumed = crashed_crawls
    for e, (result, _) in resumed.items():
        assert (result.dedup_checks, result.dedup_hits, result.seen_size) == (
            full.dedup_checks, full.dedup_hits, full.seen_size,
        ), e


def _polite_cfg(out_dir: str) -> CrawlConfig:
    """A small crawl of a hostile web: robots-disallowed /private/ links on
    every page, a Crawl-delay host, 404s and 503-then-200 pages, and a
    per-host cap that binds every wave."""
    cfg = MockWebConfig(
        n_pages=300, n_hosts=7, img_every=5, img_size=16,
        with_errors=True, with_private=True, crawl_delay_s=10.0,
    )
    return CrawlConfig(
        out_dir=out_dir, seeds=seed_urls(cfg, every=50), web=cfg,
        wave_k=96, max_per_host_per_wave=12, respect_robots=True,
        politeness_wave_period_s=60.0, retry_max_attempts=1,
        checkpoint_interval=1, exact_seen=True, fetch_concurrency=2,
        max_epochs=200,
    )


def test_robots_crawl_resumes_exactly(ray_session, tmp_path):
    """Robots-dropped rows are in neither order nor frontier; their logged
    url_hashes keep them in the rebuilt seen set. Resumed slice by slice
    and after a crash at a checkpoint, the crawl repeats the uninterrupted
    (epoch, seq, url) order and seen set, and never fetches /private/."""
    from dataclasses import replace

    full_cfg = _polite_cfg(str(tmp_path / "full"))
    full = run_crawl(full_cfg)
    expect = EpochStore(full_cfg.out_dir).read_all("order").select(["epoch", "seq", "url"])
    assert not any("/private/" in u for u in expect.column("url").to_pylist())
    assert EpochStore(full_cfg.out_dir).epochs("dropped")  # the log is exercised

    sliced_cfg = _polite_cfg(str(tmp_path / "sliced"))
    epoch = 0
    while True:
        r = run_crawl(replace(sliced_cfg, max_epochs=epoch + 3), resume=epoch > 0)
        epoch += r.epochs
        if r.epochs < 3:
            break
    crash_cfg = _polite_cfg(str(tmp_path / "crash"))
    run_crawl(crash_cfg)
    _truncate_to_checkpoint(crash_cfg.out_dir, full.epochs // 2)
    crashed = run_crawl(crash_cfg, resume=True)
    for res, out in ((r, sliced_cfg.out_dir), (crashed, crash_cfg.out_dir)):
        got = EpochStore(out).read_all("order").select(["epoch", "seq", "url"])
        assert got.to_pydict() == expect.to_pydict(), out
        assert res.seen_size == full.seen_size, out


def test_crawl_control_plane_budget(ray_session, tmp_path, monkeypatch):
    """Per epoch the driver makes one round trip per service: one write
    task per written epoch (plus at most the final checkpoint and the drop
    logs of all-filtered epochs), one robots screen per wave, and the seen
    shards are asked for their stats once per run_crawl — the chunks count
    their own probes."""
    import collections

    from spider_ray.sources import storage
    from spider_ray.state import politeness, seen

    calls = collections.Counter()

    def counting(owner, name):
        orig = getattr(owner, name)

        def wrapper(*a, **k):
            calls[name] += 1
            return orig(*a, **k)

        monkeypatch.setattr(owner, name, wrapper)

    counting(storage.EpochStore, "write_async")
    counting(seen.ShardedSeen, "stats")
    for name in ("screen", "begin_wave", "ensure_robots", "allowed", "delay_caps"):
        counting(politeness.PolitenessPool, name)
    config = _polite_cfg(str(tmp_path / "polite"))
    result = run_crawl(config)
    store = EpochStore(config.out_dir)
    written = store.epochs("order")
    drop_only = set(store.epochs("dropped")) - set(written)
    assert len(written) <= calls["write_async"] <= len(written) + 1 + len(drop_only)
    assert calls["stats"] == 1
    # one screen per epoch, plus the last cut wave when robots dropped
    # all of its rows and nothing was left to defer (no epoch is counted)
    assert result.epochs <= calls["screen"] <= result.epochs + 1
    for name in ("begin_wave", "ensure_robots", "allowed", "delay_caps"):
        assert calls[name] == 0, name


def test_sliced_crawl_keeps_seen_counters(ray_session, tmp_path):
    """A crawl resumed every 2 epochs reports the uninterrupted crawl's
    dedup counters and seen size (the rebuild loads keys without counting
    them, and the counters come back from the manifest), and its store
    holds no seen snapshot."""
    import os
    from dataclasses import replace

    cfg = MockWebConfig(n_pages=600, n_hosts=7, img_every=5)
    base = CrawlConfig(
        out_dir=str(tmp_path / "full"), seeds=seed_urls(cfg, every=50), web=cfg,
        wave_k=10_000, exact_seen=True, n_seen_shards=2, fetch_concurrency=2,
        checkpoint_interval=1,
    )
    full = run_crawl(base)
    sliced = replace(base, out_dir=str(tmp_path / "sliced"))
    epoch, slices = 0, 0
    while True:
        r = run_crawl(replace(sliced, max_epochs=epoch + 2), resume=epoch > 0)
        epoch += r.epochs
        slices += 1
        if r.epochs < 2:
            break
    assert slices > 2
    assert (r.dedup_checks, r.dedup_hits, r.seen_size) == (
        full.dedup_checks, full.dedup_hits, full.seen_size,
    )
    for out in (base.out_dir, sliced.out_dir):
        assert not os.path.exists(os.path.join(out, "seen"))


def test_error_rows_and_retry(ray_session, tmp_path):
    cfg = MockWebConfig(n_pages=60, n_hosts=7, with_errors=True)
    config = CrawlConfig(
        out_dir=str(tmp_path / "errs"), seeds=seed_urls(cfg, every=10),
        web=cfg, wave_k=10_000, exact_seen=True, fetch_concurrency=2,
        retry_max_attempts=1,
    )
    run_crawl(config)
    store = EpochStore(config.out_dir)
    pages = store.read_all("pages")
    statuses = dict(
        zip(pages.column("url").to_pylist(), pages.column("status").to_pylist())
    )
    # flaky page (13 % 29 == 13) was 503 then refetched OK
    flaky = page_url(13, cfg)
    if flaky in statuses:
        rows = pages.filter(pc.equal(pages.column("url"), flaky))
        got = sorted(rows.column("status").to_pylist())
        assert got == [200, 503]
    # 404 rows recorded as errors, never retried
    gone = page_url(11, cfg)
    if gone in statuses:
        rows = pages.filter(pc.equal(pages.column("url"), gone))
        assert rows.column("status").to_pylist() == [404]
        assert rows.column("error").to_pylist()[0].startswith("NetworkError")


def test_robots_respected_end_to_end(ray_session, tmp_path):
    """respect_robots: /private/ URLs are discovered but never fetched."""
    cfg = MockWebConfig(n_pages=80, n_hosts=7, with_private=True)
    config = CrawlConfig(
        out_dir=str(tmp_path / "robots"), seeds=seed_urls(cfg, every=20),
        web=cfg, wave_k=10_000, exact_seen=True, fetch_concurrency=2,
        respect_robots=True,
    )
    run_crawl(config)
    order = EpochStore(config.out_dir).read_all("order")
    fetched = order.column("url").to_pylist()
    assert fetched, "crawl fetched nothing"
    assert not any("/private/" in u for u in fetched)
    # pages outside /private/ still crawled normally
    assert any("/p/" in u for u in fetched)


def test_last_wave_all_disallowed_is_logged(ray_session, tmp_path):
    """When robots drop the whole last cut wave and nothing is deferred,
    the crawl still logs those keys in ``dropped`` (under the uncounted
    epoch after the last wave), its last frontier checkpoint is empty, and
    a resume of the finished store rebuilds the same seen set."""
    from spider_ray.pipelines.crawl import frontier_from_seeds

    cfg = MockWebConfig(n_pages=80, n_hosts=7, with_private=True)
    config = CrawlConfig(
        out_dir=str(tmp_path / "robots"), seeds=seed_urls(cfg, every=20),
        web=cfg, wave_k=10_000, exact_seen=True, fetch_concurrency=2,
        respect_robots=True,
    )
    result = run_crawl(config)
    store = EpochStore(config.out_dir)
    order = store.read_all("order")
    assert max(order.column("epoch").to_pylist()) == result.epochs - 1
    assert store.last_epoch() == result.epochs - 1
    assert store.read("frontier", store.last_epoch()).num_rows == 0
    # every fetched page links its /private/ twin: each one is dropped once
    ids = [int(u.rsplit("/", 1)[1]) for u in order.column("url").to_pylist() if "/p/" in u]
    private = frontier_from_seeds([f"http://h{i % cfg.n_hosts}.test/private/{i}" for i in ids])
    dropped = store.read_all("dropped").column("url_hash").to_pylist()
    assert sorted(dropped) == sorted(private.column("url_hash").to_pylist())
    assert store.epochs("dropped")[-1] == result.epochs  # the last cut wave
    resumed = run_crawl(config, resume=True)
    assert (resumed.epochs, resumed.seen_size) == (0, result.seen_size)


def test_crawl_delay_keep_matches_reference_loop():
    """The vectorized Crawl-delay keep-mask (crawl_delay_keep) must be
    row-identical to the per-row loop it replaced — including null
    hosts, which never carry a robots directive and must ALWAYS be kept
    (pandas groupby drops NaN keys, so a bare rank<cap would silently
    defer such rows every wave forever)."""
    import itertools
    import random

    from spider_ray.pipelines.crawl import crawl_delay_keep

    def reference(hosts, caps):
        keep, used = [], {}
        for h in hosts:
            cap = caps.get(h)
            if cap is None:
                keep.append(True)
                continue
            k = used.get(h, 0)
            keep.append(k < cap)
            if k < cap:
                used[h] = k + 1
        return keep

    rng = random.Random(7)
    universe = ["a.test", "b.test", "c.test", None, ""]
    for trial in range(200):
        n = rng.randrange(0, 25)
        hosts = [rng.choice(universe) for _ in range(n)]
        caps = {
            h: rng.choice([None, 0, 1, 2, 5])
            for h in ["a.test", "b.test", "c.test", ""]
            if rng.random() < 0.8
        }
        got = crawl_delay_keep(hosts, caps).tolist()
        assert got == reference(hosts, caps), (hosts, caps)
    # the exact regression: a null host in a capped wave is kept
    assert crawl_delay_keep(
        ["a.test", None, "a.test"], {"a.test": 1}
    ).tolist() == [True, True, False]


def test_crawl_delay_budgets_end_to_end(ray_session, tmp_path):
    """A host declaring Crawl-delay gets floor(period/delay) fetches per
    wave while other hosts run at the full budget; the throttled host's
    overflow defers to later waves, not oblivion (the crawl still
    completes its reachable universe)."""
    import collections

    cfg = MockWebConfig(n_pages=80, n_hosts=7, crawl_delay_s=15.0)
    config = CrawlConfig(
        out_dir=str(tmp_path / "delay"), seeds=seed_urls(cfg, every=20),
        web=cfg, wave_k=10_000, exact_seen=True, fetch_concurrency=2,
        respect_robots=True, politeness_wave_period_s=60.0,
        max_per_host_per_wave=1000, max_epochs=64,
    )
    result = run_crawl(config)
    order = EpochStore(config.out_dir).read_all("order")
    per_epoch_host = collections.Counter()
    for epoch, url in zip(
        order.column("epoch").to_pylist(), order.column("url").to_pylist()
    ):
        host = url.split("://", 1)[1].split("/", 1)[0]
        per_epoch_host[(epoch, host)] += 1
    h1 = {k: v for k, v in per_epoch_host.items() if k[1] == "h1.test"}
    others = {k: v for k, v in per_epoch_host.items() if k[1] != "h1.test"}
    assert h1, "throttled host never fetched"
    assert max(h1.values()) <= 4  # floor(60/15)
    assert max(others.values()) > 4  # untouched hosts beat the delay cap
    # deferred rows eventually fetched: every h1 page in the BFS universe
    h1_total = sum(h1.values())
    assert h1_total >= 80 // 7  # at least its share of /p/ pages
    assert result.pages_fetched == order.num_rows


def test_lineage_metrics_recorded(small_crawl):
    _, config, result = small_crawl
    lineage = EpochStore(config.out_dir).read_all("lineage")
    fetch_rows = lineage.filter(pc.equal(lineage.column("stage"), "fetch"))
    assert sum(fetch_rows.column("rows_in").to_pylist()) == result.pages_fetched
    dedup_rows = lineage.filter(pc.equal(lineage.column("stage"), "dedup"))
    assert sum(dedup_rows.column("dedup_checks").to_pylist()) > 0
    total_hits = sum(dedup_rows.column("dedup_hits").to_pylist())
    assert total_hits == result.dedup_hits
    # every epoch's hits are its checks that admitted nothing
    for row in dedup_rows.to_pylist():
        assert row["dedup_hits"] == row["dedup_checks"] - row["rows_out"], row


def test_lineage_table_matches_groupby_reference():
    """The per-epoch lineage table sums the chunks' fetch partials per
    partition exactly as a pandas groupby would, and its dedup row carries
    the epoch's chunk-sent checks and derives the hits from them."""
    import pyarrow as pa

    from spider_ray.pipelines.crawl import _lineage_fetch_partial, _lineage_table
    from spider_ray.schemas import LINEAGE_SCHEMA

    rng = np.random.default_rng(3)
    parts = []
    for n in (0, 17, 40, 3):
        pages = pa.table({
            "url_hash": pa.array(rng.integers(0, 2**63, n, dtype=np.uint64)),
            "cache_hit": pa.array(rng.random(n) < 0.3),
            "status": pa.array(rng.choice([200, 404, 503], n).astype(np.int32)),
        })
        parts.append(_lineage_fetch_partial(pages, 4))
    partials = pa.concat_tables(parts)
    got = _lineage_table(7, partials, 50, 20, 23)
    assert got.schema == LINEAGE_SCHEMA
    ref = (
        partials.to_pandas()
        .groupby("partition_id", as_index=False)[["rows", "cache_hits", "errors"]]
        .sum()
    )
    fetch = got.filter(pc.equal(got.column("stage"), "fetch")).to_pandas()
    assert fetch["partition_id"].tolist() == ref["partition_id"].tolist()
    assert fetch["rows_in"].tolist() == ref["rows"].tolist() == fetch["rows_out"].tolist()
    assert fetch["cache_hits"].tolist() == ref["cache_hits"].tolist()
    assert fetch["errors"].tolist() == ref["errors"].tolist()
    assert fetch["fetches"].tolist() == (ref["rows"] - ref["cache_hits"]).tolist()
    assert got.to_pylist()[-1] == {
        "epoch": 7, "partition_id": -1, "stage": "dedup", "rows_in": 50,
        "rows_out": 20, "fetches": None, "cache_hits": None,
        "dedup_checks": 23, "dedup_hits": 3, "errors": None, "wall_ms": None,
    }
