"""Config-path coverage: max_depth, keep_page_content, spilled frontier."""

import json
import os
from dataclasses import replace

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from spider_ray.pipelines.crawl import CrawlConfig, run_crawl
from spider_ray.sources.fixtures import MockWebConfig, seed_urls
from spider_ray.sources.storage import EpochStore

CFG = MockWebConfig(n_pages=120, n_hosts=7, img_every=5)


def _base(tmp_path, name, **kw):
    return CrawlConfig(
        out_dir=str(tmp_path / name), seeds=seed_urls(CFG, every=30), web=CFG,
        wave_k=10_000, exact_seen=True, fetch_concurrency=2, **kw,
    )


def test_max_depth_limits_bfs(ray_session, tmp_path):
    config = _base(tmp_path, "depth", max_depth=2)
    run_crawl(config)
    order = EpochStore(config.out_dir).read_all("order")
    depths = order.column("depth").to_pylist()
    assert max(depths) <= 2
    # matches the BFS oracle truncated at depth 2
    from tests.test_crawl import bfs_oracle

    oracle = {u: d for u, d in bfs_oracle(CFG, seeds_every=30).items() if d <= 2}
    assert set(order.column("url").to_pylist()) == set(oracle)


def test_keep_page_content_persists_html(ray_session, tmp_path):
    config = _base(tmp_path, "content", keep_page_content=True, max_epochs=2)
    run_crawl(config)
    pages = EpochStore(config.out_dir).read_all("pages")
    assert "content" in pages.schema.names and "body_bytes" in pages.schema.names
    html_rows = pages.filter(pc.equal(pages.column("content_type"), "text/html"))
    assert all("</html>" in c for c in html_rows.column("content").to_pylist())
    # documents keep raw html too in this mode
    docs = EpochStore(config.out_dir).read_all("documents")
    ext = docs.filter(pc.equal(docs.column("strategy"), "html-extraction"))
    assert all(h is not None for h in ext.column("html").to_pylist())


def test_dataset_wave_select_path_equivalent(ray_session, tmp_path):
    base = _base(tmp_path, "arrow")
    run_crawl(base)
    forced = run_crawl(
        replace(base, out_dir=str(tmp_path / "dsselect"), driver_wave_threshold=1)
    )
    a = EpochStore(base.out_dir).read_all("order").to_pydict()
    b = EpochStore(str(tmp_path / "dsselect")).read_all("order").to_pydict()
    assert a == b
    assert forced.seen_size == len(set(a["url"]))


def test_fully_distributed_path_equivalent_and_resumable(ray_session, tmp_path):
    """Force the spilled frontier (driver_wave_threshold=0: between cuts
    every frontier row lives in run files, none on the driver) and require
    bit-equal crawl order/images vs the held-frontier path, plus
    kill-and-resume equivalence from a run-file checkpoint."""
    # wave_k smaller than the frontier so non-empty deferred sets exist —
    # the spilled path must keep them in run files
    base = replace(_base(tmp_path, "driver_path"), wave_k=16, max_epochs=200)
    run_crawl(base)
    dist_cfg = replace(
        base,
        out_dir=str(tmp_path / "dist"),
        driver_wave_threshold=0,
    )
    dist = run_crawl(dist_cfg)
    a_store, b_store = EpochStore(base.out_dir), EpochStore(dist_cfg.out_dir)
    assert a_store.read_all("order").to_pydict() == b_store.read_all("order").to_pydict()
    ia = a_store.read_all("images").sort_by("image_id")
    ib = b_store.read_all("images").sort_by("image_id")
    assert ia.equals(ib)
    assert dist.seen_size == len(set(a_store.read_all("order").to_pydict()["url"]))
    # the spilled path's checkpoints record run files with their cursors,
    # and its frontier/epoch=E tables hold no row (the driver holds none);
    # the run files' rows from their cursors are the held path's frontier
    assert b_store.epochs("frontier_runs")
    for e in b_store.epochs("frontier"):
        assert b_store.read("frontier", e).num_rows == 0
        spilled = []
        if e in b_store.epochs("frontier_runs"):
            links = b_store.epoch_dir("frontier_runs", e)
            with open(os.path.join(links, "cursors.json")) as f:
                for name, cursor in json.load(f):
                    keys = pq.read_table(os.path.join(links, name), columns=["url_hash"])
                    spilled += keys.column("url_hash").to_pylist()[cursor:]
        held = a_store.read("frontier", e).column("url_hash").to_pylist()
        assert sorted(spilled) == sorted(held), e
    # kill-and-resume on the distributed path
    part_cfg = replace(dist_cfg, out_dir=str(tmp_path / "dist_part"), max_epochs=2)
    run_crawl(part_cfg)
    resumed = run_crawl(replace(part_cfg, max_epochs=64), resume=True)
    assert (
        EpochStore(part_cfg.out_dir).read_all("order").to_pydict()
        == a_store.read_all("order").to_pydict()
    )
    assert resumed.seen_size == dist.seen_size


def test_spilled_frontier_resumes_from_an_early_checkpoint(ray_session, tmp_path):
    """A driver_wave_threshold=0 crawl cut back to an early checkpoint —
    after later epochs consumed and deleted its working run files —
    resumes from the checkpoint's hardlinks to the uninterrupted crawl's
    exact (epoch, seq, url) order and seen size."""
    from tests.test_crawl import _truncate_to_checkpoint

    config = replace(
        _base(tmp_path, "spilled"), wave_k=16, max_epochs=200, driver_wave_threshold=0
    )

    def crawl_order():
        order = EpochStore(config.out_dir).read_all("order")
        return list(zip(*(order.column(c).to_pylist() for c in ("epoch", "seq", "url"))))

    full = run_crawl(config)
    expected = crawl_order()
    assert 1 in EpochStore(config.out_dir).epochs("frontier_runs")
    assert not os.path.exists(os.path.join(config.out_dir, "runs"))  # working files gone
    _truncate_to_checkpoint(config.out_dir, 1)
    resumed = run_crawl(config, resume=True)
    assert crawl_order() == expected
    assert resumed.seen_size == full.seen_size


def test_cpu_budget_without_room_for_a_worker_raises(ray_session, tmp_path):
    """A checkpoint write (0.25) + one 3.8-CPU fetch worker exceed the
    session's 4 CPUs (the seen shards and robots state live in the fetch
    workers): the crawl must refuse
    before starting any actor instead of waiting forever."""
    config = _base(tmp_path, "too_big", fetch_num_cpus=3.8)
    with pytest.raises(ValueError, match=r"needs 4\.05 CPUs .* has 4\.00"):
        run_crawl(config)
    assert not os.path.exists(config.out_dir)


def test_fetch_slots_count_every_reservation(monkeypatch):
    from spider_ray.pipelines import crawl

    monkeypatch.setattr(crawl.ray, "cluster_resources", lambda: {"CPU": 2.0})
    cfg = CrawlConfig(
        out_dir="unused", seeds=[], n_seen_shards=2, fetch_num_cpus=0.5,
        fetch_concurrency=1,
    )
    assert crawl._fetch_slots(cfg) == 1
    # (2 - 0.25) / 0.5 = 3.5 workers fit: the shards and robots state
    # reserve nothing
    assert crawl._fetch_slots(replace(cfg, fetch_concurrency=8)) == 3
    # 1.0 CPU fits one 0.5-CPU worker beside a write
    monkeypatch.setattr(crawl.ray, "cluster_resources", lambda: {"CPU": 1.0})
    assert crawl._fetch_slots(replace(cfg, fetch_concurrency=8)) == 1
    monkeypatch.setattr(crawl.ray, "cluster_resources", lambda: {"CPU": 0.7})
    with pytest.raises(ValueError, match="needs 0.75 CPUs"):
        crawl._fetch_slots(cfg)
