"""Crawl start-up: the fetch pool hosts the seen shards and the robots
state and is the only actors a crawl starts, a fresh fetch worker's first
chunk imports nothing, and crawl tables cross Ray as Arrow IPC
(``to_wire``/``from_wire``) with their exact schema."""

import sys
from dataclasses import replace

import numpy as np
import pyarrow as pa
import ray

from spider_ray.pipelines import crawl
from spider_ray.pipelines.crawl import (
    CrawlConfig,
    FetchWorker,
    _failed_rows,
    _lineage_fetch_partial,
    _PAGE_SLIM_COLS,
    _worker_args,
    frontier_from_seeds,
    run_crawl,
)
from spider_ray.schemas import PAGES_SCHEMA
from spider_ray.sources.fixtures import MockWebConfig, image_url, seed_urls
from spider_ray.sources.storage import from_wire, to_wire
from spider_ray.state import politeness, seen
from spider_ray.state.seen import ShardedSeen


class _Recording:
    """Actor-class proxy that logs every actor the driver asks for."""

    def __init__(self, actor_class, name: str, log: list):
        self._cls, self._name, self._log = actor_class, name, log

    def options(self, **kw):
        return _Recording(self._cls.options(**kw), self._name, self._log)

    def remote(self, *a, **k):
        self._log.append(self._name)
        return self._cls.remote(*a, **k)


def test_fetch_pool_is_submitted_before_the_state_actors(ray_session, tmp_path, monkeypatch):
    """The raylet boots actor processes a couple at a time, so a crawl
    starts as few as it can: the fetch workers host the seen shards and
    the robots state, so neither a ``SeenShardActor`` nor a
    ``HostBudgetActor`` starts, with robots on or off."""
    log: list = []
    monkeypatch.setattr(crawl, "FetchWorker", _Recording(crawl.FetchWorker, "fetch", log))
    monkeypatch.setattr(seen, "SeenShardActor", _Recording(seen.SeenShardActor, "seen", log))
    monkeypatch.setattr(
        politeness, "HostBudgetActor",
        _Recording(politeness.HostBudgetActor, "politeness", log),
    )
    web = MockWebConfig(n_pages=60, n_hosts=3, with_private=True)
    config = CrawlConfig(
        out_dir=str(tmp_path / "crawl"), seeds=seed_urls(web, every=20), web=web,
        n_seen_shards=2, fetch_concurrency=2, respect_robots=True,
    )
    result = run_crawl(config)
    assert result.pages_fetched > 0
    assert log == ["fetch", "fetch"]
    log.clear()
    assert run_crawl(replace(config, out_dir=str(tmp_path / "off"), respect_robots=False)).pages_fetched
    assert log == ["fetch", "fetch"]


def _modules(worker) -> set:
    return set(ray.get(worker.__ray_call__.remote(lambda self: list(sys.modules))))


def test_first_chunk_of_a_fresh_worker_imports_nothing(ray_session, tmp_path):
    """The constructor pays the chunk routine's first-use imports, and the
    chunk and its result travel as Arrow IPC, so Ray's ``pa.Table``
    pickler (which loads ``ray.air``) is never used."""
    web = MockWebConfig(n_pages=80, n_hosts=3)
    # pages and both image formats: every row kind of the chunk routine
    seeds = seed_urls(web, every=4) + [image_url(i, web) for i in (0, 5)]
    config = CrawlConfig(out_dir=str(tmp_path), seeds=seeds, web=web)
    shards = ShardedSeen.create(n_shards=2, capacity_per_shard=1 << 12, exact=True)
    worker = FetchWorker.options(num_cpus=0.5).remote(*_worker_args(config, 0, 1, None))
    try:
        ray.get(worker.__ray_ready__.remote())
        before = _modules(worker)
        worker.attach.remote(shards)
        chunk = frontier_from_seeds(config.seeds)
        sink = {t: str(tmp_path / t) for t in ("pages", "images", "documents")}
        out = ray.get(worker.process_chunk.remote(to_wire(chunk), False, sink, 0, 2))
        after = _modules(worker)
    finally:
        ray.kill(worker, no_restart=True)
        for actor in shards.shards:
            ray.kill(actor, no_restart=True)
    assert out["n_pages"] == chunk.num_rows and out["n_images"] == 2
    assert from_wire(out["fresh"]).num_rows > 0
    assert sorted(after - before) == []
    assert not [m for m in after if m == "ray.air" or m.startswith("ray.air.")]


_SAMPLE = {
    pa.string(): ["a", None, "c"],
    pa.uint64(): [1, 2**63 + 5, 3],
    pa.int32(): [200, 503, None],
    pa.int64(): [12, 0, 7],
    pa.float64(): [0.5, 1.0, None],
    pa.bool_(): [True, False, None],
    pa.timestamp("ms"): [1_700_000_000_000, None, 0],
}


def _wire_cases() -> dict:
    web = MockWebConfig(n_pages=40, n_hosts=3)
    frontier = frontier_from_seeds(seed_urls(web, every=3))
    # the slim pages table as ``_fused_chunk`` builds it (nullable fields)
    # and under the sink schema's own (not-null) fields
    pages = pa.table({
        c: pa.array(_SAMPLE[PAGES_SCHEMA.field(c).type], PAGES_SCHEMA.field(c).type)
        for c in _PAGE_SLIM_COLS
    })
    sink_schema = pa.schema([PAGES_SCHEMA.field(c) for c in _PAGE_SLIM_COLS])
    complete = pages.filter(pa.array([True, False, True]))
    filled = pa.Table.from_pydict(
        {c: complete.column(c).fill_null(_SAMPLE[complete.column(c).type][0])
         for c in _PAGE_SLIM_COLS},
        schema=sink_schema,
    )
    return {
        "frontier chunk": frontier.take(pa.array(range(1, frontier.num_rows, 2))),
        "slim pages": pages,
        "slim pages, sink schema": filled,
        "fresh candidates": frontier.filter(pa.array(
            [i % 3 != 0 for i in range(frontier.num_rows)]
        )),
        "failed rows": _failed_rows(pages),
        "lineage partial": _lineage_fetch_partial(filled, 4),
        "empty": frontier.schema.empty_table(),
    }


def test_wire_round_trip_keeps_table_and_schema():
    for name, table in _wire_cases().items():
        back = from_wire(to_wire(table))
        assert back.schema.equals(table.schema, check_metadata=True), name
        assert back.equals(table), name


def test_wire_ships_only_a_slice_rows():
    big = pa.table({
        "url": pa.array([f"http://h{i % 7}.test/p/{i}" for i in range(1_000)]),
        "url_hash": pa.array(np.arange(1_000, dtype=np.uint64)),
    })
    one = to_wire(big.slice(500, 1))
    assert one.size * 10 < to_wire(big).size
    assert from_wire(one).equals(big.slice(500, 1))

