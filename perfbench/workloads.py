"""The benchmark's workloads: fixture universe + crawl configuration.

Every workload runs on one fetch worker under a Ray budget of ``RAY_CPUS``
logical CPUs. The budget is the smallest whole number at which every
reservation a crawl makes co-schedules (``reservation_cpus``): the fetch
actor, the seen-shard and politeness actors, and at least one 0.25-CPU
checkpoint-write task. At ``num_cpus=1`` the actors alone take 0.8 CPU and
the write task never schedules, so ``run_crawl`` waits forever (see
README.md, "Engine findings").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from spider_ray.sources.fixtures import MockWebConfig

RAY_CPUS = 2
FETCH_WORKERS = 1
FETCH_CPUS = 0.5
SEEN_SHARDS = 2
SEEDS_EVERY = 50
# CPU reservations hard-coded in the engine: SeenShardActor and
# HostBudgetActor reserve 0.1 each, a checkpoint write task 0.25
_SHARD_CPUS = 0.1
_POLITENESS_CPUS = 0.1
_WRITE_TASK_CPUS = 0.25


def reservation_cpus() -> float:
    """Logical CPUs a crawl needs to make progress: fetch pool + shards +
    politeness actors (``run_crawl`` creates max(1, shards // 2)) + one
    write task."""
    politeness_actors = max(1, SEEN_SHARDS // 2)
    return (
        FETCH_WORKERS * FETCH_CPUS
        + SEEN_SHARDS * _SHARD_CPUS
        + politeness_actors * _POLITENESS_CPUS
        + _WRITE_TASK_CPUS
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    web: dict  # MockWebConfig fields, without the seed
    crawl: dict  # CrawlConfig fields, without out_dir/seeds/web
    # expected fetched rows lost to the approximate seen set, as a share of
    # the oracle: anything above it fails the run's check
    allow_loss: float = 0.0
    check_politeness: bool = False
    # resume slices: the crawl is driven as successive
    # run_crawl(resume=True, max_epochs=e + k) calls with k chosen so the
    # uninterrupted crawl's epochs split into this many slices
    slices: int = 0
    # one crawl's wall on the 4-vCPU reference host: a run makes
    # round(--seconds / crawl_s) crawls, at least one
    crawl_s: float = 6.5

    def web_config(self, seed: int) -> MockWebConfig:
        return MockWebConfig(seed=seed, **self.web)

    def seed_ids(self) -> list[int]:
        """Every SEEDS_EVERY-th page. The link graph is closed-form, so the
        seed changes only the image pixels (hence image bytes and their
        decode work), never how many pages a crawl reaches."""
        return list(range(0, self.web["n_pages"], SEEDS_EVERY))

    def slice_epochs(self, n_epochs: int) -> int:
        return max(1, math.ceil(n_epochs / self.slices))

    def crawls(self, seconds: float) -> int:
        return max(1, round(seconds / self.crawl_s))


_COMMON = dict(
    adapter="simple",
    n_seen_shards=SEEN_SHARDS,
    fetch_concurrency=FETCH_WORKERS,
    fetch_num_cpus=FETCH_CPUS,
    fetch_mode="pool",
    driver_wave_threshold=10_000_000,
    max_epochs=100_000,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="broad",
            why="scale-mode crawl (cuckoo+bloom seen, pipelined pool, "
                "waves hold the frontier): per-row worker layers dominate",
            web=dict(n_pages=24_000, n_hosts=7, img_every=5, img_size=16),
            crawl=dict(
                _COMMON,
                exact_seen=False,
                use_bloom=True,
                seen_capacity_per_shard=int(24_000 * 1.5) // SEEN_SHARDS,
                wave_k=1_000_000,
                pipeline_waves=True,
                checkpoint_interval=4,
            ),
            allow_loss=1e-3,
        ),
        Workload(
            name="polite",
            why="conformance crawl of a hostile web (robots, Crawl-delay, "
                "404, 503 retry) under a binding host cap: per-epoch driver work dominates",
            web=dict(
                n_pages=1_400, n_hosts=7, img_every=5, img_size=16,
                with_errors=True, with_private=True, crawl_delay_s=10.0,
            ),
            crawl=dict(
                _COMMON,
                exact_seen=True,
                use_bloom=False,
                respect_robots=True,
                # 7 hosts x 12 < wave_k: the cap, not the wave, bounds a
                # wave (counting the robots-disallowed rows it drops); h1's
                # Crawl-delay grants floor(60 / 10) = 6 < 12. The delay is
                # whole: the stdlib robots parser ignores "Crawl-delay: 7.5"
                max_per_host_per_wave=12,
                politeness_wave_period_s=60.0,
                wave_k=96,
                retry_max_attempts=1,
                checkpoint_interval=1,
            ),
            check_politeness=True,
        ),
        Workload(
            name="preempted",
            why="exact-seen crawl resumed from its checkpoint slice after "
                "slice: restore, frontier reads and pool starts repeat",
            web=dict(n_pages=6_000, n_hosts=7, img_every=5, img_size=16),
            crawl=dict(
                _COMMON,
                exact_seen=True,
                use_bloom=False,
                wave_k=1_000_000,
                checkpoint_interval=1,
            ),
            slices=5,
            crawl_s=16.0,
        ),
    )
}
