"""The wave cut: the sorted-run cut (``RunSet.cut``) must equal a
sequential reference scan, row for row, whether its runs are held in
memory or spilled to run files."""

import collections

import numpy as np
import pyarrow as pa
import pytest

from spider_ray.pipelines.crawl import RunSet


def sequential_cut(frontier: pa.Table, wave_k: int, cap: int) -> tuple[list[int], list[int]]:
    """Reference wave cut: walk the rows in (priority desc, url_hash asc)
    order, take a row while its host (a null host is ``""``) has fewer
    than ``cap`` taken rows and the budget remains. Returns the row
    indices of (wave, deferred), both in that order."""
    prio = frontier.column("priority").to_pylist()
    hashes = frontier.column("url_hash").to_pylist()
    hosts = frontier.column("host").to_pylist()
    order = sorted(range(frontier.num_rows), key=lambda i: (-prio[i], hashes[i]))
    counts = collections.defaultdict(int)
    wave, deferred = [], []
    for i in order:
        host = hosts[i] or ""
        if len(wave) < wave_k and counts[host] < cap:
            counts[host] += 1
            wave.append(i)
        else:
            deferred.append(i)
    return wave, deferred


def runset_of(frontier: pa.Table, bounds=None) -> RunSet:
    """A RunSet holding ``frontier`` split into runs at ``bounds``."""
    bounds = bounds or [0, frontier.num_rows]
    rs = RunSet()
    for lo, hi in zip(bounds, bounds[1:]):
        rs.add_table(frontier.slice(lo, hi - lo))
    return rs


def spilled_runset_of(frontier: pa.Table, bounds, directory: str, window: int) -> RunSet:
    """A RunSet whose runs (``frontier`` split at ``bounds``) are each
    spilled to a run file in ``directory``, read ``window`` rows at a
    time."""
    rs = RunSet(directory, 0, window)
    for lo, hi in zip(bounds, bounds[1:]):
        rs.add_table(frontier.slice(lo, hi - lo))
    return rs


def _frontier(n=500, hosts=5, seed=3):
    rng = np.random.default_rng(seed)
    prio = rng.integers(0, 1000, n) / 1000.0
    return pa.table(
        {
            "url": pa.array([f"http://h{i % hosts}.test/p/{i}" for i in range(n)]),
            "url_hash": pa.array(
                rng.integers(0, 2**63, n, dtype=np.uint64), pa.uint64()
            ),
            "host": pa.array([f"h{i % hosts}.test" for i in range(n)]),
            "priority": pa.array(prio, pa.float64()),
            "depth": pa.array([0] * n, pa.int32()),
            "attempts": pa.array([0] * n, pa.int32()),
        }
    )


def _urls(frontier: pa.Table, rows: list[int]) -> list[str]:
    return frontier.column("url").take(pa.array(rows, pa.int64())).to_pylist()


@pytest.mark.parametrize("wave_k,cap", [(100, 10), (50, 1000), (10_000, 3)])
def test_wave_paths_equivalent(ray_session, tmp_path, monkeypatch, wave_k, cap):
    """The cut equals the reference scan over held runs, and again over
    run files read through windows smaller than the wave (the cut loads
    larger windows until it is exact); five files exceed ``MAX_RUNS``, so
    the last spill merges them in a Ray task first. Walking the leftover
    continues the global order."""
    frontier = _frontier()
    expected, deferred = sequential_cut(frontier, wave_k, cap)
    monkeypatch.setattr(RunSet, "MAX_RUNS", 4)
    for rs in (
        runset_of(frontier, [0, 120, 500]),
        spilled_runset_of(frontier, [0, 40, 120, 200, 310, 500], str(tmp_path), 7),
    ):
        wave, leftover = rs.cut(wave_k, cap)
        assert wave.column("url").to_pylist() == _urls(frontier, expected)
        assert wave.num_rows + leftover.count == frontier.num_rows
        rest, _ = leftover.cut(frontier.num_rows, frontier.num_rows)
        assert rest.column("url").to_pylist() == _urls(frontier, deferred)
    assert len(rs.files) == 1  # the fifth spill merged the five files


@pytest.mark.parametrize("wave_k", [10, 100, 499, 500, 5000])
def test_runset_cut_equals_materialized_cut(wave_k):
    """The sorted-run frontier must cut EXACTLY the wave, in the same
    order, that the reference scan of the materialized frontier cuts —
    including across multiple runs with duplicated priorities (boundary
    ties)."""
    frontier = _frontier(n=500, hosts=5)
    # split into 3 uneven runs to exercise the multi-run merge
    wave_rs, leftover = runset_of(frontier, [0, 50, 300, 500]).cut(wave_k, 10**9)
    wave, deferred = sequential_cut(frontier, wave_k, 10**9)
    assert wave_rs.column("url").to_pylist() == _urls(frontier, wave)
    assert leftover.count == len(deferred)
    # leftover rows are exactly the complement
    left_urls = leftover.to_table().column("url").to_pylist()
    assert sorted(left_urls) == sorted(_urls(frontier, deferred))


def test_runset_iterated_cuts_match_full_order():
    """Cut-k repeatedly (re-adding nothing) must walk the full frontier in
    exact global order — the crawl's epoch sequence."""
    frontier = _frontier(n=300, hosts=4, seed=9)
    full_order, _ = sequential_cut(frontier, 10**9, 10**9)
    rs = runset_of(frontier)
    walked = []
    while rs.count:
        wave, rs = rs.cut(37, 10**9)
        walked.extend(wave.column("url").to_pylist())
    assert walked == _urls(frontier, full_order)


def test_wave_budget_and_cap_respected():
    frontier = _frontier(n=200, hosts=4)
    wave, leftover = runset_of(frontier).cut(30, 5)
    assert wave.num_rows == 20  # 4 hosts × cap 5 < budget 30
    assert leftover.count == 180
    per = collections.Counter(wave.column("host").to_pylist())
    assert max(per.values()) <= 5
    # wave is in (priority desc, hash asc) order
    prio = wave.column("priority").to_pylist()
    hashes = wave.column("url_hash").to_pylist()
    keys = list(zip([-p for p in prio], hashes))
    assert keys == sorted(keys)


def test_host_cap_vectorized_matches_sequential_reference():
    """The vectorized host-cap cut equals the sequential scan: walk rows
    in wave order, take while host count < cap and budget remains — for
    any split of the frontier into runs."""
    rng = np.random.default_rng(17)
    n = 500
    frontier = pa.table(
        {
            "url": [f"u{i}" for i in range(n)],
            "url_hash": pa.array(
                rng.integers(0, 2**63 - 1, n, dtype=np.int64), pa.int64()
            ),
            "host": pa.array([f"h{int(h)}" for h in rng.integers(0, 7, n)]),
            "priority": pa.array(
                rng.integers(0, 1000, n).astype(np.float64) / 1000.0
            ),
        }
    )
    # (50, 10) is a full wave: 7 hosts x cap 10 >= 50; the others are short
    for wave_k, cap in [(50, 3), (200, 10), (500, 2), (10, 1), (50, 10)]:
        for bounds in ([0, n], [0, 17, 260, n]):
            wave, leftover = runset_of(frontier, bounds).cut(wave_k, cap)
            expected, deferred = sequential_cut(frontier, wave_k, cap)
            assert wave.column("url").to_pylist() == _urls(frontier, expected), (wave_k, cap)
            full = len(expected) == wave_k
            assert full == ((wave_k, cap) == (50, 10))
            if full:
                # the rows past the walk stay in their runs
                rest, _ = leftover.cut(n, n)
                assert rest.column("url").to_pylist() == _urls(frontier, deferred)
            else:
                # a short wave walked every row: the skipped rows stay
                # in global order as one run
                assert leftover.to_table().column("url").to_pylist() == \
                    _urls(frontier, deferred)


def test_cut_orders_composite_collisions_by_full_hash():
    """Rows whose sort composites collide (equal priority, equal top 54
    hash bits) are ordered by their full hash in both cuts, also when the
    colliding rows sit in different runs."""
    n = 40
    frontier = pa.table(
        {
            "url": [f"u{i}" for i in range(n)],
            "url_hash": pa.array(np.arange(n, 0, -1), pa.uint64()),  # one 1024-block
            "host": pa.array([f"h{i % 3}" for i in range(n)]),
            "priority": pa.array([0.5] * n),
        }
    )
    for cap in (4, 10**9):
        wave, leftover = runset_of(frontier, [0, 13, 27, n]).cut(10, cap)
        expected, deferred = sequential_cut(frontier, 10, cap)
        assert wave.column("url").to_pylist() == _urls(frontier, expected), cap
        rest, _ = leftover.cut(n, n)
        assert rest.column("url").to_pylist() == _urls(frontier, deferred), cap


def test_runset_cut_null_host():
    """A null host must behave as an ordinary politeness key (ADVICE r3):
    the capped cut over a frontier with None hosts equals the cut over
    the identical frontier with None replaced by a sentinel string."""
    frontier = _frontier(n=200, hosts=4)
    host = frontier.column("host").to_pylist()
    for i in range(0, len(host), 7):
        host[i] = None
    for i in range(3, len(host), 11):  # null and "" are ONE politeness key
        host[i] = ""
    with_null = frontier.set_column(
        frontier.schema.get_field_index("host"), "host",
        pa.array(host, pa.string()),
    )
    with_sentinel = frontier.set_column(
        frontier.schema.get_field_index("host"), "host",
        pa.array(["" if h is None else h for h in host], pa.string()),
    )
    wave_a, leftover_a = runset_of(with_null).cut(60, 5)
    wave_b, _ = runset_of(with_sentinel).cut(60, 5)
    assert wave_a.select(["url", "priority"]).to_pydict() == \
        wave_b.select(["url", "priority"]).to_pydict()
    assert wave_a.num_rows + leftover_a.count == with_null.num_rows
    assert wave_a.column("url").to_pylist() == _urls(with_null, sequential_cut(with_null, 60, 5)[0])


@pytest.mark.parametrize("spilled", [False, True])
def test_cut_after_a_short_wave_walks_once(tmp_path, monkeypatch, spilled):
    """The cap leaves every wave short until the frontier is nearly
    drained: the first cut walks twice (the wave's ``wave_k`` rows, then
    every loaded row), and each cut after a short one walks every loaded
    row at once. The waves equal those of cuts that start at ``wave_k``
    rows each time, and of the reference scan."""
    from spider_ray.pipelines import crawl

    calls = collections.Counter()
    prefix_cut = crawl._prefix_cut

    def counted(*a, **k):
        calls[mode] += 1
        return prefix_cut(*a, **k)

    monkeypatch.setattr(crawl, "_prefix_cut", counted)
    frontier = _frontier(n=500, hosts=5)
    bounds = [0, 170, 340, 500]
    waves = {}
    for mode in ("walk_all", "wave_k first"):
        rs = (spilled_runset_of(frontier, bounds, str(tmp_path / mode), 64) if spilled
              else runset_of(frontier, bounds))
        waves[mode], shorts = [], 0
        while rs.count:
            wave, rs = rs.cut(100, 10)
            waves[mode].append(wave.column("url").to_pylist())
            shorts += rs.walk_all
            if mode != "walk_all":
                rs.walk_all = False
    assert waves["walk_all"] == waves["wave_k first"]
    reference, rest = [], frontier
    while rest.num_rows:
        wave, deferred = sequential_cut(rest, 100, 10)
        reference.append(_urls(rest, wave))
        rest = rest.take(pa.array(deferred, pa.int64()))
    assert waves["walk_all"] == reference
    assert shorts == 9  # ten waves of 50 rows; the last one is the whole rest
    if not spilled:
        assert calls["walk_all"] == len(reference) + 1
        # every cut but the last two (100 and 50 rows left) walks twice
        assert calls["wave_k first"] == 2 * len(reference) - 2
    assert calls["walk_all"] < calls["wave_k first"]
