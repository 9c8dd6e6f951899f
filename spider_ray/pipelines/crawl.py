"""The distributed crawl: wave-based URL-frontier scheduler over Ray Data.

This is the flagship pipeline — the north rule's "distributed URL-frontier +
fetch scheduler". Per wave (epoch):

1. **Wave cut** — deterministic priority cut of the frontier: per-host
   politeness cap (hot-host skew splitting: a hot host's overflow is
   deferred, other hosts fill the wave — SURVEY.md §4) then global
   ``sort(priority desc, url_hash asc) . limit(wave_k)``. The total order
   tie-break on ``url_hash`` is what makes crawl ordering reproducible
   under parallelism (reference ordering = caller order + priority chains,
   SURVEY.md §2.7 O6). With ``respect_robots`` the politeness actors
   screen the cut, fetching robots.txt through the resolver seam
   (``state/politeness.py``): disallowed rows are dropped and logged,
   Crawl-delay overflow and failed-robots hosts deferred.
2. **Fetch + parse + extract + admit** — one data path per chunk: the
   wave is cut into strided chunks, and each runs the fused row pipeline
   (``_fused_chunk``) on a ``_ChunkWorker``, which fetches (adapter
   parity, error rows), parses links, assembles
   candidates/documents/images, admits its own candidates into the sharded
   bloom+cuckoo seen set (batched RPCs to hash-owned shard actors — no
   all-to-all shuffle; this is the crawl's only admission path), and writes
   its own pages/images/documents partition files. Driver traffic per wave
   is O(new URLs), not O(fetched bytes): each chunk returns its fresh
   candidates, counters and the number of keys it sent to the shards.
   Every chunk runs on a persistent ``FetchWorker`` actor of the crawl's
   fetch pool, reused across waves.
3. **Frontier update + checkpoint** — fresh candidates + politeness
   deferrals + bounded 5xx retries form the next frontier; per-epoch order
   + lineage tables (+ the url_hash of robots-dropped rows), and a
   frontier snapshot plus the crawl's dedup check and hit totals every
   ``checkpoint_interval`` epochs. An epoch's tables go out as ONE Ray
   write task, overlapped with the next wave's fetch; the driver's
   control plane is one round trip per service per wave (one robots
   ``screen`` per politeness actor, the chunks themselves, one write
   task). The seen set itself is never written: every
   admitted key is fetched (order), waiting (frontier) or robots-dropped,
   so a resume rebuilds the shards from those tables
   (``_rebuild_seen``). An interrupted crawl resumes from the last
   completed checkpoint, replaying at most interval-1 waves idempotently
   (kill-and-resume tests in tests/).

Scale notes: each wave materializes at most ``wave_k`` pages per worker set
(the streaming unit — sized so a wave fits aggregate cluster memory); big
binary payloads never pass through the driver.

The FRONTIER has one form, as in an LSM tree (O'Neil et al., "The
Log-Structured Merge-Tree", 1996): runs sorted by (priority desc,
url_hash asc) (``RunSet``). Every row's sort key derives from its hash
(``parse.priority_from_hash``), so runs merge by their prefixes. Fresh
candidates sort into a new run; when the per-host cap cannot bind, a
wave cut is zero-copy prefix slices + an exact boundary-tie merge, and
when it binds, one sort of the runs' keys and one per-host rank pass
(``_host_rank``). Beyond ``driver_wave_threshold`` held rows the runs
spill to one immutable, sorted parquet run file with a cursor: a cut
reads a window of about ``wave_k`` rows per file by row group, so the
driver never holds the whole frontier, and a checkpoint writes the held
rows plus a hardlink and cursor per run file.

The fetch workers write the pages/images/documents partition files
themselves; the driver's control plane per wave is counters + fresh
candidates. The dispatch loop sends ~2 strided chunks per fetch slot,
primed two deep, so the end-of-wave barrier tail is one small chunk.

Start-up is paid by every ``run_crawl``, so by every resume too. Three
rules keep it off the first wave's critical path:

- **Boot order.** The raylet starts fresh actor processes about two at a
  time. The fetch pool is created first, so it boots in the first round;
  the seen shards and (robots on only) the politeness actors follow, and
  the shards reach the workers through one ``attach`` call queued ahead
  of their first chunk.
- **Warm-up.** A fetch worker's constructor pays the chunk routine's
  first-use imports, overlapping the state actors' boot instead of
  delaying the first chunk.
- **Arrow IPC wire.** Every table the crawl sends through Ray goes as an
  Arrow IPC stream (``storage.to_wire``/``from_wire``): chunks, chunk
  results and write-task payloads. No crawl process uses Ray's
  ``pa.Table`` pickler, which imports ``ray.air`` (~0.7 s) on first use.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.urls import canonicalize_url, host_of, is_valid_url, url_hash64
from ..schemas import (
    DOCUMENTS_SCHEMA,
    FRONTIER_SCHEMA,
    IMAGES_SCHEMA,
    LINEAGE_SCHEMA,
    PAGES_SCHEMA,
)
from ..sources.fixtures import MockWebConfig
from ..sources.storage import WRITE_TASK_NUM_CPUS, EpochStore, from_wire, to_wire
from ..stages.fetch import FetchStage
from ..stages.parse import priority_from_hash
from ..state.politeness import POLITENESS_NUM_CPUS, PolitenessPool
from ..state.seen import SHARD_NUM_CPUS, ShardedSeen

_FIXED_EPOCH_MS = 1_700_000_000_000

@dataclass
class CrawlConfig:
    out_dir: str
    seeds: list[str]
    web: MockWebConfig = field(default_factory=MockWebConfig)
    adapter: str = "simple"
    n_seen_shards: int = 4
    seen_capacity_per_shard: int = 1 << 20
    # conformance default; False → cuckoo-only at scale. A resume rebuilds
    # the shards from the checkpointed keys: exact mode gets the identical
    # set back; cuckoo-only mode keeps every admitted key, but its false
    # positives may differ after a resume if a shard overflowed its capacity
    exact_seen: bool = True
    use_bloom: bool = False  # conformance default; True → bloom pre-filter
    wave_k: int = 1_000_000
    max_per_host_per_wave: int = 1_000_000_000
    max_epochs: int = 64
    max_depth: int | None = None
    fetch_concurrency: int = 4
    fetch_num_cpus: float = 1.0  # per-worker CPU reservation (fractional →
    # worker count can track num_cpus exactly while service actors co-fit)
    retry_max_attempts: int = 1
    respect_robots: bool = False
    # Crawl-delay → per-host tokens: a wave models this many seconds of
    # polite wall-clock, so Crawl-delay: d grants floor(period/d) tokens
    # per wave (state/politeness.py delay_budget)
    politeness_wave_period_s: float = 60.0
    robots_agent: str = "*"
    # frontier rows the driver may hold in memory; beyond it, they spill
    # to immutable sorted run files (RunSet)
    driver_wave_threshold: int = 200_000
    keep_page_content: bool = False  # drop big HTML from the pages sink by default
    # the chunk executor; 'pool' (persistent fetch actors reused across
    # waves) is the only one
    fetch_mode: str = "pool"
    # persistent response-cache dir (state.cache.FileCache): a re-run over
    # the same universe hits the cache instead of the network (the
    # reference's resume-via-cache semantics, README.md:554-557). The fetch
    # workers' response cache is on exactly when this is set: otherwise the
    # seen-set already guarantees ≤1 fetch per URL, so per-URL cache-key
    # hashing (sha256 + canonical JSON) is pure overhead; retries refetch
    fetch_cache_dir: str | None = None
    # frontier checkpoint (+ seen counters in the manifest) every K epochs:
    # resume replays ≤K-1 epochs deterministically/idempotently and
    # rebuilds the seen set from order/dropped/frontier; K>1 amortizes the
    # frontier serialize (the largest driver-held table at scale)
    checkpoint_interval: int = 1
    # -- the network/browser seam ------------------------------------------
    # Zero-arg callable returning a RESOLVER — constructed ONCE per fetch
    # actor in FetchStage.__init__ (never per batch); None → hermetic
    # MockWeb. Real-HTTP crawls (http_fetch.HttpResolver) flow through the
    # identical scheduler/dedup path. A real BROWSER runtime (the
    # reference's crawlee adapter launches Chromium,
    # src/shared/browser-runner.ts:224-351) plugs in through this same
    # seam; the container has no Chromium, so the contract is pinned here
    # and by tests/test_fetch_modes.py's fake-browser seam test:
    #
    #   required  resolve(url: str, attempts: int) -> MockResponse-shaped
    #             record (url, final_url, status, content_type, content
    #             [HTML text], body_bytes [binary payloads], filename,
    #             downloads [RAW download events — duplicates included;
    #             FetchStage dedups them, browser-runner.ts:204-222]).
    #             Must block until the page settles (the reference waits
    #             for networkidle, crawlee.ts:169-186) and follow
    #             redirects itself, reporting the landing URL in
    #             final_url.
    #   optional  expand(url: str, round: int) -> str | None — one
    #             interaction round (click expandable selectors, scroll);
    #             returns newly revealed HTML or None. FetchStage drives
    #             the bounded fixpoint (≤3 rounds crawlee / ≤10 tree,
    #              2-empty stop) and counts interactions; a resolver
    #             without expand() crawls expansion-free (fetch.py:191).
    #   robots    with respect_robots, each politeness actor runs the
    #             factory once too; robots.txt uses resolve() only
    #   lifecycle the factory runs inside the actor, so the browser
    #             process is launched once per actor and amortized across
    #             every wave the actor serves (ST2); hold the
    #             process/page-pool handle on the resolver instance and
    #             release it in __del__/close(). State must NOT be
    #             captured in the factory's closure — the factory is
    #             pickled to workers, the live runtime is not.
    #   sizing    a Chromium-backed actor wants fetch_num_cpus >= 1 (the
    #             browser serializes page loads); pure-HTTP resolvers run
    #             fine at fractional CPUs.
    resolver_factory: "object | None" = None
    # ignored; kept only until perfbench/workloads.py stops passing it
    pipeline_waves: bool = False

    def __post_init__(self):
        if self.fetch_mode != "pool":
            raise ValueError(f"fetch_mode must be 'pool', not {self.fetch_mode!r}")
        if self.wave_k < 1:  # RunSet.cut needs a wave of at least one row
            raise ValueError(f"wave_k must be at least 1, not {self.wave_k}")


_PAGE_SLIM_COLS = [
    "url", "final_url", "url_hash", "host", "depth", "status", "content_type",
    "filename", "fetched_at", "cache_hit", "strategy_type", "strategy_spider",
    "confidence", "duration_ms", "link_count", "interaction_count", "complete",
    "error",
]


class _ChunkWorker:
    """Worker-side state of the fused chunk routine: the stateful fetch
    stage (session/browser/cache — reference tears its browser down per
    URL, browser-runner.ts:335-338), the seen-shard handles, an optional
    bloom pre-filter and the depth limit.

    Each persistent ``FetchWorker`` actor holds one, reused across waves
    (Ray Data's ``map_batches`` would build a fresh actor pool per
    epoch). Everything per-row (fetch, link parse, candidate hashing,
    document assembly, image decode) and the seen-set admission run here;
    the driver sees only counters + fresh candidates.

    Start-up: ``run_crawl`` creates the pool before the seen shards, so
    the shards reach a worker through ``attach``, queued ahead of its
    first chunk (an actor's mailbox is FIFO). The constructor pays the
    chunk routine's first-use imports while the state actors boot.
    Tables cross Ray as Arrow IPC (``to_wire``): a chunk comes in encoded
    and its fresh/failed/lineage tables go out encoded, so the worker
    never loads Ray's ``pa.Table`` pickler.
    """

    def __init__(
        self,
        use_bloom: bool,
        max_depth: int | None,
        stage_kwargs: dict,
        resolver_factory=None,
    ):
        from ..state.bloom import BloomFilter

        self.stage = FetchStage(
            resolver=resolver_factory() if resolver_factory else None,
            **stage_kwargs,
        )
        # worker-side admission: each worker probes the shared seen shards
        # for its own chunk's candidates (north rule: bloom pre-filter lives
        # in the fetch actors) — the driver never touches raw candidates
        self.seen: ShardedSeen | None = None
        self.bloom = BloomFilter(1 << 21, 0.001) if use_bloom else None
        self.max_depth = max_depth
        # warm-up: pay the chunk routine's one first-use import here, while
        # the state actors boot, not in the first chunk — pyarrow's lazy
        # pandas shim imports pandas (~0.34 s) on the first pa.array of
        # Python objects; the modules _fused_chunk imports are loaded
        # with this one
        pa.array([0])

    def attach(self, seen: ShardedSeen) -> None:
        """Hand over the crawl's seen shards (created after this worker)."""
        self.seen = seen

    def process_chunk(
        self,
        chunk: pa.Buffer,
        keep_content: bool,
        sink: dict,
        part_id: int,
        n_partitions: int,
    ) -> dict:
        """``_fused_chunk`` over ``from_wire(chunk)``, admitting through
        this worker's seen handles; its tables return ``to_wire``-encoded,
        and the result also carries ``n_checks``, the number of keys this
        chunk sent to the seen shards."""
        n_checks = 0

        def admit(candidates: pa.Table) -> pa.Table:
            nonlocal n_checks
            fresh, n_checks = _chunk_dedup(candidates, self.seen, self.bloom, self.max_depth)
            return fresh

        out = _fused_chunk(
            self.stage, from_wire(chunk), keep_content, sink, part_id, n_partitions, admit
        )
        for name in ("fresh", "failed", "lineage"):
            out[name] = to_wire(out[name])
        out["n_checks"] = n_checks
        return out


FetchWorker = ray.remote(_ChunkWorker)


def _worker_args(config: CrawlConfig) -> tuple:
    """Constructor args of ``_ChunkWorker`` for this crawl."""
    stage_kwargs = {
        "web_config": config.web,
        "adapter": config.adapter,
        "cache_enabled": bool(config.fetch_cache_dir),
        "cache_dir": config.fetch_cache_dir,
    }
    return (config.use_bloom, config.max_depth, stage_kwargs, config.resolver_factory)


def _fused_chunk(
    stage,
    chunk: pa.Table,
    keep_content: bool,
    sink: dict,
    part_id: int,
    n_partitions: int,
    admit,
) -> dict:
    """The fused per-chunk row pipeline a ``_ChunkWorker`` runs.

    Fetch → link parse → document/image assembly run row-wise in plain
    Python, and Arrow tables are materialized exactly ONCE per chunk (the
    earlier micro-batch implementation built + concatenated + re-converted
    tables several times per chunk, which dominated the memory-bandwidth
    budget at high worker counts). The row loop keeps each page's links
    only as ``(href, text)`` pairs (``extract_link_pairs``, or the
    resolver's own ``links``) with the page's row; ``_candidate_table``
    then builds the candidates in one pass over the chunk's distinct
    hrefs. ``admit`` filters the chunk's candidates through the seen set;
    the executing worker writes its own pages/images/documents partition
    files under ``sink`` (table→directory), so the driver receives only
    counters + fresh candidates."""
    from ..functions.links import extract_link_pairs
    from ..sources.storage import write_table
    from ..stages.parse import document_row, image_row

    urls = chunk.column("url").to_pylist()
    depths = chunk.column("depth").to_pylist()
    attempts = chunk.column("attempts").to_pylist()
    anchors = chunk.column("anchor_text").to_pylist()
    hashes = chunk.column("url_hash").to_pylist()

    pcol: dict[str, list] = {c: [] for c in _PAGE_SLIM_COLS}
    if keep_content:
        pcol["content"] = []
        pcol["body_bytes"] = []
        pcol["downloads"] = []
    # every raw link of the chunk (by row, then in document order) with
    # the row of its page; (row, position among that page's pairs) names
    # a candidate independently of the order chunks complete in
    link_pairs: list[tuple] = []
    link_rows: list[int] = []
    image_rows: list[dict] = []
    doc_rows: list[dict] = []
    for i, url in enumerate(urls):
        r = stage._fetch_one(url, attempts[i] or 0)
        status = r["status"]
        content = r["content"]
        ctype = r["content_type"]
        links = r.get("links")
        if links is not None:  # the resolver's own pre-extracted link dicts
            links = [(link["href"], link.get("text")) for link in links]
        elif status < 400 and ctype and "html" in ctype and content:
            links = extract_link_pairs(content, r["final_url"])
        pcol["url"].append(url)
        pcol["final_url"].append(r["final_url"])
        pcol["url_hash"].append(hashes[i])
        pcol["host"].append(host_of(url))
        pcol["depth"].append(depths[i])
        pcol["status"].append(status)
        pcol["content_type"].append(ctype)
        pcol["filename"].append(r["filename"])
        pcol["fetched_at"].append(_FIXED_EPOCH_MS)
        pcol["cache_hit"].append(r["cache_hit"])
        pcol["strategy_type"].append(
            "tree" if stage.adapter == "tree" else "basic"
        )
        pcol["strategy_spider"].append(stage.adapter)
        pcol["confidence"].append(stage._confidence(r))
        pcol["duration_ms"].append(int(r["duration_ms"]))
        pcol["link_count"].append(len(links) if links is not None else 0)
        pcol["interaction_count"].append(r["interactions"])
        pcol["complete"].append(status < 400)
        pcol["error"].append(r["error"])
        if keep_content:
            pcol["content"].append(content)
            pcol["body_bytes"].append(r["body_bytes"])
            pcol["downloads"].append(r.get("downloads"))
        if links:
            link_pairs += links
            link_rows += [i] * len(links)
        img = image_row(url, r["body_bytes"], status, anchors[i])
        if img is not None:
            image_rows.append(img)
        doc = document_row(
            url, status, ctype, content, r["body_bytes"], r["filename"],
            include_html=keep_content,
            downloads=r.get("downloads"),
        )
        if doc is not None:
            doc_rows.append(doc)

    slim_cols = list(_PAGE_SLIM_COLS) + (
        ["content", "body_bytes", "downloads"] if keep_content else []
    )
    pages = pa.table(
        {c: pa.array(pcol[c], PAGES_SCHEMA.field(c).type) for c in slim_cols}
    )
    images = (
        pa.Table.from_pylist(image_rows, schema=IMAGES_SCHEMA)
        if image_rows else IMAGES_SCHEMA.empty_table()
    )
    documents = (
        pa.Table.from_pylist(doc_rows, schema=DOCUMENTS_SCHEMA)
        if doc_rows else DOCUMENTS_SCHEMA.empty_table()
    )
    candidates = _candidate_table(link_pairs, np.array(link_rows, dtype=np.int64), pages)
    out = {
        "n_candidates_raw": candidates.num_rows,
        "n_pages": pages.num_rows,
        "n_images": images.num_rows,
        "fresh": admit(candidates),
        "failed": _failed_rows(pages),
        "lineage": _lineage_fetch_partial(pages, n_partitions),
    }
    name = f"part-{part_id:05d}.parquet"
    write_table(pages, sink["pages"], name)
    if images.num_rows:
        write_table(images, sink["images"], name)
    if documents.num_rows:
        write_table(documents, sink["documents"], name)
    return out


def _candidate_table(pairs: list[tuple], rows: np.ndarray, pages: pa.Table) -> pa.Table:
    """A chunk's candidates from its raw links: ``pairs[k]`` is the
    ``(href, text)`` of a link on the page in row ``rows[k]`` of
    ``pages``. Validity, canonical URL, ``url_hash64`` and host are
    computed once per distinct href of the chunk; links with an invalid
    href are dropped, and each kept link takes its depth (the page's + 1)
    and ``parent_url_hash`` from its page's row."""
    slot: dict = {}
    href_slot = np.fromiter(
        (slot.setdefault(href, len(slot)) for href, _text in pairs),
        dtype=np.int64, count=len(pairs),
    )
    valid = np.zeros(len(slot), dtype=bool)
    urls: list = [None] * len(slot)
    hosts: list = [None] * len(slot)
    keys = np.zeros(len(slot), dtype=np.uint64)
    for s, href in enumerate(slot):
        if is_valid_url(href):
            canonical = canonicalize_url(href)
            valid[s] = True
            urls[s] = canonical
            hosts[s] = host_of(canonical)
            keys[s] = url_hash64(canonical)
    kept = np.flatnonzero(valid[href_slot])
    kept_slot = pa.array(href_slot[kept])
    kept_rows = pa.array(rows[kept])
    url_hash = keys[href_slot[kept]]
    n = len(kept)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()).take(kept_slot),
            "url_hash": pa.array(url_hash, pa.uint64()),
            "host": pa.array(hosts, pa.string()).take(kept_slot),
            "priority": pa.array(priority_from_hash(url_hash), pa.float64()),
            "depth": pc.add(pc.fill_null(pages.column("depth"), 0), pa.scalar(1, pa.int32()))
            .take(kept_rows).combine_chunks(),
            "discovered_at": pa.nulls(n, pa.timestamp("ms")),
            "parent_url_hash": pages.column("url_hash").take(kept_rows).combine_chunks(),
            "attempts": pa.array(np.zeros(n, dtype=np.int32)),
            "anchor_text": pa.array([pairs[k][1] for k in kept.tolist()], pa.string()),
        }
    )


def _chunk_dedup(candidates: pa.Table, seen, bloom, max_depth) -> tuple[pa.Table, int]:
    """Worker-side seen-set admission for one chunk's candidates: optional
    per-worker bloom pre-filter (repeat duplicates skip the RPC), then one
    batched check_and_add fan-out to the hash-owned shard actors. The
    admitted SET is order-independent (shard admission is exactly-once per
    key), so chunk completion order can't change the frontier. Returns the
    admitted candidates and the number of keys sent to the shards (the
    crawl's dedup checks): depth-filtered and bloom-skipped keys are never
    sent, so they count nowhere."""
    if max_depth is not None:
        candidates = candidates.filter(
            pc.less_equal(candidates.column("depth"), max_depth)
        )
    if candidates.num_rows == 0:
        return candidates, 0
    keys = candidates.column("url_hash").to_numpy().astype(np.uint64)
    sent = (
        ~bloom.contains_many(keys) if bloom is not None
        else np.ones(len(keys), dtype=bool)
    )
    unseen = np.zeros(len(keys), dtype=bool)
    if sent.any():
        unseen[sent] = seen.check_and_add(keys[sent])
        if bloom is not None:
            bloom.add_many(keys[sent])
    return candidates.filter(pa.array(unseen)), int(sent.sum())


def _failed_rows(pages_slim: pa.Table) -> pa.Table:
    """Retryable (5xx) rows → (url_hash, status)."""
    status = pages_slim.column("status")
    retryable = pc.and_(pc.greater_equal(status, 500), pc.less(status, 600))
    return pages_slim.filter(retryable).select(["url_hash", "status"])


def _lineage_fetch_partial(pages_slim: pa.Table, n_partitions: int) -> pa.Table:
    """Per-partition (url_hash % n) fetch counters for one chunk."""
    part_ids = (
        pages_slim.column("url_hash").to_numpy().astype(np.uint64)
        % np.uint64(n_partitions)
    ).astype(np.int64)
    cache_hits = pages_slim.column("cache_hit").to_numpy(zero_copy_only=False)
    statuses = pages_slim.column("status").to_numpy()
    rows = np.bincount(part_ids, minlength=n_partitions)
    hits = np.bincount(part_ids, weights=cache_hits.astype(np.float64), minlength=n_partitions)
    errs = np.bincount(
        part_ids, weights=(statuses >= 400).astype(np.float64), minlength=n_partitions
    )
    return pa.table(
        {
            "partition_id": pa.array(range(n_partitions), pa.int32()),
            "rows": pa.array(rows.astype("int64")),
            "cache_hits": pa.array(hits.astype("int64")),
            "errors": pa.array(errs.astype("int64")),
        }
    )


@dataclass
class CrawlResult:
    out_dir: str
    epochs: int
    pages_fetched: int
    images_written: int
    dedup_checks: int
    dedup_hits: int
    seen_size: int


# ---------------------------------------------------------------------------
# Wave selection (deterministic politeness cap + priority cut)
# ---------------------------------------------------------------------------

def _fix_composite_ties(order: np.ndarray, composite: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Resolve equal-composite runs in a composite-sorted index array by the
    full 64-bit hash (equal composite ⇒ equal priority, so hash is the
    correct total-order tie-break)."""
    comp_sorted = composite[order]
    tie_pos = np.nonzero(comp_sorted[1:] == comp_sorted[:-1])[0]
    if tie_pos.size:
        runs = np.split(tie_pos, np.nonzero(np.diff(tie_pos) > 1)[0] + 1)
        for run in runs:
            s, e = run[0], run[-1] + 2
            idx = order[s:e]
            order[s:e] = idx[np.argsort(hashes[idx], kind="stable")]
    return order


def _host_rank(hosts: pa.Array) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """Each row's rank within its host, walking rows in order — the one
    kernel behind both per-host limits (the wave cut's cap and the
    Crawl-delay budgets). Returns ``(rank, codes, dictionary)``: row i's
    host is ``dictionary[codes[i]]``, and null hosts form one group of
    their own. Arrow's dictionary encode gives integer host codes with no
    Python strings; a stable argsort groups each host's rows in row
    order, and a row's rank is its offset in its group."""
    encoded = pc.dictionary_encode(hosts, null_encoding="encode")
    codes = encoded.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(codes)
    by_host = np.argsort(codes, kind="stable")
    grouped = codes[by_host]
    first = np.ones(n, dtype=bool)
    first[1:] = grouped[1:] != grouped[:-1]
    group_start = np.maximum.accumulate(np.where(first, np.arange(n), 0))
    rank = np.empty(n, dtype=np.int64)
    rank[by_host] = np.arange(n) - group_start
    return rank, codes, encoded.dictionary


# ---------------------------------------------------------------------------
# Frontier helpers
# ---------------------------------------------------------------------------

def frontier_from_seeds(seeds: list[str]) -> pa.Table:
    urls = [canonicalize_url(url) for url in seeds]
    hashes = np.array([url_hash64(u) for u in urls], dtype=np.uint64)
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "url_hash": pa.array(hashes, pa.uint64()),
            "host": pa.array([host_of(u) for u in urls], pa.string()),
            "priority": pa.array(priority_from_hash(hashes), pa.float64()),
            "depth": pa.array(np.zeros(n, dtype=np.int32)),
            "discovered_at": pa.array([_FIXED_EPOCH_MS] * n, pa.timestamp("ms")),
            "parent_url_hash": pa.nulls(n, pa.uint64()),
            "attempts": pa.array(np.zeros(n, dtype=np.int32)),
            "anchor_text": pa.nulls(n, pa.string()),
        },
        schema=FRONTIER_SCHEMA,
    )


def _empty_frontier() -> pa.Table:
    return FRONTIER_SCHEMA.empty_table()


def _as_frontier(table: pa.Table) -> pa.Table:
    """``table``'s frontier columns in ``FRONTIER_SCHEMA``."""
    return table.select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA)


def crawl_delay_keep(hosts, caps: dict) -> np.ndarray:
    """Boolean keep-mask for the per-wave Crawl-delay budgets: row i of
    host h survives iff its rank within h (in wave order == priority
    order) is under h's budget; hosts with no cap — including null
    hosts, which can never carry a robots directive — are always kept.
    ``hosts`` is an Arrow column or a list of host strings."""
    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    elif not isinstance(hosts, pa.Array):
        hosts = pa.array(hosts, pa.string())
    rank, codes, dictionary = _host_rank(hosts)
    budget = np.array(
        [
            np.inf if host is None or caps.get(host) is None else caps[host]
            for host in dictionary.to_pylist()
        ],
        dtype=np.float64,
    )
    return rank < budget[codes]


def _prefix_cut(runs: list[tuple], wave_k: int) -> tuple[pa.Table, tuple, list[int]]:
    """The first ``wave_k`` rows of the sorted ``runs`` ((table, composites,
    hashes) each): ``(wave, its last key, ends)``, run i giving its first
    ``ends[i]`` rows. The global threshold comes from an O(n) numpy
    partition over the composites; the wave is zero-copy prefix slices
    plus an exact hash-ordered boundary-tie selection."""
    tables, comps, hashes = zip(*runs)
    all_comp = np.concatenate(comps)
    wave_k = min(wave_k, len(all_comp))
    kth = np.partition(all_comp, wave_k - 1)[wave_k - 1]
    need = wave_k - int((all_comp < kth).sum())
    # boundary ties: the composite==kth rows globally, by full hash; a
    # run's selected tie rows are a prefix of its (hash-sorted) tie range
    ends, tie_hashes, tie_runs = [], [], []
    for i, (c, h) in enumerate(zip(comps, hashes)):
        lo = int(np.searchsorted(c, kth, side="left"))
        hi = int(np.searchsorted(c, kth, side="right"))
        ends.append(lo)
        if hi > lo:
            tie_hashes.append(h[lo:hi])
            tie_runs.append(i)
    if need > 0 and tie_hashes:
        owner = np.concatenate(
            [np.full(len(th), r, dtype=np.int64) for th, r in zip(tie_hashes, tie_runs)]
        )
        sel = np.argsort(np.concatenate(tie_hashes), kind="stable")[:need]
        for r, cnt in zip(*np.unique(owner[sel], return_counts=True)):
            ends[int(r)] += int(cnt)
    comp = np.concatenate([c[:end] for c, end in zip(comps, ends)])
    hs = np.concatenate([h[:end] for h, end in zip(hashes, ends)])
    order = _fix_composite_ties(np.argsort(comp, kind="stable"), comp, hs)
    wave = pa.concat_tables([t.slice(0, end) for t, end in zip(tables, ends) if end])
    return wave.take(pa.array(order)), (comp[order[-1]], hs[order[-1]]), ends


def _capped_cut(runs: list[tuple], wave_k: int, max_per_host: int, n_held: int) -> tuple:
    """The capped wave of the sorted ``runs``: ``(wave, its last key, ends,
    remainder)``. One stable sort of all runs' composites gives the global
    order, and per-host ranks in that order (``_host_rank``) pick the
    first ``wave_k`` rows under the cap. A full wave ends the walk at its
    last row: run i (a run-file window when i >= ``n_held``) gives up its
    first ``ends[i]`` rows and keeps the rest. ``remainder`` is ONE sorted
    run of every other row not in the wave: the rows the cap skipped and
    the rest of the first ``n_held`` runs, the rows held in memory."""
    tables, comps, hashes = zip(*runs)
    comp = np.concatenate(comps)
    hs = np.concatenate(hashes)
    order = _fix_composite_ties(np.argsort(comp, kind="stable"), comp, hs)
    table = pa.concat_tables(tables)
    # the cap counts a null host as the host "" (one politeness key)
    hosts = pc.fill_null(table.column("host"), "").combine_chunks()
    rank, _, _ = _host_rank(hosts.take(pa.array(order)))
    taken = np.flatnonzero(rank < max_per_host)[:wave_k]
    take = np.zeros(len(order), dtype=bool)
    take[taken] = True
    walked = np.ones(len(order), dtype=bool)
    if 0 < len(taken) == wave_k:
        walked[taken[-1] + 1:] = False
    owner = np.repeat(np.arange(len(tables)), [len(c) for c in comps])[order]
    rest = order[~take & (walked | (owner < n_held))]
    last = (comp[order[taken[-1]]], hs[order[taken[-1]]]) if len(taken) else None
    return (
        table.take(pa.array(order[take])),
        last,
        np.bincount(owner[walked], minlength=len(tables)),
        (table.take(pa.array(rest)), comp[rest], hs[rest]),
    )


class _RunFile:
    """One immutable, composite-sorted parquet run file of a ``RunSet``:
    its rows from ``cursor`` on are frontier rows. A window is the next
    rows as a run ``(table, composites, hashes)``, read by row group
    (``starts``: each group's first row, then the row count); ``window``
    caches one or is None."""

    def __init__(self, path: str, cursor: int = 0, starts: np.ndarray | None = None):
        if starts is None:
            meta = pq.read_metadata(path)
            sizes = [meta.row_group(g).num_rows for g in range(meta.num_row_groups)]
            starts = np.cumsum([0] + sizes)
        self.path, self.cursor, self.starts = path, cursor, starts
        self.window: tuple | None = None

    @property
    def remaining(self) -> int:
        return int(self.starts[-1]) - self.cursor

    @property
    def loaded(self) -> int:
        return 0 if self.window is None else self.window[0].num_rows

    def read(self, n: int) -> tuple:
        """A window of the next ``n`` rows (all, if fewer remain); the
        cached one if it holds them."""
        n = min(n, self.remaining)
        if self.loaded >= n:
            return self.window
        first = int(np.searchsorted(self.starts, self.cursor, side="right")) - 1
        stop = int(np.searchsorted(self.starts, self.cursor + n, side="left"))
        with pq.ParquetFile(self.path) as pf:
            table = pf.read_row_groups(list(range(first, stop)))
        table = table.slice(self.cursor - int(self.starts[first]), n)
        return (table, *RunSet._composite(table))

    def advance(self, k: int, window: tuple, keep: int) -> "_RunFile | None":
        """This file past its next ``k`` rows, caching at most ``keep`` rows
        of ``window`` after them; None once no row remains."""
        if k >= self.remaining:
            return None
        rest = _RunFile(self.path, self.cursor + k, self.starts)
        table, comp, hashes = window
        end = min(table.num_rows, k + keep)
        if end > k:
            rest.window = (table.slice(k, end - k), comp[k:end], hashes[k:end])
        return rest

    def keys(self):
        """The url_hash column from ``cursor`` on, a row group at a time."""
        with pq.ParquetFile(self.path) as pf:
            for g in range(pf.num_row_groups):
                if self.starts[g + 1] > self.cursor:
                    keys = pf.read_row_group(g, ["url_hash"]).column("url_hash")
                    yield keys.slice(max(0, self.cursor - int(self.starts[g])))


class RunSet:
    """LSM-style sorted-run frontier: every frontier row.

    Each run is a table sorted by the (priority desc, url_hash asc)
    composite, with its composite and hash arrays cached (8 B/row each).
    Beyond ``threshold`` held rows (None: no limit) the runs are written
    out to ``directory`` as one immutable run file (``_RunFile``); more
    than ``MAX_RUNS`` files are merged into one by a Ray task.

    ``cut`` treats each file's window, about ``window`` rows from its
    cursor, as one more run, and picks a wave in two ways, chosen by
    whether the per-host cap can bind: a prefix of the global order that
    touches O(wave_k) table rows (``_prefix_cut``), or one sort of all
    runs' keys and a per-host rank pass (``_capped_cut``), the skipped
    rows staying sorted as ONE run. The cut is exact while no row past a
    window sorts before the wave's last row; until then, or while the
    cap leaves the wave short, it loads larger windows and cuts again.
    A file's rows past the cut stay in it (its cursor advances)."""

    MAX_RUNS = 48  # compaction threshold (amortized O(n log n) rare)

    def __init__(self, directory: str | None = None, threshold: int | None = None,
                 window: int = 1 << 16):
        self.runs: list[pa.Table] = []
        self.comps: list[np.ndarray] = []
        self.hashes: list[np.ndarray] = []
        self.files: list[_RunFile] = []
        self.directory, self.threshold, self.window = directory, threshold, window
        self._names = itertools.count()  # run file names, shared with every leftover

    def _like(self) -> "RunSet":
        """An empty RunSet with this one's settings and run-file names."""
        other = RunSet(self.directory, self.threshold, self.window)
        other._names = self._names
        return other

    @staticmethod
    def _composite(table: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """(composite, hashes) sort keys of ``table``'s rows. Every frontier
        priority is k/1000 with k < 1000 (``parse.priority_from_hash``), so
        ``999 - k`` packs into the top 10 bits above the top 54 hash bits:
        one uint64 sort key (≈4× cheaper than a 2-key lexsort). The
        (vanishingly rare) composite collisions are resolved exactly on
        the full hash by ``_fix_composite_ties``."""
        prio = np.round(table.column("priority").to_numpy() * 1000.0).astype(np.uint64)
        hashes = table.column("url_hash").to_numpy().astype(np.uint64)
        composite = ((np.uint64(999) - prio) << np.uint64(54)) | (hashes >> np.uint64(10))
        return composite, hashes

    @classmethod
    def _sorted(cls, table: pa.Table) -> tuple[pa.Table, np.ndarray, np.ndarray]:
        """``table`` sorted into a run, with its keys."""
        composite, hashes = cls._composite(table)
        order = _fix_composite_ties(np.argsort(composite, kind="stable"), composite, hashes)
        return table.take(pa.array(order)), composite[order], hashes[order]

    def _append(self, table: pa.Table, comp: np.ndarray, hashes: np.ndarray) -> None:
        """Append an already-sorted run with its keys (none if empty)."""
        if table.num_rows == 0:
            return
        if self.runs:
            table = table.select(self._schema.names).cast(self._schema)
        else:
            self._schema = table.schema
        self.runs.append(table)
        self.comps.append(comp)
        self.hashes.append(hashes)

    def add_table(self, table: pa.Table) -> None:
        """Sort ``table`` into a new run; spill beyond ``threshold`` held
        rows, and merge the run files beyond ``MAX_RUNS``."""
        if table.num_rows == 0:
            return
        self._append(*self._sorted(table))
        if len(self.runs) > self.MAX_RUNS:
            merged = pa.concat_tables(self.runs)
            self.runs, self.comps, self.hashes = [], [], []
            self._append(*self._sorted(merged))
        self._fit()
        if len(self.files) > self.MAX_RUNS:
            path = self._path()
            files = [(f.path, f.cursor) for f in self.files]
            ray.get(_merge_run_files.remote(files, path, self.window))
            for f in self.files:
                os.unlink(f.path)
            self.files = [_RunFile(path)]

    def _path(self) -> str:
        os.makedirs(self.directory, exist_ok=True)
        return os.path.join(self.directory, f"run-{next(self._names):06d}.parquet")

    def _fit(self) -> None:
        """Write the held runs out as one run file if they exceed ``threshold``."""
        if self.threshold is None or self.held <= self.threshold:
            return
        table = self._sorted(pa.concat_tables(self.runs))[0]
        self.runs, self.comps, self.hashes = [], [], []
        path = self._path()
        pq.write_table(table, path, row_group_size=self.window, compression="zstd")
        self.files.append(_RunFile(path))

    @property
    def held(self) -> int:
        """Rows held in memory (run-file windows excluded)."""
        return sum(t.num_rows for t in self.runs)

    @property
    def count(self) -> int:
        return self.held + sum(f.remaining for f in self.files)

    def to_table(self) -> pa.Table:
        """The rows held in memory."""
        if not self.runs:
            return _empty_frontier()
        return pa.concat_tables(self.runs)

    def cut(self, wave_k: int, max_per_host: int) -> tuple[pa.Table, "RunSet"]:
        """The wave — the first ``wave_k`` rows, in exact (priority desc,
        hash asc) order, whose rank within their host is under
        ``max_per_host`` (a null host is the host ``""``) — and the
        leftover RunSet."""
        total = self.count
        if total == 0:
            return _empty_frontier(), self._like()
        capped = max_per_host < total
        want = min(wave_k, total)
        held = list(zip(self.runs, self.comps, self.hashes))
        windows = [f.window or f.read(self.window) for f in self.files]
        while True:
            if capped:
                wave, last, ends, remainder = _capped_cut(
                    held + windows, wave_k, max_per_host, len(held)
                )
            else:
                wave, last, ends = _prefix_cut(held + windows, want)
            # a window that is not the file's whole rest must not end
            # before the wave's last row: rows past it could sort earlier
            short = wave.num_rows < want
            grow = [
                j for j, (f, w) in enumerate(zip(self.files, windows))
                if w[0].num_rows < f.remaining and (short or (w[1][-1], w[2][-1]) < last)
            ]
            if not grow:
                break
            for j in grow:
                windows[j] = self.files[j].read(max(2 * windows[j][0].num_rows, self.window))
        leftover = self._like()
        if capped:
            leftover._append(*remainder)
        else:
            for (t, c, h), end in zip(held, ends):
                leftover._append(t.slice(end), c[end:], h[end:])
        for f, w, end in zip(self.files, windows, ends[len(held):]):
            if (rest := f.advance(int(end), w, self.window)) is not None:
                leftover.files.append(rest)
        leftover._fit()
        return wave, leftover

    def link_files(self, directory: str) -> None:
        """Checkpoint the run files: replace ``directory`` with a hardlink
        of each and ``cursors.json``, their ``[name, cursor]`` list (no
        directory when there is no run file)."""
        if os.path.exists(directory):
            shutil.rmtree(directory)
        if not self.files:
            return
        os.makedirs(directory)
        cursors = []
        for i, f in enumerate(self.files):
            name = f"run-{i:05d}.parquet"
            os.link(f.path, os.path.join(directory, name))
            cursors.append([name, f.cursor])
        with open(os.path.join(directory, "cursors.json"), "w") as out:
            json.dump(cursors, out)

    def adopt(self, directory: str) -> None:
        """Take over the run files ``link_files`` checkpointed in
        ``directory`` (if any), hardlinked into this set's directory."""
        path = os.path.join(directory, "cursors.json")
        if not os.path.exists(path):
            return
        with open(path) as f:
            for name, cursor in json.load(f):
                work = self._path()
                os.link(os.path.join(directory, name), work)
                self.files.append(_RunFile(work, cursor))


@ray.remote(num_cpus=WRITE_TASK_NUM_CPUS)
def _merge_run_files(files: list[tuple[str, int]], path: str, window: int) -> None:
    """Merge the run files ``[(path, cursor)]`` into one at ``path`` by
    repeated uncapped cuts over their windows."""
    runs = RunSet(window=window)
    runs.files = [_RunFile(p, cursor) for p, cursor in files]
    wave, runs = runs.cut(window, runs.count)
    with pq.ParquetWriter(path, wave.schema, compression="zstd") as writer:
        writer.write_table(wave, row_group_size=window)
        while runs.count:
            wave, runs = runs.cut(window, runs.count)
            writer.write_table(wave, row_group_size=window)


@dataclass
class Frontier:
    """The URL frontier: one ``RunSet``, held on the driver up to
    ``driver_wave_threshold`` rows and spilled to run files beyond it —
    the 10^10-URL scale requirement (no ``pa.concat_tables`` of the
    whole frontier, no collect of the deferred set)."""

    runset: RunSet

    @property
    def count(self) -> int:
        return self.runset.count

    def with_extra(self, extra: pa.Table) -> "Frontier":
        """Next-epoch frontier: this frontier plus the small driver-side
        increment (fresh candidates, retries), sorted into a new run in
        place."""
        if extra.num_rows:
            self.runset.add_table(_as_frontier(extra))
        return self


# ---------------------------------------------------------------------------
# The crawl driver loop
# ---------------------------------------------------------------------------

def _fetch_slots(config: CrawlConfig, n_politeness: int) -> int:
    """Fetch pool actors that co-schedule with the crawl's own
    reservations: the seen shards, the politeness actors and one
    checkpoint-write task. A worker that cannot schedule would hang its
    wave forever, so a budget with room for none raises instead."""
    avail = float(ray.cluster_resources().get("CPU", config.fetch_concurrency))
    reserved = (
        config.n_seen_shards * SHARD_NUM_CPUS
        + n_politeness * POLITENESS_NUM_CPUS
        + WRITE_TASK_NUM_CPUS
    )
    per_worker = max(0.1, config.fetch_num_cpus)
    fit = int((avail - reserved) / per_worker + 1e-9)
    if fit < 1:
        raise ValueError(
            f"crawl needs {reserved + per_worker:.2f} CPUs ({config.n_seen_shards} "
            f"seen shards x {SHARD_NUM_CPUS}, {n_politeness} politeness actors x "
            f"{POLITENESS_NUM_CPUS}, a {WRITE_TASK_NUM_CPUS}-CPU checkpoint write "
            f"and one {per_worker}-CPU fetch worker) but the Ray cluster has "
            f"{avail:.2f}"
        )
    return max(1, min(config.fetch_concurrency, fit))


def run_crawl(config: CrawlConfig, resume: bool = False) -> CrawlResult:
    """Run (or resume) a crawl to completion; everything checkpointed per
    epoch. Ray must already be initialized by the caller."""
    # the politeness actors hold robots state only: none on a robots-off crawl
    n_politeness = max(1, config.n_seen_shards // 2) if config.respect_robots else 0
    slots = _fetch_slots(config, n_politeness)  # raises before any actor starts
    store = EpochStore(config.out_dir)
    worker_args = _worker_args(config)
    # Boot order: the raylet starts actor processes about two at a time,
    # so the fetch pool — the processes with the heaviest start-up, which
    # the first wave waits on — is created first and boots in the first
    # round, paying its warm-up while the seen shards and any politeness
    # actors start.
    fetch_pool = [
        FetchWorker.options(num_cpus=config.fetch_num_cpus).remote(*worker_args)
        for _ in range(slots)
    ]
    seen = ShardedSeen.create(
        n_shards=config.n_seen_shards,
        capacity_per_shard=config.seen_capacity_per_shard,
        exact=config.exact_seen,
    )
    for worker in fetch_pool:
        worker.attach.remote(seen)  # FIFO mailbox: runs before any chunk
    politeness = PolitenessPool.create(
        n_actors=n_politeness,
        budget_per_wave=config.max_per_host_per_wave,
        wave_period_s=config.politeness_wave_period_s,
        agent=config.robots_agent,
        resolver_factory=config.resolver_factory,
        web_config=config.web,
    )

    start_epoch = 0
    manifest = store.manifest()
    # the frontier's working run files; a resume takes its own over from
    # the checkpoint's hardlinks, so any left here are stale
    runs_dir = os.path.join(config.out_dir, "runs")
    shutil.rmtree(runs_dir, ignore_errors=True)
    frontier = Frontier(RunSet(runs_dir, config.driver_wave_threshold, config.wave_k))
    if resume and manifest["completed_epochs"]:
        last = store.last_epoch()
        table = store.read("frontier", last)
        frontier.runset.adopt(store.epoch_dir("frontier_runs", last))
        _rebuild_seen(
            seen, store, last,
            itertools.chain([table.column("url_hash")], *(f.keys() for f in frontier.runset.files)),
        )
        frontier.runset.add_table(table)
        checks, hits = store.seen_counters(last)
        start_epoch = last + 1
    else:
        seed_table = frontier_from_seeds(config.seeds)
        seed_keys = seed_table.column("url_hash").to_numpy().astype(np.uint64)
        unseen = seen.check_and_add(seed_keys)
        checks, hits = len(seed_keys), len(seed_keys) - int(unseen.sum())
        frontier.runset.add_table(seed_table.filter(pa.array(unseen)))

    pages_fetched = 0
    images_written = 0
    epoch = start_epoch

    pending_writes: tuple[int, list, list] | None = None
    unflushed_refs: list = []
    while frontier.count > 0 and epoch < config.max_epochs:
        wave, deferred = _wave_cut_driver(frontier, config.wave_k, config.max_per_host_per_wave)
        dropped = None
        if config.respect_robots:
            # one call per owning politeness actor (robots.txt fetched
            # there): the allowed mask and Crawl-delay budgets out
            allowed, caps = politeness.screen(
                wave.column("host").to_pylist(),
                wave.column("url").to_pylist(),
            )
            # disallowed rows leave the crawl here: they are in neither
            # order nor frontier, so their keys are logged for the rebuild
            dropped = wave.filter(pa.array(~allowed)).select(["url_hash"])
            wave = wave.filter(pa.array(allowed))
            # Crawl-delay hosts: keep the first budget_h rows (wave order
            # = priority order) and DEFER the overflow to the next wave —
            # a rate directive delays pages, it never drops them
            if any(c is not None for c in caps.values()):
                # row i of host h survives iff its rank within h (wave
                # order = priority order) is under h's Crawl-delay budget
                keep = crawl_delay_keep(wave.column("host"), caps)
                if not keep.all():
                    mask = pa.array(keep)
                    deferred = deferred.with_extra(wave.filter(pc.invert(mask)))
                    wave = wave.filter(mask)
        if wave.num_rows == 0:
            # everything admissible this wave was robots-filtered; advance
            # (no order table: the drop log rides with the next checkpoint)
            if drop_log := _drop_log(dropped):
                unflushed_refs.append(store.write_async(epoch, drop_log))
            frontier = deferred
            if frontier.count == 0:  # done: this uncounted epoch ran no
                break  # wave; the final checkpoint gets the empty frontier
            epoch += 1
            continue

        # ---- fetch + parse + extract + dedup (distributed) ---------------
        meta = _fetch_wave(wave, config, fetch_pool, store, epoch)
        pages_fetched += meta["n_pages"]
        images_written += meta["n_images"]
        fresh_table = meta["fresh"]  # admitted by the workers
        # the crawl's dedup totals (the shards count nothing): each key a
        # collected chunk sent is a check, each one it did not admit a hit
        checks += meta["n_checks"]
        hits += meta["n_checks"] - fresh_table.num_rows

        # previous epoch's checkpoint writes overlapped with this fetch;
        # gather them now and only then mark that epoch complete
        if pending_writes is not None:
            prev_epoch, prev_refs, prev_counters = pending_writes
            ray.get(prev_refs)
            store.mark_epoch_complete(prev_epoch, prev_counters)
            pending_writes = None

        # ---- crawl order (epoch, seq) -----------------------------------
        order_table = pa.table(
            {
                "epoch": pa.array([epoch] * wave.num_rows, pa.int32()),
                "seq": pa.array(range(wave.num_rows), pa.int32()),
                "url": wave.column("url"),
                "url_hash": wave.column("url_hash"),
                "depth": wave.column("depth"),
                "priority": wave.column("priority"),
            }
        )

        # ---- retries: 5xx rows re-enqueue with attempts+1 ----------------
        retry_rows = _retry_rows(meta["failed"], wave, config.retry_max_attempts)

        # ---- fresh candidates + retries → next frontier -----------------
        frontier = deferred.with_extra(
            pa.concat_tables([_as_frontier(t) for t in (fresh_table, retry_rows)])
        )

        # ---- lineage + checkpoint: ONE write task per epoch --------------
        # The epoch's order, lineage and drop log — and at a checkpoint its
        # frontier — go out together, overlapped with the next wave's
        # fetch; the epoch is marked complete once that task returns.
        tables = {
            "order": order_table,
            "lineage": _lineage_table(
                epoch,
                meta["lineage_fetch"],
                meta["n_candidates_raw"],
                fresh_table.num_rows,
                meta["n_checks"],
            ),
            **_drop_log(dropped),
        }
        checkpoint = (epoch + 1) % config.checkpoint_interval == 0
        if checkpoint:
            tables.update(_checkpoint_frontier(store, epoch, frontier))
        unflushed_refs.append(store.write_async(epoch, tables))
        if checkpoint:
            pending_writes = (epoch, unflushed_refs, [checks, hits])
            unflushed_refs = []
        epoch += 1

    if pending_writes is not None:
        prev_epoch, prev_refs, prev_counters = pending_writes
        ray.get(prev_refs)
        store.mark_epoch_complete(prev_epoch, prev_counters)
        pending_writes = None
    if unflushed_refs or (epoch > start_epoch and store.last_epoch() != epoch - 1):
        # final (partial-interval) checkpoint so the finished state is
        # durable; a fresh crawl whose first cut robots dropped whole has
        # only its drop log to write
        if epoch > 0:
            unflushed_refs.append(
                store.write_async(epoch - 1, _checkpoint_frontier(store, epoch - 1, frontier))
            )
        ray.get(unflushed_refs)
        if epoch > 0:
            store.mark_epoch_complete(epoch - 1, [checks, hits])
        unflushed_refs = []
    store.mark_done()
    shutil.rmtree(runs_dir, ignore_errors=True)  # the checkpoints link what they need
    seen_size = seen.stats()["n_items"]
    # Release the crawl's actors NOW rather than when Ray reaps the
    # out-of-scope handles: the pool alone reserves fetch_concurrency ×
    # fetch_num_cpus CPUs, which would starve whatever the caller runs next
    # (the bench's query suite measured ~2× slower behind a lingering pool).
    for actor in [*fetch_pool, *seen.shards, *politeness.actors]:
        ray.kill(actor, no_restart=True)
    return CrawlResult(
        out_dir=config.out_dir,
        epochs=epoch - start_epoch,
        pages_fetched=pages_fetched,
        images_written=images_written,
        dedup_checks=checks,
        dedup_hits=hits,
        seen_size=seen_size,
    )


def _wave_cut_driver(
    frontier: Frontier, wave_k: int, max_per_host: int
) -> tuple[pa.Table, Frontier]:
    """The wave cut: ``RunSet.cut`` over the frontier's sorted runs and
    run-file windows. The run files it consumed are deleted."""
    wave, leftover = frontier.runset.cut(wave_k, max_per_host)
    kept = {f.path for f in leftover.files}
    for f in frontier.runset.files:
        if f.path not in kept:
            os.unlink(f.path)
    return wave, Frontier(runset=leftover)


def _rebuild_seen(seen: ShardedSeen, store: EpochStore, last: int, frontier_keys) -> None:
    """Rebuild the seen shards for a resume from checkpoint ``last``. Every
    key the crawl admitted up to then is in one of its tables: fetched
    (``order`` ≤ last), robots-dropped (``dropped`` ≤ last + 1) or waiting
    (``frontier_keys``: the url_hash column of the checkpoint frontier's
    held rows and of each run file from its cursor, batch by batch).
    Epoch last + 1 was cut from that frontier, so its drop log holds
    admitted keys only — the sole record of a last cut robots dropped
    whole. Only the url_hash column is read; a load never counts
    (the dedup counters come from the manifest)."""
    logged = (
        store.read(table, e, ["url_hash"]).column("url_hash")
        for table, upto in (("order", last), ("dropped", last + 1))
        for e in store.epochs(table, upto)
    )
    seen.load(
        keys.to_numpy() for keys in itertools.chain(logged, frontier_keys)
    )


def _drop_log(dropped: pa.Table | None) -> dict:
    """The epoch's ``dropped`` table (robots-dropped url_hashes) as a
    write entry — empty when nothing was dropped."""
    if dropped is None or dropped.num_rows == 0:
        return {}
    return {"dropped": dropped}


def _checkpoint_frontier(store: EpochStore, epoch: int, frontier: Frontier) -> dict:
    """Checkpoint the frontier: the rows held in memory come back as
    ``{"frontier": table}``, a write entry for the epoch's write task.
    Each run file is hardlinked now, with its cursor, under
    ``frontier_runs/epoch=E`` (``RunSet.link_files``): no row a run file
    holds is rewritten, and the link outlives the working file a later cut
    deletes."""
    frontier.runset.link_files(store.epoch_dir("frontier_runs", epoch))
    return {"frontier": _as_frontier(frontier.runset.to_table())}


def _epoch_sink(store: EpochStore, epoch: int) -> dict:
    """The epoch's pages/images/documents partition dirs, emptied first (an
    epoch's part files are rebuilt from scratch on re-run)."""
    sink = {t: store.epoch_dir(t, epoch) for t in ("pages", "images", "documents")}
    for d in sink.values():
        if os.path.exists(d):
            shutil.rmtree(d)
    return sink


def _n_chunks(rows: int, slots: int) -> int:
    """Strided chunk count for ``rows`` rows: ≥4k rows per chunk (more
    chunks multiply the per-chunk seen-shard RPC rounds — a 2k floor
    measured +75% dedup RPC time at sf0.1 for ~equal idle), clamped to
    ``[slots, 2 * slots]`` chunks, but never under 64 rows per chunk."""
    if rows == 0:
        return 0
    return max(1, min(2 * slots, max(slots, rows // 4096), -(-rows // 64)))


def _fetch_wave(
    wave: pa.Table,
    config: CrawlConfig,
    fetch_pool: list,
    store: EpochStore,
    epoch: int,
) -> dict:
    """Fetch+parse+extract+admit one wave → {fresh, failed, lineage_fetch,
    n_pages, n_images, n_candidates_raw, n_checks}; ``n_checks`` sums the
    keys the chunks sent to the seen shards. A non-empty wave has at
    least one chunk, and a chunk writes one page per row, so ``n_pages``
    is the wave's row count.

    The wave is cut into strided chunks (i::n — cheap HTML rows and
    expensive image rows mix evenly), ~2 per fetch slot, each run by the
    fused row pipeline (``_fused_chunk``) on a ``FetchWorker`` of the pool
    that writes its own partition files and admits its own candidates into
    the seen set. Every chunk is submitted up front, so each slot's
    mailbox holds up to two and finishing a chunk never waits a driver
    round-trip (worker idle was ~29 % of the fetch phase with depth-1
    dispatch, 28 workers). Chunks go out and their tables come back as
    Arrow IPC (``to_wire``/``from_wire``)."""
    keep, n_parts, slots = config.keep_page_content, config.n_seen_shards, len(fetch_pool)
    sink = _epoch_sink(store, epoch)
    # at most two chunks per slot: all of them are dispatched at once
    n_chunks = _n_chunks(wave.num_rows, slots)
    parts = ray.get([
        # chunk c (rows c, c + n_chunks, ...) on worker c % slots
        fetch_pool[c % slots].process_chunk.remote(
            to_wire(wave.take(pa.array(range(c, wave.num_rows, n_chunks)))),
            keep, sink, c, n_parts,
        )
        for c in range(n_chunks)
    ])

    def tables(name: str) -> pa.Table:
        return pa.concat_tables([from_wire(p[name]) for p in parts])

    return {
        "fresh": tables("fresh"),
        "failed": tables("failed"),
        "lineage_fetch": tables("lineage"),
        "n_pages": sum(p["n_pages"] for p in parts),
        "n_images": sum(p["n_images"] for p in parts),
        "n_candidates_raw": sum(p["n_candidates_raw"] for p in parts),
        "n_checks": sum(p["n_checks"] for p in parts),
    }


def _retry_rows(failed: pa.Table, wave: pa.Table, max_attempts: int) -> pa.Table:
    """Re-enqueue 5xx rows with attempts+1 (bounded) — failure is data, not
    an exception; the frontier is the retry queue (SURVEY.md §4)."""
    if failed.num_rows == 0:
        return _empty_frontier()
    in_failed = pc.is_in(
        wave.column("url_hash"),
        value_set=pc.unique(failed.column("url_hash").combine_chunks()),
    )
    under = pc.less(pc.fill_null(wave.column("attempts"), 0), max_attempts)
    rows = wave.filter(pc.and_kleene(pc.fill_null(in_failed, False), under))
    if rows.num_rows == 0:
        return _empty_frontier()
    attempts = pc.add(rows.column("attempts"), 1).cast(pa.int32())
    return rows.set_column(
        rows.schema.get_field_index("attempts"), "attempts", attempts
    )


def _lineage_table(
    epoch: int,
    fetch_partials: pa.Table,
    candidates_n: int,
    fresh_n: int,
    checks: int,
) -> pa.Table:
    """Per-partition lineage rows (the chunks' fetch partials summed with
    one bincount per counter) plus one dedup-stage row: the epoch's
    ``checks`` (keys its chunks sent to the seen shards) and its hits,
    the checks that admitted nothing (``checks - fresh_n``)."""
    pid = fetch_partials.column("partition_id").to_numpy()
    ids = np.flatnonzero(np.bincount(pid))
    rows, hits, errors = (
        np.bincount(pid, weights=fetch_partials.column(c).to_numpy())[ids]
        .astype(np.int64)
        .tolist()
        for c in ("rows", "cache_hits", "errors")
    )
    n = len(ids)
    return pa.table(
        {
            "epoch": [epoch] * (n + 1),
            "partition_id": [*ids.tolist(), -1],
            "stage": ["fetch"] * n + ["dedup"],
            "rows_in": [*rows, candidates_n],
            "rows_out": [*rows, fresh_n],
            "fetches": [*(r - h for r, h in zip(rows, hits)), None],
            "cache_hits": [*hits, None],
            "dedup_checks": [None] * n + [checks],
            "dedup_hits": [None] * n + [checks - fresh_n],
            "errors": [*errors, None],
            "wall_ms": [None] * (n + 1),
        },
        schema=LINEAGE_SCHEMA,
    )
