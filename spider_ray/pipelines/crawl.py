"""The distributed crawl: wave-based URL-frontier scheduler over Ray Data.

This is the flagship pipeline — the north rule's "distributed URL-frontier +
fetch scheduler". Per wave (epoch):

1. **Wave cut** — deterministic priority cut of the frontier: per-host
   politeness cap (hot-host skew splitting: a hot host's overflow is
   deferred, other hosts fill the wave — SURVEY.md §4) then global
   ``sort(priority desc, url_hash asc) . limit(wave_k)``. The total order
   tie-break on ``url_hash`` is what makes crawl ordering reproducible
   under parallelism (reference ordering = caller order + priority chains,
   SURVEY.md §2.7 O6).
2. **Fetch + parse + extract + admit** — one data path per chunk: the
   wave is cut into strided chunks, and each runs the fused row pipeline
   (``_fused_chunk``) on a ``_ChunkWorker``, which fetches (adapter
   parity, error rows), parses links, assembles
   candidates/documents/images, admits its own candidates into the sharded
   bloom+cuckoo seen set (batched RPCs to hash-owned shard actors — no
   all-to-all shuffle; this is the crawl's only admission path), and writes
   its own pages/images/documents partition files. Driver traffic per wave
   is O(new URLs), not O(fetched bytes): each chunk returns its fresh
   candidates, counters and the per-shard dedup counts of its own probes.
   Pool mode submits chunks to persistent ``FetchWorker`` actors; dataset
   mode submits the same chunks as independent Ray tasks (per-process
   worker cache, no persistent pool) for deployments where actors can't be
   pinned (equivalence pinned by tests/test_fetch_modes.py; ≤1.1× pool
   wall).
3. **Frontier update + checkpoint** — fresh candidates + politeness
   deferrals + bounded 5xx retries form the next frontier; per-epoch order
   + lineage tables (+ the url_hash of robots-dropped rows), and a
   frontier snapshot plus the per-shard dedup counters every
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

The FRONTIER itself is distributed end-to-end, with three equivalent,
property-tested representations picked by size:

- **sorted runs (driver path)** — an LSM-style set of composite-sorted
  tables (``RunSet``): wave cuts are zero-copy prefix slices + an exact
  boundary-tie merge, O(wave_k) driver table work per epoch instead of
  O(frontier); fresh candidates sort into a new run (compaction amortized).
- **materialized numpy cut** (``wave_select_arrow``) — when the per-host
  politeness cap binds or priorities aren't quantized.
- **parquet partitions (beyond ``driver_wave_threshold``)** — the deferred
  set is written by Ray tasks via ``write_parquet`` and read back lazily;
  the driver holds only the epoch's small increment + exact counts, and
  checkpoints hardlink the partition files (metadata-only).

Both fetch modes write pages/images/documents partition files from the
executing worker; the driver's control plane per wave is counters + fresh
candidates. The dispatch loop sends ~2 strided chunks per fetch slot,
primed two deep, so the end-of-wave barrier tail is one small chunk.

Start-up is paid by every ``run_crawl``, so by every resume too. Three
rules keep it off the first wave's critical path:

- **Boot order.** The raylet starts fresh actor processes about two at a
  time. The fetch pool is created first, so it boots in the first round;
  the seen shards and politeness actors follow, and the shards reach the
  workers through one ``attach`` call queued ahead of their first chunk.
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
from dataclasses import asdict, dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.urls import canonicalize_url, host_of, url_hash64
from ..schemas import (
    DOCUMENTS_SCHEMA,
    FRONTIER_SCHEMA,
    IMAGES_SCHEMA,
    LINEAGE_SCHEMA,
    PAGES_SCHEMA,
)
from ..sources.fixtures import MockWeb, MockWebConfig
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
    # per wave (state/politeness.py budget_for)
    politeness_wave_period_s: float = 60.0
    robots_agent: str = "*"
    driver_wave_threshold: int = 200_000  # frontier rows above this → Dataset path
    keep_page_content: bool = False  # drop big HTML from the pages sink by default
    # 'pool'   — persistent fetch actors reused across waves (amortizes
    #            stateful setup the way a browser pool must); the default
    #            and the mode every benchmark runs
    # 'dataset'— the same fused chunk pipeline as independent Ray TASKS
    #            (per-worker-process stage cache, no persistent pool; for
    #            deployments where actors can't be pinned). The driver's
    #            distributed crawl-order query uses it. One crawl never
    #            mixes the two: a pool holding the CPU budget would starve
    #            dataset tasks forever
    fetch_mode: str = "pool"
    # response cache inside fetch workers: off by default for the crawl —
    # the seen-set already guarantees ≤1 fetch per URL, so per-URL cache-key
    # hashing (sha256 + canonical JSON) is pure overhead; retries refetch
    fetch_cache: bool = False
    # persistent response-cache dir (state.cache.FileCache, TTL'd): a
    # re-run over the same universe hits the cache instead of the network
    # (the reference's resume-via-cache semantics, README.md:554-557);
    # implies fetch_cache
    fetch_cache_dir: str | None = None
    fetch_cache_ttl_ms: int | None = None
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
    # Split-wave pipelining: overlap epoch k+1's head with epoch k's tail.
    # After wave k's chunks are all submitted, the top ``spec_wave_frac *
    # wave_k`` rows of the ALREADY-KNOWN deferred frontier are cut out and
    # queued behind them in the worker mailboxes (FIFO per actor) — those
    # rows are admitted-and-unseen, so they must be fetched eventually and
    # the speculation can never waste a fetch. Workers therefore roll
    # straight into epoch k+1 work while the driver collects results, writes
    # order/lineage, checkpoints, and cuts the rest of wave k+1. Deviation
    # from conformance mode: wave k+1 = spec-rows ++ top-of-the-rest, so a
    # fresh candidate that outranks a speculated row waits one extra epoch —
    # the fetched SET, dedup guarantees and totals are identical (pinned by
    # tests/test_crawl.py), only the (epoch, seq) assignment shifts. Off by
    # default; requires fetch_mode='pool', robots off, and a non-binding
    # per-host cap (cap >= wave_k) — otherwise silently runs unpipelined.
    pipeline_waves: bool = False
    spec_wave_frac: float = 0.5

    def __post_init__(self):
        if self.fetch_mode not in ("pool", "dataset"):
            raise ValueError(
                f"fetch_mode must be 'pool' or 'dataset', not {self.fetch_mode!r}"
            )

    def key(self) -> str:
        payload = asdict(self)
        return json.dumps(payload, sort_keys=True, default=str)


_PAGE_SLIM_COLS = [
    "url", "final_url", "url_hash", "host", "depth", "status", "content_type",
    "filename", "fetched_at", "cache_hit", "strategy_type", "strategy_spider",
    "confidence", "duration_ms", "link_count", "interaction_count", "complete",
    "error",
]


class _ChunkWorker:
    """Worker-side state of the fused chunk routine, built in ONE place for
    both fetch modes: the stateful fetch stage (session/browser/cache —
    reference tears its browser down per URL, browser-runner.ts:335-338),
    the seen-shard handles, an optional bloom pre-filter and the depth
    limit.

    Pool mode holds one per persistent ``FetchWorker`` actor, reused across
    waves (Ray Data's ``map_batches`` would build a fresh actor pool per
    epoch); dataset mode caches one per worker process
    (``_fetch_chunk_task``). Everything per-row (fetch, link parse,
    candidate hashing, document assembly, image decode) and the seen-set
    admission run here; the driver sees only counters + fresh candidates.

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
        and the result also carries ``dedup``, the per-shard ``[checks,
        hits]`` of the probes this chunk sent."""
        dedup = np.zeros((self.seen.n_shards, 2), dtype=np.int64)
        out = _fused_chunk(
            self.stage, from_wire(chunk), keep_content, sink, part_id, n_partitions,
            lambda candidates: _chunk_dedup(
                candidates, self.seen, self.bloom, self.max_depth, dedup
            ),
        )
        for name in ("fresh", "failed", "lineage"):
            out[name] = to_wire(out[name])
        out["dedup"] = dedup
        return out


FetchWorker = ray.remote(_ChunkWorker)


def _worker_args(config: CrawlConfig) -> tuple:
    """Constructor args of ``_ChunkWorker`` for this crawl (both modes)."""
    stage_kwargs = {
        "web_config": config.web,
        "adapter": config.adapter,
        "cache_enabled": config.fetch_cache or bool(config.fetch_cache_dir),
        "cache_dir": config.fetch_cache_dir,
        "cache_ttl_ms": config.fetch_cache_ttl_ms,
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
    """The fused per-chunk row pipeline shared by BOTH fetch modes.

    Fetch → link parse → candidate/document/image assembly run row-wise
    in plain Python, and Arrow tables are materialized exactly ONCE per
    chunk (the earlier micro-batch implementation built + concatenated
    + re-converted tables several times per chunk, which dominated the
    memory-bandwidth budget at high worker counts). ``admit`` filters the
    chunk's candidates through the seen set; the executing worker writes
    its own pages/images/documents partition files under ``sink``
    (table→directory), so the driver receives only counters + fresh
    candidates."""
    from ..functions.links import extract_html_links
    from ..functions.urls import canonicalize_url, host_of, is_valid_url, url_hash64
    from ..sources.storage import write_table
    from ..stages.parse import document_row, image_row

    urls = chunk.column("url").to_pylist()
    depths = (
        chunk.column("depth").to_pylist()
        if "depth" in chunk.column_names else [0] * len(urls)
    )
    attempts = (
        chunk.column("attempts").to_pylist()
        if "attempts" in chunk.column_names else [0] * len(urls)
    )
    anchors = (
        chunk.column("anchor_text").to_pylist()
        if "anchor_text" in chunk.column_names else [None] * len(urls)
    )
    hashes = (
        chunk.column("url_hash").to_pylist()
        if "url_hash" in chunk.column_names
        else [url_hash64(u) for u in urls]
    )

    pcol: dict[str, list] = {c: [] for c in _PAGE_SLIM_COLS}
    if keep_content:
        pcol["content"] = []
        pcol["body_bytes"] = []
        pcol["downloads"] = []
    cand: dict[str, list] = {k: [] for k in (
        "url", "url_hash", "host", "depth", "parent_url_hash", "anchor_text",
    )}
    image_rows: list[dict] = []
    doc_rows: list[dict] = []
    for i, url in enumerate(urls):
        r = stage._fetch_one(url, attempts[i] or 0)
        status = r["status"]
        content = r["content"]
        ctype = r["content_type"]
        links = r.get("links")
        if links is None and status < 400 and ctype and "html" in ctype and content:
            links = [l.as_dict() for l in extract_html_links(content, r["final_url"])]
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
            for link in links:
                href = link["href"]
                if not is_valid_url(href):
                    continue
                canonical = canonicalize_url(href)
                cand["url"].append(canonical)
                cand["url_hash"].append(url_hash64(canonical))
                cand["host"].append(host_of(canonical))
                cand["depth"].append((depths[i] or 0) + 1)
                cand["parent_url_hash"].append(hashes[i])
                cand["anchor_text"].append(link.get("text"))
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

    n = len(cand["url"])
    cand_hashes = np.array(cand["url_hash"], dtype=np.uint64)
    candidates = pa.table(
        {
            "url": pa.array(cand["url"], pa.string()),
            "url_hash": pa.array(cand_hashes, pa.uint64()),
            "host": pa.array(cand["host"], pa.string()),
            "priority": pa.array(priority_from_hash(cand_hashes), pa.float64()),
            "depth": pa.array(cand["depth"], pa.int32()),
            "discovered_at": pa.nulls(n, pa.timestamp("ms")),
            "parent_url_hash": pa.array(cand["parent_url_hash"], pa.uint64()),
            "attempts": pa.array([0] * n, pa.int32()),
            "anchor_text": pa.array(cand["anchor_text"], pa.string()),
        }
    )
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


def _shard_counts(keys: np.ndarray, unseen: np.ndarray, n_shards: int) -> np.ndarray:
    """Per-shard ``[checks, hits]`` that one ``check_and_add(keys)`` adds
    to the owning shards (shard = url_hash % n_shards)."""
    shard = (keys % np.uint64(n_shards)).astype(np.int64)
    return np.stack(
        [
            np.bincount(shard, minlength=n_shards),
            np.bincount(shard[~unseen], minlength=n_shards),
        ],
        axis=1,
    )


def _chunk_dedup(
    candidates: pa.Table, seen, bloom, max_depth, counts: np.ndarray | None = None
) -> pa.Table:
    """Worker-side seen-set admission for one chunk's candidates: optional
    per-worker bloom pre-filter (repeat duplicates skip the RPC), then one
    batched check_and_add fan-out to the hash-owned shard actors. The
    admitted SET is order-independent (shard admission is exactly-once per
    key), so chunk completion order can't change the frontier. ``counts``
    (n_shards x 2), when given, accumulates the per-shard ``[checks,
    hits]`` of the keys sent to the shards — bloom-skipped keys are never
    sent, so they count nowhere, exactly as the shards count."""
    if candidates.num_rows == 0:
        return candidates
    if max_depth is not None:
        candidates = candidates.filter(
            pc.less_equal(candidates.column("depth"), max_depth)
        )
        if candidates.num_rows == 0:
            return candidates
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
        if counts is not None:
            counts += _shard_counts(keys[sent], unseen[sent], seen.n_shards)
    return candidates.filter(pa.array(unseen))


_TASK_WORKER: dict = {}


@ray.remote
def _fetch_chunk_task(
    chunk: pa.Buffer,
    keep_content: bool,
    sink: dict,
    part_id: int,
    n_partitions: int,
    seen: ShardedSeen,
    worker_args: tuple,
) -> dict:
    """Dataset-mode fetch unit: one wave chunk per Ray TASK (no persistent
    pool — the streaming path for waves/deployments where actors can't be
    pinned). The ``_ChunkWorker`` is cached per worker PROCESS keyed by its
    construction args and the seen handles (so a new crawl never inherits
    an old crawl's bloom), so session/cache/bloom state amortizes across
    tasks exactly like an actor pool without per-wave pool startup (a
    fresh ``map_batches`` actor pool per wave cost 2-8 s/wave at 32
    CPUs)."""
    use_bloom, max_depth, stage_kwargs, resolver_factory = worker_args
    key = (
        tuple(seen.shards),
        use_bloom,
        max_depth,
        repr(stage_kwargs),
        getattr(resolver_factory, "__qualname__", repr(resolver_factory)),
    )
    worker = _TASK_WORKER.get(key)
    if worker is None:
        worker = _ChunkWorker(*worker_args)
        worker.attach(seen)
        _TASK_WORKER.clear()  # one live worker state per process
        _TASK_WORKER[key] = worker
    return worker.process_chunk(chunk, keep_content, sink, part_id, n_partitions)


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


def wave_select_arrow(
    frontier: pa.Table, wave_k: int, max_per_host: int
) -> tuple[pa.Table, pa.Table]:
    """Numpy wave cut: returns (wave, deferred). Total order:
    (priority desc, url_hash asc); per-host rank cap applied in that order."""
    if frontier.num_rows == 0:
        return frontier, frontier
    prio = frontier.column("priority").to_numpy()
    hashes = frontier.column("url_hash").to_numpy().astype(np.uint64)
    # composite single-key sort (≈4× cheaper than 2-key lexsort): engine
    # priorities are k/1000 exactly, so they pack into 10 bits next to the
    # top 54 hash bits; the (vanishingly rare) composite collisions are
    # resolved exactly on the full hash below
    scaled = prio * 1000.0
    prio_int = np.round(scaled)
    composite = None
    n = frontier.num_rows
    if np.array_equal(scaled, prio_int) and (prio_int < 1000).all() and (prio_int >= 0).all():
        composite = (
            ((np.uint64(999) - prio_int.astype(np.uint64)) << np.uint64(54))
            | (hashes >> np.uint64(10))
        )
        if max_per_host >= n and wave_k < n:
            # pure priority cut of a big frontier: O(n) argpartition picks
            # the wave members, only the WAVE gets sorted; the deferred set
            # needs no order (it is re-cut next epoch). This is the serial
            # driver work between waves — at 32 workers the full-frontier
            # argsort was ~11 % of crawl wall (trace), the select is ~2 %.
            kth = np.partition(composite, wave_k - 1)[wave_k - 1]
            less_idx = np.nonzero(composite < kth)[0]
            need = wave_k - len(less_idx)
            # deterministic boundary: rows tied at the kth composite are
            # admitted in full-hash order (equal composite ⇒ equal priority)
            eq_idx = np.nonzero(composite == kth)[0]
            take_eq = eq_idx[np.argsort(hashes[eq_idx], kind="stable")][:need]
            members = np.concatenate([less_idx, take_eq])
            worder = members[np.argsort(composite[members], kind="stable")]
            worder = _fix_composite_ties(worder, composite, hashes)
            deferred_mask = np.ones(n, dtype=bool)
            deferred_mask[members] = False
            return (
                frontier.take(pa.array(worder)),
                frontier.filter(pa.array(deferred_mask)),
            )
        order = np.argsort(composite, kind="stable")
        order = _fix_composite_ties(order, composite, hashes)
    else:
        order = np.lexsort((hashes, -prio))  # primary: -priority, tie: hash
    if max_per_host >= n:
        # politeness cap can't bind → pure priority cut (skips the per-row
        # host accounting, which is O(frontier) python work)
        wave_idx = order[:wave_k]
        deferred_idx = order[wave_k:]
        return (
            frontier.take(pa.array(wave_idx)),
            frontier.take(pa.array(deferred_idx)),
        )
    # vectorized host-cap: a row is taken iff its within-host sequential
    # rank (in wave order) < cap, and it is among the first wave_k such
    # rows — identical to the sequential scan (skips never increment the
    # host count, so taken-count == min(prior host rows, cap)).
    # Arrow dictionary-encode gives integer host codes with no Python
    # string materialization (was an O(frontier) dict-counting loop).
    import pyarrow.compute as pc

    # null hosts must behave as an ordinary key (the pre-vectorization
    # dict-counting loop treated None that way); a null dictionary index
    # would otherwise become NaN and NaN→int64 is undefined behavior
    host_col = pc.fill_null(frontier.column("host").combine_chunks(), "")
    codes_all = (
        pc.dictionary_encode(host_col)
        .indices.to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    codes = codes_all[order]
    m = len(codes)
    order2 = np.argsort(codes, kind="stable")  # stable keeps wave order
    g = codes[order2]
    new_seg = np.empty(m, dtype=bool)
    new_seg[0] = True
    new_seg[1:] = g[1:] != g[:-1]
    seg_start = np.maximum.accumulate(np.where(new_seg, np.arange(m), 0))
    rank = np.empty(m, dtype=np.int64)
    rank[order2] = np.arange(m) - seg_start
    eligible = np.flatnonzero(rank < max_per_host)
    take = np.zeros(m, dtype=bool)
    take[eligible[:wave_k]] = True
    wave_idx = order[take]
    deferred_idx = order[~take]
    return frontier.take(pa.array(wave_idx)), frontier.take(pa.array(deferred_idx))


def wave_select_dataset(
    frontier_ds: "ray.data.Dataset",
    wave_k: int,
    max_per_host: int,
    skip_host_cap: bool = False,
):
    """Ray Data wave cut for frontiers beyond driver memory.

    Shuffle plan: ``groupby(host)`` (hash exchange on the politeness key) →
    per-host top-``max_per_host`` by (priority, hash) → global
    ``sort(priority desc)`` → ``limit(wave_k)``. When the caller knows the
    cap cannot bind (``skip_host_cap``) the groupby exchange is skipped —
    a pure sort+limit. The deferred set is the anti-set (frontier minus
    wave), a vectorized ``pc.is_in`` semi-join inside map_batches against
    the wave-hash array (≤ wave_k rows — small side, shipped once in the
    task closure). The deferred Dataset is LAZY — callers stream it to a
    sink (``write_parquet``); nothing is collected on the driver.
    """
    import pandas as pd

    if skip_host_cap or max_per_host <= 0:
        capped = frontier_ds
    else:
        def per_host_cap(group: pd.DataFrame) -> pd.DataFrame:
            group = group.sort_values(
                ["priority", "url_hash"], ascending=[False, True], kind="mergesort"
            )
            return group.head(max_per_host)

        capped = frontier_ds.groupby("host").map_groups(
            per_host_cap, batch_format="pandas"
        )
    wave = capped.sort(["priority", "url_hash"], descending=[True, False]).limit(wave_k)
    wave_table = pa.Table.from_pandas(
        wave.to_pandas(), preserve_index=False
    )
    taken = wave_table.column("url_hash").combine_chunks()

    def anti(batch: pa.Table) -> pa.Table:
        mask = pc.invert(
            pc.is_in(batch.column("url_hash"), value_set=taken)
        )
        return batch.filter(pc.fill_null(mask, True))

    deferred = frontier_ds.map_batches(anti, batch_format="pyarrow")
    return wave_table, deferred


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


def crawl_delay_keep(hosts, caps: dict) -> np.ndarray:
    """Boolean keep-mask for the per-wave Crawl-delay budgets: row i of
    host h survives iff its rank within h (in wave order == priority
    order) is under h's budget; hosts with no cap — including null
    hosts, which can never carry a robots directive — are always kept.
    Extracted from run_crawl's wave cut so the vectorized path is
    unit-testable against the reference per-row loop."""
    import pandas as pd

    s = hosts if isinstance(hosts, pd.Series) else pd.Series(hosts, dtype=object)
    rank = s.groupby(s, sort=False).cumcount().to_numpy(
        dtype=float, na_value=np.nan
    )
    capv = s.map(
        {h: c for h, c in caps.items() if c is not None}
    ).to_numpy(dtype=float, na_value=np.inf)
    # null hosts: groupby drops NaN keys, so rank is NaN and a bare
    # `rank < capv` would defer such rows forever — keep them instead
    return (rank < capv) | s.isna().to_numpy()


def _dir_rows(directory: str) -> int:
    """Row count of a parquet partition dir from footers only (no data read)."""
    import os

    import pyarrow.parquet as pq

    if not os.path.isdir(directory):
        return 0
    return sum(
        pq.read_metadata(os.path.join(directory, f)).num_rows
        for f in os.listdir(directory)
        if f.endswith(".parquet")
    )


class RunSet:
    """LSM-style sorted-run frontier for the driver path.

    Each run is a table sorted by the (priority desc, url_hash asc)
    composite. A wave cut touches O(wave_k) TABLE rows: the global
    threshold comes from an O(n) numpy partition over the cached composite
    arrays (8 B/row), wave members are zero-copy PREFIX SLICES of each run
    (plus an exact hash-ordered boundary-tie selection), and the deferred
    set is the remaining slices — no per-epoch rebuild of the full
    frontier table (the r1 path gathered every URL string every epoch,
    which was the dominant serial driver cost between waves)."""

    MAX_RUNS = 48  # compaction threshold (amortized O(n log n) rare)

    def __init__(self):
        self.runs: list[pa.Table] = []
        self.comps: list[np.ndarray] = []
        self.hashes: list[np.ndarray] = []

    @staticmethod
    def _composite(table: pa.Table):
        """(composite, hashes) or None when priorities aren't k/1000."""
        prio = table.column("priority").to_numpy()
        hashes = table.column("url_hash").to_numpy().astype(np.uint64)
        scaled = prio * 1000.0
        prio_int = np.round(scaled)
        if not (
            np.array_equal(scaled, prio_int)
            and (prio_int < 1000).all()
            and (prio_int >= 0).all()
        ):
            return None
        composite = (
            ((np.uint64(999) - prio_int.astype(np.uint64)) << np.uint64(54))
            | (hashes >> np.uint64(10))
        )
        return composite, hashes

    def add_table(self, table: pa.Table) -> bool:
        """Sort ``table`` into a new run; False if not composite-sortable
        (caller falls back to the materialized path)."""
        if table.num_rows == 0:
            return True
        ch = self._composite(table)
        if ch is None:
            return False
        composite, hashes = ch
        if self.runs:
            table = table.select(self._schema.names).cast(self._schema)
        else:
            self._schema = table.schema
        order = np.argsort(composite, kind="stable")
        order = _fix_composite_ties(order, composite, hashes)
        idx = pa.array(order)
        self.runs.append(table.take(idx))
        self.comps.append(composite[order])
        self.hashes.append(hashes[order])
        if len(self.runs) > self.MAX_RUNS:
            self._compact()
        return True

    def _compact(self) -> None:
        merged = pa.concat_tables(self.runs)
        self.runs, self.comps, self.hashes = [], [], []
        self.add_table(merged)

    @property
    def count(self) -> int:
        return sum(t.num_rows for t in self.runs)

    def to_table(self) -> pa.Table:
        if not self.runs:
            return _empty_frontier()
        return pa.concat_tables(self.runs)

    def cut(self, wave_k: int) -> tuple[pa.Table, "RunSet"]:
        """Top-``wave_k`` rows in exact (priority desc, hash asc) order +
        the leftover RunSet (zero-copy slices)."""
        total = self.count
        leftover = RunSet()
        if total == 0:
            return _empty_frontier(), leftover
        if wave_k >= total:
            wave_parts, order_keys_c, order_keys_h = [], [], []
            for t, c, h in zip(self.runs, self.comps, self.hashes):
                wave_parts.append(t)
                order_keys_c.append(c)
                order_keys_h.append(h)
            wave = pa.concat_tables(wave_parts)
            comp = np.concatenate(order_keys_c)
            hsh = np.concatenate(order_keys_h)
            order = np.argsort(comp, kind="stable")
            order = _fix_composite_ties(order, comp, hsh)
            return wave.take(pa.array(order)), leftover
        all_comp = np.concatenate(self.comps)
        kth = np.partition(all_comp, wave_k - 1)[wave_k - 1]
        n_less = int((all_comp < kth).sum())
        need = wave_k - n_less
        # boundary ties: the composite==kth rows globally, by full hash; a
        # run's selected tie rows are a prefix of its (hash-sorted) tie range
        tie_hashes = []
        tie_runs = []
        cut_lo, cut_hi = [], []
        for i, (c, h) in enumerate(zip(self.comps, self.hashes)):
            lo = int(np.searchsorted(c, kth, side="left"))
            hi = int(np.searchsorted(c, kth, side="right"))
            cut_lo.append(lo)
            cut_hi.append(hi)
            if hi > lo:
                tie_hashes.append(h[lo:hi])
                tie_runs.append(i)
        take_eq = {i: 0 for i in range(len(self.runs))}
        if need > 0 and tie_hashes:
            flat = np.concatenate(tie_hashes)
            owner = np.concatenate(
                [np.full(len(th), r, dtype=np.int64) for th, r in zip(tie_hashes, tie_runs)]
            )
            sel = np.argsort(flat, kind="stable")[:need]
            for r, cnt in zip(*np.unique(owner[sel], return_counts=True)):
                take_eq[int(r)] = int(cnt)
        wave_parts, wc, wh = [], [], []
        for i, (t, c, h) in enumerate(zip(self.runs, self.comps, self.hashes)):
            end = cut_lo[i] + take_eq[i]
            if end > 0:
                wave_parts.append(t.slice(0, end))
                wc.append(c[:end])
                wh.append(h[:end])
            if end < t.num_rows:
                leftover._schema = self._schema
                leftover.runs.append(t.slice(end))
                leftover.comps.append(c[end:])
                leftover.hashes.append(h[end:])
        wave = pa.concat_tables(wave_parts)
        comp = np.concatenate(wc)
        hsh = np.concatenate(wh)
        order = np.argsort(comp, kind="stable")
        order = _fix_composite_ties(order, comp, hsh)
        return wave.take(pa.array(order)), leftover


@dataclass
class Frontier:
    """The URL frontier — distributed end-to-end.

    Small frontiers live as one driver-resident Arrow table (``table``);
    beyond ``driver_wave_threshold`` the bulk lives as parquet partition
    dirs on shared storage (``dirs``) written by Ray tasks, and the driver
    holds only the current epoch's small increment (fresh candidates +
    retries) plus an exact row count. The driver therefore never
    materializes more than one wave + one epoch's new URLs — the 10^10-URL
    scale requirement (VERDICT r1 #1: no ``pa.concat_tables`` frontier, no
    deferred collect).
    """

    table: pa.Table
    dirs: list[str] = field(default_factory=list)
    count: int = 0
    # dirs under frontier_work/ are transient (deleted once consumed);
    # dirs inside the checkpoint store (resume) are preserved
    owned_dirs: list[str] = field(default_factory=list)
    # driver-path LSM frontier: sorted runs with zero-copy wave cuts
    runset: "RunSet | None" = None

    @classmethod
    def from_table(cls, table: pa.Table) -> "Frontier":
        return cls(table=table, count=table.num_rows)

    @classmethod
    def from_dir(cls, directory: str, owned: bool = False) -> "Frontier":
        return cls(
            table=_empty_frontier(),
            dirs=[directory],
            count=_dir_rows(directory),
            owned_dirs=[directory] if owned else [],
        )

    def dataset(self) -> "ray.data.Dataset":
        parts = []
        if self.dirs:
            parts.append(ray.data.read_parquet(self.dirs))
        if self.runset is not None and self.runset.count:
            parts.append(ray.data.from_arrow(self.runset.to_table()))
        if self.table.num_rows:
            parts.append(ray.data.from_arrow(self.table))
        if not parts:
            return ray.data.from_arrow(_empty_frontier())
        ds = parts[0]
        for p in parts[1:]:
            ds = ds.union(p)
        return ds

    def to_table(self) -> pa.Table:
        """Collapse to one driver table — only legal when small (the caller
        gates on ``count <= driver_wave_threshold``) or at checkpoints."""
        parts = []
        if self.runset is not None:
            rt = self.runset.to_table()
            if rt.num_rows:
                parts.append(rt)
        if self.dirs:
            from ..sources.storage import read_table

            parts.extend(read_table(d) for d in self.dirs if _dir_rows(d))
        if self.table.num_rows:
            parts.append(self.table)
        if not parts:
            return _empty_frontier()
        if len(parts) == 1 and not self.dirs and self.runset is None:
            return self.table
        return pa.concat_tables(
            [t.select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA) for t in parts]
        )

    def with_extra(self, extra: pa.Table) -> "Frontier":
        """Next-epoch frontier: this frontier's deferred bulk + the small
        driver-side increment (fresh candidates, retries)."""
        if self.runset is not None:
            if extra.num_rows:
                cast = extra.select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA)
                if not self.runset.add_table(cast):
                    # non-quantized priorities → materialized fallback
                    return Frontier.from_table(
                        pa.concat_tables([self.runset.to_table(), cast])
                    )
            return Frontier(
                table=_empty_frontier(),
                count=self.runset.count,
                runset=self.runset,
            )
        parts = [t for t in (self.table, extra) if t.num_rows]
        merged = (
            pa.concat_tables(
                [t.select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA) for t in parts]
            )
            if parts
            else _empty_frontier()
        )
        return Frontier(
            table=merged,
            dirs=list(self.dirs),
            count=self.count + extra.num_rows,
            owned_dirs=list(self.owned_dirs),
        )

    def cleanup(self) -> None:
        """Delete transient (owned) partition dirs after they are consumed."""
        import os
        import shutil

        for d in self.owned_dirs:
            if os.path.isdir(d):
                shutil.rmtree(d, ignore_errors=True)
        self.owned_dirs = []


# ---------------------------------------------------------------------------
# The crawl driver loop
# ---------------------------------------------------------------------------

def _fetch_slots(config: CrawlConfig, n_politeness: int) -> int:
    """Fetch workers (pool actors or concurrent dataset-mode tasks) that
    co-schedule with the crawl's own reservations: the seen shards, the
    politeness actors and one checkpoint-write task. A worker that cannot
    schedule would hang its wave forever, so a budget with room for none
    raises instead."""
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
    n_politeness = max(1, config.n_seen_shards // 2)
    slots = _fetch_slots(config, n_politeness)  # raises before any actor starts
    store = EpochStore(config.out_dir)
    worker_args = _worker_args(config)
    # Boot order: the raylet starts actor processes about two at a time,
    # so the fetch pool — the processes with the heaviest start-up, which
    # the first wave waits on — is created first and boots in the first
    # round, paying its warm-up while the seen shards and politeness
    # actors start. Dataset mode builds no pool: it would park slots ×
    # fetch_num_cpus CPUs on idle actors and starve the Ray Data
    # pipeline's own tasks.
    fetch_pool = (
        []
        if config.fetch_mode == "dataset"
        else [
            FetchWorker.options(num_cpus=config.fetch_num_cpus).remote(*worker_args)
            for _ in range(slots)
        ]
    )
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
    )
    web = MockWeb(config.web)

    start_epoch = 0
    manifest = store.manifest()
    if resume and manifest["completed_epochs"]:
        last = store.last_epoch()
        fdir = store.epoch_dir("frontier", last)
        if _dir_rows(fdir) > config.driver_wave_threshold:
            # big checkpointed frontier: resume WITHOUT materializing it —
            # the partition dir becomes the frontier's distributed bulk
            frontier = Frontier.from_dir(fdir)
            frontier_keys = (
                t.column("url_hash")
                for t in store.read_parts("frontier", last, ["url_hash"])
            )
        else:
            frontier = Frontier.from_table(store.read("frontier", last))
            frontier_keys = [frontier.table.column("url_hash")]
        _rebuild_seen(seen, store, last, frontier_keys)
        counters = store.seen_counters(last)
        start_epoch = last + 1
    else:
        seed_table = frontier_from_seeds(config.seeds)
        seed_keys = seed_table.column("url_hash").to_numpy().astype(np.uint64)
        unseen = seen.check_and_add(seed_keys)
        counters = _shard_counts(seed_keys, unseen, config.n_seen_shards)
        frontier = Frontier.from_table(seed_table.filter(pa.array(unseen)))
    # per-shard [dedup_checks, dedup_hits] of every probe the crawl has
    # committed: the seed admission (or the checkpoint's counters) plus the
    # counts each collected chunk returns — the shards are never asked
    dedup = np.zeros((config.n_seen_shards, 2), dtype=np.int64)
    if counters is not None:
        dedup += np.asarray(counters, dtype=np.int64)

    pages_fetched = 0
    images_written = 0
    epoch = start_epoch

    import os as _os
    import shutil as _shutil

    pending_writes: tuple[int, list, list] | None = None
    unflushed_refs: list = []
    # split-wave pipelining is only sound when the persistent pool exists,
    # robots can't filter a dispatched row, and the per-host cap can never
    # bind (two sub-cuts of one wave would otherwise admit 2x cap per host)
    pipelining = (
        config.pipeline_waves
        and config.fetch_mode == "pool"
        and not config.respect_robots
        and config.max_per_host_per_wave >= config.wave_k
    )
    # rows already dispatched for the UPCOMING epoch: {"table", "refs",
    # "n_chunks"}. Invariant: spec rows are cut OUT of `frontier` (no
    # overlap), re-included in the wave at the next iteration's head and in
    # any checkpoint taken while they are in flight.
    spec_state: dict | None = None
    while (frontier.count > 0 or spec_state is not None) and epoch < config.max_epochs:
        spec_prev, spec_state = spec_state, None
        spec_tbl = spec_prev["table"] if spec_prev else None
        rest_k = config.wave_k - (spec_tbl.num_rows if spec_prev else 0)
        if frontier.count == 0 or rest_k <= 0:
            wave_rest, deferred = _empty_frontier(), frontier
        elif frontier.count > config.driver_wave_threshold:
            # beyond-driver-memory frontier → Ray Data shuffle plan
            # (groupby(host) cap → sort → limit). The deferred anti-set is
            # STREAMED by write tasks to the next epoch's partition dir —
            # the driver never holds it (equivalence with the numpy path is
            # pinned by tests/test_wave_select.py).
            deferred_dir = _os.path.join(
                config.out_dir, "frontier_work", f"epoch={epoch}"
            )
            if _os.path.exists(deferred_dir):
                _shutil.rmtree(deferred_dir)
            wave_rest, deferred_ds = wave_select_dataset(
                frontier.dataset(),
                rest_k,
                config.max_per_host_per_wave,
                skip_host_cap=config.max_per_host_per_wave >= frontier.count,
            )
            if frontier.count > wave_rest.num_rows:
                deferred_ds.write_parquet(deferred_dir)
                deferred = Frontier(
                    table=_empty_frontier(),
                    dirs=[deferred_dir],
                    # frontier url_hashes are unique (seen-set admission is
                    # exactly-once), so the anti-join removes exactly the
                    # wave rows — count is arithmetic, no extra pass
                    count=frontier.count - wave_rest.num_rows,
                    owned_dirs=[deferred_dir],
                )
            else:
                deferred = Frontier.from_table(_empty_frontier())
            frontier.cleanup()  # source partitions consumed by the write
        else:
            wave_rest, deferred = _wave_cut_driver(
                frontier, rest_k, config.max_per_host_per_wave
            )
            frontier.cleanup()
        dropped = None
        if config.respect_robots:  # mutually exclusive with pipelining
            # one call per owning politeness actor: robots.txt for new
            # hosts in, the allowed mask and Crawl-delay budgets out
            allowed, caps = politeness.screen(
                wave_rest.column("host").to_pylist(),
                wave_rest.column("url").to_pylist(),
                web.robots_txt,
            )
            # disallowed rows leave the crawl here: they are in neither
            # order nor frontier, so their keys are logged for the rebuild
            dropped = wave_rest.filter(pa.array(~allowed)).select(["url_hash"])
            wave_rest = wave_rest.filter(pa.array(allowed))
            # Crawl-delay hosts: keep the first budget_h rows (wave order
            # = priority order) and DEFER the overflow to the next wave —
            # a rate directive delays pages, it never drops them
            if any(c is not None for c in caps.values()):
                # vectorized per-host cumcount (wave order = priority
                # order): row i of host h survives iff its rank within h
                # is under h's Crawl-delay budget
                keep = crawl_delay_keep(
                    wave_rest.column("host").to_pandas(), caps
                )
                if not keep.all():
                    mask = pa.array(keep)
                    overflow = (
                        wave_rest.filter(pc.invert(mask))
                        .select(FRONTIER_SCHEMA.names)
                        .cast(FRONTIER_SCHEMA)
                    )
                    wave_rest = wave_rest.filter(mask)
                    deferred = deferred.with_extra(overflow)
        # the full wave = previously-speculated rows (already fetching in
        # the worker mailboxes) ++ the freshly cut remainder
        wave = (
            pa.concat_tables(
                [
                    t.select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA)
                    for t in (spec_tbl, wave_rest)
                    if t.num_rows
                ]
            )
            if spec_prev
            else wave_rest
        )
        if wave.num_rows == 0:
            if deferred.count == 0:
                break
            # everything admissible this wave was robots-filtered; advance
            # (no order table: the drop log rides with the next checkpoint)
            if drop_log := _drop_log(dropped):
                unflushed_refs.append(store.write_async(epoch, drop_log))
            frontier = deferred
            epoch += 1
            continue

        # ---- speculative cut for epoch k+1 (split-wave pipelining) -------
        # cut the top of the deferred frontier NOW — its rows are known
        # before this wave's results — and hand it to _fetch_wave to queue
        # behind this wave's chunks. Driver-resident deferred only (the
        # dataset-path deferred lives in partition dirs).
        next_spec: pa.Table | None = None
        if (
            pipelining
            and epoch + 1 < config.max_epochs
            and deferred.count > 0
            and not deferred.dirs
        ):
            spec_k = min(
                deferred.count, max(1, int(config.wave_k * config.spec_wave_frac))
            )
            next_spec, deferred = _wave_cut_driver(
                deferred, spec_k, config.max_per_host_per_wave
            )

        # ---- fetch + parse + extract + dedup (distributed) ---------------
        meta, spec_state = _fetch_wave(
            wave_rest, config, fetch_pool, store, epoch, seen, worker_args, slots,
            carried=spec_prev, next_spec=next_spec,
        )
        if meta is None or meta["n_pages"] == 0:
            if spec_state is not None:  # drain + discard dangling speculation
                ray.get(spec_state["refs"])
                _epoch_sink(store, epoch + 1, clear=True)
                spec_state = None
            break
        pages_fetched += meta["n_pages"]
        images_written += meta["n_images"]
        dedup += meta["dedup"]

        # previous epoch's checkpoint writes overlapped with this fetch;
        # gather them now and only then mark that epoch complete
        if pending_writes is not None:
            prev_epoch, prev_refs, prev_counters = pending_writes
            ray.get(prev_refs)
            store.mark_epoch_complete(prev_epoch, config.key(), prev_counters)
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

        # ---- fresh candidates (admitted by the workers) → next frontier --
        fresh_table = meta["fresh"]

        # ---- retries: 5xx rows re-enqueue with attempts+1 ----------------
        retry_rows = _retry_rows(meta["failed"], wave, config.retry_max_attempts)

        extra_parts = [t for t in (fresh_table, retry_rows) if t.num_rows]
        extra = (
            pa.concat_tables(
                [t.select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA) for t in extra_parts]
            )
            if extra_parts
            else _empty_frontier()
        )
        frontier = deferred.with_extra(extra)

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
                meta["dedup"],
            ),
            **_drop_log(dropped),
        }
        checkpoint = (epoch + 1) % config.checkpoint_interval == 0
        if checkpoint:
            # a checkpoint taken while speculation is in flight must include
            # the speculated rows — epoch+1 is incomplete, so a resume from
            # this checkpoint re-fetches them (idempotent: their epoch+1
            # partition files are rebuilt from scratch on re-run). The
            # candidates those chunks already admitted are in no table of
            # this checkpoint, so the seen set rebuilt from it lacks them
            # and the re-fetch admits them again; a seen snapshot taken
            # here would hold them and lose them for good. Their probes are
            # not in the counters either: a chunk's counts join ``dedup``
            # only when the epoch that collects it does.
            tables.update(
                _checkpoint_frontier(store, epoch, _spec_view(frontier, spec_state))
            )
        unflushed_refs.append(store.write_async(epoch, tables))
        if checkpoint:
            pending_writes = (epoch, unflushed_refs, dedup.tolist())
            unflushed_refs = []
        epoch += 1

    if pending_writes is not None:
        prev_epoch, prev_refs, prev_counters = pending_writes
        ray.get(prev_refs)
        store.mark_epoch_complete(prev_epoch, config.key(), prev_counters)
        pending_writes = None
    if unflushed_refs or (epoch > start_epoch and store.last_epoch() != epoch - 1):
        # final (partial-interval) checkpoint so the finished state is durable
        if frontier_table := _checkpoint_frontier(store, epoch - 1, frontier):
            unflushed_refs.append(store.write_async(epoch - 1, frontier_table))
        ray.get(unflushed_refs)
        store.mark_epoch_complete(epoch - 1, config.key(), dedup.tolist())
        unflushed_refs = []
    store.mark_done()
    seen_size = seen.stats()["n_items"]
    # Release the crawl's actors NOW rather than when Ray reaps the
    # out-of-scope handles: the pool alone reserves fetch_concurrency ×
    # fetch_num_cpus CPUs, which would starve whatever the caller runs next
    # (the bench's query suite measured ~2× slower behind a lingering pool).
    for actor in [*(fetch_pool or []), *seen.shards, *politeness.actors]:
        ray.kill(actor, no_restart=True)
    return CrawlResult(
        out_dir=config.out_dir,
        epochs=epoch - start_epoch,
        pages_fetched=pages_fetched,
        images_written=images_written,
        dedup_checks=int(dedup[:, 0].sum()),
        dedup_hits=int(dedup[:, 1].sum()),
        seen_size=seen_size,
    )


def _wave_cut_driver(
    frontier: Frontier, wave_k: int, max_per_host: int
) -> tuple[pa.Table, Frontier]:
    """Driver-path wave cut. When the politeness cap cannot bind, the
    sorted-run (LSM) path cuts waves with zero-copy slices — O(wave_k)
    table work per epoch instead of O(frontier). The cap-binding path (and
    non-quantized priorities) falls back to the materialized numpy cut."""
    if max_per_host >= frontier.count:
        rs = frontier.runset
        if rs is None:
            rs = RunSet()
            if not rs.add_table(frontier.to_table()):
                rs = None
        if rs is not None:
            wave, leftover = rs.cut(wave_k)
            return wave, Frontier(
                table=_empty_frontier(), count=leftover.count, runset=leftover
            )
    wave, deferred_tbl = wave_select_arrow(
        frontier.to_table(), wave_k, max_per_host
    )
    return wave, Frontier.from_table(deferred_tbl)


def _rebuild_seen(seen: ShardedSeen, store: EpochStore, last: int, frontier_keys) -> None:
    """Rebuild the seen shards for a resume from checkpoint ``last``. Every
    key the crawl admitted up to then is in one of its tables: fetched
    (``order`` ≤ last), robots-dropped (``dropped`` ≤ last) or waiting
    (``frontier_keys``, the checkpoint frontier's url_hash column, batch by
    batch). Only the url_hash column is read; a load never counts (the
    dedup counters come from the manifest)."""
    logged = (
        store.read(table, e, ["url_hash"]).column("url_hash")
        for table in ("order", "dropped")
        for e in store.epochs(table, last)
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


def _spec_view(frontier: Frontier, spec_state: dict | None) -> Frontier:
    """Checkpoint view of the frontier: the operational frontier plus any
    rows currently dispatched speculatively for the next (incomplete)
    epoch. Non-mutating — shares the runset/dirs, owns nothing."""
    if spec_state is None or spec_state["table"].num_rows == 0:
        return frontier
    spec = spec_state["table"].select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA)
    merged = (
        pa.concat_tables([frontier.table, spec]) if frontier.table.num_rows else spec
    )
    return Frontier(
        table=merged,
        dirs=list(frontier.dirs),
        count=frontier.count + spec.num_rows,
        runset=frontier.runset,
    )


def _checkpoint_frontier(store: EpochStore, epoch: int, frontier: Frontier) -> dict:
    """Checkpoint the frontier. Small frontiers → ``{"frontier": table}``,
    a write entry for the epoch's write task. Distributed frontiers →
    hardlink the already-on-disk partition files into the store's epoch
    dir (metadata-only, O(#files) syscalls — no data moves and nothing is
    collected on the driver) plus the small driver-resident increment as
    one extra part file, and return ``{}``. Done synchronously: the source
    dirs are transient and deleted when the next wave consumes them, so an
    async link task could race the cleanup."""
    if not frontier.dirs:
        return {"frontier": frontier.to_table()}
    store.link_frontier(epoch, frontier.table, frontier.dirs)
    return {}


def _epoch_sink(store: EpochStore, epoch: int, clear: bool) -> dict:
    """The epoch's pages/images/documents partition dirs; ``clear`` empties
    them first (an epoch's part files are rebuilt from scratch on re-run)."""
    import os
    import shutil

    sink = {t: store.epoch_dir(t, epoch) for t in ("pages", "images", "documents")}
    if clear:
        for d in sink.values():
            if os.path.exists(d):
                shutil.rmtree(d)
    return sink


def _n_chunks(rows: int, lo: int, hi: int) -> int:
    """Strided chunk count for ``rows`` rows: ≥4k rows per chunk (more
    chunks multiply the per-chunk seen-shard RPC rounds — a 2k floor
    measured +75% dedup RPC time at sf0.1 for ~equal idle), clamped to
    ``[lo, hi]`` chunks, but never under 64 rows per chunk."""
    if rows == 0:
        return 0
    return max(1, min(hi, max(lo, rows // 4096), -(-rows // 64)))


def _fetch_wave(
    wave: pa.Table,
    config: CrawlConfig,
    fetch_pool: list,
    store: EpochStore,
    epoch: int,
    seen: ShardedSeen,
    worker_args: tuple,
    slots: int,
    carried: dict | None = None,
    next_spec: pa.Table | None = None,
) -> tuple[dict | None, dict | None]:
    """Fetch+parse+extract+admit one wave → (meta, spec_state). meta:
    {fresh, failed, lineage_fetch, n_pages, n_images, n_candidates_raw,
    dedup}; ``dedup`` sums the collected chunks' per-shard [checks, hits],
    carried speculation included.

    The wave is cut into strided chunks (i::n — cheap HTML rows and
    expensive image rows mix evenly), ~2 per fetch slot, each run by the
    fused row pipeline (``_fused_chunk``) on a ``_ChunkWorker`` that writes
    its own partition files and admits its own candidates into the seen
    set. The two fetch modes differ only in how a chunk is submitted: pool
    mode to a persistent ``FetchWorker`` actor, dataset mode as an
    independent ``_fetch_chunk_task`` (streaming, no pinned actors). Every
    chunk is submitted up front, so each slot's mailbox holds up to two
    and finishing a chunk never waits a driver round-trip (worker idle
    was ~29 % of the fetch phase with depth-1 dispatch, 28 workers).
    Chunks go out and their tables come back as Arrow IPC
    (``to_wire``/``from_wire``).

    Split-wave pipelining (pool mode only): ``carried`` is the speculation
    dispatched LAST epoch — its rows are this wave's head, its refs are
    collected into this wave's parts, and its chunks already own part ids
    ``0..n_chunks-1`` of this epoch's sinks. ``next_spec`` rows are chunked
    and queued behind this wave's chunks for the NEXT epoch; the returned
    spec_state carries their table/refs forward."""
    keep, n_parts = config.keep_page_content, config.n_seen_shards
    if config.fetch_mode == "dataset":
        task = _fetch_chunk_task.options(num_cpus=config.fetch_num_cpus)

        def submit(slot: int, chunk: pa.Buffer, sink: dict, part_id: int):
            return task.remote(chunk, keep, sink, part_id, n_parts, seen, worker_args)
    else:
        def submit(slot: int, chunk: pa.Buffer, sink: dict, part_id: int):
            return fetch_pool[slot].process_chunk.remote(chunk, keep, sink, part_id, n_parts)

    def strided(table: pa.Table, n: int, c: int) -> pa.Buffer:
        """Chunk ``c`` of ``n`` (rows c, c+n, ...), encoded for the wire."""
        return to_wire(table.take(pa.array(range(c, table.num_rows, n))))

    # with ``carried``, last epoch's speculative dispatch already emptied
    # this epoch's dirs and its chunks are writing into them
    sink = _epoch_sink(store, epoch, clear=carried is None)
    part_offset = carried["n_chunks"] if carried else 0
    # at most two chunks per slot: all of them are dispatched at once
    n_chunks = _n_chunks(wave.num_rows, slots, 2 * slots)
    refs = [
        submit(c % slots, strided(wave, n_chunks, c), sink, part_offset + c)
        for c in range(n_chunks)
    ]
    spec_state = None
    if next_spec is not None:
        # queue next epoch's speculative chunks behind this wave's chunks
        # in every worker's FIFO mailbox: a worker that drains its share of
        # this wave rolls straight into epoch+1 work while the driver is
        # still collecting results and doing end-of-epoch bookkeeping
        spec_sink = _epoch_sink(store, epoch + 1, clear=True)
        n_sp = _n_chunks(next_spec.num_rows, 1, slots)
        spec_state = {
            "table": next_spec,
            "n_chunks": n_sp,
            "refs": [
                submit(c % slots, strided(next_spec, n_sp, c), spec_sink, c)
                for c in range(n_sp)
            ],
        }
    # speculation results for THIS wave's head rows come first (dispatched
    # last epoch; FIFO per actor means they complete before this wave's
    # later chunks on the same worker)
    parts = ray.get((carried["refs"] if carried is not None else []) + refs)
    if not parts:
        return None, spec_state

    def tables(name: str) -> pa.Table:
        return pa.concat_tables([from_wire(p[name]) for p in parts])

    return {
        "fresh": tables("fresh"),
        "failed": tables("failed"),
        "lineage_fetch": tables("lineage"),
        "n_pages": sum(p["n_pages"] for p in parts),
        "n_images": sum(p["n_images"] for p in parts),
        "n_candidates_raw": sum(p["n_candidates_raw"] for p in parts),
        "dedup": sum(p["dedup"] for p in parts),
    }, spec_state


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
    dedup: np.ndarray,
) -> pa.Table:
    """Per-partition lineage rows (the chunks' fetch partials summed with
    one bincount per counter) plus one dedup-stage row carrying the
    epoch's chunk-counted per-shard ``[checks, hits]`` (``dedup``)."""
    pid = fetch_partials.column("partition_id").to_numpy()
    ids = np.flatnonzero(np.bincount(pid))
    rows, hits, errors = (
        np.bincount(pid, weights=fetch_partials.column(c).to_numpy())[ids]
        .astype(np.int64)
        .tolist()
        for c in ("rows", "cache_hits", "errors")
    )
    n = len(ids)
    checks, dedup_hits = (int(v) for v in np.asarray(dedup).sum(axis=0))
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
            "dedup_hits": [None] * n + [dedup_hits],
            "errors": [*errors, None],
            "wall_ms": [None] * (n + 1),
        },
        schema=LINEAGE_SCHEMA,
    )
