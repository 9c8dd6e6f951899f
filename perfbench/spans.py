"""Span tracing for the traced run, installed from outside the engine.

The wrappers replace public functions and methods of ``spider_ray`` (module
and class attributes) in the driver (``install_driver``) and in every
worker process (``install_worker``, run at interpreter start by
``tracehook/sitecustomize.py``, which a traced session puts on the workers'
PYTHONPATH). Nothing in ``spider_ray/`` changes.

Two kinds of wrapper:

- a *span* records one call: name, start and end (wall clock), parent span
  in the same process, a context id (epoch or chunk) and counts taken at
  the same boundary;
- an *aggregate* wraps a per-row or per-candidate function. Recording every
  call would cost more than the call, so calls are summed per (enclosing
  span, name): call count, total time, time in nested wrapped calls, and
  counts.

Self time is a span's (or aggregate's) duration minus the time of the
wrapped calls nested in it. Spans stay in memory; a worker appends its
closed spans to ``spans-<pid>.jsonl`` in the trace directory whenever its
outermost span closes, i.e. at the end of each wrapped actor-method or task
call, because ``run_crawl`` kills its actors and exit hooks never run.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import time
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
_perf = time.perf_counter

# frame slots
_CHILD, _NAME, _SID, _PARENT, _CTX, _AGG, _WALL0, _T0, _PREV_AGG = range(9)


class Recorder:
    def __init__(self, path: str | None):
        self.path = path
        self.stack: list[list] = []  # every open wrapped call; [0] = child time
        self.spans: list[list] = []  # open span frames only
        # aggregates of the innermost open span
        self.cur_agg: dict = {}
        self.records: list[dict] = []
        self._sid = 0

    def open(self, name: str, ctx) -> list:
        self._sid += 1
        frame = [0.0, name, self._sid, self.spans[-1][_SID] if self.spans else None,
                 ctx, {}, time.time(), _perf(), self.cur_agg]
        self.stack.append(frame)
        self.spans.append(frame)
        self.cur_agg = frame[_AGG]
        return frame

    def close(self, frame: list, counts: dict | None) -> None:
        dur = _perf() - frame[_T0]
        self.stack.pop()
        self.spans.pop()
        if self.stack:
            self.stack[-1][_CHILD] += dur
        self.cur_agg = frame[_PREV_AGG]
        self.records.append({
            "pid": os.getpid(), "name": frame[_NAME], "sid": frame[_SID],
            "parent": frame[_PARENT], "ctx": frame[_CTX], "t0": frame[_WALL0],
            "t1": frame[_WALL0] + dur, "dur": dur, "self": dur - frame[_CHILD],
            "c": counts or {}, "agg": frame[_AGG],
        })
        if not self.stack:
            self.flush()

    def flush(self) -> None:
        if self.path is None:
            return
        if self.records:
            with open(self.path, "a") as f:
                for r in self.records:
                    f.write(json.dumps(r) + "\n")
            self.records = []


_REC: Recorder | None = None


def _span(name, orig, ctx=None, counts=None):
    @functools.wraps(orig)
    def wrapper(*a, **k):
        rec = _REC
        frame = rec.open(name, ctx(a, k) if ctx else None)
        out, done = None, False
        try:
            out = orig(*a, **k)
            done = True
            return out
        finally:
            rec.close(frame, counts(a, k, out) if (counts and done) else None)
    return wrapper


def _agg(name, orig, counts=None):
    @functools.wraps(orig)
    def wrapper(*a, **k):
        rec = _REC
        stack = rec.stack
        frame = [0.0]
        stack.append(frame)
        t0 = _perf()
        try:
            out = orig(*a, **k)
        finally:
            dt = _perf() - t0
            stack.pop()
            if stack:
                stack[-1][_CHILD] += dt
        e = rec.cur_agg.get(name)
        if e is None:
            e = rec.cur_agg[name] = [0, 0.0, 0.0, 0, 0]
        e[0] += 1
        e[1] += dt
        e[2] += frame[_CHILD]
        if counts is not None:
            c0, c1 = counts(a, out)
            e[3] += c0
            e[4] += c1
        return out
    return wrapper


def _patch(owner, attr: str, wrapper_factory, patched: list) -> None:
    orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(orig, classmethod):
        fn = wrapper_factory(orig.__func__)
        setattr(owner, attr, classmethod(fn))
    else:
        setattr(owner, attr, wrapper_factory(orig))
    patched.append((owner, attr, orig))


def _epoch_of_sink(sink) -> int | None:
    try:
        return int(sink["pages"].rstrip("/").rsplit("epoch=", 1)[1])
    except (TypeError, KeyError, IndexError, ValueError):
        return None


def _n(x) -> int:
    return int(len(x))


def _worker_targets() -> list[tuple[str, str, object]]:
    """(module, attribute path, wrapper factory) of every worker-side layer."""
    def chunk_ctx(a, k):
        sink = a[3] if len(a) > 3 else k.get("sink")
        part = a[4] if len(a) > 4 else k.get("part_id")
        return {"epoch": _epoch_of_sink(sink), "part": part}

    span = lambda name, **kw: functools.partial(_span, name, **kw)  # noqa: E731
    agg = lambda name, **kw: functools.partial(_agg, name, **kw)  # noqa: E731
    seen_counts = lambda a, k, out: {"keys": _n(out), "admitted": int(out.sum())}  # noqa: E731
    sr = "spider_ray."
    return [
        (sr + "pipelines.crawl", "_fused_chunk", span(
            "fetch.chunk", ctx=chunk_ctx,
            counts=lambda a, k, out: {"rows": out["n_pages"],
                                      "cands": out["n_candidates_raw"]})),
        (sr + "stages.fetch", "FetchStage.__init__", span("fetch.stage_init")),
        (sr + "stages.fetch", "FetchStage._fetch_one", agg(
            "fetch.fetch_one",
            counts=lambda a, out: (out["status"] >= 400, (a[2] if len(a) > 2 else 0) > 0))),
        ("perfbench.fixtures", "PrerenderedWeb.resolve", agg("fixtures.resolve")),
        (sr + "functions.links", "extract_html_links",
         agg("links.extract", counts=lambda a, out: (len(out), 0))),
        (sr + "functions.urls", "is_valid_url", agg("urls.is_valid_url")),
        (sr + "functions.urls", "canonicalize_url", agg("urls.canonicalize_url")),
        (sr + "functions.urls", "url_hash64", agg("urls.url_hash64")),
        (sr + "functions.urls", "host_of", agg("urls.host_of")),
        (sr + "stages.parse", "priority_of", agg("parse.priority")),
        (sr + "stages.parse", "document_row", agg("parse.document")),
        (sr + "stages.parse", "image_row", agg("parse.image")),
        (sr + "state.bloom", "BloomFilter.contains_many", agg(
            "bloom.contains", counts=lambda a, out: (len(out), int(out.sum())))),
        (sr + "state.seen", "ShardedSeen.check_and_add", span("seen.rpc", counts=seen_counts)),
        (sr + "state.seen", "SeenShardState.check_and_add",
         span("seen.shard", counts=seen_counts)),
        (sr + "state.seen", "SeenShardState.snapshot", span("seen.shard_snapshot")),
        (sr + "state.seen", "SeenShardState.from_snapshot", span("seen.shard_restore")),
        (sr + "sources.storage", "write_table", span(
            "storage.write", counts=lambda a, k, out: {"rows": a[0].num_rows})),
    ]


def _patch_module(module, targets, patched: list) -> None:
    for _mod, path, factory in targets:
        owner = module
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        _patch(owner, attr, factory, patched)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches a target module right after it first executes, so a worker
    process imports no module it would not import untraced (a shard actor
    never loads the fetch stage)."""

    def __init__(self, pending: dict[str, list]):
        self.pending = pending

    def find_spec(self, fullname, path, target=None):
        targets = self.pending.pop(fullname, None)
        if targets is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        run = spec.loader.exec_module

        def exec_module(module):
            run(module)
            _patch_module(module, targets, _WORKER_PATCHED)

        spec.loader.exec_module = exec_module
        return spec


_WORKER_PATCHED: list = []


def install_worker() -> None:
    """Wrap the worker-side layers (now for modules already imported, on
    import for the rest) and write spans to the directory named by
    ``PERFBENCH_TRACE_DIR``."""
    global _REC
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir or _REC is not None:
        return
    _REC = Recorder(os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl"))
    pending: dict[str, list] = defaultdict(list)
    for target in _worker_targets():
        pending[target[0]].append(target)
    for name in [m for m in pending if m in sys.modules]:
        _patch_module(sys.modules[name], pending.pop(name), _WORKER_PATCHED)
    sys.meta_path.insert(0, _PatchOnImport(dict(pending)))


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------

class _ActorClassProxy:
    """Stands in for ``FetchWorker`` in the crawl module: records when the
    driver asks for each fetch actor (``fetch.actor_submit`` events)."""

    def __init__(self, actor_class, rec: Recorder):
        self._cls, self._rec = actor_class, rec

    def options(self, **kw):
        return _ActorClassProxy(self._cls.options(**kw), self._rec)

    def remote(self, *a, **k):
        self._rec.records.append({"name": "fetch.actor_submit", "t0": time.time(),
                                  "parent": None, "dur": 0.0, "self": 0.0, "c": {},
                                  "agg": {}})
        return self._cls.remote(*a, **k)


_DRIVER_PATCHED: list = []


def install_driver() -> Recorder:
    """Wrap the driver-side layers of ``run_crawl``; returns the in-memory
    recorder."""
    global _REC
    from spider_ray.pipelines import crawl
    from spider_ray.sources import storage
    from spider_ray.state import politeness, seen

    _REC = rec = Recorder(None)
    span = lambda name, **kw: functools.partial(_span, name, **kw)  # noqa: E731
    targets = [
        (crawl, "run_crawl", span("crawl.run")),
        (crawl, "_fetch_wave", span(
            "crawl.fetch_wave", ctx=lambda a, k: {"epoch": a[4] if len(a) > 4 else k.get("epoch")})),
        (crawl, "_wave_cut_driver", span(
            "frontier.cut", counts=lambda a, k, out: {"rows": out[0].num_rows})),
        (crawl.Frontier, "with_extra", span("frontier.merge")),
        (crawl, "_retry_rows", span("frontier.retry")),
        (crawl, "frontier_from_seeds", span("frontier.seeds")),
        (crawl, "crawl_delay_keep", span(
            "politeness.delay_keep", counts=lambda a, k, out: {"deferred": int((~out).sum())})),
        (politeness.PolitenessPool, "begin_wave", span("politeness.begin_wave")),
        (politeness.PolitenessPool, "ensure_robots", span("politeness.robots")),
        (politeness.PolitenessPool, "allowed", span(
            "politeness.allowed",
            counts=lambda a, k, out: {"rows": _n(out), "allowed": int(out.sum())})),
        (politeness.PolitenessPool, "delay_caps", span("politeness.delay_caps")),
        (seen.ShardedSeen, "check_and_add", span(
            "seen.rpc", counts=lambda a, k, out: {"keys": _n(out), "admitted": int(out.sum())})),
        (seen.ShardedSeen, "snapshot_table", span("seen.snapshot")),
        (seen.ShardedSeen, "restore_table", span("seen.restore")),
        (seen.ShardedSeen, "stats", span("seen.stats")),
        (crawl, "_checkpoint_frontier", span("storage.checkpoint_submit")),
        (storage.EpochStore, "write_async", span("storage.submit")),
        (storage.EpochStore, "read", span("storage.read")),
        (storage.EpochStore, "mark_epoch_complete", span("storage.manifest")),
    ]
    for owner, attr, factory in targets:
        _patch(owner, attr, factory, _DRIVER_PATCHED)
    orig_fw = crawl.FetchWorker
    crawl.FetchWorker = _ActorClassProxy(orig_fw, rec)
    _DRIVER_PATCHED.append((crawl, "FetchWorker", orig_fw))
    return rec


def uninstall_driver() -> None:
    while _DRIVER_PATCHED:
        owner, attr, orig = _DRIVER_PATCHED.pop()
        setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _load(trace_dir: str) -> list[dict]:
    out = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-"):
            with open(os.path.join(trace_dir, name)) as f:
                out.extend(json.loads(line) for line in f)
    return out


class _Index:
    def __init__(self, records: list[dict]):
        self.spans = defaultdict(list)
        self.aggs = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        for r in records:
            self.spans[r["name"]].append(r)
            for name, e in r.get("agg", {}).items():
                acc = self.aggs[name]
                for i, v in enumerate(e):
                    acc[i] += v

    def dur(self, name: str) -> float:
        return sum(r["dur"] for r in self.spans.get(name, ()))

    def count(self, name: str, key: str) -> int:
        return sum(r["c"].get(key, 0) for r in self.spans.get(name, ()))


def layer_metrics(driver: Recorder, trace_dir: str, crawl: dict,
                  fetch_workers: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced crawl (``crawl`` is its record from
    run.py: wall, pages, epochs, driver CPU and store bytes), and the
    per-span breakdown they came from."""
    w = _Index(_load(trace_dir))
    d = _Index(driver.records)
    rows = max(1, w.count("fetch.chunk", "rows"))
    cands = max(1, w.count("fetch.chunk", "cands"))
    busy = w.dur("fetch.chunk")
    links = w.aggs["links.extract"]
    urls_s = sum(w.aggs[f"urls.{f}"][1] for f in
                 ("is_valid_url", "canonicalize_url", "url_hash64", "host_of"))
    fetch_one = w.aggs["fetch.fetch_one"]
    resolve = w.aggs["fixtures.resolve"]
    bloom = w.aggs["bloom.contains"]
    shard_keys = w.count("seen.shard", "keys")
    allowed_rows = d.count("politeness.allowed", "rows")
    # actor start: each fetch actor submit to the end of its stage set-up
    submits = sorted(r["t0"] for r in d.spans.get("fetch.actor_submit", ()))
    ready = sorted(r["t1"] for r in w.spans.get("fetch.stage_init", ()))
    actor_start = sum(max(0.0, r - s) for s, r in zip(submits, ready))

    us = 1e6
    m = {
        "links.us_per_page": (links[1] / max(1, links[0]) * us, "us"),
        "links.per_page": (links[3] / max(1, links[0]), "count"),
        "urls.us_per_candidate": (urls_s / cands * us, "us"),
        "urls.candidates_raw": (cands, "count"),
        "parse.priority_us_per_candidate": (w.aggs["parse.priority"][1] / cands * us, "us"),
        "parse.document_us_per_row": (w.aggs["parse.document"][1] / rows * us, "us"),
        "parse.image_us_per_row": (w.aggs["parse.image"][1] / rows * us, "us"),
        "fetch.assembly_us_per_row": (
            sum(r["self"] for r in w.spans.get("fetch.chunk", ())) / rows * us, "us"),
        "fetch.busy_s": (busy, "s"),
        "fetch.rows": (rows, "count"),
        "fetch.chunks": (len(w.spans.get("fetch.chunk", ())), "count"),
        "fetch.idle_ratio": (max(0.0, 1.0 - busy / (crawl["wall_s"] * fetch_workers)), "ratio"),
        "fetch.error_rows": (fetch_one[3], "count"),
        "fetch.retried_rows": (fetch_one[4], "count"),
        "fetch.actor_start_s": (actor_start, "s"),
        "seen.rpc_s": (w.dur("seen.rpc") + d.dur("seen.rpc"), "s"),
        "seen.shard_busy_s": (w.dur("seen.shard"), "s"),
        "seen.keys_probed": (shard_keys, "count"),
        "seen.admit_ratio": (w.count("seen.shard", "admitted") / max(1, shard_keys), "ratio"),
        "bloom.skip_ratio": (bloom[4] / max(1, bloom[3]), "ratio"),
        "seen.snapshot_s": (d.dur("seen.snapshot"), "s"),
        "seen.restore_s": (d.dur("seen.restore"), "s"),
        "crawl.epochs": (crawl["epochs"], "count"),
        "crawl.driver_cpu_us_per_page": (crawl["driver_cpu_s"] / crawl["pages"] * us, "us"),
        "frontier.cut_s": (d.dur("frontier.cut"), "s"),
        "frontier.cut_rows": (d.count("frontier.cut", "rows"), "count"),
        "frontier.merge_s": (d.dur("frontier.merge"), "s"),
        "politeness.robots_s": (d.dur("politeness.robots"), "s"),
        "politeness.allowed_s": (d.dur("politeness.allowed"), "s"),
        "politeness.delay_caps_s": (d.dur("politeness.delay_caps"), "s"),
        "politeness.allowed_ratio": (
            d.count("politeness.allowed", "allowed") / max(1, allowed_rows), "ratio"),
        "politeness.deferred_rows": (d.count("politeness.delay_keep", "deferred"), "count"),
        "storage.write_s": (w.dur("storage.write"), "s"),
        "storage.read_s": (d.dur("storage.read"), "s"),
        "storage.checkpoint_bytes": (crawl["checkpoint_bytes"], "B"),
        "storage.seen_bytes": (crawl["seen_bytes"], "B"),
        "storage.output_bytes": (crawl["output_bytes"], "B"),
        "fixtures.resolve_us_per_row": (resolve[1] / max(1, resolve[0]) * us, "us"),
    }
    # where the traced crawl's self time went: engine work in worker
    # processes (fixture serving excluded) against the driver-side layers
    # (the chunk's seen RPCs mostly wait for the shards, whose busy time is
    # added instead)
    worker_s = busy - resolve[1] - w.dur("seen.rpc")
    worker_s += sum(w.dur(n) for n in ("seen.shard", "seen.shard_snapshot",
                                       "seen.shard_restore", "fetch.stage_init"))
    worker_s += sum(r["dur"] for r in w.spans.get("storage.write", ()) if r["parent"] is None)
    # per-epoch driver layers; left out are the seed admission and each
    # slice's first politeness call, which wait for the shard and
    # politeness actors to start
    first_begin = {}
    for r in d.spans.get("politeness.begin_wave", ()):
        if r["parent"] not in first_begin or r["t0"] < first_begin[r["parent"]]["t0"]:
            first_begin[r["parent"]] = r
    startup = {id(r) for r in first_begin.values()}
    driver_s = sum(
        r["self"] for name, rs in d.spans.items()
        if name.split(".")[0] in ("frontier", "politeness", "seen", "storage")
        and name != "seen.rpc"
        for r in rs if id(r) not in startup
    )
    total = max(1e-9, worker_s + driver_s)
    m["share.worker_layers"] = (worker_s / total, "ratio")
    m["share.driver_layers"] = (driver_s / total, "ratio")
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
    breakdown = {
        side: {name: [len(rs), round(sum(r["dur"] for r in rs), 4),
                      round(sum(r["self"] for r in rs), 4)]
               for name, rs in sorted(idx.spans.items())}
        for side, idx in (("driver", d), ("workers", w))
    }
    breakdown["aggregates"] = {name: [e[0], round(e[1], 4), round(e[1] - e[2], 4)]
                               for name, e in sorted(w.aggs.items())}
    return metrics, breakdown
