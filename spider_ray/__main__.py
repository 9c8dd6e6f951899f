"""``ray job submit``-ready CLI: ``python -m spider_ray <subcommand>``.

The north rule runs the whole job via ``ray job submit`` on a fixed-size
multi-node cluster — this module is that driver script. Inside a job the
Ray cluster already exists, so we connect with ``address="auto"``-style
auto-detection (``ray.init()`` no-args attaches to the job's cluster;
standalone it starts a local one). This is a CLI entry point and
therefore OWNS its Ray session (the `__ray_entry__` driver contract and
library code never call ray.init).

Subcommands:

  crawl  — run/resume the frontier crawl over the hermetic fixture web
           (deterministic at any cluster size; resumes from the epoch
           checkpoints in --out on --resume)
  query  — run one named `__ray_entry__.queries()` pipeline over an
           sf dir and print row count + schema
  bench  — delegate to bench.py's payload (one JSON line)

Examples (on a cluster):
  ray job submit --working-dir . -- python -m spider_ray crawl \
      --out /mnt/shared/crawl1 --pages 100000 --workers 64
  ray job submit --working-dir . -- python -m spider_ray query \
      minhash_pairs --sf-dir /mnt/data/sf1
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray() -> None:
    import ray

    if not ray.is_initialized():
        # inside `ray job submit` this attaches to the job's cluster;
        # standalone it starts a local one
        ray.init(include_dashboard=False, logging_level="ERROR")


def _emit(payload: dict) -> None:
    """Print the command's one JSON line as the LAST line of stdout. The
    Ray session is shut down first: its error-listener thread prints
    raylet warnings (e.g. "N PYTHON worker processes have been started")
    to stdout asynchronously, and one landing after the payload would
    break the last-line contract."""
    import ray

    if ray.is_initialized():
        ray.shutdown()
    print(json.dumps(payload))


def _cmd_crawl(args: argparse.Namespace) -> int:
    from spider_ray.pipelines.crawl import CrawlConfig, run_crawl
    from spider_ray.sources.fixtures import MockWebConfig, seed_urls

    _init_ray()
    web = MockWebConfig(n_pages=args.pages, with_sitemaps=args.seed_from_sitemaps)
    if args.seed_from_sitemaps:
        # declared-inventory seeding: explode every host's sitemap into
        # the seed list instead of the every-Nth sample
        from spider_ray.stages.sitemap_seeds import sitemap_seed_frontier

        seeds = sorted(
            r["url"]
            for b in sitemap_seed_frontier(web).iter_batches(
                batch_format="pyarrow"
            )
            for r in b.to_pylist()
        )
    else:
        seeds = seed_urls(web, every=args.seeds_every)
    n_shards = max(4, args.workers // 2)
    config = CrawlConfig(
        out_dir=args.out,
        seeds=seeds,
        web=web,
        wave_k=args.wave_k,
        exact_seen=not args.scale_mode,
        use_bloom=args.scale_mode,
        n_seen_shards=n_shards,
        seen_capacity_per_shard=max(1 << 16, int(args.pages * 1.5) // n_shards),
        fetch_concurrency=args.workers,
        fetch_num_cpus=args.worker_cpus,
        checkpoint_interval=args.checkpoint_interval,
        max_epochs=args.max_epochs,
    )
    result = run_crawl(config, resume=args.resume)
    _emit(
        {
            "out_dir": result.out_dir,
            "epochs": result.epochs,
            "pages_fetched": result.pages_fetched,
            "images_written": result.images_written,
            "dedup_checks": result.dedup_checks,
            "dedup_hits": result.dedup_hits,
            "seen_size": result.seen_size,
        }
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import importlib.util
    import os

    _init_ray()
    # __ray_entry__ lives at the repo root next to this package
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(root, "__ray_entry__.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    queries = mod.queries()
    if args.name not in queries:
        print(f"unknown query {args.name!r}; known: {sorted(queries)}",
              file=sys.stderr)
        return 2
    result = queries[args.name](args.sf_dir)
    num_rows = getattr(result, "num_rows", None)
    if num_rows is None:  # Dataset / DataFrame
        num_rows = result.count() if hasattr(result, "count") else len(result)
    schema = getattr(result, "schema", None)
    if callable(schema):  # Ray Dataset: schema is a method
        schema = schema()
    names = list(schema.names) if schema is not None else []
    _emit({"query": args.name, "rows": int(num_rows), "columns": names})
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """Day-2 recrawl diff between two crawl output dirs → change-type
    counts (one JSON line) + optional parquet of the full (url,
    change_type) table."""
    from spider_ray.pipelines.recrawl import recrawl_diff

    _init_ray()
    ds = recrawl_diff(args.old, args.new)
    if args.out:
        ds = ds.materialize()
        ds.write_parquet(args.out)
    # distributed count: per-batch arrow value_counts partials, then one
    # tiny groupby — only the (change_type, n) table reaches the driver
    import pyarrow as pa

    def _partial(batch: pa.Table) -> pa.Table:
        vc = batch.column("change_type").combine_chunks().value_counts()
        return pa.table(
            {
                "change_type": vc.field("values"),
                "n": vc.field("counts").cast(pa.int64()),
            }
        )

    counts_tbl = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("change_type")
        .sum("n")
    )
    counts: dict[str, int] = {}
    for batch in counts_tbl.iter_batches(batch_format="pyarrow"):
        for kind, n in zip(
            batch.column("change_type").to_pylist(),
            batch.column("sum(n)").to_pylist(),
        ):
            counts[kind] = int(n)
    _emit({"old": args.old, "new": args.new, "counts": counts})
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import os
    import runpy

    if args.sf_dir:
        os.environ["GRAFT_SF_DIR"] = args.sf_dir
    runpy.run_path(
        os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "bench.py",
        ),
        run_name="__main__",
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="spider_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="run/resume the frontier crawl")
    c.add_argument("--out", required=True)
    c.add_argument("--pages", type=int, default=10_000)
    c.add_argument("--seeds-every", type=int, default=50)
    c.add_argument("--workers", type=int, default=8)
    c.add_argument("--worker-cpus", type=float, default=0.7)
    c.add_argument("--wave-k", type=int, default=200_000)
    c.add_argument("--max-epochs", type=int, default=256)
    c.add_argument("--checkpoint-interval", type=int, default=4)
    c.add_argument("--resume", action="store_true")
    c.add_argument(
        "--scale-mode",
        action="store_true",
        help="cuckoo-only seen set + bloom pre-filter "
        "(conformance default: exact seen)",
    )
    c.add_argument(
        "--seed-from-sitemaps",
        action="store_true",
        help="seed from every host's declared sitemap inventory instead "
        "of the every-Nth page sample",
    )
    c.set_defaults(fn=_cmd_crawl)

    d = sub.add_parser(
        "diff", help="day-2 recrawl diff between two crawl output dirs"
    )
    d.add_argument("--old", required=True)
    d.add_argument("--new", required=True)
    d.add_argument("--out", default=None,
                   help="optionally write the full (url, change_type) "
                   "table as parquet here")
    d.set_defaults(fn=_cmd_diff)

    q = sub.add_parser("query", help="run one queries() pipeline")
    q.add_argument("name")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    q.set_defaults(fn=_cmd_query)

    b = sub.add_parser("bench", help="run bench.py (one JSON line)")
    b.add_argument("--sf-dir", default=None)
    b.set_defaults(fn=_cmd_bench)

    args = p.parse_args(argv)
    rc = args.fn(args)
    import ray

    if ray.is_initialized():
        ray.shutdown()
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
