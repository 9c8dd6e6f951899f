"""Fixed Arrow schemas for every logical table (SURVEY.md §1.2).

The reference declares static TypeScript interfaces for all records
(reference: src/shared/types.ts); the distributed engine mirrors that with
fixed ``pyarrow.Schema`` objects validated at stage boundaries. Blocks are
``pyarrow.Table``; transforms run with ``batch_format='pyarrow'``.
"""

from __future__ import annotations

import pyarrow as pa

# Link struct — reference src/shared/types.ts:24-59 (href/text/title/
# aria-label/rel/target/classes), optionals → nullable.
LINK_TYPE = pa.struct(
    [
        pa.field("href", pa.string(), nullable=False),
        pa.field("text", pa.string(), nullable=False),
        pa.field("title", pa.string()),
        pa.field("aria_label", pa.string()),
        pa.field("rel", pa.string()),
        pa.field("target", pa.string()),
        pa.field("classes", pa.list_(pa.string())),
    ]
)

# Download struct — reference src/shared/types.ts:4-19; the only binary
# payload in the reference, generalized here to image bytes.
DOWNLOAD_TYPE = pa.struct(
    [
        pa.field("url", pa.string(), nullable=False),
        pa.field("filename", pa.string()),
        pa.field("content_type", pa.string()),
        pa.field("content", pa.large_binary()),
        pa.field("error", pa.string()),
    ]
)

# Frontier — the URL priority queue as a table, holding only the columns
# the crawl reads. Partition keys: url_hash (seen-set shards) and host
# (politeness waves).
FRONTIER_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string(), nullable=False),
        pa.field("url_hash", pa.uint64(), nullable=False),
        pa.field("host", pa.string(), nullable=False),
        pa.field("priority", pa.float64(), nullable=False),
        pa.field("depth", pa.int32(), nullable=False),
        pa.field("attempts", pa.int32()),
        # text of the link that discovered this URL — becomes the caption
        # column for image rows (the reference's Link.text / DocumentResult
        # title pair, SURVEY.md §1.1)
        pa.field("anchor_text", pa.string()),
    ]
)

# Pages — one row per fetched URL (reference Page, src/shared/types.ts:64-97,
# plus ScrapeResult provenance, types.ts:318-373).
PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string(), nullable=False),
        pa.field("final_url", pa.string(), nullable=False),
        pa.field("url_hash", pa.uint64(), nullable=False),
        pa.field("host", pa.string()),
        pa.field("depth", pa.int32()),
        pa.field("status", pa.int32(), nullable=False),
        pa.field("content_type", pa.string()),
        pa.field("content", pa.large_string()),
        pa.field("body_bytes", pa.large_binary()),
        pa.field("filename", pa.string()),
        # browser-triggered downloads (types.ts:92-96) — ALL of them, deduped
        # by (url, filename, contentType) (browser-runner.ts:204-222)
        pa.field("downloads", pa.list_(DOWNLOAD_TYPE)),
        pa.field("links", pa.list_(LINK_TYPE)),
        # crawl4ai-only markdown rendering (types.ts:86-90)
        pa.field("markdown", pa.large_string()),
        pa.field("fetched_at", pa.timestamp("ms")),
        pa.field("cache_hit", pa.bool_()),
        # ScrapeResult provenance columns (types.ts:344-373)
        pa.field("strategy_type", pa.string()),
        pa.field("strategy_spider", pa.string()),
        pa.field("confidence", pa.float64()),
        pa.field("duration_ms", pa.int64()),
        pa.field("link_count", pa.int32()),
        pa.field("interaction_count", pa.int32()),
        pa.field("complete", pa.bool_()),
        pa.field("error", pa.string()),
    ]
)

# Documents — normalized DocumentResult (reference src/scrapeDocument.ts:85-127).
DOCUMENTS_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string(), nullable=False),
        pa.field("mime_type", pa.string()),
        pa.field("text", pa.large_string()),
        pa.field("html", pa.large_string()),
        pa.field("is_download", pa.bool_()),
        pa.field("file_content", pa.large_binary()),
        pa.field("filename", pa.string()),
        pa.field("content_type", pa.string()),
        pa.field("title", pa.string()),
        pa.field("description", pa.string()),
        pa.field("is_pdf", pa.bool_()),
        pa.field("complete", pa.bool_()),
        pa.field("strategy", pa.string()),
    ]
)

# Images — the Lance-style image+caption table; exactly the BASELINE.json
# input_hint shape.
IMAGES_SCHEMA = pa.schema(
    [
        pa.field("image_id", pa.string(), nullable=False),
        pa.field("bytes", pa.binary(), nullable=False),
        pa.field("w", pa.int32(), nullable=False),
        pa.field("h", pa.int32(), nullable=False),
        pa.field("fmt", pa.string(), nullable=False),
        pa.field("caption", pa.string(), nullable=False),
        pa.field("phash", pa.int64(), nullable=False),
    ]
)

# Seen-set checkpoint — sharded filter state serialized per epoch.
SEEN_SCHEMA = pa.schema(
    [
        pa.field("shard_id", pa.int32(), nullable=False),
        pa.field("filter_bytes", pa.large_binary(), nullable=False),
        pa.field("n_items", pa.int64(), nullable=False),
    ]
)

# Lineage / metrics — one row per (epoch, stage, partition); the distributed
# generalization of ScrapeMetrics (reference src/shared/types.ts:361-373).
LINEAGE_SCHEMA = pa.schema(
    [
        pa.field("epoch", pa.int32(), nullable=False),
        pa.field("partition_id", pa.int32(), nullable=False),
        pa.field("stage", pa.string(), nullable=False),
        pa.field("rows_in", pa.int64()),
        pa.field("rows_out", pa.int64()),
        pa.field("fetches", pa.int64()),
        pa.field("cache_hits", pa.int64()),
        pa.field("dedup_checks", pa.int64()),
        pa.field("dedup_hits", pa.int64()),
        pa.field("errors", pa.int64()),
        pa.field("wall_ms", pa.int64()),
    ]
)

