"""Parse / extract / document-assembly batch transforms (stateless).

- ``parse_links_batch``: fills the ``links`` list<struct> column for HTML
  pages (reference extractHtmlLinks, src/shared/links.ts:17-48, applied at
  the distributed pages table instead of inside the adapter).
- ``to_documents_batch``: the 3-way scrapeDocument branch
  (src/scrapeDocument.ts:249-320): direct-download → detector redirect →
  PDF/HTML text+metadata.

All operate on ``pyarrow`` batches; HTML parsing is per-row Python (parsing
is not vectorizable) but everything around it is columnar. The crawl's
candidate and image assembly is the fused chunk routine
(pipelines/crawl.py ``_fused_chunk``), built on the row-level
``document_row`` / ``image_row`` / ``priority_from_hash`` below.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.detectors import detect_document_url
from ..functions.imagecodec import decode_image, phash64, sniff_format
from ..functions.links import extract_html_links
from ..functions.mime import infer_content_type
from ..functions.text import extract_html_metadata, looks_like_pdf, strip_html_to_text
from ..schemas import DOCUMENTS_SCHEMA, PAGES_SCHEMA


def priority_of(canonical_url: str) -> float:
    """Deterministic frontier priority in [0, 1).

    SQL-reproducible: ``(('0x' || substr(md5(url), 1, 8))::BIGINT % 1000) /
    1000.0`` — md5 of the canonical URL, first 8 hex chars.
    """
    import hashlib

    return (int(hashlib.md5(canonical_url.encode()).hexdigest()[:8], 16) % 1000) / 1000.0


def priority_from_hash(url_hashes: np.ndarray) -> np.ndarray:
    """``priority_of`` for a column of ``url_hash64`` values, with no second
    md5: both read the same digest, and its first 8 hex chars are the top
    32 bits of the 64-bit hash."""
    return (np.asarray(url_hashes, dtype=np.uint64) >> np.uint64(32)) % np.uint64(1000) / 1000.0


def parse_links_batch(batch: pa.Table) -> pa.Table:
    """Extract links for every 200-HTML row; passthrough otherwise."""
    statuses = batch.column("status").to_pylist()
    ctypes = batch.column("content_type").to_pylist()
    contents = batch.column("content").to_pylist()
    finals = batch.column("final_url").to_pylist()
    pre = (
        batch.column("links").to_pylist()
        if "links" in batch.column_names
        else [None] * batch.num_rows
    )
    links_col: list[list[dict] | None] = []
    counts: list[int | None] = []
    for status, ctype, content, final, existing in zip(
        statuses, ctypes, contents, finals, pre
    ):
        if existing is not None:  # adapter pre-extracted (crawl4ai service)
            links_col.append(existing)
            counts.append(len(existing))
        elif status < 400 and ctype and "html" in ctype and content:
            links = [l.as_dict() for l in extract_html_links(content, final)]
            links_col.append(links)
            counts.append(len(links))
        else:
            links_col.append(None)
            counts.append(0)
    batch = batch.set_column(
        batch.schema.get_field_index("links"),
        "links",
        pa.array(links_col, PAGES_SCHEMA.field("links").type),
    )
    return batch.set_column(
        batch.schema.get_field_index("link_count"),
        "link_count",
        pa.array(counts, pa.int32()),
    )


def document_row(
    url: str,
    status: int,
    content_type: str | None,
    content: str | None,
    body_bytes: bytes | None,
    filename: str | None,
    include_html: bool = True,
    downloads: list | None = None,
) -> dict | None:
    """Row-level 3-way scrapeDocument branch (scrapeDocument.ts:249-320);
    None for error rows. Single source of truth for both the batch
    transform and the fused worker path."""
    if status >= 400 or status == 0:
        return None
    content = content or ""
    if downloads:
        # browser downloads present → direct-download record from the FIRST
        # download (scrapeDocument.ts:258-281: downloads[0] wins)
        d0 = downloads[0]
        ctype = d0.get("content_type") or infer_content_type(d0.get("filename"))
        body = d0.get("content")
        return {
            "url": url, "mime_type": ctype, "text": "", "html": None,
            "is_download": True, "file_content": body,
            "filename": d0.get("filename"), "content_type": ctype,
            "title": None, "description": None,
            "is_pdf": ctype == "application/pdf"
            or (body is not None and sniff_format(body) == "pdf"),
            "complete": True, "strategy": "direct-download",
        }
    if body_bytes is not None:
        ctype = content_type or infer_content_type(filename)
        return {
            "url": url, "mime_type": ctype, "text": "", "html": None,
            "is_download": True, "file_content": body_bytes,
            "filename": filename, "content_type": ctype, "title": None,
            "description": None,
            "is_pdf": ctype == "application/pdf" or sniff_format(body_bytes) == "pdf",
            "complete": True, "strategy": "direct-download",
        }
    detected = detect_document_url(url, content)
    if detected is not None:
        return {
            "url": detected.url, "mime_type": detected.type, "text": "",
            "html": None, "is_download": False, "file_content": None,
            "filename": None, "content_type": detected.type, "title": None,
            "description": None, "is_pdf": detected.is_pdf, "complete": False,
            "strategy": detected.strategy,
        }
    is_pdf = looks_like_pdf(url, content)
    meta = extract_html_metadata(content)
    return {
        "url": url,
        "mime_type": "application/pdf" if is_pdf else "text/html",
        "text": "" if is_pdf else strip_html_to_text(content),
        "html": (content if include_html else None),
        "is_download": False, "file_content": None, "filename": None,
        "content_type": None, "title": meta["title"],
        "description": meta["description"], "is_pdf": is_pdf,
        "complete": True,
        "strategy": "pdf-direct" if is_pdf else "html-extraction",
    }


def image_row(url: str, body: bytes | None, status: int, anchor: str | None) -> dict | None:
    """Row-level image assembly (input-hint schema); None for non-images."""
    if status >= 400 or body is None:
        return None
    fmt = sniff_format(body)
    if fmt not in ("png", "jpeg"):
        return None
    pixels = decode_image(body)
    return {
        "image_id": url,
        "bytes": body,
        "w": int(pixels.shape[1]),
        "h": int(pixels.shape[0]),
        "fmt": fmt,
        "caption": anchor if anchor else url.rsplit("/", 1)[-1],
        "phash": phash64(pixels),
    }


def to_documents_batch(batch: pa.Table, include_html: bool = True) -> pa.Table:
    """ScrapeResult → DocumentResult rows (scrapeDocument.ts:249-320).

    ``include_html=False`` drops the raw-HTML column from the sink (the
    extracted text/metadata stay) — at crawl scale the full markup is
    redundant with the pages store and dominates the row size."""
    cols = {name: batch.column(name).to_pylist() for name in (
        "url", "status", "content_type", "content", "body_bytes", "filename",
    )}
    dls = (
        batch.column("downloads").to_pylist()
        if "downloads" in batch.column_names
        else [None] * batch.num_rows
    )
    rows = []
    for i in range(batch.num_rows):
        row = document_row(
            cols["url"][i], cols["status"][i], cols["content_type"][i],
            cols["content"][i], cols["body_bytes"][i], cols["filename"][i],
            include_html=include_html,
            downloads=dls[i],
        )
        if row is not None:
            rows.append(row)
    if not rows:
        return DOCUMENTS_SCHEMA.empty_table()
    return pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)
