"""Text-analysis pipelines over a documents Dataset (doc_id, text, ...).

Thin, vectorizable ``map_batches`` wrappers around functions.text:
language-ID, quality scoring, token counting, fingerprinting, stats.
Regexes compile once per actor/worker via module import — no per-batch
setup.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.text import (
    bpe_ish_token_count,
    fingerprint64,
    lang_id,
    quality_score,
    text_stats,
    token_count,
)


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    return batch.append_column(
        "n_tokens", pa.array([token_count(t) for t in texts], pa.int64())
    ).append_column(
        "n_bpe_tokens", pa.array([bpe_ish_token_count(t) for t in texts], pa.int64())
    )


def text_stats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    stats = [text_stats(t) for t in texts]
    for name, typ in (
        ("n_chars_actual", pa.int64()),
        ("n_words", pa.int64()),
        ("mean_word_len", pa.float64()),
        ("alpha_ratio", pa.float64()),
        ("upper_ratio", pa.float64()),
        ("digit_ratio", pa.float64()),
    ):
        key = "n_chars" if name == "n_chars_actual" else name
        batch = batch.append_column(name, pa.array([s[key] for s in stats], typ))
    return batch


def lang_quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    from ..functions.text import quality_score_q

    texts = batch.column(text_col).to_pylist()
    return (
        batch.append_column(
            "lang_pred", pa.array([lang_id(t) for t in texts], pa.string())
        )
        .append_column(
            "quality", pa.array([quality_score(t) for t in texts], pa.float64())
        )
        .append_column(
            "quality_q", pa.array([quality_score_q(t) for t in texts], pa.int64())
        )
    )


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    from .dedup import _to_i64

    texts = batch.column(text_col).to_pylist()
    fps = [_to_i64(fingerprint64(t)) for t in texts]
    return batch.append_column("fingerprint", pa.array(fps, pa.int64()))


_VOCAB_RE = None  # compiled lazily (once per worker import)


def vocab_partial_batch(
    batch: pa.Table, text_col: str = "text", min_token_len: int = 1
) -> pa.Table:
    """Per-batch partial vocabulary: (token, tf, df) counted WITHIN the
    batch. The combiner half of doc_frequency — the downstream groupby
    shuffles one row per distinct (token, batch), not one per occurrence
    (generalizes the reference's distinct-link aggregation,
    src/findDocumentLinks.ts:24-27, to corpus statistics)."""
    global _VOCAB_RE
    if _VOCAB_RE is None:
        import re

        _VOCAB_RE = re.compile(r"[a-z0-9]+")
    from collections import Counter

    tf: Counter = Counter()
    df: Counter = Counter()
    for t in batch.column(text_col).to_pylist():
        toks = _VOCAB_RE.findall(t.lower()) if t else []
        if min_token_len > 1:
            toks = [x for x in toks if len(x) >= min_token_len]
        tf.update(toks)
        df.update(set(toks))
    tokens = sorted(tf)
    return pa.table(
        {
            "token": pa.array(tokens, pa.string()),
            "tf": pa.array([tf[x] for x in tokens], pa.int64()),
            "df": pa.array([df[x] for x in tokens], pa.int64()),
        }
    )


def doc_frequency(ds, text_col: str = "text", min_token_len: int = 1):
    """Corpus vocabulary with document frequency and total term frequency.

    map_batches combiner (per-batch Counter → one partial row per distinct
    token) → ``groupby(token).sum`` — the pre-aggregate-then-small-shuffle
    shape: the exchange carries O(vocab × batches) rows, never
    O(occurrences). Exact (not sketched): df is additive across batches
    only for the *within-batch distinct* count, which is what the partial
    emits. Output: (token, doc_freq, total_tf)."""
    partial = ds.map_batches(
        lambda b: vocab_partial_batch(b, text_col, min_token_len),
        batch_format="pyarrow",
    )
    agg = partial.groupby("token").sum(["df", "tf"])

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["token", "doc_freq", "total_tf"])

    return agg.map_batches(rename, batch_format="pyarrow")


def tfidf_topk(
    ds,
    n_docs: int,
    df_table,
    k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_token_len: int = 1,
):
    """Top-k terms per document by an exact integer tf·idf rank.

    Score = ``(tf × n_docs × 1_000_000) // doc_freq`` — integer arithmetic
    end to end, so the ranking is bit-identical across engines (float
    ``tf·ln(n/df)`` can flip near-ties on last-ulp log differences).
    ``df_table`` is the (token, doc_freq) output of :func:`doc_frequency`
    collected small and BROADCAST into every batch (vocab ≪ corpus — the
    classic small-side pattern); per-document tf is computed entirely
    within the owning batch, so the only exchange is the upstream
    doc_frequency groupby. Output: (doc_id, token, tf, score, rank≤k)."""
    global _VOCAB_RE
    if _VOCAB_RE is None:
        import re

        _VOCAB_RE = re.compile(r"[a-z0-9]+")
    import ray as _ray

    df_map = dict(
        zip(
            df_table.column("token").to_pylist(),
            df_table.column("doc_freq").to_pylist(),
        )
    )
    df_ref = _ray.put(df_map)

    def per_batch(batch: pa.Table) -> pa.Table:
        from collections import Counter

        dfm = _ray.get(df_ref)
        ids, toks, tfs, scores, ranks = [], [], [], [], []
        texts = batch.column(text_col).to_pylist()
        doc_ids = batch.column(id_col).to_pylist()
        for doc_id, t in zip(doc_ids, texts):
            words = _VOCAB_RE.findall(t.lower()) if t else []
            if min_token_len > 1:
                words = [w for w in words if len(w) >= min_token_len]
            tf = Counter(words)
            scored = sorted(
                (
                    (-(c * n_docs * 1_000_000 // dfm[w]), w, c)
                    for w, c in tf.items()
                ),
            )[:k]
            for r, (neg, w, c) in enumerate(scored, 1):
                ids.append(doc_id)
                toks.append(w)
                tfs.append(c)
                scores.append(-neg)
                ranks.append(r)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "token": pa.array(toks, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
                "score": pa.array(scores, pa.int64()),
                "rank": pa.array(ranks, pa.int64()),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow")


def analyze(ds, text_col: str = "text"):
    """All analyses in one pass (single map_batches — one traversal)."""
    def all_batch(batch: pa.Table) -> pa.Table:
        batch = token_count_batch(batch, text_col)
        batch = text_stats_batch(batch, text_col)
        batch = lang_quality_batch(batch, text_col)
        return fingerprint_batch(batch, text_col)

    return ds.map_batches(all_batch, batch_format="pyarrow")


_WS_TOKEN_RE = None
_STOPWORD_RE = None


def c4_quality_flags(ds, text_col: str = "text", id_col: str = "doc_id"):
    """C4-style document quality rules as an integer flag bitmask
    (Raffel et al., *Exploring the Limits of Transfer Learning* §2.2,
    adapted to document level so every rule is integer-exact and
    SQL-checkable):

      bit 1  — fewer than 20 whitespace words
      bit 2  — longest word > 50 chars (lorem/garbage/minified blobs)
      bit 4  — no common-English stopword (the|a|to|and|of|in as whole
               words; stands in for C4's terminal-punctuated-line rule,
               which is vacuous on the unpunctuated fixture corpus)
      bit 8  — contains 'javascript' (lowercased)
      bit 16 — contains '{' (code/markup)
      bit 32 — mean word length outside [3, 10] (integer cross-multiply:
               3·n > Σlen or Σlen > 10·n — no float threshold)

    keep = flags == 0. One map_batches, no exchange; the whole filter is
    a pre-shuffle gate in a training-data pipeline. Output:
    (id, n_words, flags, keep)."""
    global _WS_TOKEN_RE, _STOPWORD_RE
    if _WS_TOKEN_RE is None:
        import re

        _WS_TOKEN_RE = re.compile(r"\S+")
        _STOPWORD_RE = re.compile(r"\b(?:the|a|to|and|of|in)\b")

    def per_batch(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        n_words, flags_out = [], []
        for t in texts:
            t = t or ""
            words = _WS_TOKEN_RE.findall(t)
            n = len(words)
            sumw = sum(len(w) for w in words)
            maxw = max((len(w) for w in words), default=0)
            flags = 0
            if n < 20:
                flags |= 1
            if maxw > 50:
                flags |= 2
            if not _STOPWORD_RE.search(t.lower()):
                flags |= 4
            if "javascript" in t.lower():
                flags |= 8
            if "{" in t:
                flags |= 16
            if 3 * n > sumw or sumw > 10 * n:
                flags |= 32
            n_words.append(n)
            flags_out.append(flags)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_words": pa.array(n_words, pa.int64()),
                "flags": pa.array(flags_out, pa.int64()),
                "keep": pa.array([f == 0 for f in flags_out], pa.bool_()),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow")


def ngram_counts(
    ds,
    n: int = 2,
    min_count: int = 1,
    text_col: str = "text",
):
    """Corpus n-gram counts (language-model count tables): per-batch
    Counter combiner — one (ngram, count) partial row per distinct gram
    per batch — then one groupby-sum exchange carrying only the partials
    (vocab-bounded, never the corpus). ``min_count`` prunes the long
    tail AFTER the global sum (pruning partials would undercount grams
    spread across batches). Tokens are the engine-wide [a-z0-9]+
    lowercase vocabulary; grams join with a single space."""
    global _VOCAB_RE
    if _VOCAB_RE is None:
        import re

        _VOCAB_RE = re.compile(r"[a-z0-9]+")

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            toks = _VOCAB_RE.findall(t.lower()) if t else []
            counts.update(
                " ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)
            )
        return pa.table(
            {
                "ngram": pa.array(list(counts.keys()), pa.string()),
                "count": pa.array(list(counts.values()), pa.int64()),
            }
        )

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("ngram").sum(
        "count"
    )

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        out = batch.rename_columns(["ngram", "count"])
        if min_count > 1:
            out = out.filter(
                pc.greater_equal(out.column("count"), min_count)
            )
        return out

    return agg.map_batches(finish, batch_format="pyarrow")


def chunk_documents(
    ds,
    chunk_tokens: int = 50,
    overlap: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """RAG-style document chunking: overlapping token windows of
    ``chunk_tokens`` with ``overlap`` tokens repeated (stride =
    chunk_tokens - overlap), over the engine-wide [a-z0-9]+ lowercase
    vocabulary. Map-only (no exchange) — chunking is the canonical
    pre-embedding step of a retrieval corpus build. Output one row per
    chunk: (id, chunk_id, start_tok, n_tokens, first_token,
    last_token); the text payload is intentionally NOT duplicated per
    chunk (at 100 TB, chunk text re-slices from the source table by
    (id, start_tok) — emitting it here would inflate the corpus
    ~2× with the default overlap)."""
    global _VOCAB_RE
    if _VOCAB_RE is None:
        import re

        _VOCAB_RE = re.compile(r"[a-z0-9]+")
    stride = chunk_tokens - overlap
    if stride <= 0:
        raise ValueError("overlap must be smaller than chunk_tokens")

    def per_batch(batch: pa.Table) -> pa.Table:
        ids, cids, starts, ns, firsts, lasts = [], [], [], [], [], []
        for doc_id, t in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            toks = _VOCAB_RE.findall(t.lower()) if t else []
            n = len(toks)
            for ci, start in enumerate(range(0, n, stride)):
                end = min(start + chunk_tokens, n)
                ids.append(doc_id)
                cids.append(ci)
                starts.append(start)
                ns.append(end - start)
                firsts.append(toks[start])
                lasts.append(toks[end - 1])
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "chunk_id": pa.array(cids, pa.int64()),
                "start_tok": pa.array(starts, pa.int64()),
                "n_tokens": pa.array(ns, pa.int64()),
                "first_token": pa.array(firsts, pa.string()),
                "last_token": pa.array(lasts, pa.string()),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow")
