"""Property-based tests (hypothesis) for the deterministic core functions."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from spider_ray.functions.links import extract_html_links
from spider_ray.functions.urls import (
    canonicalize_url,
    host_of,
    is_valid_url,
    resolve_href,
    url_hash64,
)
from spider_ray.state.bloom import BloomFilter
from spider_ray.state.cuckoo import CuckooFilter

_hostchars = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)
# no "." — dot-segment normalization (..) is urljoin's business, not ours
_pathchars = st.text(
    alphabet=string.ascii_letters + string.digits + "/-_", min_size=0, max_size=24
)


@st.composite
def urls(draw):
    host = draw(_hostchars)
    path = draw(_pathchars)
    scheme = draw(st.sampled_from(["http", "https"]))
    suffix = draw(st.sampled_from(["", "#frag", "?q=1", ":8080/x"]))
    return f"{scheme}://{host}.test/{path}{suffix}"


@given(urls())
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent(url):
    once = canonicalize_url(url)
    assert canonicalize_url(once) == once  # canonical form is a fixpoint
    assert is_valid_url(once)
    assert host_of(once)  # canonical urls always carry a host
    assert 0 <= url_hash64(once) < 2**64


@given(urls(), _pathchars)
@settings(max_examples=200, deadline=None)
def test_resolve_absolute_passthrough_and_relative_joins(base, rel):
    # absolute hrefs pass through untouched
    assert resolve_href(base, "http://other.test/") == base
    # relative hrefs resolve onto the base host
    resolved = resolve_href(rel.lstrip("/") or "x", base)
    assert resolved.startswith(("http://", "https://"))


@given(
    st.lists(
        st.tuples(_pathchars, st.text(max_size=12, alphabet=string.printable.replace("<", "").replace(">", "").replace("&", ""))),
        min_size=0,
        max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_extract_links_dedup_and_absolute(pairs):
    # "/x" prefix guarantees a single leading slash (p may start with "/",
    # and "//…" would be protocol-relative — correct urljoin semantics but
    # not what this invariant is about)
    html = "".join(f'<a href="/x{p}">{t}</a>' for p, t in pairs)
    links = extract_html_links(html, "http://b.test/base/")
    hrefs = [l.href for l in links]
    assert len(hrefs) == len(set(hrefs))  # first-wins dedup invariant
    assert all(h.startswith("http://b.test/") for h in hrefs)
    # every distinct href from the input survives
    distinct_inputs = {f"http://b.test/x{p}" for p, _ in pairs}
    assert set(hrefs) == distinct_inputs


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=300, unique=True))
@settings(max_examples=50, deadline=None)
def test_filters_have_no_false_negatives(keys):
    import numpy as np

    arr = np.array(keys, dtype=np.uint64)
    bf = BloomFilter(max(1024, len(arr) * 2), 0.01)
    bf.add_many(arr)
    assert bf.contains_many(arr).all()
    cf = CuckooFilter(max(1024, len(arr) * 2))
    assert cf.add_many(arr) == len(arr)
    assert cf.contains_many(arr).all()


@given(
    st.dictionaries(
        st.text(alphabet=string.ascii_letters, min_size=1, max_size=8),
        st.one_of(
            st.none(),
            st.integers(min_value=-(2**31), max_value=2**31),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.text(max_size=40),
            st.binary(max_size=60),
            st.lists(st.text(max_size=8), max_size=4),
        ),
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_filecache_roundtrip_any_row(tmp_path_factory, value):
    """FileCache must round-trip every value shape a fetch row contains
    (None / numbers / unicode text / raw bytes / lists) exactly."""
    from spider_ray.state.cache import FileCache

    root = str(tmp_path_factory.mktemp("fc"))
    cache = FileCache(root, clock=lambda: 1000)
    cache.set("ns:deadbeef", value, ttl_ms=10_000)
    assert cache.get("ns:deadbeef") == value


@given(
    st.text(
        alphabet=string.ascii_letters + string.digits + " <>&\"'=/", max_size=120
    )
)
@settings(max_examples=120, deadline=None)
def test_process_html_idempotent(html):
    """Normalization is a fixpoint: process(process(x)) == process(x)
    (the happy-dom round-trip has the same property)."""
    from spider_ray.stages.fetch import process_html

    once = process_html(html)
    assert process_html(once) == once


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=999),  # priority millis
            st.integers(min_value=0, max_value=2**63 - 1),  # url_hash
        ),
        min_size=1,
        max_size=120,
        unique_by=lambda t: t[1],
    ),
    st.integers(min_value=1, max_value=130),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_runset_cut_property(rows, wave_k, n_runs):
    """RunSet.cut == materialized wave_select_arrow for arbitrary
    priorities/hashes, any run split, any wave_k."""
    import numpy as np
    import pyarrow as pa

    from spider_ray.pipelines.crawl import RunSet, wave_select_arrow

    n = len(rows)
    frontier = pa.table(
        {
            "url": pa.array([f"http://h.test/{h}" for _, h in rows]),
            "url_hash": pa.array([h for _, h in rows], pa.uint64()),
            "host": pa.array(["h.test"] * n),
            "priority": pa.array([p / 1000.0 for p, _ in rows], pa.float64()),
            "depth": pa.array([0] * n, pa.int32()),
            "attempts": pa.array([0] * n, pa.int32()),
        }
    )
    rs = RunSet()
    bounds = sorted({0, n} | set(
        np.linspace(0, n, n_runs + 1).astype(int).tolist()
    ))
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            assert rs.add_table(frontier.slice(lo, hi - lo))
    wave_rs, leftover = rs.cut(wave_k)
    wave_np, deferred_np = wave_select_arrow(frontier, wave_k, 10**9)
    assert wave_rs.column("url_hash").to_pylist() == wave_np.column("url_hash").to_pylist()
    assert leftover.count == deferred_np.num_rows


@given(
    st.text(alphabet="abcde", max_size=12),
    st.text(alphabet="abcde", max_size=12),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_banded_levenshtein_matches_full_dp(a, b, d):
    from spider_ray.pipelines.dedup import _lev_le

    # reference full DP
    la, lb = len(a), len(b)
    dp = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        dp[i][0] = i
    for j in range(lb + 1):
        dp[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            dp[i][j] = min(
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
                dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    full = dp[la][lb]
    got = _lev_le(a, b, d)
    if full <= d:
        assert got == full
    else:
        assert got == d + 1


@given(st.text(alphabet="ab", max_size=10), st.integers(min_value=1, max_value=2))
@settings(max_examples=150, deadline=None)
def test_deletion_neighborhood_complete(s, d):
    """Any two strings within Levenshtein d share a <=d-deletion variant
    — verified in one direction: every string t obtained by one
    edit of s shares a variant with s (the blocking-completeness lemma
    instance the candidate generator relies on)."""
    from spider_ray.pipelines.dedup import _del_variants

    vs = _del_variants(s, d)
    edits = set()
    for i in range(len(s)):
        edits.add(s[:i] + s[i + 1 :])  # deletion
        for c in "ab":
            edits.add(s[:i] + c + s[i + 1 :])  # substitution
    for i in range(len(s) + 1):
        for c in "ab":
            edits.add(s[:i] + c + s[i:])  # insertion
    for t in edits:
        assert vs & _del_variants(t, d), (s, t)


@given(st.lists(urls(), max_size=20))
@settings(max_examples=200, deadline=None)
def test_priority_from_hash_matches_priority_of(raw):
    """The crawl derives candidate priority from the url_hash column; it
    must equal the md5-based SQL reference bit for bit."""
    import numpy as np

    from spider_ray.stages.parse import priority_from_hash, priority_of

    canon = [canonicalize_url(u) for u in raw]
    hashes = np.array([url_hash64(u) for u in canon], dtype=np.uint64)
    assert priority_from_hash(hashes).tolist() == [priority_of(u) for u in canon]


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=40))
@settings(max_examples=100, deadline=None)
def test_md5_prefix_mod_matches_per_value(values):
    import hashlib

    from spider_ray.pipelines.events import md5_prefix_mod

    got = md5_prefix_mod(values, 2, 97).tolist()
    exp = [
        int(hashlib.md5(str(v).encode()).hexdigest()[:4], 16) % 97
        for v in values
    ]
    assert got == exp


@given(
    st.lists(
        st.tuples(st.text(alphabet="xy", min_size=1, max_size=4),
                  st.integers(min_value=1, max_value=5)),
        min_size=1, max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_bpe_encode_word_reconstructs(words_freqs):
    """encode_word output always concatenates back to word + '</w>'."""
    from spider_ray.pipelines.bpe import encode_word

    ranks = {("x", "y"): 0, ("xy", "</w>"): 1, ("x", "x"): 2}
    for w, _ in words_freqs:
        enc = encode_word(w, ranks)
        assert "".join(enc) == w + "</w>"


@given(
    st.lists(
        st.tuples(
            st.text(alphabet="abc√é", max_size=8),
            st.text(alphabet="abc√é", max_size=8),
        ),
        min_size=1, max_size=30,
    )
)
@settings(max_examples=150, deadline=None)
def test_dist_le1_batch_matches_dp(pairs):
    from spider_ray.pipelines.dedup import _dist_le1_batch, _lev_le

    sa = [a for a, _ in pairs]
    sb = [b for _, b in pairs]
    got = _dist_le1_batch(sa, sb).tolist()
    exp = [_lev_le(a, b, 1) for a, b in pairs]
    assert got == exp


@given(
    st.lists(
        st.tuples(
            st.text(alphabet="ab", min_size=1, max_size=6),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=1,
        max_size=20,
        unique_by=lambda t: t[0],
    ),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_bpe_shard_incremental_deltas_match_recount(words_freqs, num_merges):
    """The indexed trainer's core invariant (bpe.py _BpeShard): the
    driver's pair-count table, maintained purely from ingest deltas +
    apply_merge deltas, must equal a from-scratch recount of the shard's
    symbol sequences after EVERY merge — for any corpus and any merge
    sequence (here: the trainer's own argmax/tie-break policy)."""
    from collections import Counter

    from spider_ray.pipelines.bpe import _BpeShard

    def recount(shard):
        c = Counter()
        for sym, n in zip(shard.syms, shard.ns):
            for p in zip(sym, sym[1:]):
                c[p] += n
        return +c  # drop zero/negative entries

    shard = _BpeShard()
    counts = Counter(shard.ingest([w for w, _ in words_freqs],
                                  [n for _, n in words_freqs]))
    assert +counts == recount(shard)

    for _ in range(num_merges):
        live = +counts
        if not live:
            break
        # trainer policy: count desc, then (a, b) asc
        (a, b), _cnt = min(live.items(), key=lambda kv: (-kv[1], kv[0]))
        counts.update(shard.apply_merge(a, b))
        assert +counts == recount(shard)
        assert (a, b) not in +counts  # merged pair fully consumed
        # inverted index consistency: every indexed pair really occurs
        for p, idxs in shard.index.items():
            for wi in idxs:
                sym = shard.syms[wi]
                assert p in set(zip(sym, sym[1:]))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["u1", "u2", "u3", "u4"]),   # url
            st.sampled_from(["aa", "bb", "cc"]),          # md5
            st.sampled_from(["old", "new"]),              # side
        ),
        max_size=30,
    )
)
@settings(max_examples=200, deadline=None)
def test_recrawl_diff_bucket_matches_bruteforce(rows):
    """recrawl._diff_bucket vs a dict oracle, for ANY multiset of
    (url, md5, side) rows — including repeated URLs with conflicting
    digests on one side (multi-epoch stores), one-sided buckets, and
    empty input. Contract: one output row per distinct url; per side
    the lexicographically smallest md5 represents the url; classes are
    added / removed / changed / unchanged."""
    import pandas as pd

    from spider_ray.pipelines.recrawl import _diff_bucket

    group = pd.DataFrame(rows, columns=["url", "md5", "__side"])
    got = _diff_bucket(group)
    got_map = dict(zip(got["url"], got["change_type"]))

    old_min: dict = {}
    new_min: dict = {}
    for url, md5, side in rows:
        d = old_min if side == "old" else new_min
        d[url] = min(d.get(url, md5), md5)
    expected = {}
    for url in set(old_min) | set(new_min):
        if url not in old_min:
            expected[url] = "added"
        elif url not in new_min:
            expected[url] = "removed"
        elif old_min[url] != new_min[url]:
            expected[url] = "changed"
        else:
            expected[url] = "unchanged"

    assert len(got) == len(got_map)  # exactly one row per distinct url
    assert got_map == expected


@given(
    st.lists(
        st.one_of(
            st.none(),
            st.text(max_size=40),
            # bias toward the token-relevant edges: ASCII runs, the
            # U+0130 SpecialCasing char, Kelvin sign, combining dot
            st.text(
                alphabet=string.ascii_letters + string.digits + " .,İK̇ß",
                max_size=40,
            ),
        ),
        max_size=20,
    )
)
@settings(max_examples=300, deadline=None)
def test_tokenize_column_matches_python_reference(texts):
    """tokenize_column (Arrow kernels) ≡ _WORD_RE.findall(t.lower())
    (the Python tokenizer the naive Sennrich twin uses) — byte-exact,
    including the U+0130 full-lowercase special case."""
    import pyarrow as pa

    from spider_ray.pipelines.bpe import _WORD_RE, tokenize_column

    # exercise the ChunkedArray path with an arbitrary chunk split
    mid = len(texts) // 2
    col = pa.chunked_array(
        [pa.array(texts[:mid], pa.string()), pa.array(texts[mid:], pa.string())]
    )
    got = tokenize_column(col).to_pylist()
    want = [w for t in texts if t for w in _WORD_RE.findall(t.lower())]
    assert got == want
