"""Property-based tests (hypothesis) for the fuzz-sensitive surfaces:
arbitrary unicode through the rule catalog and scrubber must never
crash and must hold the documented invariants; the rolling-hash
chunker must exactly tile every byte string within its bounds; the
scrub pass must be idempotent (a scrubbed document re-scrubs to
itself, the reference's re-run stability property)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmetacheck_ray.config import DEFAULT_CONFIG
from rsmetacheck_ray.functions import fingerprint as fp
from rsmetacheck_ray.functions.tokenize import ws_token_stats
from rsmetacheck_ray.stages.rules import DROP_CODES, RULE_CODES, apply_scrub, rule_stage_fn

_TEXT = st.text(max_size=400)


def _token_columns(texts: list[str]) -> dict:
    """The token/repetition columns the langid stage would attach."""
    stats = ws_token_stats(
        pa.array(texts, pa.string()),
        DEFAULT_CONFIG.langid_scan_chars,
        DEFAULT_CONFIG.repetition_scan_tokens,
    )
    return {k: pa.array(v) for k, v in stats.items()}


def _gate_batch(texts: list[str], urls: list[str] | None = None) -> pa.Table:
    n = len(texts)
    urls = urls or [f"https://site{i}.example.com/x" for i in range(n)]
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "url": pa.array(urls),
            "warc_ts": pa.array([1_672_531_200_000_000] * n, pa.timestamp("us")),
            "extracted_text": pa.array(texts),
            "lang": pa.array(["en"] * n),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            "stopword_hits": pa.array([0] * n, pa.int64()),
            "stopword_lang": pa.array([None] * n, pa.string()),
            "detected_lang": pa.array(["und"] * n, pa.string()),
            "langid_conf": pa.array([0.0] * n, pa.float64()),
            "bits_per_char": pa.array([1.0] * n, pa.float64()),
            **_token_columns(texts),
        }
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(_TEXT, min_size=1, max_size=8))
def test_rule_stage_total_on_arbitrary_unicode(texts):
    """No rule may crash on any unicode input (the reference's
    defensive key-probing invariant): rule_errors stays empty, keep is
    a total boolean, and every hit column is boolean."""
    out = rule_stage_fn(_gate_batch(texts), DEFAULT_CONFIG, with_evidence=True)
    assert not any(out.column("rule_errors").to_pylist())
    keep = out.column("keep").to_pylist()
    assert all(isinstance(k, bool) for k in keep)
    # keep == not any drop rule fired (the catalog contract)
    for i in range(len(texts)):
        fired_drop = any(
            out.column(f"hit_{c}")[i].as_py() for c in DROP_CODES
        )
        assert keep[i] == (not fired_drop)
    for c in RULE_CODES:
        assert out.column(f"hit_{c}").type == pa.bool_()


@settings(max_examples=40, deadline=None)
@given(st.lists(_TEXT, min_size=1, max_size=8))
def test_scrub_idempotent(texts):
    """Scrubbing an already-scrubbed document is a no-op — replacement
    tokens (<EMAIL>, <PHONE>, <IP>, ****) never re-match any pattern."""
    arr = pa.array(texts, pa.string())
    once = apply_scrub(arr)
    twice = apply_scrub(once)
    assert once.to_pylist() == twice.to_pylist()


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=20_000))
def test_chunker_tiles_exactly(data):
    """Chunk boundaries exactly tile [0, n): monotone, end at n, every
    chunk within (min, max] except the final remainder."""
    bounds = fp.chunk_boundaries(data)
    if not data:
        assert bounds == []
        return
    assert bounds[-1] == len(data)
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    lens = np.diff([0] + bounds)
    assert (lens <= fp._MAX_CHUNK).all()
    if len(lens) > 1:
        assert (lens[:-1] >= fp._MIN_CHUNK).all()
    # determinism
    assert bounds == fp.chunk_boundaries(data)


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=2000))
def test_doc_chunks_cover_all_bytes(text):
    rows = fp.doc_chunks(0, text)
    assert sum(r[3] for r in rows) == len(text.encode("utf-8"))


# --------------------------------------------------------------------------
# differential properties: the block-vectorized temporal operators vs
# straightforward per-key brute-force references on random data
# --------------------------------------------------------------------------

def _events_orders_tables(seed: int, n_ev: int, n_ord: int, n_keys: int):
    rng = np.random.default_rng(seed)
    ev = pa.table(
        {
            "event_id": pa.array(np.arange(n_ev), pa.int64()),
            "user_id": pa.array(rng.integers(0, n_keys, n_ev), pa.int64()),
            "ts": pa.array(
                rng.integers(0, 10_000, n_ev) * 1_000_000, pa.timestamp("us")
            ),
        }
    )
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n_ord) + 1000, pa.int64()),
            "o_custkey": pa.array(rng.integers(0, n_keys, n_ord), pa.int64()),
            "o_orderdate": pa.array(
                rng.integers(0, 10_000, n_ord) * 1_000_000, pa.timestamp("us")
            ),
        }
    )
    return ev, orders


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_asof_join_matches_bruteforce(ray_session, seed):
    """events_asof_orders == per-event brute force (latest order at or
    before ts; ties -> max orderkey) on random key/time data, including
    heavy key collisions and equal timestamps."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.relational import events_asof_orders

    ev, orders = _events_orders_tables(seed, n_ev=300, n_ord=200, n_keys=12)
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(ev, os.path.join(d, "events.parquet"))
        pq.write_table(orders, os.path.join(d, "orders.parquet"))
        got = (
            events_asof_orders(d)
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
    # brute force
    e_uid = ev.column("user_id").to_numpy()
    e_ts = ev.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
    o_key = orders.column("o_orderkey").to_numpy()
    o_cust = orders.column("o_custkey").to_numpy()
    o_ts = orders.column("o_orderdate").to_numpy().astype("datetime64[us]").astype(np.int64)
    expected = []
    for i in range(len(e_uid)):
        m = (o_cust == e_uid[i]) & (o_ts <= e_ts[i])
        if not m.any():
            expected.append(-1)  # null sentinel for the compare
        else:
            cand_ts = o_ts[m]
            cand_key = o_key[m]
            latest = cand_ts.max()
            expected.append(int(cand_key[cand_ts == latest].max()))
    assert got["o_orderkey"].fillna(-1).astype(np.int64).tolist() == expected


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sessionize_matches_bruteforce(ray_session, seed):
    import os
    import tempfile

    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.relational import SESSION_GAP_S, sessionize_users

    ev, orders = _events_orders_tables(seed, n_ev=400, n_ord=1, n_keys=9)
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(ev, os.path.join(d, "events.parquet"))
        pq.write_table(orders, os.path.join(d, "orders.parquet"))
        got = (
            sessionize_users(d).to_pandas().sort_values("user_id").reset_index(drop=True)
        )
    uid = ev.column("user_id").to_numpy()
    ts = ev.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
    eid = ev.column("event_id").to_numpy()
    for _, row in got.iterrows():
        m = uid == row["user_id"]
        order = np.lexsort((eid[m], ts[m]))
        t = ts[m][order]
        sessions = 1 + int((np.diff(t) > SESSION_GAP_S * 1_000_000).sum())
        assert row["n_events"] == int(m.sum())
        assert row["n_sessions"] == sessions
    assert set(got["user_id"]) == set(np.unique(uid))


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_boilerplate_scrub_matches_bruteforce(ray_session, seed):
    """scrub_boilerplate_lines == per-doc brute force (drop every line
    whose distinct-doc frequency >= min_df) on random corpora with
    heavy line collisions, repeats within docs and empty lines."""
    import ray.data as rd

    from rsmetacheck_ray.functions.boilerplate import scrub_boilerplate_lines

    rng = np.random.default_rng(seed)
    pool = [f"L{i}" for i in range(6)] + ["", "unique-%d"]
    texts = []
    for d in range(30):
        n_lines = int(rng.integers(1, 6))
        lines = []
        for j in range(n_lines):
            p = pool[int(rng.integers(0, len(pool)))]
            lines.append(p % (d * 10 + j) if "%d" in p else p)
        texts.append("\n".join(lines))
    t = pa.table(
        {
            "doc_id": pa.array(range(30), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    min_df = 3
    got = (
        scrub_boilerplate_lines(
            rd.from_arrow(t).repartition(4), rd.from_arrow(t).repartition(4),
            min_df=min_df,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # brute force
    df: dict = {}
    for txt in texts:
        for ln in set(txt.split("\n")):
            df[ln] = df.get(ln, 0) + 1
    hot = {ln for ln, c in df.items() if c >= min_df}
    exp_text = ["\n".join(l for l in t_.split("\n") if l not in hot) for t_ in texts]
    exp_removed = [sum(l in hot for l in t_.split("\n")) for t_ in texts]
    assert got["text_scrubbed"].tolist() == exp_text
    assert got["n_lines_removed"].tolist() == exp_removed


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bigram_lm_matches_bruteforce(ray_session, seed):
    """train_bigram_lm == Counter brute force (within-doc bigrams,
    exact conditionals of the FULL distribution, prune after)."""
    from collections import Counter

    import ray.data as rd

    from rsmetacheck_ray.functions.ngram_lm import train_bigram_lm

    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(5)]
    texts = [
        " ".join(vocab[int(j)] for j in rng.integers(0, len(vocab), rng.integers(0, 9)))
        for _ in range(25)
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(25), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = (
        train_bigram_lm(rd.from_arrow(t).repartition(3), min_count=2)
        .to_pandas()
        .sort_values(["w1", "w2"])
        .reset_index(drop=True)
    )
    counts: Counter = Counter()
    for txt in texts:
        ws = txt.split()
        counts.update(zip(ws, ws[1:]))
    totals: Counter = Counter()
    for (w1, _), n in counts.items():
        totals[w1] += n
    exp = sorted(
        (w1, w2, n, n / totals[w1])
        for (w1, w2), n in counts.items()
        if n >= 2
    )
    assert [tuple(r) for r in got.itertuples(index=False)] == exp


# --- round-3 continuation operators -----------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.text(alphabet=st.sampled_from("ab \t\n"), max_size=200),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=1, max_value=7),
)
def test_token_chunking_tiles_documents(ray_session, texts, c):
    """Chunk token counts tile each document exactly, ordinals are
    dense from 0, and the space-joined chunks reconstruct the doc's
    canonical whitespace form."""
    import ray.data as rd

    from rsmetacheck_ray.functions.chunking import chunk_tokens

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    out = chunk_tokens(ds, chunk_size=c).to_pandas()
    if out.empty:  # empty Ray->pandas drops columns (documented quirk)
        assert all(not t.split() for t in texts)
        return
    for d, t in enumerate(texts):
        toks = t.split()
        rows = out[out.doc_id == d].sort_values("chunk_idx")
        assert rows["n_tokens"].sum() == len(toks)
        assert rows["chunk_idx"].tolist() == list(range(len(rows)))
        assert " ".join(rows["chunk_text"]) == " ".join(toks)
        if len(rows):
            assert (rows["n_tokens"].iloc[:-1] == c).all()
            assert 0 < rows["n_tokens"].iloc[-1] <= c


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(
                alphabet=st.characters(
                    codec="utf-8", exclude_characters="\r\n<>"
                ),
                min_size=1,
                max_size=60,
            ),
            st.binary(max_size=400),
        ),
        min_size=1,
        max_size=5,
    ),
    st.booleans(),
)
def test_warc_roundtrip_arbitrary_payloads(rows, gz):
    """write_warc → parse_warc is lossless for arbitrary url strings
    and binary payloads, plain and gzipped."""
    import tempfile

    from rsmetacheck_ray.sources.warc_pages import parse_warc, write_warc

    recs = [
        {"url": u, "warc_ts": "2023-01-01T00:00:00", "html": b}
        for u, b in rows
    ]
    with tempfile.NamedTemporaryFile(suffix=".warc.gz" if gz else ".warc") as f:
        write_warc(f.name, recs, compress=gz)
        t = parse_warc(open(f.name, "rb").read(), strict=True)
    # header values are whitespace-stripped per the header grammar
    assert t.column("url").to_pylist() == [u.strip() for u, _ in rows]
    assert t.column("html").to_pylist() == [b if b else None for _, b in rows]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_bpe_incremental_equals_naive(seed):
    """Randomized corpora: the incremental-pair-update merge loop is
    exactly the naive full-recount reference."""
    from tests.test_bpe import _naive_learn

    from rsmetacheck_ray.functions.bpe import learn_merges

    rng = np.random.default_rng(seed)
    vocab = [
        "".join(chr(97 + c) for c in rng.integers(0, 4, rng.integers(1, 6)))
        for _ in range(30)
    ]
    from collections import Counter

    wc = [(w, int(n)) for w, n in Counter(vocab).items()]
    assert learn_merges(wc, 15) == _naive_learn(wc, 15)


def _rand_events(seed: int, n: int, n_keys: int) -> pa.Table:
    """events-shaped table with heavy key/ts collisions."""
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "event_id": pa.array(rng.permutation(n), pa.int64()),
            "ts": pa.array(
                rng.integers(0, 50, n) * 1_000_000, pa.timestamp("us")
            ),
            "user_id": pa.array(rng.integers(0, n_keys, n), pa.int64()),
            "event_type": pa.array(
                [f"t{int(x)}" for x in rng.integers(0, 3, n)], pa.string()
            ),
            "value": pa.array(rng.integers(0, 500, n) / 7.0, pa.float64()),
        }
    )


def _events_dir(tbl: pa.Table, d: str) -> str:
    import os

    import pyarrow.parquet as pq

    pq.write_table(tbl, os.path.join(d, "events.parquet"))
    return d


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_running_totals_match_pandas(ray_session, seed):
    """events_running_totals == pandas groupby cumsum under the same
    (ts, event_id) order, including duplicate timestamps per user."""
    import tempfile

    from rsmetacheck_ray.pipelines.relational import events_running_totals

    tbl = _rand_events(seed, n=250, n_keys=9)
    with tempfile.TemporaryDirectory() as d:
        got = (
            events_running_totals(_events_dir(tbl, d))
            .to_pandas()
            .sort_values(["user_id", "ts_us", "event_id"])
            .reset_index(drop=True)
        )
    df = tbl.to_pandas()
    df["ts_us"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    df["cents"] = np.floor(df["value"] * 100 + 0.5).astype(np.int64)
    df = df.sort_values(["user_id", "ts_us", "event_id"]).reset_index(drop=True)
    df["running_cents"] = df.groupby("user_id")["cents"].cumsum()
    gaps = df.groupby("user_id")["ts_us"].diff()
    df["gap_us"] = gaps.fillna(-1).astype(np.int64)
    assert got["running_cents"].tolist() == df["running_cents"].tolist()
    assert got["gap_us"].tolist() == df["gap_us"].tolist()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_latest_per_user_matches_bruteforce(ray_session, seed):
    import tempfile

    from rsmetacheck_ray.pipelines.relational import events_latest_per_user

    tbl = _rand_events(seed, n=200, n_keys=7)
    with tempfile.TemporaryDirectory() as d:
        got = (
            events_latest_per_user(_events_dir(tbl, d))
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
    df = tbl.to_pandas()
    df["ts_us"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    exp = (
        df.sort_values(["user_id", "ts_us", "event_id"])
        .groupby("user_id")
        .tail(1)
        .sort_values("user_id")
    )
    assert got["event_id"].tolist() == exp["event_id"].tolist()
    assert got["ts_us"].tolist() == exp["ts_us"].tolist()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_user_sequences_match_bruteforce(ray_session, seed):
    import tempfile

    from rsmetacheck_ray.pipelines.relational import user_event_sequences

    tbl = _rand_events(seed, n=180, n_keys=6)
    with tempfile.TemporaryDirectory() as d:
        got = (
            user_event_sequences(_events_dir(tbl, d))
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
    df = tbl.to_pandas()
    df["ts_us"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    exp = (
        df.sort_values(["user_id", "ts_us", "event_id"])
        .groupby("user_id")["event_type"]
        .agg(",".join)
    )
    assert got.set_index("user_id")["sequence"].to_dict() == exp.to_dict()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_value_ranks_match_bruteforce(ray_session, seed):
    """RANK/DENSE_RANK from the histogram plan == scipy-free brute
    force per (type, cents), on collision-heavy data."""
    import tempfile

    from rsmetacheck_ray.pipelines.relational import events_value_ranks

    tbl = _rand_events(seed, n=220, n_keys=5)
    with tempfile.TemporaryDirectory() as d:
        got = (
            events_value_ranks(_events_dir(tbl, d))
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
    df = tbl.to_pandas()
    df["cents"] = np.floor(df["value"] * 100 + 0.5).astype(np.int64)
    for _, grp in df.groupby("event_type"):
        cents = grp["cents"].to_numpy()
        for _, row in grp.iterrows():
            rnk = int((cents > row["cents"]).sum()) + 1
            drnk = len(np.unique(cents[cents > row["cents"]])) + 1
            sel = got.loc[got["event_id"] == row["event_id"]]
            assert int(sel["rnk"].iloc[0]) == rnk
            assert int(sel["drnk"].iloc[0]) == drnk


def _rand_orders_table(seed, n=400, n_keys=15):
    rng = np.random.RandomState(seed)
    ts = np.datetime64("1996-06-01", "us").item()
    return pa.table(
        {
            "o_orderkey": pa.array(np.arange(1, n + 1), pa.int64()),
            "o_custkey": pa.array(rng.randint(1, n_keys + 1, n), pa.int64()),
            "o_orderstatus": pa.array(["O"] * n, pa.string()),
            "o_totalprice": pa.array(
                np.round(rng.randint(0, 500, n) * 0.01, 2), pa.float64()
            ),
            "o_orderdate": pa.array([ts] * n, pa.timestamp("us")),
            "o_orderpriority": pa.array(["1-URGENT"] * n, pa.string()),
        }
    )


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_top_k_per_group_matches_bruteforce(ray_session, seed):
    """top_orders_per_customer == per-key sorted head under the
    (cents DESC, orderkey ASC) total order, with heavy price ties."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.decision import top_orders_per_customer

    t = _rand_orders_table(seed)
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "orders.parquet"))
        got = (
            top_orders_per_customer(d, k=3, num_partitions=4)
            .to_pandas()
            .sort_values(["o_custkey", "rk"])
            .reset_index(drop=True)
        )
    ck = t.column("o_custkey").to_numpy()
    ok = t.column("o_orderkey").to_numpy()
    cents = np.floor(t.column("o_totalprice").to_numpy() * 100 + 0.5).astype(
        np.int64
    )
    want = []
    for key in np.unique(ck):
        m = ck == key
        order = np.lexsort((ok[m], -cents[m]))
        for r, i in enumerate(np.flatnonzero(m)[order][:3]):
            want.append((int(key), int(ok[i]), int(cents[i]), r + 1))
    # want is already in (custkey ASC, rk ASC) order, matching got's sort
    assert list(map(tuple, got[["o_custkey", "o_orderkey", "cents", "rk"]].itertuples(index=False))) == want


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_funnel_matches_bruteforce(ray_session, seed):
    """user_funnel == per-user scan for first step2 strictly after the
    first step1, on random event streams with ts collisions."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.decision import user_funnel

    rng = np.random.RandomState(seed)
    n, n_users = 300, 10
    uid = rng.randint(1, n_users + 1, n)
    ts_us = rng.randint(0, 40, n).astype("int64")  # heavy collisions
    types = rng.choice(["view", "purchase", "click"], n)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "ts": pa.array(ts_us, pa.timestamp("us")),
            "user_id": pa.array(uid, pa.int64()),
            "event_type": pa.array(types, pa.string()),
            "value": pa.array(np.ones(n), pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "events.parquet"))
        got = (
            user_funnel(d, num_partitions=3)
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
    want = []
    for u in range(1, n_users + 1):
        m = uid == u
        vts = ts_us[m & (types == "view")]
        pts = ts_us[m & (types == "purchase")]
        if not len(vts):
            continue
        after = pts[pts > vts.min()]
        if len(after):
            want.append((u, int(vts.min()), int(after.min())))
    got_rows = [
        (int(r.user_id), r.first_view_ts.value // 1000,
         r.first_purchase_ts.value // 1000)
        for r in got.itertuples(index=False)
    ]
    assert got_rows == want


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mad_matches_numpy(ray_session, seed):
    """events_mad_outliers median/MAD == numpy's interpolated median
    over the raw values (per type), outlier count == the direct test."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.decision import events_mad_outliers

    rng = np.random.RandomState(seed)
    n = 250
    cents = rng.randint(0, 60, n)
    types = rng.choice(["a", "b"], n)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "ts": pa.array(np.zeros(n, np.int64), pa.timestamp("us")),
            "user_id": pa.array(np.ones(n, np.int64), pa.int64()),
            "event_type": pa.array(types, pa.string()),
            "value": pa.array(np.round(cents * 0.01, 2), pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "events.parquet"))
        got = events_mad_outliers(d).to_pandas().set_index("event_type")
    for ty in np.unique(types):
        v = cents[types == ty].astype(np.float64)
        med = float(np.median(v))
        mad = float(np.median(np.abs(v - med)))
        assert got.loc[ty, "median_cents"] == med
        assert got.loc[ty, "mad_cents"] == mad
        assert got.loc[ty, "n_outliers"] == int((np.abs(v - med) > 3 * mad).sum())


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_token_budget_matches_prefix_walk(ray_session, seed):
    """token_budget_sample == the literal per-language prefix walk
    under (n_chars DESC, doc_id ASC), including ties on n_chars."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.corpus import token_budget_sample

    rng = np.random.RandomState(seed)
    n = 120
    words = ["w"] * 1  # one-char words: n_tokens controls n_chars ties
    texts = [
        " ".join(["w"] * rng.randint(1, 8)) + ("!" * rng.randint(0, 3))
        for _ in range(n)
    ]
    langs = rng.choice(["en", "fr"], n)
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(1, n + 1), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "source": pa.array(["web"] * n, pa.string()),
            "n_chars": pa.array([len(s) for s in texts], pa.int64()),
        }
    )
    budget = int(rng.randint(1, 60))
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        df = token_budget_sample(d, budget=budget).to_pandas()
        got = sorted(df["doc_id"].tolist()) if len(df) else []
    want = []
    ncs = np.array([len(s) for s in texts])
    toks = np.array([len(s.split()) for s in texts])
    for lang in ("en", "fr"):
        idx = np.flatnonzero(langs == lang)
        order = idx[np.lexsort((idx, -ncs[idx]))]
        cum = 0
        for i in order:
            cum += int(toks[i])
            if cum <= budget:
                want.append(int(i + 1))
    assert got == sorted(want)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_copurchase_matches_bruteforce(ray_session, seed):
    """part_copurchase == the O(n²) per-order line-pair count on random
    baskets with duplicate parts, for both the driver-merged and the
    forced-distributed pair reduce."""
    import itertools
    import os
    import tempfile

    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.decision3 import part_copurchase

    rng = np.random.default_rng(seed)
    n = 120
    okeys = rng.integers(1, 25, n)
    pkeys = rng.integers(100, 112, n)
    li = pa.table(
        {
            "l_orderkey": pa.array(okeys, pa.int64()),
            "l_partkey": pa.array(pkeys, pa.int64()),
        }
    )
    pairs: dict[tuple, int] = {}
    for o in np.unique(okeys):
        parts = sorted(pkeys[okeys == o].tolist())
        for a, b in itertools.combinations(parts, 2):
            if a != b:
                pairs[(a, b)] = pairs.get((a, b), 0) + 1
    want = sorted(
        (p1, p2, c) for (p1, p2), c in pairs.items() if c >= 2
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(li, os.path.join(d, "lineitem.parquet"))
        for kw in ({}, {"max_pair_rows": 1}):  # force distributed fallback
            got = part_copurchase(d, num_partitions=3, **kw).take_all()
            assert [(r["p1"], r["p2"], r["n"]) for r in got] == want, kw


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_islands_match_bruteforce(ray_session, seed):
    """user_type_islands == a per-user sequential run scan on random
    streams with repeated ts values."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.analytics import user_type_islands

    rng = np.random.default_rng(seed)
    n = 200
    uid = rng.integers(1, 9, n)
    ts = rng.integers(0, 40, n) * 1_000_000
    types = np.array(["A", "B", "C"])[rng.integers(0, 3, n)]
    ev = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(uid, pa.int64()),
            "event_type": pa.array(types, pa.string()),
            "value": pa.array(np.zeros(n), pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    expected = []
    for u in np.unique(uid):
        sel = np.flatnonzero(uid == u)
        order = np.lexsort((sel, ts[sel]))  # ts, then event_id(=sel)
        seq = [(types[sel[i]], int(ts[sel[i]])) for i in order]
        runs = []
        for t, s in seq:
            if runs and runs[-1][0] == t:
                runs[-1][2] += 1
            else:
                runs.append([t, s, 1])
        for t, s, ln in runs:
            expected.append((int(u), t, s, ln))
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(ev, os.path.join(d, "events.parquet"))
        got = user_type_islands(d, num_partitions=3).take_all()
    got_t = [
        (
            r["user_id"],
            r["event_type"],
            int(r["run_start"].timestamp() * 1_000_000)
            if hasattr(r["run_start"], "timestamp")
            else int(r["run_start"]),
            r["run_len"],
        )
        for r in got
    ]
    assert sorted(got_t) == sorted(expected)


# ---------------------------------------------------------------------------
# r5 surfaces: FFD packing invariants, fastText format round-trip,
# arrowmat round-trip under random shapes
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_pack_ffd_invariants_random(seed):
    """FFD on random token-count multisets: every bin ≤ capacity
    (except single oversized docs), bin ids dense from 0, and never
    more bins than the next-fit lower bound ceil(total/capacity)
    would... (FFD ≤ 11/9·OPT + 1 ≤ 2·ceil(total/cap) + 1 is loose;
    assert the tight invariants plus determinism)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    sizes = rng.integers(1, 1500, n)  # some exceed capacity 1024
    cap = 1024
    # reference python FFD identical to the engine's per-shard loop
    order = np.lexsort((np.arange(n), -sizes))
    fills, bins = [], {}
    for r in order:
        s = int(sizes[r])
        placed = -1
        if s <= cap:
            for bi, rem in enumerate(fills):
                if s <= rem:
                    placed = bi
                    break
        if placed < 0:
            fills.append(cap - s)
            placed = len(fills) - 1
        else:
            fills[placed] -= s
        bins[int(r)] = placed
    # invariants on the reference (the engine equals it by pytest
    # elsewhere; here we fuzz the INVARIANTS themselves)
    per_bin: dict[int, int] = {}
    for r, b in bins.items():
        per_bin[b] = per_bin.get(b, 0) + int(sizes[r])
    for b, load in per_bin.items():
        members = [r for r, bb in bins.items() if bb == b]
        if len(members) > 1:
            assert load <= cap
    assert sorted(set(bins.values())) == list(range(len(per_bin)))
    # no two bins could be merged if both ≤ cap/2 full... FFD property:
    # at most one bin is ≤ half full among the non-oversized bins
    small = [
        b for b, load in per_bin.items()
        if load <= cap // 2
        and all(sizes[r] <= cap for r, bb in bins.items() if bb == b)
    ]
    assert len(small) <= 1


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_fasttext_roundtrip_random(tmp_path_factory, seed):
    from rsmetacheck_ray.models import fasttext_io as ft

    rng = np.random.default_rng(seed)
    nw = int(rng.integers(1, 8))
    nl = int(rng.integers(1, 4))
    dim = int(rng.integers(2, 12))
    bucket = int(rng.integers(10, 200))
    minn = int(rng.integers(0, 3))
    maxn = minn + int(rng.integers(0, 3)) if minn else 0
    words = [f"w{i}" for i in range(nw)]
    labels = [f"__label__l{i}" for i in range(nl)]
    inp = rng.standard_normal((nw + bucket, dim)).astype(np.float32)
    out = rng.standard_normal((nl, dim)).astype(np.float32)
    d = tmp_path_factory.mktemp("ftrt")
    path = str(d / "m.bin")
    ft.write_fasttext_model(
        path, words, labels, inp, out, bucket=bucket, minn=minn, maxn=maxn
    )
    m = ft.load_fasttext_model(path)
    assert (m.words, m.labels, m.dim, m.bucket, m.minn, m.maxn) == (
        words, labels, dim, bucket, minn, maxn
    )
    np.testing.assert_array_equal(m.input, inp)
    np.testing.assert_array_equal(m.output, out)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_arrowmat_roundtrip_random(seed):
    from rsmetacheck_ray.functions.arrowmat import (
        list_column_matrix, matrix_list_array,
    )

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50))
    d = int(rng.integers(1, 40))
    m = rng.standard_normal((n, d))
    arr = matrix_list_array(m)
    np.testing.assert_array_equal(list_column_matrix(arr), m)
    # a slice of the serialized array still converts correctly
    if n >= 3:
        lo = int(rng.integers(0, n - 2))
        ln = int(rng.integers(1, n - lo))
        np.testing.assert_array_equal(
            list_column_matrix(arr.slice(lo, ln)), m[lo : lo + ln]
        )
