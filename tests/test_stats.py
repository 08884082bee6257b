"""Planted-value tests for the statistics batch (pipelines/stats.py):
Spearman's tie handling (doubled average ranks) and sign, the
Cramér–von Mises zero and hand-computed cases, the Lorenz, Simpson and
Shannon extremes and first-seen token novelty — plus partition
invariance where the query exposes ``num_partitions``."""

from __future__ import annotations

import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from rsmetacheck_ray.pipelines import stats as st


def _write(d, name, cols):
    pq.write_table(pa.table(cols), os.path.join(d, f"{name}.parquet"))


def _docs(d, rows):
    """rows: (doc_id, text, source)."""
    did, text, src = zip(*rows)
    _write(d, "documents", {
        "doc_id": pa.array(did, pa.int64()),
        "text": pa.array(text, pa.string()),
        "lang": pa.array(["en"] * len(rows), pa.string()),
        "source": pa.array(src, pa.string()),
        "n_chars": pa.array([len(t) for t in text], pa.int64()),
    })


# ---------------------------------------------------------------------------
# source_spearman
# ---------------------------------------------------------------------------

def test_spearman_signs_and_ties(ray_session, tmp_path):
    d = str(tmp_path)
    # source a: x (marker count) and y (token count) strictly
    # co-monotone -> rho = +1; source b: anti-monotone -> -1;
    # source c: tied cells aligned -> +1 through the average-rank path
    _docs(d, [
        (1, "foo", "a"),                 # x=0 y=1
        (2, "the foo", "a"),             # x=1 y=2
        (3, "the the foo", "a"),         # x=2 y=3
        (4, "the", "b"),                 # x=1 y=1
        (5, "foo bar", "b"),             # x=0 y=2
        (6, "foo", "c"),                 # x=0 y=1
        (7, "bar", "c"),                 # x=0 y=1 (tie with doc 6)
        (8, "the the", "c"),             # x=2 y=2
    ])
    got = {r["source"]: r for r in st.source_spearman(d).take_all()}
    # the num/(sqrt*sqrt) expression can land 1 ulp off exact +/-1
    assert got["a"]["n"] == 3
    assert abs(got["a"]["spearman"] - 1.0) < 1e-12
    assert got["b"]["n"] == 2
    assert abs(got["b"]["spearman"] + 1.0) < 1e-12
    assert got["c"]["n"] == 3
    assert abs(got["c"]["spearman"] - 1.0) < 1e-12


def test_spearman_constant_column_is_zero(ray_session, tmp_path):
    d = str(tmp_path)
    # all x identical -> zero rank variance -> the guarded 0.0 branch
    _docs(d, [(1, "foo", "a"), (2, "bar baz", "a"), (3, "qux qux qux", "a")])
    got = st.source_spearman(d).take_all()
    assert got == [{"source": "a", "n": 3, "spearman": 0.0}]


# ---------------------------------------------------------------------------
# source_cvm_length
# ---------------------------------------------------------------------------

def test_cvm_identical_histograms_zero(ray_session, tmp_path):
    d = str(tmp_path)
    # a and b have the same length histogram {1:1, 3:1} -> cvm 0.0
    _docs(d, [
        (1, "x", "a"), (2, "xyz", "a"),
        (3, "y", "b"), (4, "abc", "b"),
    ])
    got = {(r["source_a"], r["source_b"]): r
           for r in st.source_cvm_length(d).take_all()}
    assert got[("a", "b")]["cvm"] == 0.0
    assert got[("a", "b")]["n_a"] == 2 and got[("a", "b")]["n_b"] == 2


def test_cvm_hand_value(ray_session, tmp_path):
    d = str(tmp_path)
    # a = {len 1}, b = {len 2}: support {1,2}; at v=1 the CDF gap
    # numerator is 1 with combined mass 1, at v=2 it closes ->
    # num = 1, den = 1*1*1*1*2 -> cvm = 0.5 exactly
    _docs(d, [(1, "x", "a"), (2, "xy", "b")])
    got = st.source_cvm_length(d).take_all()
    assert got == [{
        "source_a": "a", "source_b": "b", "n_a": 1, "n_b": 1, "cvm": 0.5,
    }]


# ---------------------------------------------------------------------------
# host_lorenz
# ---------------------------------------------------------------------------

def test_host_lorenz_invariants(ray_session, tmp_path):
    from rsmetacheck_ray.pipelines.queries import q_host_lorenz, q_host_stats

    d = str(tmp_path)
    _docs(d, [(i, f"doc {i} text", "a") for i in range(40)])
    # the pages input augments the raw documents (trigger pages), so
    # derive the expected total from the host-counts aggregate itself
    total = sum(r["n_pages"] for r in q_host_stats(d).take_all())
    t = q_host_lorenz(d)
    dec = t.column("decile").to_pylist()
    hosts = t.column("n_hosts_cum").to_pylist()
    docs_c = t.column("n_docs_cum").to_pylist()
    share = t.column("doc_share").to_pylist()
    assert dec == list(range(1, 11))
    h_tot = hosts[-1]
    # ceil(q*H/10) at each decile; cumulative counts and shares are
    # non-decreasing; the last point is exactly the whole corpus
    assert hosts == [(q * h_tot + 9) // 10 for q in range(1, 11)]
    assert docs_c == sorted(docs_c) and share == sorted(share)
    assert docs_c[-1] == total and share[-1] == 1.0


# ---------------------------------------------------------------------------
# lang_simpson
# ---------------------------------------------------------------------------

def test_simpson_extremes(ray_session, tmp_path):
    d = str(tmp_path)
    # lang a: one type repeated -> lambda = 1.0 (max concentration,
    # effective vocab 1); lang b: all distinct -> lambda = 0.0
    _write(d, "documents", {
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["x x x", "x y"], pa.string()),
        "lang": pa.array(["a", "b"], pa.string()),
        "source": pa.array(["s", "s"], pa.string()),
        "n_chars": pa.array([5, 3], pa.int64()),
    })
    for parts in (1, 2, 3):
        got = {r["lang"]: r
               for r in st.lang_simpson(d, num_partitions=parts).take_all()}
        assert got["a"]["n_tokens"] == 3 and got["a"]["n_types"] == 1
        assert got["a"]["simpson"] == 1.0
        assert got["a"]["effective_types"] == 1.0
        assert got["b"]["simpson"] == 0.0
        assert got["b"]["effective_types"] == 0.0


# ---------------------------------------------------------------------------
# lang_shannon
# ---------------------------------------------------------------------------

def test_shannon_extremes(ray_session, tmp_path):
    d = str(tmp_path)
    # lang a: one type -> H = 0.0 exactly, evenness guarded to 0.0
    # (ln(1) = 0); lang b: two equiprobable types -> H = ln2 in
    # micro-log units, evenness exactly 1.0 (the scale cancels)
    _write(d, "documents", {
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["x x x", "x y"], pa.string()),
        "lang": pa.array(["a", "b"], pa.string()),
        "source": pa.array(["s", "s"], pa.string()),
        "n_chars": pa.array([5, 3], pa.int64()),
    })
    for parts in (1, 2, 3):
        got = {r["lang"]: r
               for r in st.lang_shannon(d, num_partitions=parts).take_all()}
        assert got["a"]["shannon_nats"] == 0.0
        assert got["a"]["evenness"] == 0.0
        assert got["b"]["shannon_nats"] == 693147.0 / 1000000.0
        assert got["b"]["evenness"] == 1.0


# ---------------------------------------------------------------------------
# doc_token_novelty
# ---------------------------------------------------------------------------

def test_token_novelty_first_seen_attribution(ray_session, tmp_path):
    d = str(tmp_path)
    # doc 1 introduces {a, b} -> 1.0; doc 2 has {b, c}, only c new
    # -> 0.5; doc 3 repeats {a, b} -> 0.0; doc 4 is empty -> absent
    _docs(d, [
        (1, "a b", "s"),
        (2, "b c", "s"),
        (3, "a b a", "s"),
        (4, "", "s"),
    ])
    for parts in (1, 2, 3):
        got = {
            r["doc_id"]: r
            for r in st.doc_token_novelty(d, num_partitions=parts).take_all()
        }
        assert set(got) == {1, 2, 3}
        assert got[1]["n_types"] == 2 and got[1]["novelty"] == 1.0
        assert got[2]["n_types"] == 2 and got[2]["n_novel"] == 1
        assert got[2]["novelty"] == 0.5
        assert got[3]["n_types"] == 2 and got[3]["novelty"] == 0.0


def test_host_lorenz_histogram_equals_rank_walk(ray_session, tmp_path):
    """The count-of-counts decile walk (r5: nothing host-sized ever
    reaches the driver) must equal the brute-force per-host rank walk
    — including when ties at one page-count straddle a decile
    boundary, where the host-name tie-break must be cum-irrelevant."""
    from rsmetacheck_ray.pipelines.queries import q_host_lorenz, q_host_stats

    d = str(tmp_path)
    _docs(d, [(i, f"doc {i} text body", "a") for i in range(173)])
    rows = q_host_stats(d).take_all()
    ranked = sorted((int(r["n_pages"]), r["host"]) for r in rows)
    # the planted corpus must actually exercise the tie path
    counts = [n for n, _ in ranked]
    assert len(set(counts)) < len(counts), "fixture has no tied hosts"
    total = sum(counts)
    cum = []
    acc = 0
    for n, _ in ranked:
        acc += n
        cum.append(acc)
    H = len(ranked)
    expect = [
        (q, (q * H + 9) // 10, cum[(q * H + 9) // 10 - 1],
         float(cum[(q * H + 9) // 10 - 1]) / float(total))
        for q in range(1, 11)
    ]
    got = [
        (r["decile"], r["n_hosts_cum"], r["n_docs_cum"], r["doc_share"])
        for r in q_host_lorenz(d).to_pylist()
    ]
    assert got == expect
