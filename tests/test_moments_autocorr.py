"""Planted-boundary tests for the higher-moment shape statistics and
the hourly autocorrelation operator: zero-variance NULL guards, exact
hand-computed skewness on a known distribution, a perfectly periodic
series (lag-24 autocorr == 1.0 exactly), and the span<=lag group-absent
edge. DuckDB parity is pinned separately by the full-oracle sweep."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from rsmetacheck_ray.pipelines.relational import (
    events_hour_moments,
    events_hourly_autocorr,
)


def _write_events(tmp_path, ts_us, types):
    n = len(ts_us)
    t = pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "ts": pa.array(ts_us, pa.timestamp("us")),
            "user_id": pa.array([i % 7 for i in range(n)], pa.int64()),
            "event_type": pa.array(types, pa.string()),
            "value": pa.array([1.0] * n, pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "events.parquet"))
    return str(tmp_path)


_BASE = 1_700_000_000_000_000  # some epoch µs anchor
_H = 3_600_000_000


def _at(hour_index, minute=0):
    return _BASE - (_BASE % _H) + hour_index * _H + minute * 60_000_000


def _rows(res):
    tbl = res if isinstance(res, pa.Table) else pa.Table.from_pandas(res.to_pandas())
    return tbl.to_pylist()


def test_hour_moments_planted(ray_session, tmp_path):
    # type 'flat': all events in hour 5 -> var 0, NULL skew/kurt
    # type 'sym': hours [1,2,2,3] mirrored -> skew exactly 0
    ts = [_at(0, 5)] * 0
    ts += [_at(100) + 5 * _H] * 4                      # flat: hour 5 x4
    types = ["flat"] * 4
    sym_hours = [1, 2, 2, 3]
    ts += [_at(200) + h * _H for h in sym_hours]
    types += ["sym"] * 4
    sf = _write_events(tmp_path, ts, types)
    rows = {r["event_type"]: r for r in _rows(events_hour_moments(sf))}

    flat = rows["flat"]
    assert flat["n"] == 4 and flat["var_hour"] == 0.0
    assert flat["skew_hour"] is None and flat["kurt_hour"] is None

    sym = rows["sym"]
    # hour-of-day of the planted sym rows is [7,8,8,9]: symmetric
    assert sym["mean_hour"] == 8.0
    assert sym["var_hour"] == 0.5
    assert sym["skew_hour"] == 0.0
    # kurtosis of {7,8,8,9}: m4 = 0.5, m2^2 = 0.25 -> 2 - 3 = -1
    assert sym["kurt_hour"] == -1.0


def test_autocorr_periodic_series(ray_session, tmp_path):
    # 'per': count pattern [2,1,1,...] repeating every 24 h for 8 days
    # -> the lag-24 pairs are identical series -> autocorr == 1.0
    ts, types = [], []
    for d in range(8):
        for h in range(24):
            k = 2 if h == 0 else 1
            for i in range(k):
                ts.append(_at(d * 24 + h, minute=i + 1))
                types.append("per")
    sf = _write_events(tmp_path, ts, types)
    rows = {
        (r["event_type"], r["lag_hours"]): r
        for r in _rows(events_hourly_autocorr(sf))
    }
    per24 = rows[("per", 24)]
    assert per24["n_pairs"] == 7 * 24
    assert per24["autocorr"] == 1.0
    assert ("per", 1) in rows  # lag-1 present, < 1.0 on this pattern
    assert rows[("per", 1)]["autocorr"] < 1.0


def test_autocorr_span_shorter_than_lag(ray_session, tmp_path):
    # span of 3 hours -> lag-24 group ABSENT, lag-1 present. The dense
    # range is GLOBAL (min..max over all types, like the SQL oracle's
    # cross-join), so the short-span edge needs a single-type table.
    d = tmp_path / "tiny"
    d.mkdir()
    sf = _write_events(d, [_at(h, 1) for h in range(3)], ["tiny"] * 3)
    rows = {
        (r["event_type"], r["lag_hours"]): r
        for r in _rows(events_hourly_autocorr(sf))
    }
    assert ("tiny", 1) in rows and ("tiny", 24) not in rows
    assert rows[("tiny", 1)]["n_pairs"] == 2


def test_autocorr_flat_single_type(ray_session, tmp_path):
    ts = [_at(h, 3) for h in range(10)]  # one event every hour: flat
    sf = _write_events(tmp_path, ts, ["flat"] * 10)
    rows = _rows(events_hourly_autocorr(sf))
    for r in rows:
        assert r["autocorr"] is None  # zero variance on both windows


def test_user_type_entropy_planted(ray_session, tmp_path):
    import math

    from rsmetacheck_ray.pipelines.analytics import user_type_entropy

    # user 1: single type -> H == 0; user 2: uniform over 4 types ->
    # H == the exact sequential fold of four 0.25*ln(0.25) terms
    ts, types, users = [], [], []
    for i in range(6):
        ts.append(_at(i, 1)); types.append("a"); users.append(1)
    for i, t in enumerate(["a", "b", "c", "d"] * 3):
        ts.append(_at(i, 2)); types.append(t); users.append(2)
    n = len(ts)
    t = pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(users, pa.int64()),
            "event_type": pa.array(types, pa.string()),
            "value": pa.array([1.0] * n, pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    import pyarrow.parquet as pq_

    pq_.write_table(t, os.path.join(str(tmp_path), "events.parquet"))
    outs = []
    for parts in (1, 4):
        res = user_type_entropy(str(tmp_path), num_partitions=parts).to_pandas()
        outs.append(sorted(zip(res["user_id"], res["n_events"], res["type_entropy"])))
    assert outs[0] == outs[1]  # partition invariance
    got = {u: (ne, h) for u, ne, h in outs[0]}
    assert got[1] == (6, 0.0)
    term = 0.25 * math.log(0.25)
    expected = -(term + term + term + term)
    assert got[2] == (12, expected)
    assert abs(expected - math.log(4.0)) < 1e-12


def test_decayed_type_counts_planted(ray_session, tmp_path):
    import math

    from rsmetacheck_ray.pipelines.analytics import (
        DECAY_HALF_LIFE_HOURS,
        decayed_type_counts,
    )

    # type 'now': 4 events in the max hour -> weight 1.0 each;
    # 'old': 2 events exactly one half-life back -> weight 0.5 each
    ts = [_at(100, m) for m in (1, 2, 3, 4)]
    types = ["now"] * 4
    ts += [_at(100 - DECAY_HALF_LIFE_HOURS, m) for m in (1, 2)]
    types += ["old"] * 2
    sf = _write_events(tmp_path, ts, types)
    got = {
        r["event_type"]: r for r in decayed_type_counts(sf).to_pylist()
    }
    assert got["now"]["decayed_count"] == 4.0
    assert got["old"]["decayed_count"] == 2.0 * math.pow(0.5, 1.0)
    assert got["now"]["n_events"] == 4 and got["old"]["n_events"] == 2


def test_events_type_fano_planted(ray_session, tmp_path):
    from rsmetacheck_ray.pipelines.relational import events_type_fano

    # 'flat': 1 event/hour for 4 hours -> var 0 -> fano 0
    # 'burst': 4 events in hour 0 of the same 4-hour span -> fano 3
    ts = [_at(h, 1) for h in range(4)]
    types = ["flat"] * 4
    ts += [_at(0, m + 2) for m in range(4)]
    types += ["burst"] * 4
    sf = _write_events(tmp_path, ts, types)
    got = {r["event_type"]: r for r in events_type_fano(sf).to_pylist()}
    assert got["flat"]["n_hours"] == 4
    assert got["flat"]["fano"] == 0.0
    assert got["burst"]["mean_cph"] == 1.0
    assert got["burst"]["fano"] == 3.0


def test_session_duration_quantiles_planted(ray_session, tmp_path):
    from rsmetacheck_ray.pipelines.relational import (
        SESSION_GAP_S,
        session_duration_quantiles,
    )

    # user 1: two sessions — events at [0, 10min] (dur 600s) and,
    # after a >gap break, [0, 20min] (dur 1200s). user 2: a single
    # event -> dur 0. n <= k so the sample is complete -> exact
    # nearest-rank quantiles over {0, 600e6, 1200e6}.
    m = 60_000_000
    base2 = _at(0) + (SESSION_GAP_S + 3600) * 2_000_000
    ts = [_at(0), _at(0) + 10 * m, base2, base2 + 20 * m]
    users = [1, 1, 1, 1]
    ts.append(_at(500))
    users.append(2)
    n = len(ts)
    t = pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(users, pa.int64()),
            "event_type": pa.array(["a"] * n, pa.string()),
            "value": pa.array([1.0] * n, pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "events.parquet"))
    outs = []
    for parts in (1, 4):
        res = session_duration_quantiles(str(tmp_path), num_partitions=parts)
        outs.append(list(zip(res.column("pct").to_pylist(), res.column("est").to_pylist())))
    assert outs[0] == outs[1]  # bitwise partition invariance
    got = dict(outs[0])
    durs = sorted([0.0, 600.0e6, 1200.0e6])
    for pct, est in got.items():
        assert est == durs[min(2, (3 * pct) // 100)]


def test_customer_rfm_bins_planted(ray_session, tmp_path):
    from rsmetacheck_ray.pipelines.relational import customer_rfm_bins

    # 10 customers, customer i places i+1 orders of $1 each on day i
    # (day 9 = global max). frequency = i+1, monetary = 100*(i+1),
    # recency_days = 9-i. Complete sample (n<=k) -> exact quintile
    # thresholds at ranks [2,4,6,8] of the sorted 10 values.
    base = 1_500_000_000_000_000
    day = 86_400_000_000
    rows = []
    ok = 0
    for i in range(10):
        for _ in range(i + 1):
            rows.append((ok, i, 1.0, base + i * day)); ok += 1
    t = pa.table(
        {
            "o_orderkey": pa.array([r[0] for r in rows], pa.int64()),
            "o_custkey": pa.array([r[1] for r in rows], pa.int64()),
            "o_orderstatus": pa.array(["F"] * len(rows), pa.string()),
            "o_totalprice": pa.array([r[2] for r in rows], pa.float64()),
            "o_orderdate": pa.array([r[3] for r in rows], pa.timestamp("us")),
            "o_orderpriority": pa.array(["1-URGENT"] * len(rows), pa.string()),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "orders.parquet"))
    outs = []
    for parts in (1, 4):
        res = customer_rfm_bins(str(tmp_path), num_partitions=parts).to_pandas()
        outs.append(res.sort_values("o_custkey", ignore_index=True))
    assert outs[0].equals(outs[1])  # partition invariance
    got = outs[0].set_index("o_custkey")
    for i in range(10):
        assert got.loc[i, "frequency"] == i + 1
        assert got.loc[i, "monetary_cents"] == 100 * (i + 1)
        assert got.loc[i, "recency_days"] == 9 - i
    # frequency thresholds: sorted freqs [1..10], ranks [2,4,6,8] ->
    # [3,5,7,9]; bin = 1 + count(thr <= f)
    import numpy as np

    thr = np.array([3, 5, 7, 9])
    for i in range(10):
        assert got.loc[i, "f_bin"] == 1 + int((thr <= i + 1).sum())
        assert got.loc[i, "m_bin"] == got.loc[i, "f_bin"]  # same ordering
    # recency is reversed: most recent (i=9, rec 0) in bin 1
    assert got.loc[9, "r_bin"] == 1 and got.loc[0, "r_bin"] == 5


def test_new_operators_empty_inputs(ray_session, tmp_path):
    """Every late-round operator returns an empty, correctly-typed
    result on empty tables instead of crashing — the resume/first-run
    edge of a partitioned 100 TB lake (some partitions ARE empty)."""
    import pyarrow.parquet as pq_

    from rsmetacheck_ray.pipelines.corpus import lang_keyness
    from rsmetacheck_ray.pipelines.relational import customer_rfm_bins

    pq_.write_table(
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
                "lang": pa.array([], pa.string()),
                "source": pa.array([], pa.string()),
                "n_chars": pa.array([], pa.int64()),
            }
        ),
        os.path.join(str(tmp_path), "documents.parquet"),
    )
    pq_.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([], pa.int64()),
                "o_custkey": pa.array([], pa.int64()),
                "o_orderstatus": pa.array([], pa.string()),
                "o_totalprice": pa.array([], pa.float64()),
                "o_orderdate": pa.array([], pa.timestamp("us")),
                "o_orderpriority": pa.array([], pa.string()),
            }
        ),
        os.path.join(str(tmp_path), "orders.parquet"),
    )
    rfm = customer_rfm_bins(str(tmp_path))
    assert rfm.count() == 0
    assert set(rfm.schema().names) == {
        "o_custkey", "recency_days", "frequency", "monetary_cents",
        "r_bin", "f_bin", "m_bin",
    }
    lk = lang_keyness(str(tmp_path))
    assert lk.count() == 0
    assert set(lk.schema().names) == {"lang", "token", "n", "chi2"}


def test_events_changepoint_planted(ray_session, tmp_path):
    from rsmetacheck_ray.pipelines.relational import events_changepoint

    # step series: 1 event/hour for 10 h, then 5/hour for 10 h ->
    # split exactly at the step, means 1.0 and 5.0
    ts, types = [], []
    for h in range(10):
        ts.append(_at(h, 1)); types.append("step")
    for h in range(10, 20):
        for m in range(5):
            ts.append(_at(h, m + 1)); types.append("step")
    sf = _write_events(tmp_path, ts, types)
    rows = {r["event_type"]: r for r in events_changepoint(sf).to_pylist()}
    st = rows["step"]
    assert st["n_left"] == 10 and st["n_right"] == 10
    assert st["mean_left"] == 1.0 and st["mean_right"] == 5.0
    assert st["shift"] == 4.0


def test_events_runs_test_planted(ray_session, tmp_path):
    from rsmetacheck_ray.pipelines.relational import events_runs_test

    # alternating 0/2 around mean 1: every hour flips sign -> runs =
    # span; and a flat series never exceeds its mean -> 1 run
    ts, types = [], []
    for h in range(0, 20, 2):  # hours 0,2,..,18 get 2 events; odd get 0
        ts.append(_at(h, 1)); types.append("alt")
        ts.append(_at(h, 2)); types.append("alt")
    for h in range(20):
        ts.append(_at(h, 3)); types.append("flat")
    sf = _write_events(tmp_path, ts, types)
    rows = {r["event_type"]: r for r in events_runs_test(sf).to_pylist()}
    alt = rows["alt"]
    # dense span = 20 (global range); even hours above mean (2 > 1)
    assert alt["span"] == 20
    assert alt["n_above"] == 10 and alt["n_below"] == 10
    assert alt["runs"] == 20
    fl = rows["flat"]
    assert fl["n_above"] == 0 and fl["runs"] == 1


def test_events_cusum_planted(ray_session, tmp_path):
    from rsmetacheck_ray.pipelines.relational import events_cusum

    # 10 h at 1/hour then 10 h at 5/hour: total=60, span=20, mean=3.
    # x = 20*n - 60: -40 for the low half, +40 for the high half.
    # S peaks at the last hour: 10 * 40 = 400 (clamp absorbs the
    # low half exactly: running min = -400 at h=9).
    ts, types = [], []
    for h in range(10):
        ts.append(_at(h, 1)); types.append("step")
    for h in range(10, 20):
        for m in range(5):
            ts.append(_at(h, m + 1)); types.append("step")
    sf = _write_events(tmp_path, ts, types)
    rows = {r["event_type"]: r for r in events_cusum(sf).to_pylist()}
    st = rows["step"]
    assert st["span"] == 20 and st["total"] == 60
    assert st["max_cusum"] == 400
    assert st["peak_hour"] == _at(19, 0) // 3_600_000_000
