"""SQL set-operation shapes over the generic join API: FULL OUTER JOIN
(both null sides) and EXCEPT (distinct, one-sided anti join), each on
the broadcast and the co-partitioned plan."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data as rd

from rsmetacheck_ray.pipelines.join import join

# (broadcast_max, num_partitions): the default broadcast probe, and the
# hashed-key co-partition forced by a zero broadcast gate
PLANS = ((None, None), (0, 3))


def _join(left, right, on, how, plan):
    bmax, parts = plan
    kw = {"num_partitions": parts}
    if bmax is not None:
        kw["broadcast_max"] = bmax
    return join(rd.from_arrow(left), rd.from_arrow(right), on=on, how=how, **kw)


def test_full_outer_emits_both_null_sides(ray_session):
    # user 1: events + customer; user 2: events only; customer 3: no events
    activity = pa.table(
        {
            "id": pa.array([1, 2], pa.int64()),
            "n_events": pa.array([2, 1], pa.int64()),
            "value_cents": pa.array([300, 500], pa.int64()),
        }
    )
    cust = pa.table(
        {
            "c_custkey": pa.array([1, 3], pa.int64()),
            "acct_cents": pa.array([750, 925], pa.int64()),
        }
    )
    for plan in PLANS:
        out = (
            _join(activity, cust, ("id", "c_custkey"), "outer", plan)
            .to_pandas()
            .set_index("id")
            .sort_index()
        )
        assert list(out.index) == [1, 2, 3]
        assert out.loc[1, "n_events"] == 2
        assert out.loc[1, "value_cents"] == 300
        assert out.loc[1, "acct_cents"] == 750
        assert out.loc[2, "n_events"] == 1 and pd.isna(out.loc[2, "acct_cents"])
        assert pd.isna(out.loc[3, "n_events"]) and pd.isna(out.loc[3, "value_cents"])
        assert out.loc[3, "acct_cents"] == 925


def _keys(name, keys):
    return pa.table({name: pa.array(keys, pa.int64())})


def test_except_empty_when_all_customers_active(ray_session):
    cust = _keys("c_custkey", [1, 2])
    users = _keys("user_id", [1, 2])
    for plan in PLANS:
        out = _join(cust, users, ("c_custkey", "user_id"), "anti", plan)
        assert out.count() == 0


def test_except_is_distinct_and_one_sided(ray_session):
    # duplicate event rows for user 1; customers 2,3 inactive (3 twice);
    # user 4 has events but no customer row
    cust = _keys("c_custkey", [1, 2, 3, 3])
    users = _keys("user_id", [1, 1, 4])
    distinct = _keys("c_custkey", sorted(set(cust.column(0).to_pylist())))
    for plan in PLANS:
        bag = _join(cust, users, ("c_custkey", "user_id"), "anti", plan)
        # the anti join keeps each unmatched left row once: the right's
        # duplicates never multiply it, event-only users never appear
        assert sorted(bag.to_pandas()["c_custkey"]) == [2, 3, 3]
        out = _join(distinct, users, ("c_custkey", "user_id"), "anti", plan)
        assert list(out.to_pandas().columns) == ["c_custkey"]
        assert sorted(out.to_pandas()["c_custkey"]) == [2, 3]
