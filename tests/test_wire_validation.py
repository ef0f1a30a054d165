"""Non-finite numbers stop at the wire boundary, for every op alike.

One NaN used to be permanent: ``insert(value=NaN, 10, 20)`` was
acknowledged and every later ``lookup`` in ``[10, 20)`` of that SUM
shard answered ``nan`` forever; ``lookup(t=NaN)`` answered 0 instead of
an error; a NaN ``deadline_ms`` never shed.  The rule, applied once in
``protocol.number`` / ``instant`` / ``fact``:

* NaN is ``bad_request`` in every numeric field;
* a fact's or row's ``value`` must be finite;
* instants (``t``, ``w``) and ``deadline_ms`` must be finite;
* interval endpoints may still be +-inf (``[end, inf)`` facts, open
  range queries).

A ``key`` on a view without groups is refused the same way: there is
no group to read, so it must not answer the empty one.  So is a key no
group can have (a list, an object) on a grouped view.

Each case also asserts the tree and the catalog are exactly as before.

The ``served`` fixture's two params span every route a request can take
through the connection layer: a lookup is answered on the loop
(``paged``) or in an executor burst (``queued``), and everything else --
inserts included, on every backend -- goes through dispatch.
"""

import math

import pytest

from repro.faults import FaultInjector
from repro.service import ServerHandle, ServiceClient, ServiceError, protocol

NAN, INF = float("nan"), float("inf")


@pytest.fixture(params=["queued", "paged"])
def served(request, open_shards):
    """A SUM server with one fact and two views, one grouped, over
    journaled page files (what ``repro serve`` serves).  ``paged``
    (clean after each commit) answers lookups on the loop; ``queued``
    (an idle fault injector turns the loop route off) answers them in
    executor bursts."""
    injector = FaultInjector() if request.param == "queued" else None
    sharded = open_shards(num_shards=4, span=(0, 1000), branching=4,
                          leaf_capacity=4, fault_injector=injector)
    with ServerHandle.start(sharded, batch_max=4,
                            view_tick=0) as handle:
        with ServiceClient(handle.host, handle.port, timeout=5.0,
                           retries=0) as svc:
            assert svc.insert(5, 10, 40) == 1
            svc.table_insert("doses", [[2, 0, 10, {"patient": "amy"}]])
            svc.create_view("total", "doses", "sum", lag="downstream")
            svc.create_view("by_patient", "doses", "sum", key="patient")
            yield handle, sharded, svc


def snapshot(handle, sharded, svc):
    catalog = handle.server.views
    return (
        sharded.facts_applied,
        svc.rangeq(-INF, INF),
        svc.lookup(15),
        catalog.table_names(),
        catalog.view_names(),
        len(list(catalog.table("doses"))),
        svc.query_view("total", 5)["value"],
        svc.query_view("by_patient", 5)["value"],
    )


REJECTED = [
    # -- NaN anywhere numeric -----------------------------------------
    ("insert", {"value": NAN, "start": 10, "end": 20}),
    ("insert", {"value": 1, "start": NAN, "end": 20}),
    ("insert", {"value": 1, "start": 10, "end": NAN}),
    ("batch_insert", {"facts": [[1, 0, 5], [NAN, 10, 20], [2, 30, 40]]}),
    ("batch_insert", {"facts": [[1, 0, 5], [2, NAN, 20]]}),
    ("table_insert", {"table": "doses", "rows": [[NAN, 0, 10]]}),
    ("table_insert", {"table": "fresh", "rows": [[1, 0, 10], [1, NAN, 10]]}),
    ("lookup", {"t": NAN}),
    ("rangeq", {"start": NAN, "end": 50}),
    ("rangeq", {"start": 0, "end": NAN}),
    ("window", {"t": NAN, "w": 5}),
    ("window", {"t": 30, "w": NAN}),
    ("query_view", {"view": "total", "t": NAN, "key": None}),
    ("query_view", {"views": ["total"], "t": NAN}),
    # -- values must be finite ----------------------------------------
    ("insert", {"value": INF, "start": 10, "end": 20}),
    ("insert", {"value": -INF, "start": 10, "end": 20}),
    ("batch_insert", {"facts": [[1, 0, 5], [INF, 10, 20]]}),
    ("table_insert", {"table": "doses", "rows": [[-INF, 0, 10]]}),
    # -- instants and budgets must be finite --------------------------
    ("lookup", {"t": INF}),
    ("lookup", {"t": -INF}),
    ("window", {"t": INF, "w": 5}),
    ("window", {"t": 30, "w": INF}),
    ("query_view", {"view": "total", "t": INF, "key": None}),
    ("lookup", {"t": 15, "deadline_ms": NAN}),
    ("insert", {"value": 1, "start": 10, "end": 20, "deadline_ms": NAN}),
    ("lookup", {"t": 15, "deadline_ms": INF}),
    ("rangeq", {"start": 0, "end": 50, "deadline_ms": NAN}),
    # -- a lag that would never fall due ------------------------------
    ("create_view", {"name": "stale", "over": "doses", "agg": "sum", "lag": "nan"}),
    # -- a key on a view without groups --------------------------------
    ("query_view", {"view": "total", "t": 5, "key": "amy"}),
    # -- a key no group can have -----------------------------------------
    ("query_view", {"view": "by_patient", "t": 5, "key": [1]}),
    ("query_view", {"view": "by_patient", "t": 5, "key": {"x": 1}}),
    # -- a payload key that names an insert parameter: no row applies --
    ("table_insert", {"table": "doses",
                      "rows": [[1, 0, 10], [1, 0, 10, {"value": 3}]]}),
]


def case_id(case):
    op, fields = case
    return f"{op}-{fields}".replace(" ", "")


@pytest.mark.parametrize("case", REJECTED, ids=case_id)
def test_non_finite_input_is_bad_request_and_changes_nothing(served, case):
    handle, sharded, svc = served
    op, fields = case
    before = snapshot(handle, sharded, svc)
    with pytest.raises(ServiceError) as info:
        svc.submit(op, **fields).result()
    assert info.value.type == protocol.ERR_BAD_REQUEST
    after = snapshot(handle, sharded, svc)
    assert after == before
    assert not math.isnan(after[2])
    assert "fresh" not in after[3]  # a half-validated batch made no table


def test_infinite_interval_endpoints_are_still_facts(served):
    handle, sharded, svc = served
    assert svc.insert(1, 500, INF) == 1          # the [end, inf) erratum
    assert svc.insert(2, -INF, 5) == 1
    assert svc.lookup(900) == 1 and svc.lookup(0) == 2
    rows = svc.rangeq(-INF, INF)
    assert rows[0][1].start == -INF and rows[-1][1].end == INF
    svc.table_insert("doses", [[4, 5, INF]])
    assert svc.query_view("total", 10 ** 9)["value"] == 4


def test_the_validators_themselves():
    for bad in (NAN, "7", None, True, [1]):
        with pytest.raises(protocol.ProtocolError):
            protocol.number(bad, "x")
    assert protocol.number(-INF, "x") == -INF and protocol.number(3, "x") == 3
    for bad in (NAN, INF, -INF, "7", False):
        with pytest.raises(protocol.ProtocolError):
            protocol.instant(bad, "t")
    assert protocol.instant(2 ** 70, "t") == 2 ** 70
    value, interval = protocol.fact("tag", 0, INF)   # non-numeric values pass
    assert value == "tag" and interval.end == INF
    for triple in ((None, 0, 1), (NAN, 0, 1), (INF, 0, 1), (1, 5, 5), (1, 9, 2)):
        with pytest.raises(protocol.ProtocolError):
            protocol.fact(*triple)
