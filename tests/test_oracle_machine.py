"""One model-based test for every route to a temporal aggregate.

:class:`repro.oracle.OracleModel` holds the routes, the facts they must
agree on and every check (its module docstring lists them, the paper's
cost bounds included); here hypothesis draws its steps.  Each test item
runs the model on one kind and backend.  The named examples at the end
are fixed step sequences through the same model.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import Interval
from repro.core import reference
from repro.oracle import (
    BACKENDS,
    CUTS,
    GEOMETRIES,
    KINDS,
    OracleModel,
    durable,
    replayed,
)
from repro.workloads import prescription_facts

#: 1 under the default profile (100 examples), 5 under ``ci``.
SCALE = settings.default.max_examples / 100

times = st.integers(0, 200) | st.sampled_from(CUTS)


def _fact(value, a, b):
    return value, Interval(min(a, b), max(a, b) + (a == b))


facts = st.builds(_fact, st.integers(-9, 9), times, times)
power_loss = st.sampled_from([None, "all", "newest"]) | st.integers(0, 99)


class OracleMachine(OracleModel, RuleBasedStateMachine):
    """The model's rules and invariant, hypothesis drawing the arguments."""

    #: What :meth:`start` draws the kind and the backend from.
    kinds, backends = KINDS, BACKENDS

    @initialize(
        data=st.data(),
        geometry=st.sampled_from(GEOMETRIES),
        frames=st.sampled_from([1, 2, 3]),
        w=st.integers(0, 40),
    )
    def start(self, data, geometry, frames, w):
        kind = data.draw(st.sampled_from(self.kinds), label="kind")
        backend = data.draw(st.sampled_from(self.backends), label="backend")
        self.setup(kind, geometry, backend, frames, w)

    insert = rule(fact=facts)(OracleModel.insert)
    insert_batch = rule(batch=st.lists(facts, min_size=1, max_size=6))(
        OracleModel.insert_batch
    )
    delete = precondition(lambda self: self.live)(
        rule(i=st.integers(0, 10**6))(OracleModel.delete)
    )
    compact = rule(bulk=st.booleans())(OracleModel.compact)
    commit = precondition(durable)(rule()(OracleModel.commit))
    reopen = precondition(durable)(rule()(OracleModel.reopen))
    crash = precondition(durable)(rule(mode=power_loss)(OracleModel.crash))
    query = rule(t=times, w=st.integers(0, 60), lo=times, span=st.integers(1, 200))(
        OracleModel.query
    )
    answers_match_the_oracle = invariant()(OracleModel.answers_match_the_oracle)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", KINDS)
def test_oracle_machine(kind, backend):
    """The machine, once per kind and backend, so that every pair runs."""
    machine = type(
        "OracleMachine", (OracleMachine,), {"kinds": [kind], "backends": [backend]}
    )
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=max(1, int(10 * SCALE)), stateful_step_count=25, deadline=None
        ),
    )


# ----------------------------------------------------------------------
# Named examples: fixed step sequences through the same machine
# ----------------------------------------------------------------------
def test_figure20_counterexample():
    """Figure 20: R1 = {<1,[10,20)>, <1,[20,30)>} and R2 = {<1,[10,30)>}
    have equal instantaneous SUMs but different cumulative SUMs at
    w = 10, so no single instantaneous index answers cumulative SUM."""
    r1 = [(1, Interval(10, 20)), (1, Interval(20, 30))]
    r2 = [(1, Interval(10, 30))]
    with replayed([("insert_batch", r1)]) as one:
        with replayed([("insert_batch", r2)]) as two:
            assert one.tree.to_table() == two.tree.to_table()
            assert one.windowed.current.to_table() == two.windowed.current.to_table()
            # The T' trees tell them apart.
            assert one.windowed.window_table(10) != two.windowed.window_table(10)
            assert one.windowed.window_lookup(25, 10) == 2  # both overlap [15, 25]
            assert two.windowed.window_lookup(25, 10) == 1


#: Figure 1's prescriptions, one insert step each.
PRESCRIBED = [("insert", fact) for fact in prescription_facts()]


def _finalized(table, spec):
    return [(value, (i.start, i.end)) for value, i in table.finalized(spec).coalesce()]


@pytest.mark.parametrize("backend", BACKENDS)
def test_figure4_avg_erratum(backend):
    """Figure 4 as printed disagrees with the paper's own prose ("the
    value of AvgDosage at time 32 is 4/3 = 1.33") and with arithmetic
    over Figure 1: AvgDosage is 4/3 over [30, 35), and every route says
    so (DESIGN.md, errata)."""
    with replayed(PRESCRIBED + [("query", 32, 0, 0, 60)], kind="avg", backend=backend) as m:
        assert m.tree.lookup(32) == (4, 3)
        assert _finalized(m.tree.to_table(), m.tree.spec) == [
            (2.00, (5, 20)),
            (1.75, (20, 30)),
            (pytest.approx(4 / 3), (30, 35)),
            (2.00, (35, 40)),
            (2.50, (40, 45)),
            (1.00, (45, 50)),
        ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_figure5_row4_erratum(backend):
    """Figure 5's fourth row, as extracted, reads "2.50 [40, 50)" and
    overlaps its neighbours; Figure 18's leaf boundaries 45 and 50 fix
    it as 2.00 over [35, 45) and 2.50 over [45, 50), which is what
    AvgDosage5 (window offset 5) is on the fixed-window and dual trees."""
    steps = PRESCRIBED + [("query", 32, 5, 0, 60)]
    with replayed(steps, kind="avg", backend=backend, w=5) as m:
        figure5 = [
            (2.00, (5, 20)),
            (1.75, (20, 35)),
            (2.00, (35, 45)),
            (2.50, (45, 50)),
            (1.00, (50, 55)),
        ]
        assert _finalized(m.fixed.to_table(), m.fixed.spec) == figure5
        assert _finalized(m.windowed.window_table(5), m.windowed.spec) == figure5
        assert m.fixed.lookup(32) == m.windowed.window_lookup(32, 5) == (7, 4)


@pytest.mark.parametrize("kind", KINDS)
def test_a_fact_ending_at_t_minus_w_is_out_of_the_window(kind):
    """The ``[end, inf)`` erratum: <2, [45, 55)> meets the window
    ``[54, 59]`` of t = 59, w = 5, but not ``[55, 60]``.  The fact crosses
    a cut, so a sharded MIN/MAX window reads two shards."""
    steps = [("insert", (2, Interval(45, 55)))]
    with replayed(steps, kind=kind, backend="sharded", w=5) as m:
        empty = reference.cumulative_value([], kind, 60, 5)
        assert m.windowed.window_lookup(59, 5) != empty
        assert m.windowed.window_lookup(60, 5) == empty
        assert m.fixed.lookup(59) != empty
        assert m.fixed.lookup(60) == empty


@pytest.mark.parametrize("kind", KINDS)
def test_facts_on_shard_cuts(kind):
    """Facts that start, end, span and join exactly at the cuts 50, 100
    and 150: the invariant looks up either side of every cut."""
    on_cuts = [
        (3, Interval(50, 80)),
        (4, Interval(20, 50)),
        (5, Interval(40, 110)),
        (6, Interval(50, 100)),
        (7, Interval(149, 150)),
        (8, Interval(150, 151)),
    ]
    steps = [("insert", fact) for fact in on_cuts[:3]]
    steps += [("insert_batch", on_cuts[3:]), ("delete", 2), ("commit",), ("reopen",)]
    steps += [("insert", (9, Interval(100, 150))), ("crash", "all")]
    with replayed(steps, kind=kind, backend="sharded", geometry=(4, 6)) as m:
        kept = on_cuts if kind in ("min", "max") else on_cuts[:2] + on_cuts[3:]
        assert m.live == kept


@pytest.mark.parametrize("mode", [None, "all", "newest", 7])
@pytest.mark.parametrize("backend", ["paged", "sharded"])
def test_a_crash_keeps_exactly_the_last_commit(backend, mode):
    """A committed fact, an uncommitted one, then a crash: the page files
    reopen to the first alone, whatever the power cut drops."""
    committed = (1, Interval(40, 60))
    steps = [("insert", committed), ("commit",), ("insert", (2, Interval(45, 120)))]
    with replayed(steps + [("crash", mode)], backend=backend) as m:
        assert m.live == [committed]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", KINDS)
def test_insert_all_then_delete_all(kind, backend):
    """Inserting facts and deleting them all again, newest first, leaves
    every tree one empty node (SUM/COUNT/AVG); MIN/MAX refuse each delete
    and keep every answer."""
    base = [_fact(v, (7 * v) % 200, (13 * v + 40) % 200) for v in range(1, 21)]
    steps = [("insert", fact) for fact in base] + [("delete", -1)] * len(base)
    with replayed(steps, kind=kind, backend=backend) as m:
        if kind in ("min", "max"):
            assert m.live == base
            return
        assert m.live == [] and m.tree.to_table().rows == []
        assert [tree.node_count() for tree in m.trees()] == [1] * len(m.trees())
        if backend == "sharded":
            assert m.tree.facts_applied == 0
            assert m.tree.pieces_applied == [0] * 4


@pytest.mark.parametrize("kind", ["min", "max"])
def test_a_wide_window_reads_annotations_not_leaves(kind):
    """Short facts whose extremum improves left to right, so no subtree
    a window covers can be pruned: the MSB-tree's window lookup must
    take each covered subtree's ``u`` and still read at most two nodes
    per level, where a scan would read every leaf in the window."""
    sign = 1 if kind == "max" else -1
    facts = [(sign * v, Interval(3 * v, 3 * v + 2)) for v in range(60)]
    steps = [("insert_batch", facts), ("query", 170, 60, 100, 80)]
    with replayed(steps, kind=kind, w=40) as m:
        assert m.windowed.height >= 3


def test_a_node_is_written_only_if_it_changed():
    """On a page store, a per-fact update hands no page back the bytes
    it holds.  The third insert changes a leaf and not its parent; the
    delete empties the root's second child, and the root, left with one
    child and ``v0``, collapses into it without changing it."""
    steps = [
        ("insert", (1, Interval(2, 3))),
        ("insert", (1, Interval(0, 1))),
        ("insert", (2, Interval(0, 1))),
        ("delete", 0),
    ]
    with replayed(steps, backend="paged", geometry=(4, 4)) as m:
        assert m.tree.height == 1 and m.rewrites == 0
