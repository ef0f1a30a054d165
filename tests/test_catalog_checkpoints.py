"""The bytes of a catalog's checkpoints, pinned.

``DynamicCatalog.save`` keeps what it wrote last -- each row's JSON text,
each group tree's segments -- and re-encodes only what changed since.
Its file must not show it: one fixed, seeded history is driven through a
catalog and the sha256 of all the checkpoints it saves, concatenated, is
pinned to what a save that encoded everything, every time, wrote.  The
history has a grouped SUM under an AVG and a ``lag="1h"`` COUNT, a SUM
over the AVG's float rows, deletions, small trees that split and merge, a
MIN view whose batch fails half-way (one group written, one not) and is
quarantined, ``drop_view``, a view created over a compacted source, a
reopen, and a leaf view that gains a consumer and loses it again.
``tests/test_view_refresh_differential.py`` checks that every checkpoint
restores to the live catalog.  The pin is the hash of a run whose every
save first cleared the caches (each node's ``saved.rows``, each view's
``saved.segments``, every group marked dirty over the whole line).

A checkpoint in the older form, with rows for every view, still loads:
``data/dynamic_rows_for_every_view.json`` holds rows for its two leaf
views, and the load drops them
(``test_an_older_checkpoint_drops_rows_nothing_consumes``).
"""

import hashlib
import itertools
import json
import os
import random
import shutil

from repro.core import reference
from repro.storage import fsck_dynamic
from repro.warehouse.dynamic import DynamicCatalog

KEYS = ["a", "b", "c", "d"]

#: sha256 of the concatenated checkpoints of :func:`history`.
PINNED = "d1e020bd8782b7fc9d3e55ca88fc2b87eea76cf47f4b992bc9e3ccd35f19755f"


class History:
    """The catalog, its clock (a minute per reading) and its live rows."""

    def __init__(self, directory):
        self.directory = str(directory)
        self.rng = random.Random(37)
        self.ticks = itertools.count()
        self.live = []
        self.saved = []
        self.cat = self.open()

    def open(self):
        return DynamicCatalog(
            self.directory, clock=lambda: next(self.ticks) * 60.0,
            branching=4, leaf_capacity=4,
        )

    def keep(self):
        with open(os.path.join(self.directory, "dynamic.json"), "rb") as handle:
            self.saved.append(handle.read())

    def save(self):
        self.cat.save()
        self.keep()

    def reopen(self):
        self.cat.close()
        self.keep()
        self.cat = self.open()

    def round(self, n, facts=40):
        """*facts* near-ordered inserts into ``t`` around ``50 * n``, a
        quarter of them followed by a delete of some live row."""
        rng = self.rng
        for _ in range(facts):
            start = 50 * n + rng.randrange(-30, 30)
            row = self.cat.insert(
                "t", rng.randrange(-3, 10), (start, start + rng.randrange(1, 90)),
                k=rng.choice(KEYS),
            )
            self.live.append(row.tuple_id)
            if rng.random() < 0.25:
                self.cat.delete("t", self.live.pop(rng.randrange(len(self.live))))
        if n % 2:
            self.cat.tick()
        else:
            self.cat.refresh()


def history(directory):
    """Drive the fixed history; return the bytes of every checkpoint."""
    h = History(directory)
    cat = h.cat
    cat.create_table("t")
    cat.create_view("by_key", "t", "sum", key="k")
    cat.create_view("mean", "by_key", "avg")
    cat.create_view("width", "by_key", "count", lag="1h")
    cat.create_view("spread", "mean", "sum", lag="0s")
    for n in range(4):
        h.round(n)
        h.save()
    # MIN: a batch whose second group cannot compare with what its tree
    # holds fails after the first group's tree took its records.
    cat.create_table("m")
    cat.create_view("low", "m", "min", key="k", lag="0s")
    for key in ("a", "b"):
        cat.insert("m", 5, (0, 100), k=key)
    cat.refresh("low")
    h.save()
    cat.insert("m", 1, (10, 20), k="a")
    cat.insert("m", "x", (30, 40), k="b")
    cat.tick()
    assert cat.quarantined_names() == ["low"]
    h.save()
    h.round(4)
    cat.drop_view("width")
    h.save()
    # ``t``'s log is compacted: the new view starts from its live rows.
    assert cat.stats()["tables"]["t"]["log_base"] > 0
    cat.create_view("late", "t", "sum", key="k")
    h.save()
    h.round(5)
    h.reopen()
    for n in range(6, 10):
        if n == 7:  # a first consumer: ``spread`` materializes its rows
            h.cat.create_view("over_spread", "spread", "sum")
        if n == 9:  # and the last one goes: ``spread`` forgets them
            h.cat.drop_view("over_spread")
        h.round(n)
        h.save()
    h.cat.close()
    h.keep()
    return h.saved


def test_checkpoints_are_the_pinned_bytes(tmp_path):
    saved = history(tmp_path)
    assert len(saved) == 14
    assert hashlib.sha256(b"".join(saved)).hexdigest() == PINNED



#: Saved when every view kept rows: ``t`` -> ``by_k`` (SUM by ``k``) ->
#: ``total`` (SUM), and ``width`` (COUNT over ``t``), with deletions and
#: three records of ``t`` no view has consumed yet.
OLDER = os.path.join(os.path.dirname(__file__), "data", "dynamic_rows_for_every_view.json")


def test_an_older_checkpoint_drops_rows_nothing_consumes(tmp_path):
    with open(OLDER) as handle:
        old = json.load(handle)["views"]
    assert all(old[name]["rows"] for name in ("by_k", "total", "width"))
    assert fsck_dynamic(OLDER).errors() == []
    shutil.copy(OLDER, tmp_path / "dynamic.json")
    cat = DynamicCatalog(str(tmp_path), branching=4, leaf_capacity=4)
    views = cat.stats()["views"]
    assert [views[name]["rows"] for name in ("by_k", "total", "width")] == [
        len(old["by_k"]["rows"]), 0, 0]
    assert cat.view("total").saved.rows == cat.view("width").saved.rows == {}
    assert all(index == ([], []) for index in cat.view("total")._index.values())
    # Consumers over the leaves answer like the oracle over ``t``.
    cat.create_view("over_total", "total", "sum")
    cat.create_view("over_width", "width", "sum")
    cat.insert("t", 3, (40, 140), k="a")
    cat.refresh()
    facts = [(row.value, row.valid) for row in cat.table("t")]
    for t in sorted({t for _, iv in facts for t in (iv.start, iv.end - 0.5)}):
        for name, kind in (("over_total", "sum"), ("over_width", "count")):
            want = reference.instantaneous_value(facts, kind, t)
            assert cat.read(name, t).value == (want or 0), (name, t)
    # The new form: rows for the consumed views only; fsck takes it too.
    cat.close()
    with open(tmp_path / "dynamic.json") as handle:
        saved = json.load(handle)["views"]
    assert {name for name, view in saved.items() if view["rows"]} == {
        "by_k", "total", "width"}
    assert fsck_dynamic(str(tmp_path / "dynamic.json")).errors() == []
    cat = DynamicCatalog(str(tmp_path), branching=4, leaf_capacity=4)
    cat.drop_view("over_width")
    assert cat.stats()["views"]["width"]["rows"] == 0
    assert cat.view("width").saved.rows == {}
