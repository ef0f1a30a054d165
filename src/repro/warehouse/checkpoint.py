"""The catalog checkpoint ``<directory>/dynamic.json``: its one writer
and its one reader.

The file holds every node's change log (the tail its slowest consumer
has not read) and rows, each view's definition, watermarks and counters,
and per group the view's *tree checkpoints*: the coalesced step function
of each SB-tree, ``v0`` runs dropped (of a dual pair, ``"trees"`` holds
``T`` and ``"ended"`` ``T'``).  :func:`save` re-encodes only what changed
since the last save (:class:`SavedTexts`), writes the bytes ``json.dumps``
of the whole catalog would, atomically, and keeps the last file as
``dynamic.json.prev``.  Reading is parse, one audit (:func:`_audit`),
build: :func:`load` refuses exactly a checkpoint with an error finding,
and :func:`audit` (``repro fsck dynamic.json``) reports the same
findings.  Only an audited checkpoint is built, so an exception the
build raises is a fault of the code, not of the file.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from .. import obs
from ..core.intervals import NEG_INF, POS_INF, Interval, Time
from ..core.sbtree import SBTree
from ..core.values import AggregateKind, AggregateSpec, spec_for
from ..relation.table import TemporalRelation
from ..storage.fsck import FsckReport
from . import dynamic

__all__ = [
    "CATALOG_CRASH_POINTS", "CATALOG_WRITE_LABEL", "CHECKPOINT_NAME",
    "CatalogCheckpointError", "SavedTexts", "audit", "load", "save",
]

#: Name of the catalog's checkpoint file inside its directory.
CHECKPOINT_NAME = "dynamic.json"

#: The one format version written and read.
VERSION = 2

#: Labeled crash points :func:`save` consults (via ``faults=``), in the
#: order it reaches them.  Torn temp writes and fsync failures are armed
#: separately through the injector's ``tear_write``/``fail_fsyncs`` on
#: the :data:`CATALOG_WRITE_LABEL` write label.
CATALOG_CRASH_POINTS = (
    "view_ckpt:serialized",
    "view_ckpt:before_rename",
    "view_ckpt:after_rename",
)

#: Write/fsync label the checkpoint temp-file I/O is intercepted under.
CATALOG_WRITE_LABEL = "view_ckpt"

#: The whole time line, as a dirty span.
_WHOLE = (NEG_INF, POS_INF)


class CatalogCheckpointError(RuntimeError):
    """A catalog checkpoint that cannot be restored (corrupt or absent)."""


def _path(catalog) -> str:
    if catalog.directory is None:
        raise ValueError("this catalog has no directory to persist into")
    return os.path.join(catalog.directory, CHECKPOINT_NAME)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
class SavedTexts:
    """What the last save wrote of one node, kept for the next one: each
    output row's JSON text by tuple id (``rows``), and per tree -- a slot
    ``(part, key)``, part 1 the ``T'`` of a dual pair -- the tree
    checkpoint's segments (their starts, their ends and their JSON
    texts) with the spans of the tree written since.  A tree whose sums
    may be floats is re-walked whole when written (see :meth:`mark`).
    A base table has rows only (*spec* ``None``)."""

    def __init__(self, spec: Optional[AggregateSpec] = None) -> None:
        self.spec = spec
        self.rows: Dict[int, str] = {}
        self.segments: Dict[Tuple[int, Hashable], Tuple[List[Time], List[Time], List[str]]] = {}
        self.dirty: Dict[Tuple[int, Hashable], List[Tuple[Time, Time]]] = {}
        self.inexact: set = set()

    def mark(
        self, slot: Tuple[int, Hashable], spans: List[Tuple[Time, Time]],
        values: Sequence[Any] = (),
    ) -> None:
        """Record, before a write of *values* to the tree of *slot*, the
        spans the write may change: the next save re-walks only those.
        A node merge re-associates the sums it pushes down, which may
        move a float sum by round-off outside those spans, so a
        SUM/COUNT/AVG group that ever took a non-integer is re-walked
        whole.  Spans are merged once they outnumber twice the group's
        segments (plus 64), and the group is re-walked whole if the
        merged ones still outnumber its segments."""
        if self.spec.invertible and slot not in self.inexact and not _integers(values):
            self.inexact.add(slot)
        dirty = self.dirty.setdefault(slot, [])
        if slot in self.inexact or dirty[:1] == [_WHOLE]:
            self.dirty[slot] = [_WHOLE]
            return
        dirty.extend(spans)
        segments = len(self.segments.get(slot, ((),))[0])
        if len(dirty) > 2 * segments + 64:
            merged = dynamic._merge_spans(dirty)
            self.dirty[slot] = merged if len(merged) <= segments else [_WHOLE]

    def segment_texts(self, slot: Tuple[int, Hashable], tree: SBTree) -> List[str]:
        """The checkpoint of *slot*'s tree, as JSON texts of its segments.
        Only the spans written since the last save are walked, each
        widened to the segments it overlaps or abuts (so a run crossing
        its border coalesces as in a whole walk); the walk's segments
        replace those, and the rest reads as when it was last walked."""
        starts, ends, texts = self.segments.setdefault(slot, ([], [], []))
        spans = self.dirty.get(slot)
        if not spans:
            return texts
        windows = []
        for lo, hi in dynamic._merge_spans(spans):
            first = bisect.bisect_left(ends, lo)
            stop = bisect.bisect_right(starts, hi)
            if first < stop:
                lo, hi = min(lo, starts[first]), max(hi, ends[stop - 1])
            windows.append((lo, hi))
        for lo, hi in reversed(dynamic._merge_spans(windows)):
            edges, values = tree.steps((lo, hi))
            segments: List[List[Any]] = []
            for value, start, end in zip(values, edges, edges[1:]):
                dynamic._extend_segments(self.spec, segments, value, start, end)
            first = bisect.bisect_right(ends, lo)
            stop = bisect.bisect_left(starts, hi)
            starts[first:stop] = [start for _, start, _ in segments]
            ends[first:stop] = [end for _, _, end in segments]
            texts[first:stop] = list(map(_dumps, segments))
        del self.dirty[slot]
        return texts

    def seed(self, slot: Tuple[int, Hashable], segments: List[List[Any]]) -> None:
        """Adopt a restored tree's checkpoint as the last save's."""
        self.segments[slot] = (
            [start for _, start, _ in segments],
            [end for _, _, end in segments],
            list(map(_dumps, segments)),
        )
        if self.spec.invertible and not _integers([value for value, _, _ in segments]):
            self.inexact.add(slot)


def _json_encoder():
    """``json.dumps`` with its defaults, minus the per-call set-up: the
    C encoder ``json.dumps`` itself builds, built once (``json.dumps``
    where the C accelerator is missing)."""
    if json.encoder.c_make_encoder is None:  # pragma: no cover - CPython has it
        return json.dumps
    encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", ", ", False, False, True,
    )
    return lambda value: "".join(encode(value, 0))


#: A row's or a segment's JSON text, exactly as ``json.dumps`` writes it.
_dumps = _json_encoder()


def _integers(values: Sequence[Any]) -> bool:
    """Whether all *values* are integers, or AVG pairs of integers: sums
    of these do not depend on the order they are added in."""
    types = set(map(type, values))
    if types <= {tuple, list}:
        types = set(map(type, itertools.chain.from_iterable(values)))
    return types <= {int}


class _Array(list):
    """A JSON array given as the JSON texts of its items."""


def _write_json(value: Any, out: List[str]) -> None:
    """Append ``json.dumps(value)`` to *out*, in pieces, splicing each
    :class:`_Array` in *value*'s dicts together from its items' texts."""
    if isinstance(value, _Array):
        out += ("[", ", ".join(value), "]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (name, item) in enumerate(value.items()):
            # json.dumps writes a key that is not a string as the string
            # of its own JSON text (5 -> "5", None -> "null").
            key = name if isinstance(name, str) else json.dumps(name)
            out += (", " if i else "", json.dumps(key), ": ")
            _write_json(item, out)
        out.append("}")
    else:
        out.append(json.dumps(value))


def _log_json(log) -> Dict[str, Any]:
    records = [[r.seq, r.kind, r.value, r.start, r.end, dict(r.payload), r.at]
               for r in log.records]
    return {"head": log.head, "base": log.base, "records": records}


def _row_texts(node) -> _Array:
    """A node's rows, as the JSON texts of ``[tuple_id, value, start,
    end, payload]``.  A row is encoded the first time a save sees it and
    its text kept in ``node.saved.rows`` for as long as it lives: rows
    are frozen, and a relation never reuses a tuple id."""
    cached = node.saved.rows
    texts: Dict[int, str] = {}
    for row in node.relation:
        text = cached.get(row.tuple_id)
        if text is None:
            text = _dumps([row.tuple_id, row.value, row.valid.start,
                           row.valid.end, row.payload])
        texts[row.tuple_id] = text
    node.saved.rows = texts
    return _Array(texts.values())


def _tree_texts(view, part: int = 0) -> _Array:
    """Every group's tree checkpoint ``[key, segments]``, as JSON texts
    (see :meth:`SavedTexts.segment_texts`); part 1 is ``T'`` of a dual
    pair."""
    saved = view.saved
    return _Array(
        f"[{json.dumps(key)}, "
        f"[{', '.join(saved.segment_texts((part, key), dynamic._trees_of(index)[part]))}]]"
        for key, index in view._trees.items()
    )


def _view_entry(view) -> Dict[str, Any]:
    """A view's checkpoint object.  Only a windowed view has a
    ``"window"``, and only a dual one ``"ended"`` (its ``T'`` trees, in
    the form of ``"trees"``), so a window-0 view's bytes are as they
    were before views had windows."""
    entry: Dict[str, Any] = {
        "sources": view.sources,
        "kind": view.spec.kind.value,
        "key": view.key_field,
    }
    if view.window != 0:
        entry["window"] = "any" if view.window is dynamic.ANY_WINDOW else view.window
    entry.update({
        "lag": dynamic.format_lag(view.lag),
        "watermarks": view.watermarks,
        "refreshes": view.refreshes,
        "events_consumed": view.events_consumed,
        "log": _log_json(view.log),
        "rows": _row_texts(view),
        "trees": _tree_texts(view),
    })
    if view.window is dynamic.ANY_WINDOW and view.spec.invertible:
        entry["ended"] = _tree_texts(view, 1)
    entry["quarantined"] = view.quarantined
    entry["last_error"] = view.last_error
    return entry


def save(catalog) -> str:
    """Checkpoint *catalog* to ``<directory>/dynamic.json``; returns the
    path.  Rows new since the last save are encoded (:func:`_row_texts`),
    trees re-walked over the spans they were written in
    (:meth:`SavedTexts.segment_texts`), the rest is the last save's text.
    The previous checkpoint is kept as ``.prev`` before the rename, so a
    crash at *any* point leaves a restorable checkpoint behind."""
    with catalog._lock:
        path = _path(catalog)
        out: List[str] = []
        _write_json({
            "version": VERSION,
            "order": catalog._order,
            "tables": {
                name: {"log": _log_json(node.log), "rows": _row_texts(node)}
                for name, node in catalog._tables.items()
            },
            "views": {
                name: _view_entry(view) for name, view in catalog._views.items()
            },
        }, out)
        data = "".join(out).encode("utf-8")
        faults = catalog.faults
        if faults is not None:
            faults.crash_point("view_ckpt:serialized")
        tmp = path + ".tmp"
        handle = open(tmp, "wb")
        try:
            torn_exc = None
            out = data
            if faults is not None:
                out, torn_exc = faults.intercept_write(CATALOG_WRITE_LABEL, data)
            handle.write(out)
            handle.flush()
            if torn_exc is not None:
                # Torn-write protocol: the prefix reaches the file, then
                # the simulated crash fires.
                os.fsync(handle.fileno())
                raise torn_exc
            if faults is not None:
                faults.intercept_fsync(CATALOG_WRITE_LABEL)
            os.fsync(handle.fileno())
        finally:
            handle.close()
        if faults is not None:
            faults.crash_point("view_ckpt:before_rename")
        if os.path.exists(path):
            # Retain the last-good checkpoint via a hardlink swap: the
            # main file is never missing, and .prev is complete before
            # the main rename can clobber anything.
            prev_tmp = path + ".prev.tmp"
            try:
                os.remove(prev_tmp)
            except FileNotFoundError:
                pass
            os.link(path, prev_tmp)
            os.replace(prev_tmp, path + ".prev")
        os.replace(tmp, path)
        if faults is not None:
            faults.crash_point("view_ckpt:after_rename")
        _fsync_directory(catalog.directory)
        return path


def _fsync_directory(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass


# ----------------------------------------------------------------------
# Reading: parse, audit, build
# ----------------------------------------------------------------------
def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Findings that are not errors; every other one is.
_SEVERITY = {"unordered-node": "warning", "checkpoint-summary": "info"}


def _read(path: str, report: FsckReport) -> Optional[Dict[str, Any]]:
    """Parse the checkpoint at *path* and audit it into *report*; the
    parsed object, or ``None`` when there is none."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        report.add("error", "unreadable-checkpoint", f"cannot read: {exc}")
        return None
    except ValueError as exc:
        report.add("error", "bad-json", f"not valid JSON: {exc}")
        return None
    if not isinstance(payload, dict):
        report.add("error", "bad-json", "checkpoint is not a JSON object")
        return None
    for code, message in _audit(payload):
        report.add(_SEVERITY.get(code, "error"), code, message)
    return payload


def _audit(payload: Dict[str, Any]) -> Iterator[Tuple[str, str]]:
    """The findings ``(code, message)`` of a parsed checkpoint: the
    schema version, the shape of every field the build reads, the DAG
    (every source exists and precedes its consumers in the restore
    order), each change log dense (sequence numbers ``base + 1 ..
    head``), each watermark inside its source log's ``base .. head``,
    and what a save re-uses of the last one (rows with unique tuple ids
    and non-empty intervals, tree checkpoints in coalesced form)."""
    version = payload.get("version")
    if version != VERSION:
        yield "bad-version", f"unsupported checkpoint version {version!r} (expected {VERSION})"
        return
    tables, views = payload.get("tables", {}), payload.get("views", {})
    order = payload.get("order", [])
    if not (isinstance(tables, dict) and isinstance(views, dict) and isinstance(order, list)):
        yield "bad-structure", "tables/views must be objects and order a list"
        return
    for name in sorted(set(tables) & set(views)):
        yield "duplicate-node", f"{name!r} appears as both a table and a view"
    position: Dict[str, int] = {}
    for index, name in enumerate(order):
        if not isinstance(name, str) or (name not in tables and name not in views):
            yield "dangling-order", f"order names {name!r} but no such table or view exists"
        elif name in position:
            yield "duplicate-node", f"order names {name!r} twice"
        else:
            position[name] = index
    for name in sorted((set(tables) | set(views)) - set(position)):
        yield "unordered-node", f"{name!r} is missing from the restore order: a load drops it"
    logs: Dict[str, Tuple[int, int]] = {}
    for name, raw in itertools.chain(tables.items(), views.items()):
        if not isinstance(raw, dict):
            yield "bad-structure", f"{name!r} is not an object"
            continue
        problem = _log_problem(raw.get("log"))
        if problem is None:
            logs[name] = raw["log"].get("head", 0), raw["log"].get("base", 0)
        else:
            yield problem[0], f"{name}: {problem[1]}"
        problem = _rows_problem(raw.get("rows"), raw.get("key") if name in views else None)
        if problem is not None:
            yield "bad-rows", f"{name}: {problem}"
    for name, raw in views.items():
        if isinstance(raw, dict):
            yield from _view_findings(name, raw, tables, views, position, logs)
    yield "checkpoint-summary", (
        f"version {version}: {len(tables)} tables, {len(views)} views, "
        f"{sum(head - base for head, base in logs.values())} retained change records"
    )


def _span(start: Any, end: Any) -> bool:
    return _number(start) and _number(end) and start < end


def _log_problem(raw: Any) -> Optional[Tuple[str, str]]:
    """What is wrong with a change log, ``(code, message)``, or ``None``:
    it holds exactly the records ``base + 1 .. head``, each well formed."""
    if not isinstance(raw, dict):
        return "bad-log", "change log is not an object"
    head, base, records = raw.get("head", 0), raw.get("base", 0), raw.get("records", [])
    if not (_integer(head) and _integer(base) and isinstance(records, list)) \
            or not 0 <= base <= head:
        return "bad-log", f"log window base={base!r} head={head!r} or its records are malformed"
    if head - base != len(records):
        return "log-density", (f"log retains {len(records)} records but the window "
                               f"base={base}..head={head} holds {head - base} sequence numbers")
    for seq, record in enumerate(records, base + 1):
        if not (isinstance(record, list) and len(record) == 7 and record[1] in ("insert", "delete")
                and _span(record[3], record[4]) and isinstance(record[5], dict)
                and _number(record[6])):
            return "bad-log-record", f"record {seq} is malformed"
        if record[0] != seq or not _integer(record[0]):
            return "log-density", f"record {seq} carries seq {record[0]!r}: sequence numbers must be dense"
    return None


def _rows_problem(rows: Any, key: Any) -> Optional[str]:
    """What is wrong with a node's rows, or ``None``: each well formed,
    unique tuple ids, non-empty intervals, and for a view grouped by
    *key* a group a key can be."""
    if not isinstance(rows, list):
        return "rows is not a list"
    seen: set = set()
    for offset, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 5 and _integer(row[0])
                and _number(row[2]) and _number(row[3]) and isinstance(row[4], dict)):
            return f"row at offset {offset} is malformed"
        tuple_id, _, start, end, payload = row
        if not start < end:
            return f"row #{tuple_id} has the empty interval [{start}, {end})"
        if tuple_id in seen:
            return f"tuple id {tuple_id} appears twice"
        if isinstance(key, str) and isinstance(payload.get(key), (list, dict)):
            return f"row #{tuple_id} has no group key"
        seen.add(tuple_id)
    return None


def _view_findings(
    name: str, raw: Dict[str, Any], tables: Dict[str, Any], views: Dict[str, Any],
    position: Dict[str, int], logs: Dict[str, Tuple[int, int]],
) -> Iterator[Tuple[str, str]]:
    """One view: its definition, its sources and watermarks, and its tree
    checkpoints."""
    where = f"view {name!r}"
    sources, key, watermarks = raw.get("sources"), raw.get("key"), raw.get("watermarks", {})
    try:
        spec = spec_for(raw.get("kind"))
        window = dynamic.parse_window(raw.get("window", 0))
        dynamic.parse_lag(raw["lag"])
    except (KeyError, TypeError, ValueError) as exc:
        yield "bad-view", f"{where}: bad kind, lag or window: {exc!r}"
        return
    if not (isinstance(sources, list) and sources and all(isinstance(src, str) for src in sources)
            and (key is None or isinstance(key, str)) and isinstance(watermarks, dict)
            and all(map(_integer, [*watermarks.values(), raw.get("refreshes", 0),
                                   raw.get("events_consumed", 0)]))):
        yield "bad-view", f"{where}: its sources, key, watermarks or counters are malformed"
        return
    for src in sources:
        if src not in tables and src not in views:
            yield "dangling-source", f"{where} consumes {src!r}, which does not exist"
            continue
        if name in position and (src not in position or position[src] >= position[name]):
            yield "order-violation", f"{where} does not follow its source {src!r} in the restore order"
        watermark = watermarks.get(src, 0)
        head, base = logs.get(src, (watermark, watermark))
        if watermark > head:
            yield "watermark-ahead", (
                f"{where} watermark {watermark} on {src!r} is past the source log head {head}"
            )
        elif watermark < base:
            yield "watermark-compacted", (
                f"{where} watermark {watermark} on {src!r} is behind the compacted "
                f"log base {base}: the unconsumed records are gone"
            )
    yield from _tree_findings(where, spec, raw.get("trees"))
    if window is dynamic.ANY_WINDOW and spec.invertible:
        yield from _tree_findings(where, spec, raw.get("ended", []))
    elif "ended" in raw:
        yield "bad-tree-checkpoint", f"{where} has ended trees but is not a dual pair"


def _tree_findings(where: str, spec: AggregateSpec, trees: Any) -> Iterator[Tuple[str, str]]:
    """A view's per-group tree checkpoints ``[key, segments]``, each the
    coalesced step function a save writes: segments sorted, disjoint,
    each a value of *spec* other than ``v0``, no two abutting ones
    equal."""
    if not isinstance(trees, list):
        yield "bad-tree-checkpoint", f"{where}: trees is not a list"
        return
    groups: set = set()
    for entry in trees:
        problem = _tree_problem(spec, entry, groups)
        if problem is not None:
            yield "bad-tree-checkpoint", f"{where}: {problem}"


def _tree_problem(spec: AggregateSpec, entry: Any, groups: set) -> Optional[str]:
    if not (isinstance(entry, list) and len(entry) == 2) or isinstance(entry[0], (list, dict)) \
            or not isinstance(entry[1], list):
        return "a tree checkpoint entry is malformed"
    key, segments = entry
    if key in groups:
        return f"group {key!r} appears twice"
    groups.add(key)
    last_end = last_value = None
    for segment in segments:
        if not (isinstance(segment, list) and len(segment) == 3):
            return f"group {key!r}: a segment is malformed"
        value, start, end = segment
        if isinstance(value, list):
            value = tuple(value)  # an AVG pair
        if not (_number(start) and _number(end) and start < end) \
                or (last_end is not None and start < last_end):
            problem = "is empty or out of order"
        elif not _holds(spec, value):
            problem = f"holds {value!r}, not a {spec.kind.value} value"
        elif spec.is_initial(value):
            problem = "holds v0"
        elif start == last_end and spec.eq(value, last_value):
            problem = "equals the segment before it"
        else:
            last_end, last_value = end, value
            continue
        return f"group {key!r}: segment [{start}, {end}) {problem}"
    return None


def _holds(spec: AggregateSpec, value: Any) -> bool:
    """Whether *value* can be an internal value of *spec*'s trees: a
    number for SUM and COUNT, a pair of numbers for AVG, anything for
    MIN and MAX (whatever the facts compared)."""
    if spec.kind is AggregateKind.AVG:
        return isinstance(value, tuple) and len(value) == 2 and all(map(_number, value))
    return _number(value) or not spec.invertible


def audit(path: str) -> FsckReport:
    """The findings of the checkpoint at *path* (what ``repro fsck``
    reports): the audit :func:`load` runs, leftover temp files of an
    interrupted save, and -- when the checkpoint fails -- whether
    ``.prev`` passes the same audit, so a non-strict load falls back to
    it."""
    report = FsckReport(path)
    if not os.path.exists(path):
        report.add("error", "missing-file", f"no such checkpoint: {path!r}")
        return report
    for leftover in (path + ".tmp", path + ".prev.tmp"):
        if os.path.exists(leftover):
            report.add("warning", "leftover-temp", f"leftover {leftover!r} from an "
                       "interrupted save: the next load removes it, never adopts it")
    _read(path, report)
    # A version this code does not know is refused, not fallen back from.
    if report.ok or report.has("bad-version"):
        return report
    prev = path + ".prev"
    if os.path.exists(prev):
        prev_report = FsckReport(prev)
        _read(prev, prev_report)
        if prev_report.ok:
            report.add("info", "prev-restorable", f"previous checkpoint {prev!r} "
                       "passes the audit; a non-strict load falls back to it")
        else:
            report.add("error", "prev-unrestorable", f"previous checkpoint {prev!r} "
                       f"fails the audit too ({prev_report.errors()[0]}); nothing restores")
    return report


def _restored(catalog, path: str):
    """The tables, views and order of the checkpoint at *path*, built
    beside *catalog*'s live ones once it passes the audit."""
    report = FsckReport(path)
    payload = _read(path, report)
    errors = report.errors()
    if report.has("bad-version"):
        raise CatalogCheckpointError(f"{errors[0].message} in {path}")
    if errors:
        raise ValueError("; ".join(str(finding) for finding in errors[:3]))
    return _build(catalog, payload)


def load(catalog) -> None:
    """Restore *catalog* from its checkpoint: logs, rows (only of a view
    some view consumes) and trees, so refresh resumes from the saved
    watermarks.  The restored catalog is built before it replaces the
    live one.  A checkpoint that cannot be read or fails the audit is
    corrupt: under ``strict`` that raises :class:`CatalogCheckpointError`,
    otherwise ``.prev`` restores instead, and only when *neither* does
    the error propagate.  A leftover ``.tmp`` file is never adopted.
    Any other error raised while restoring is a fault of the code, and
    propagates."""
    corrupt = (OSError, ValueError, KeyError)
    with catalog._lock:
        path = _path(catalog)
        try:
            restored = _restored(catalog, path)
        except corrupt as main_error:
            if catalog.strict:
                raise CatalogCheckpointError(
                    f"corrupt or unreadable catalog checkpoint {path}: {main_error}"
                ) from main_error
            try:
                restored = _restored(catalog, path + ".prev")
            except corrupt as prev_error:
                raise CatalogCheckpointError(
                    f"catalog checkpoint {path} is corrupt or unreadable "
                    f"({main_error}) and no previous checkpoint could be "
                    f"restored ({prev_error})"
                ) from main_error
            obs.count("views.ckpt.fallbacks")
        # A crash mid-save can leave temp files behind; they are
        # superseded by whichever checkpoint just restored.
        for leftover in (path + ".tmp", path + ".prev.tmp"):
            try:
                os.remove(leftover)
            except OSError:
                pass
        catalog._tables, catalog._views, catalog._order = restored
        catalog._recount_readers()


def _log(raw: Dict[str, Any]):
    log = dynamic.ChangeLog()
    log.head, log.base = raw.get("head", 0), raw.get("base", 0)
    log.records = [dynamic.LogRecord(seq, kind, value, start, end, dict(payload), float(at))
                   for seq, kind, value, start, end, payload, at in raw.get("records", ())]
    return log


def _restore_relation(relation: TemporalRelation, rows: List[List[Any]]) -> None:
    relation.restore(
        (tid, value, Interval(start, end), payload)
        for tid, value, start, end, payload in rows
    )


def _build(catalog, payload: Dict[str, Any]):
    """Build an audited checkpoint's nodes beside *catalog*'s.  A row or
    a log restores silently (a relation's ``restore`` notifies no
    subscriber), so nothing restored is emitted downstream again."""
    tables: Dict[str, Any] = {}
    views: Dict[str, Any] = {}
    order = payload.get("order", [])
    raw_tables = payload.get("tables", {})
    raw_views = payload.get("views", {})
    # A checkpoint in the older form holds rows for every view; those
    # of a view nothing consumes would go stale at its next refresh, so
    # they are not restored.
    consumed = {src for raw in raw_views.values() for src in raw["sources"]}
    for name in order:
        if name in raw_tables:
            raw = raw_tables[name]
            node = dynamic._BaseNode(name, TemporalRelation(name), catalog.clock)
            _restore_relation(node.relation, raw["rows"])
            node._tap.log = node.log = _log(raw["log"])
            tables[name] = node
        else:
            raw = raw_views[name]
            view = dynamic.DynamicView(
                name, list(raw["sources"]), raw["kind"],
                key=raw.get("key"), lag=dynamic.parse_lag(raw["lag"]),
                window=dynamic.parse_window(raw.get("window", 0)),
                clock=catalog.clock, **catalog._tree_args,
            )
            _restore_rows(view, raw["rows"] if name in consumed else [])
            view._tap.log = view.log = _log(raw["log"])
            view.watermarks = dict(raw.get("watermarks", {}))
            for src in view.sources:
                view.watermarks.setdefault(src, 0)
            view.refreshes = raw.get("refreshes", 0)
            view.events_consumed = raw.get("events_consumed", 0)
            view.quarantined = bool(raw.get("quarantined", False))
            view.last_error = None if raw.get("last_error") is None else str(raw["last_error"])
            _restore_trees(view, raw["trees"])
            _restore_trees(view, raw.get("ended", ()), part=1)
            views[name] = view
    return tables, views, list(order)


def _restore_rows(view, rows: List[List[Any]]) -> None:
    _restore_relation(view.relation, rows)
    grouped: Dict[Hashable, list] = {}
    for row in view.relation:
        grouped.setdefault(view._key_of(row.payload), []).append(row)
    for key, members in grouped.items():
        view._tree(key)  # ensure the per-group row index exists
        members.sort(key=lambda row: row.valid.start)
        view._index[key] = ([row.valid.start for row in members], members)


def _restore_trees(view, raw_trees: Sequence[List[Any]], part: int = 0) -> None:
    """Rebuild a restored view's trees (part 1: the ``T'`` of its dual
    pairs): each segment re-applies as one effect, one batch per tree,
    AVG pairs as tuples.  An MSB-tree needs nothing else: its extremum
    over a window is that of the step function over it."""
    for key, segments in raw_trees:
        dynamic._trees_of(view._tree(key))[part].insert_effects(
            (tuple(value) if isinstance(value, list) else value, Interval(start, end))
            for value, start, end in segments
        )
        view.saved.seed((part, key), segments)
