"""Constant-interval result tables.

The result of a temporal aggregate is a table of ``(value, interval)``
rows where the value is constant over each interval (Figures 3--6 of the
paper).  :class:`ConstantIntervalTable` is that table: a sorted,
contiguous step function over (a sub-range of) the time line.  All query
paths -- SB-tree reconstruction, baselines, the reference oracle -- emit
this type, which makes cross-checking them trivial.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .intervals import Interval, NEG_INF, POS_INF, Time, coalesce_pairs
from .values import AggregateSpec, spec_for

__all__ = [
    "ConstantIntervalTable",
    "finalized_rows",
    "merge_step_functions",
    "trim_initial",
]


class ConstantIntervalTable:
    """A step function represented as sorted, contiguous (value, interval) rows.

    Rows must be sorted by start and contiguous (each row starts where the
    previous one ends).  Adjacent rows may carry equal values unless the
    table has been :meth:`coalesce`\\ d.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Tuple[Any, Interval]] = ()):
        self.rows: List[Tuple[Any, Interval]] = list(rows)
        self._check()

    def _check(self) -> None:
        for (_, prev), (_, cur) in zip(self.rows, self.rows[1:]):
            if prev.end != cur.start:
                raise ValueError(
                    f"rows are not contiguous: {prev} then {cur}"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[Any, Interval]]) -> "ConstantIntervalTable":
        """Build a table from already-sorted contiguous pairs."""
        return cls(pairs)

    @classmethod
    def from_steps(
        cls, edges: Sequence[Time], values: Sequence[Any]
    ) -> "ConstantIntervalTable":
        """Build a table from a flat step function: row k is ``values[k]``
        over ``[edges[k], edges[k + 1])`` (what
        :meth:`~repro.core.sbtree.SBTree.steps` returns).  Rows that share
        their edges are contiguous by construction, so they are not
        checked again."""
        table = cls.__new__(cls)
        table.rows = [
            (value, Interval(a, b)) for value, a, b in zip(values, edges, edges[1:])
        ]
        return table

    @classmethod
    def from_boundaries(
        cls,
        boundaries: Sequence[Time],
        value_at: Callable[[Time], Any],
        lo: Time = NEG_INF,
        hi: Time = POS_INF,
    ) -> "ConstantIntervalTable":
        """Build a table over ``[lo, hi)`` split at the given finite boundaries.

        ``value_at(t)`` is sampled once at the start of each piece (any
        instant of the piece would do, the function is constant there by
        assumption).  For the unbounded leading piece it is sampled just
        left of the first boundary.
        """
        cuts = sorted({b for b in boundaries if lo < b < hi})
        edges = [lo] + cuts + [hi]
        rows = []
        for a, b in zip(edges, edges[1:]):
            if a == NEG_INF:
                sample = (b - 1) if b != POS_INF else 0
            else:
                sample = a
            rows.append((value_at(sample), Interval(a, b)))
        return cls(rows)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def value_at(self, t: Time) -> Any:
        """Return the value of the step function at instant *t*, in
        O(log r): a binary search over the row starts."""
        rows = self.rows
        lo, hi = 0, len(rows)
        while lo < hi:  # bisect_right over the starts, read in place
            mid = (lo + hi) // 2
            if t < rows[mid][1].start:
                hi = mid
            else:
                lo = mid + 1
        if lo == 0 or not rows[lo - 1][1].contains(t):
            raise KeyError(f"instant {t} outside table domain")
        return rows[lo - 1][0]

    def restrict(self, window: Interval) -> "ConstantIntervalTable":
        """Return the table clipped to *window*."""
        rows = []
        for value, interval in self.rows:
            clipped = interval.intersection(window)
            if clipped is not None:
                rows.append((value, clipped))
        return ConstantIntervalTable(rows)

    def coalesce(self, equal: Optional[Callable[[Any, Any], bool]] = None) -> "ConstantIntervalTable":
        """Return a copy with adjacent equal-valued rows merged."""
        if equal is None:
            equal = lambda a, b: a == b
        return ConstantIntervalTable(coalesce_pairs(self.rows, equal))

    def drop_value(self, value: Any) -> "ConstantIntervalTable":
        """Return a (possibly non-contiguous!) list of rows without *value*.

        Used to strip the "harmless" leading/trailing ``v0`` rows of a
        full reconstruction (Section 3.2).  Returns a plain table whose
        contiguity check is skipped via filtering at the edges only when
        safe; interior drops are not expected and raise.
        """
        rows = [row for row in self.rows if row[0] != value]
        return ConstantIntervalTable(rows)

    def mapped(self, fn: Callable[[Any], Any]) -> "ConstantIntervalTable":
        """Return a copy with *fn* applied to every value (e.g. AVG finalize)."""
        return ConstantIntervalTable((fn(v), i) for v, i in self.rows)

    def finalized(self, spec: AggregateSpec) -> "ConstantIntervalTable":
        """Return a copy with values converted to their user-facing form."""
        spec = spec_for(spec)
        return self.mapped(spec.finalize)

    # ------------------------------------------------------------------
    # Dunders
    # ------------------------------------------------------------------
    def sample(self, start: Time, stop: Time, step: Time) -> Iterator[Tuple[Time, Any]]:
        """Yield ``(t, value)`` at regular instants -- a dashboard series.

        Instants outside the table's domain yield ``None`` rather than
        raising, so sparse tables sample cleanly.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        t = start
        while t < stop:
            try:
                yield t, self.value_at(t)
            except KeyError:
                yield t, None
            t += step

    @property
    def span(self) -> Optional[Interval]:
        """The interval covered by the table (None when empty)."""
        if not self.rows:
            return None
        return Interval(self.rows[0][1].start, self.rows[-1][1].end)

    def __iter__(self) -> Iterator[Tuple[Any, Interval]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstantIntervalTable):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return f"ConstantIntervalTable({self.rows!r})"

    def pretty(self, value_header: str = "value") -> str:
        """Render the table the way the paper's figures do."""
        lines = [f"{value_header:>12}  valid"]
        for value, interval in self.rows:
            shown = value
            if isinstance(value, float):
                shown = f"{value:.2f}"
            lines.append(f"{str(shown):>12}  {interval}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # CSV interchange
    # ------------------------------------------------------------------
    def to_csv(self, handle) -> None:
        """Write ``value,start,end`` rows (with header) to a file object.

        Infinite endpoints serialize as ``-inf`` / ``inf``; AVG pairs
        should be finalized first (tuples are rejected).
        """
        import csv as _csv

        writer = _csv.writer(handle)
        writer.writerow(["value", "start", "end"])
        for value, interval in self.rows:
            if isinstance(value, tuple):
                raise ValueError("finalize AVG pairs before exporting to CSV")
            writer.writerow([value, interval.start, interval.end])

    @classmethod
    def from_csv(cls, handle) -> "ConstantIntervalTable":
        """Read a table previously written by :meth:`to_csv`."""
        import csv as _csv

        def convert(text: str):
            if text == "":
                return None
            number = float(text)
            if number in (POS_INF, NEG_INF):
                return number
            return int(number) if number == int(number) else number

        reader = _csv.DictReader(handle)
        rows = [
            (
                convert(line["value"]),
                Interval(convert(line["start"]), convert(line["end"])),
            )
            for line in reader
        ]
        return cls(rows)


def trim_initial(table: "ConstantIntervalTable", spec) -> "ConstantIntervalTable":
    """Strip leading and trailing rows that carry the initial value ``v0``.

    The paper calls these the "harmless tuples" of a full reconstruction
    (Section 3.2); every result-table producer in this package trims
    them the same way so tables compare exactly.
    """
    spec = spec_for(spec)
    rows = table.rows
    start = 0
    end = len(rows)
    while start < end and spec.is_initial(rows[start][0]):
        start += 1
    while end > start and spec.is_initial(rows[end - 1][0]):
        end -= 1
    return ConstantIntervalTable(rows[start:end])


def finalized_rows(
    edges: Sequence[Time], values: Sequence[Any], spec: AggregateSpec
) -> List[List[Any]]:
    """Coalesce and finalize a flat step function in one pass.

    Returns ``[value, start, end]`` per maximal run of ``spec.eq``-equal
    values, the value finalized: exactly the rows of
    ``ConstantIntervalTable.from_steps(edges, values).coalesce(spec.eq)
    .finalized(spec)``, with no table or interval built on the way (the
    served ``rangeq`` reply).
    """
    eq, finalize = spec.eq, spec.finalize
    rows: List[List[Any]] = []
    if not values:
        return rows
    run, start = values[0], edges[0]
    for k in range(1, len(values)):
        value = values[k]
        if not eq(run, value):
            edge = edges[k]
            rows.append([finalize(run), start, edge])
            run, start = value, edge
    rows.append([finalize(run), start, edges[-1]])
    return rows


def merge_step_functions(
    tables: Sequence[ConstantIntervalTable],
    combine: Callable[..., Any],
    window: Interval,
) -> ConstantIntervalTable:
    """Pointwise-combine several step functions over *window*.

    Used by the dual-tree range query (Section 4.2): the cumulative
    aggregate is ``acc(T(t), diff(T'(t), T'(t - w)))``, a pointwise
    combination of three step functions.  The result's breakpoints are
    the union of the inputs' breakpoints inside *window*.
    """
    cuts: set = set()
    for table in tables:
        for _, interval in table.rows:
            for endpoint in (interval.start, interval.end):
                if window.start < endpoint < window.end:
                    cuts.add(endpoint)
    edges = [window.start] + sorted(cuts) + [window.end]
    rows = []
    for a, b in zip(edges, edges[1:]):
        if a == NEG_INF:
            sample = (b - 1) if b != POS_INF else 0
        else:
            sample = a
        rows.append((combine(*(t.value_at(sample) for t in tables)), Interval(a, b)))
    return ConstantIntervalTable(rows)
