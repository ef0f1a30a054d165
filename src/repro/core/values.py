"""Aggregate value algebra: ``acc``, ``diff``, ``v0`` and friends.

Section 3 of the paper defines, per aggregate kind:

* an *initial value* ``v0`` (Section 3.2),
* an *accumulation* function ``acc`` combining two aggregate values
  (Section 3.1),
* for invertible kinds, a *difference* function ``diff`` (Section 4.2),
* the *effect* of a base tuple on the aggregate (Section 3.3), and the
  negated effect that encodes a deletion (Section 3.4).

``AVG`` is carried everywhere as a ``(sum, count)`` pair because -- unlike
a single average -- the pair is incrementally maintainable; ``finalize``
turns it into the user-facing quotient.  ``MIN``/``MAX`` use ``None`` as
the special ``NULL`` identity with ``acc(NULL, x) = x``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import add, eq, sub
from typing import Any, Callable, Optional, Tuple

__all__ = ["AggregateKind", "AggregateSpec", "spec_for", "AvgPair"]

#: The internal representation of an AVG value: a (sum, count) pair.
AvgPair = Tuple[float, int]


class AggregateKind(enum.Enum):
    """The five aggregate functions supported by the paper."""

    SUM = "sum"
    COUNT = "count"
    AVG = "avg"
    MIN = "min"
    MAX = "max"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value.upper()


def _acc_avg(x: AvgPair, y: AvgPair) -> AvgPair:
    return (x[0] + y[0], x[1] + y[1])


def _acc_min(x: Any, y: Any) -> Any:
    if x is None:
        return y
    if y is None:
        return x
    return x if x <= y else y


def _acc_max(x: Any, y: Any) -> Any:
    if x is None:
        return y
    if y is None:
        return x
    return x if x >= y else y


def _diff_avg(x: AvgPair, y: AvgPair) -> AvgPair:
    return (x[0] - y[0], x[1] - y[1])


@dataclass(frozen=True)
class AggregateSpec:
    """The full value algebra for one aggregate kind.

    Instances are immutable singletons obtained through :func:`spec_for`.
    Tree code is written purely against this interface, so the same
    SB-tree implementation serves all five kinds.
    """

    kind: AggregateKind
    v0: Any
    acc: Callable[[Any, Any], Any]
    #: ``None`` for MIN/MAX, which are not incrementally invertible.
    diff: Optional[Callable[[Any, Any], Any]]

    # ------------------------------------------------------------------
    @property
    def invertible(self) -> bool:
        """Whether deletions (negative effects) are supported."""
        return self.diff is not None

    def effect(self, base_value: Any) -> Any:
        """Effect of inserting a base tuple with value *base_value* (Sec 3.3)."""
        if self.kind is AggregateKind.COUNT:
            return 1
        if self.kind is AggregateKind.AVG:
            return (base_value, 1)
        return base_value

    def negated_effect(self, base_value: Any) -> Any:
        """Effect of deleting a base tuple with value *base_value* (Sec 3.4)."""
        if not self.invertible:
            raise ValueError(
                f"{self.kind} aggregates are not incrementally maintainable "
                "under deletions"
            )
        return self.diff(self.v0, self.effect(base_value))

    #: Value equality (``operator.eq``), used for the ``imerge`` checks.
    eq = staticmethod(eq)

    def finalize(self, value: Any) -> Any:
        """Convert an internal value to its user-facing form.

        AVG pairs become a float quotient (``None`` when the count is
        zero); MIN/MAX ``NULL`` becomes ``None``; everything else passes
        through unchanged.
        """
        if self.kind is AggregateKind.AVG:
            total, count = value
            if count == 0:
                return None
            return total / count
        return value

    def is_initial(self, value: Any) -> bool:
        """Whether *value* equals the initial value ``v0``."""
        return self.eq(value, self.v0)


_SPECS = {
    # SUM and COUNT accumulate with the C operators: x + y and x - y.
    AggregateKind.SUM: AggregateSpec(AggregateKind.SUM, 0, add, sub),
    AggregateKind.COUNT: AggregateSpec(AggregateKind.COUNT, 0, add, sub),
    AggregateKind.AVG: AggregateSpec(AggregateKind.AVG, (0, 0), _acc_avg, _diff_avg),
    AggregateKind.MIN: AggregateSpec(AggregateKind.MIN, None, _acc_min, None),
    AggregateKind.MAX: AggregateSpec(AggregateKind.MAX, None, _acc_max, None),
}


def spec_for(kind) -> AggregateSpec:
    """Return the singleton :class:`AggregateSpec` for *kind*.

    *kind* may be an :class:`AggregateKind`, an existing spec (returned
    unchanged), or a case-insensitive name such as ``"sum"``.
    """
    if isinstance(kind, AggregateSpec):
        return kind
    if isinstance(kind, str):
        kind = AggregateKind(kind.lower())
    return _SPECS[kind]
