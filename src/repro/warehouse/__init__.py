"""Temporal data warehouse: the view catalog and the paper's baseline.

:class:`DynamicCatalog` is the one view engine: named, durable views over
base tables and over each other, each indexed by the paper's trees
(instantaneous, or cumulative with ``window=``).
:class:`MaterializedView` is the direct materialization the paper
measures the SB-tree against.
"""

from .dynamic import (
    ANY_WINDOW,
    DOWNSTREAM,
    ChangeLog,
    CycleError,
    DynamicCatalog,
    DynamicView,
    ViewDependencyError,
    ViewReading,
    parse_lag,
)
from .materialized import MaterializedView

__all__ = [
    "ANY_WINDOW",
    "DOWNSTREAM",
    "ChangeLog",
    "CycleError",
    "DynamicCatalog",
    "DynamicView",
    "MaterializedView",
    "ViewDependencyError",
    "ViewReading",
    "parse_lag",
]
