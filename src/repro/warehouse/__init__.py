"""Temporal data warehouse: maintained views and direct materialization."""

from .dynamic import (
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
from .view import ANY_WINDOW, TemporalAggregateView

__all__ = [
    "ANY_WINDOW",
    "DOWNSTREAM",
    "ChangeLog",
    "CycleError",
    "DynamicCatalog",
    "DynamicView",
    "MaterializedView",
    "TemporalAggregateView",
    "ViewDependencyError",
    "ViewReading",
    "parse_lag",
]
