"""Observability: tracing spans + process-wide metrics (DESIGN.md §8).

Instrument with :func:`span`/:func:`incr`; enable with
:func:`obs_session` (driver) or :func:`worker_collection` (pool
workers); everything is a near-free no-op while disabled.
"""

from .api import (
    METRICS_MODES,
    Observability,
    active_registry,
    annotate,
    configure,
    current,
    detach,
    enabled,
    in_span,
    incr,
    max_gauge,
    merge_registry,
    obs_session,
    observe,
    shutdown,
    span,
    worker_collection,
)
from .registry import DEFAULT_BOUNDS, Histogram, MetricsRegistry
from .sinks import JsonlSink, NullSink, SummarySink
from .span import NULL_SPAN, Span

__all__ = [
    "DEFAULT_BOUNDS",
    "METRICS_MODES",
    "NULL_SPAN",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NullSink",
    "Observability",
    "Span",
    "SummarySink",
    "active_registry",
    "annotate",
    "configure",
    "current",
    "detach",
    "enabled",
    "in_span",
    "incr",
    "max_gauge",
    "merge_registry",
    "obs_session",
    "observe",
    "shutdown",
    "span",
    "worker_collection",
]
