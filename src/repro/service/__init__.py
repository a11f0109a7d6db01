"""The serving layer: concurrent query execution over a shared index.

Everything the library needs to go from "a correct index" to "a service
under load": one turn at a time per index, behind admission control and
per-query deadlines (:class:`QueryService`), an epoch-invalidated result cache
(:class:`QueryResultCache`), and the metrics a serving tier reports
(:class:`MetricsRegistry`).  See ``docs/api.md`` ("Serving layer") for
the architecture sketch.
"""

from repro.service.admission import AdmissionController
from repro.service.cache import QueryResultCache
from repro.service.errors import (
    AnswerDegraded,
    QueryTimeout,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
)
from repro.service.metrics import Gauge, Histogram, MetricCounter, MetricsRegistry
from repro.service.service import QueryService, ServiceConfig

__all__ = [
    "AdmissionController",
    "QueryResultCache",
    "ServiceError",
    "ServiceOverloaded",
    "QueryTimeout",
    "ServiceClosed",
    "AnswerDegraded",
    "MetricCounter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryService",
    "ServiceConfig",
]
