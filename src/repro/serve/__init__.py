"""Streaming reputation service: events in, live reputations out.

``repro.serve`` turns the batch reproduction into a long-lived service:
a :class:`ReputationService` holds one scenario's reputation state live,
applies typed events (:class:`RatingEvent`, :class:`InteractionEvent`,
:class:`ChurnEvent`) through the incremental ledgers, runs the detector
+ damping + inner update at interval watermarks, and answers
:class:`QueryRequest` reads from the live caches — with backpressure,
load-shedding and latency metrics in the :mod:`repro.obs` registry, and
mid-stream checkpoint/restore through the chaos codec.

The replay toolchain (:func:`record_scenario_events`,
:func:`replay_events`) pins the core guarantee: streaming a recorded
scenario event-by-event reproduces the batch run's reputation vectors
bit-identically at every watermark.
"""

from repro.serve.events import (
    EVENT_SCHEMA_VERSION,
    ChurnEvent,
    Event,
    EventDecodeError,
    InteractionEvent,
    QueryRequest,
    QueryResult,
    RatingEvent,
    WatermarkEvent,
    decode_event,
    encode_event,
    read_event_stream,
    write_event_stream,
)
from repro.serve.recorder import RecordedStream, record_scenario_events
from repro.serve.replay import (
    ReplayReport,
    compare_histories,
    replay_events,
    replay_recorded,
    replay_report,
)
from repro.serve.service import EventRejected, ReputationService, ServiceError

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "ChurnEvent",
    "Event",
    "EventDecodeError",
    "EventRejected",
    "InteractionEvent",
    "QueryRequest",
    "QueryResult",
    "RatingEvent",
    "RecordedStream",
    "ReplayReport",
    "ReputationService",
    "ServiceError",
    "WatermarkEvent",
    "compare_histories",
    "decode_event",
    "encode_event",
    "read_event_stream",
    "record_scenario_events",
    "replay_events",
    "replay_recorded",
    "replay_report",
    "write_event_stream",
]
