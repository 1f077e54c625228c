"""The distributed checking service: campaigns as jobs, shards as workers.

``repro serve`` runs a :class:`~repro.service.coordinator.Coordinator`;
``repro worker --connect`` adds capacity to it (elastically — workers
may join and leave mid-run); ``repro submit/status/result/cancel``
drive the job API through :class:`~repro.service.transport.ServiceClient`.
Results are bit-identical to local serial/sharded runs of the same
spec; see ``docs/service.md`` for the architecture, wire protocol, and
the failure model behind that guarantee.
"""

from repro import _lazy_exports

__all__ = [
    "ConnectionClosed",
    "Heartbeat",
    "JobError",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "SyncFrameIO",
    "current_rss_bytes",
    "discover_endpoint",
    "encode_frame",
    "format_bytes",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.service.heartbeat": [
        "Heartbeat",
        "current_rss_bytes",
        "format_bytes",
    ],
    "repro.service.jobs": ["JobError", "JobQueue", "JobRecord", "JobSpec"],
    "repro.service.protocol": [
        "ConnectionClosed",
        "ProtocolError",
        "SyncFrameIO",
        "encode_frame",
    ],
    "repro.service.transport": [
        "ServiceClient",
        "ServiceError",
        "discover_endpoint",
    ],
})
