"""The network serving tier: RPC server, client library, multi-tenant admission.

Layers (bottom-up):

- :mod:`repro.net.protocol` — length-prefixed JSON framing with hard
  size limits; query/result wire codecs chosen for byte-exact float
  round-trips.
- :mod:`repro.net.errors` — typed failures mirrored on both wire ends;
  the ``retryable`` contract the client's retry loop trusts.
- :mod:`repro.net.tenants` — per-tenant API keys and quota-aware
  admission (token bucket over the service's pending-cap controller).
- :mod:`repro.net.server` — the threaded TCP front end plus the
  transport-agnostic :class:`~repro.net.server.ConnectionCore`.
- :mod:`repro.net.client` — the synchronous client with retries,
  backoff, and remaining-budget deadline propagation.
- :mod:`repro.net.httpserver` — ``/metrics`` and ``/healthz`` plumbing
  for the routes the server sniffs on its main port.
- :mod:`repro.net.sim` — deterministic in-memory transport with
  scripted fault injection for the simulation harness.

See ``docs/wire_protocol.md`` for the framing and schema contract.
"""

from repro.net.client import Client
from repro.net.errors import (
    ConnectionLost,
    DeadlineExceeded,
    FrameTooLarge,
    NetError,
    ProtocolError,
    QuotaExceeded,
    RemoteError,
    ServerClosed,
    ServerOverloaded,
    Unauthorized,
    error_from_payload,
)
from repro.net.protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION
from repro.net.server import ConnectionCore, NetServer, NetServerConfig
from repro.net.tenants import (
    TenantAdmissionController,
    TenantDirectory,
    TenantQuota,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "Client",
    "ConnectionCore",
    "ConnectionLost",
    "DeadlineExceeded",
    "FrameTooLarge",
    "NetError",
    "NetServer",
    "NetServerConfig",
    "ProtocolError",
    "QuotaExceeded",
    "RemoteError",
    "ServerClosed",
    "ServerOverloaded",
    "TenantAdmissionController",
    "TenantDirectory",
    "TenantQuota",
    "Unauthorized",
    "error_from_payload",
]
