"""The simulated network seam: scripted faults, virtual time, zero sockets.

The deterministic simulation harness cannot open real sockets (real I/O
means real time and real nondeterminism), but the ISSUE-level claim it
must check is about the *real* request pipeline: faults on the wire may
produce errors or retries, never wrong answers.  So this module runs
the genuine :class:`~repro.net.server.ConnectionCore` — the exact
dispatch/auth/admission/deadline code the TCP front end runs — over an
in-memory transport whose failures are **scripted in the trace step**
rather than drawn from ambient randomness.

Fault vocabulary (one per connection attempt, consumed in order; an
exhausted script means healthy attempts forever):

- ``"ok"`` — the attempt succeeds.
- ``"drop"`` — the connect itself is refused.
- ``"reset_send"`` — the connection dies before the request is sent;
  the server never sees it.
- ``"reset_recv"`` — the server executes the request but the response
  is lost and the connection resets: the at-least-once case, safe for
  the read-only queries the fuzzer sends.
- ``"truncate_response"`` — the response is cut mid-frame (a torn
  frame must surface as :class:`~repro.net.errors.ConnectionLost`,
  never as a short result list).
- ``"delay"`` — virtual time passes before the response arrives.

Every part of a run is a pure function of the trace: the client sleeps
on the :class:`~repro.simtest.clock.SimClock`, the server stamps
latencies from the same clock, and the transport introduces no
randomness of its own.

The same philosophy covers the cluster's shard fan-out:
:class:`SimShardChannel` plugs into the
:class:`~repro.cluster.service.ShardChannel` transport seam and
afflicts individual scatter-gather attempts — per-replica scripted
faults plus whole-shard network partitions — so the simtest harness
can fuzz degraded answers and deadline slices under virtual time.
"""

from __future__ import annotations

import io
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.cluster.replica import ReplicaFault, ShardReplica
from repro.cluster.service import ShardChannel
from repro.net.client import Client
from repro.net.errors import ConnectionLost
from repro.net.protocol import MAX_FRAME_BYTES, encode_frame, read_frame
from repro.net.server import ConnectionCore
from repro.net.tenants import TenantDirectory
from repro.service.metrics import MetricsRegistry

if TYPE_CHECKING:  # imported lazily: repro.simtest.harness imports us
    from repro.model.query import TopKQuery
    from repro.model.results import ScoredDoc
    from repro.simtest.clock import SimClock

__all__ = [
    "FAULTS",
    "SHARD_FAULTS",
    "SimNetServer",
    "SimShardChannel",
    "SimTransport",
    "sim_client",
]

FAULTS = ("ok", "drop", "reset_send", "reset_recv", "truncate_response", "delay")

_DELAY_S = 0.017  # virtual seconds a "delay" fault adds before the response


class SimNetServer:
    """A :class:`ConnectionCore`-compatible server without sockets.

    Quacks exactly like :class:`~repro.net.server.NetServer` for the
    request path — ``backend``, ``tenants``, ``metrics``, ``clock``,
    ``closed``, ``health()`` — so the core runs unmodified.  The
    harness builds one over its simulated :class:`QueryService` and
    dials it through :func:`sim_client`.
    """

    def __init__(
        self,
        target,
        clock: SimClock,
        tenants: Optional[TenantDirectory] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> None:
        self.backend = target
        self.clock = clock
        self.tenants = (
            tenants if tenants is not None
            else TenantDirectory.open(clock=clock)
        )
        self.metrics = metrics if metrics is not None else target.metrics
        self.max_frame = max_frame
        self.closed = False

    def health(self) -> Dict:
        return {"status": "closing" if self.closed else "ok", "sim": True}


class SimTransport:
    """One in-memory connection: client bytes in, response bytes out.

    Implements the client transport contract (``sendall`` / ``recv`` /
    ``close``).  ``sendall`` carries whole frames, as :class:`Client`
    always sends them, and the server side parses them with
    :func:`~repro.net.protocol.read_frame`, the parser of the TCP
    server.  Requests are answered synchronously — by the time
    ``sendall`` returns, the full response (or its scripted mutilation)
    sits in the read buffer.
    """

    def __init__(self, server: SimNetServer, fault: str = "ok") -> None:
        if fault not in FAULTS:
            raise ValueError(f"unknown fault {fault!r}; choose from {FAULTS}")
        self._server = server
        self._fault = fault
        self._core = ConnectionCore(server)
        self._buffer = bytearray()
        self._broken = False
        self._closed = False

    def sendall(self, data: bytes) -> None:
        if self._broken or self._closed:
            raise ConnectionResetError("simulated connection is gone")
        if self._fault == "reset_send":
            # Dies before any byte reaches the server: the request was
            # never executed, so a retry is trivially safe.
            self._broken = True
            raise ConnectionResetError("simulated reset before send")
        read = io.BytesIO(data).read
        while (payload := read_frame(read, self._server.max_frame)) is not None:
            if self._fault == "delay":
                self._server.clock.advance(_DELAY_S)
            response = encode_frame(
                self._core.handle(payload), self._server.max_frame
            )
            if self._fault == "reset_recv":
                # Executed server-side, response lost on the way back.
                self._broken = True
                return
            if self._fault == "truncate_response":
                self._buffer.extend(response[: max(1, len(response) // 2)])
                self._closed = True  # EOF mid-frame after the fragment
                return
            self._buffer.extend(response)

    def recv(self, n: int) -> bytes:
        if self._buffer:
            take = bytes(self._buffer[:n])
            del self._buffer[:n]
            return take
        if self._broken:
            raise ConnectionResetError("simulated reset")
        return b""  # clean EOF (closed or nothing outstanding)

    def close(self) -> None:
        self._closed = True
        self._core.close()


def sim_client(
    server: SimNetServer,
    key: Optional[str] = None,
    faults: Sequence[str] = (),
    clock: Optional[SimClock] = None,
    **kwargs,
) -> Client:
    """A :class:`Client` wired to ``server`` through scripted faults.

    ``faults[i]`` afflicts the client's *i*-th connection attempt; once
    the script runs out, connections are healthy.  ``retries`` defaults
    to the script length so a script ending in ``"ok"`` is guaranteed
    to converge.  The client's clock and sleeper are the simulation's —
    backoff passes virtual time only.
    """
    clk = clock if clock is not None else server.clock
    script: List[str] = list(faults)

    def connect() -> SimTransport:
        fault = script.pop(0) if script else "ok"
        if fault == "drop":
            raise ConnectionLost("simulated connect refused")
        return SimTransport(server, fault)

    kwargs.setdefault("retries", max(2, len(faults)))
    kwargs.setdefault("backoff_s", 0.001)
    return Client(
        key=key,
        connect_factory=connect,
        clock=clk,
        sleeper=clk.sleep,
        **kwargs,
    )


# Shard-level fault vocabulary (one per scatter attempt, consumed in
# order; an exhausted script means healthy attempts forever).  A
# flapping replica is a script that alternates, e.g.
# ``["reset", "ok", "reset"]``; a full network partition of a shard
# group is the ``partition`` list of a plan — every attempt against
# those shards fails unconditionally, scripts notwithstanding.
SHARD_FAULTS = ("ok", "drop", "reset", "truncate", "delay")

_SHARD_FAULT_REASONS = {
    "drop": "chaos: connect refused",
    "reset": "chaos: connection reset mid-request",
    # At this seam a torn frame is already *detected* (the byte-level
    # proof that truncation surfaces as ConnectionLost, never a short
    # result list, lives in SimTransport above): the channel models
    # the aftermath — the attempt fails and fails over.
    "truncate": "chaos: response truncated mid-frame",
}

# Virtual seconds an unbounded stalled attempt burns before the channel
# gives up on its behalf.  Attempts carrying a deadline slice stall
# exactly min(slice, stall) — the client-side timer fires at the slice
# boundary, which is what keeps scatter-no-hang meaningful.
_SHARD_STALL_S = 30.0


class SimShardChannel(ShardChannel):
    """Scripted fault injection on the cluster's shard-transport seam.

    One *plan* — installed per trace step with :meth:`set_plan`,
    removed with :meth:`clear_plan` so every step stays self-contained
    and ddmin-shrinkable — holds two ingredients:

    - ``scripts``: per-replica fault scripts keyed ``"<shard>:<rid>"``,
      consumed one entry per scatter attempt (vocabulary in
      :data:`SHARD_FAULTS`; exhausted script = healthy).
    - ``partitioned``: shard ids cut off entirely — every search
      attempt *and* every router bounds read against them raises, on
      every replica, modelling a network partition of the shard group.

    ``delay`` advances the :class:`SimClock` to the end of the
    attempt's deadline slice (or :data:`_SHARD_STALL_S` when the
    attempt is unbounded) and then raises — a reply that missed its
    slice.  All other faults are instantaneous.
    """

    def __init__(self, clock: "SimClock", stall: float = _SHARD_STALL_S) -> None:
        self._clock = clock
        self._stall = stall
        self._scripts: Dict[str, List[str]] = {}
        self._partitioned: frozenset = frozenset()
        self.faults_injected = 0

    def set_plan(
        self,
        scripts: Optional[Mapping[str, Sequence[str]]] = None,
        partitioned: Iterable[int] = (),
    ) -> None:
        """Arm one step's fault plan (replacing any previous plan)."""
        self._scripts = {}
        for key, script in (scripts or {}).items():
            for fault in script:
                if fault not in SHARD_FAULTS:
                    raise ValueError(
                        f"unknown shard fault {fault!r}; "
                        f"choose from {SHARD_FAULTS}"
                    )
            self._scripts[str(key)] = list(script)
        self._partitioned = frozenset(int(sid) for sid in partitioned)

    def clear_plan(self) -> None:
        """Disarm: back to a healthy, direct channel."""
        self._scripts = {}
        self._partitioned = frozenset()

    def _next_fault(self, replica: ShardReplica) -> str:
        script = self._scripts.get(f"{replica.shard_id}:{replica.replica_id}")
        if script:
            return script.pop(0)
        return "ok"

    def search(
        self,
        replica: ShardReplica,
        query: "TopKQuery",
        timeout: Optional[float],
    ) -> List["ScoredDoc"]:
        sid, rid = replica.shard_id, replica.replica_id
        if sid in self._partitioned:
            self.faults_injected += 1
            raise ReplicaFault(sid, rid, "chaos: network partition")
        fault = self._next_fault(replica)
        if fault == "ok":
            return super().search(replica, query, timeout)
        self.faults_injected += 1
        if fault == "delay":
            stall = (
                self._stall if timeout is None else min(timeout, self._stall)
            )
            self._clock.advance(stall)
            raise ReplicaFault(
                sid, rid, f"chaos: reply missed its {stall:g}s slice"
            )
        raise ReplicaFault(sid, rid, _SHARD_FAULT_REASONS[fault])

    def keyword_bounds(
        self,
        replica: ShardReplica,
        words: Tuple[str, ...],
    ) -> Dict[str, float]:
        if replica.shard_id in self._partitioned:
            self.faults_injected += 1
            raise ReplicaFault(
                replica.shard_id,
                replica.replica_id,
                "chaos: network partition (bounds read)",
            )
        return super().keyword_bounds(replica, words)
