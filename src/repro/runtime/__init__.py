"""Persistent worker-pool runtime (long-lived shard & gateway workers).

See :mod:`repro.runtime.pool` for the pool protocol and
:mod:`repro.runtime.ring` for the shared-memory packet ring.
"""

from repro.runtime.pool import (
    DEFAULT_MAX_INFLIGHT,
    GatewayWorkerPool,
    PoolBurst,
    PoolUnavailableError,
    ShardWorkerPool,
    WorkerPool,
    WorkerPoolError,
    fork_available,
    fork_context,
)
from repro.runtime.ring import (
    DEFAULT_RING_BYTES,
    PacketRing,
    RingCodecError,
    decode_batch,
    encode_batch,
    encode_packet,
)

__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_RING_BYTES",
    "GatewayWorkerPool",
    "PacketRing",
    "PoolBurst",
    "PoolUnavailableError",
    "RingCodecError",
    "ShardWorkerPool",
    "WorkerPool",
    "WorkerPoolError",
    "decode_batch",
    "encode_batch",
    "encode_packet",
    "fork_available",
    "fork_context",
]
