"""Sharded, fault-tolerant out-of-core SAT on a worker pool.

The SKSS look-back carries let tiles compose without a global barrier; the
same algebra composes one level up, letting band shards on separate
processes be stitched with the exact :class:`BandCarrySet` column sums
``OutOfCoreSAT`` threads between bands.  This package is that idea made
operational: a coordinator (:func:`distributed_sat`, whose result reports
its run's :class:`BandCarrySet`), a byte-level work-queue protocol, pluggable
transports (deterministic in-process / real ``multiprocessing``),
checkpointed carries, and a deterministic fault-injection seam
(:class:`FaultPlan`) so recovery is testable rather than anecdotal.

See ARCHITECTURE.md ("Sharded and distributed execution") for the carry
diagram, the checkpoint format and the fault seam.
"""

from repro.distsat.checkpoint import CheckpointStore
from repro.distsat.coordinator import (BandCarrySet, DistributedResult,
                                      distributed_sat)
from repro.distsat.protocol import FaultAction, FaultPlan, checksum, \
    shard_bounds
from repro.distsat.sources import BandSource, MatrixSource, SyntheticSource
from repro.distsat.transport import InlineTransport, ProcessTransport

__all__ = [
    "BandCarrySet",
    "BandSource",
    "CheckpointStore",
    "DistributedResult",
    "FaultAction",
    "FaultPlan",
    "InlineTransport",
    "MatrixSource",
    "ProcessTransport",
    "SyntheticSource",
    "checksum",
    "distributed_sat",
    "shard_bounds",
]
